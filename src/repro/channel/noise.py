"""Measurement impairments of commodity WiFi CSI.

Raw Intel 5300 CSI is far from the clean channel frequency response: each
packet carries a random common phase from residual carrier frequency offset
(CFO), a linear phase slope across subcarriers from sampling frequency offset
(SFO) and packet detection delay, an amplitude wobble from automatic gain
control (AGC), and thermal noise.  The paper calibrates the raw CSI "as in
[26]" (Sen et al.) to remove the phase artefacts; reproducing the impairments
here lets the calibration stage in :mod:`repro.csi.calibration` do real work.

The impairments are i.i.d. per packet, and every random quantity reads from
its own generator (:class:`ImpairmentStreams`).  :meth:`ImpairmentModel.apply`
draws each quantity for all packets of a call at once, in packet order, so
impairing packets in one call or split over consecutive calls on the same
streams gives byte-identical results.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from repro.backend import active_backend
from repro.utils.rng import SeedLike, derive_rng, ensure_rng


@dataclass(frozen=True)
class ImpairmentStreams:
    """One independent random stream per impairment quantity.

    Built once per owner (a simulator, a packet collector) with
    :meth:`derive`; each quantity consumes only its own generator, so
    switching one impairment off or drawing more packets of one kind never
    shifts the values of another.
    """

    phase: np.random.Generator
    slope: np.random.Generator
    offsets: np.random.Generator
    gain: np.random.Generator
    noise: np.random.Generator

    @classmethod
    def derive(cls, seed: SeedLike) -> "ImpairmentStreams":
        """Derive every stream from *seed* (advances a generator by 5 draws)."""
        rng = ensure_rng(seed)
        return cls(*(derive_rng(rng, field.name) for field in fields(cls)))


@dataclass(frozen=True)
class ImpairmentModel:
    """Per-packet impairments applied to a clean CFR.

    Parameters
    ----------
    snr_db:
        Average signal-to-noise ratio of the received CSI.  Thermal noise is
        complex Gaussian with power set relative to the mean subcarrier power
        of the clean CFR.
    cfo_phase:
        When True, a common random phase (uniform over ``[0, 2pi)``) is
        applied to the whole packet, identical across antennas driven by the
        same oscillator.
    sfo_slope_std:
        Standard deviation (radians per subcarrier index) of the random
        linear phase slope from SFO / packet detection delay.
    agc_std_db:
        Standard deviation of the per-packet log-normal amplitude jitter from
        automatic gain control.
    antenna_phase_offsets:
        When True, each antenna receives an additional small fixed-per-packet
        phase offset, modelling imperfect RF-chain phase alignment.
    """

    snr_db: float = 30.0
    cfo_phase: bool = True
    sfo_slope_std: float = 0.05
    agc_std_db: float = 0.5
    antenna_phase_offsets: bool = True

    def apply(
        self,
        cleans: np.ndarray,
        candidates: np.ndarray,
        subcarrier_indices: np.ndarray,
        streams: ImpairmentStreams,
    ) -> np.ndarray:
        """Impair one packet per entry of *candidates*.

        Parameters
        ----------
        cleans:
            Candidate clean CFRs, shape ``(candidates, antennas,
            subcarriers)``: a static window's scene, one scene per window of
            a case, or one per trajectory position.
        candidates:
            The candidate each packet sees, shape ``(packets,)``; entries may
            repeat (many packets of one static scene).
        subcarrier_indices:
            Intel-5300 subcarrier indices (used for the SFO phase slope so it
            is linear in actual frequency offset, not array position).
        streams:
            The per-quantity generators to draw from.  Each quantity is drawn
            for every packet at once, in packet order, so splitting the
            packets over consecutive calls draws exactly the same values.

        Returns
        -------
        numpy.ndarray
            The impaired packets, shape ``(packets, antennas, subcarriers)``.
            A candidate with zero power receives no noise.
        """
        cleans = np.ascontiguousarray(cleans, dtype=complex)
        if cleans.ndim != 3:
            raise ValueError(
                "cleans must have shape (candidates, antennas, subcarriers), "
                f"got {cleans.shape}"
            )
        candidates = np.asarray(candidates, dtype=np.intp)
        if candidates.ndim != 1:
            raise ValueError(f"candidates must be 1-D, got shape {candidates.shape}")
        if candidates.size and not (
            candidates.min() >= 0 and candidates.max() < cleans.shape[0]
        ):
            raise IndexError(f"candidate index out of range for {cleans.shape[0]} cleans")
        _, antennas, subcarriers = cleans.shape
        indices = np.asarray(subcarrier_indices, dtype=float)
        if indices.shape != (subcarriers,):
            raise ValueError(
                f"subcarrier_indices has shape {indices.shape}, expected ({subcarriers},)"
            )
        backend = active_backend()
        packets = candidates.size
        noisy = cleans[candidates]

        if self.cfo_phase:
            phase = streams.phase.uniform(0.0, 2.0 * np.pi, size=packets)
            noisy *= backend.cis(phase)[:, None, None]
        if self.sfo_slope_std > 0:
            slope = streams.slope.normal(0.0, self.sfo_slope_std, size=packets)
            noisy *= backend.cis(slope[:, None] * indices[None, :])[:, None, :]
        if self.antenna_phase_offsets and antennas > 1:
            offsets = streams.offsets.normal(0.0, 0.1, size=(packets, antennas))
            noisy *= backend.cis(offsets)[:, :, None]
        if self.agc_std_db > 0:
            gain_db = streams.gain.normal(0.0, self.agc_std_db, size=packets)
            noisy *= backend.power_elementwise(10.0, gain_db / 20.0)[:, None, None]

        if np.isfinite(self.snr_db):
            # Noise power tracks each candidate's own mean subcarrier power
            # (correctly rounded squares reduced row by row, so its bits never
            # depend on the other candidates); packets of a zero-power
            # candidate draw, and receive, no noise.
            power = cleans.real**2 + cleans.imag**2
            mean_power = power.reshape(power.shape[0], -1).mean(axis=1)
            sigma = np.sqrt(mean_power / (10.0 ** (self.snr_db / 10.0)) / 2.0)
            noisy_rows = mean_power[candidates] > 0
            count = int(np.count_nonzero(noisy_rows))
            if count:
                # (real, imag) pairs, packet after packet, viewed as complex.
                noise = streams.noise.standard_normal((count, antennas, subcarriers, 2))
                noise *= sigma[candidates[noisy_rows], None, None, None]
                if count == packets:  # a masked add gathers and scatters: ~6x slower
                    noisy += noise.view(complex)[..., 0]
                else:
                    noisy[noisy_rows] += noise.view(complex)[..., 0]
        return noisy

    def noiseless(self) -> "ImpairmentModel":
        """A copy of this model with every impairment switched off.

        Useful in tests and analytic figures where the clean channel is
        needed for ground truth.
        """
        return ImpairmentModel(
            snr_db=np.inf,
            cfo_phase=False,
            sfo_slope_std=0.0,
            agc_std_db=0.0,
            antenna_phase_offsets=False,
        )
