"""Measurement impairments of commodity WiFi CSI.

Raw Intel 5300 CSI is far from the clean channel frequency response: each
packet carries a random common phase from residual carrier frequency offset
(CFO), a linear phase slope across subcarriers from sampling frequency offset
(SFO) and packet detection delay, an amplitude wobble from automatic gain
control (AGC), and thermal noise.  The paper calibrates the raw CSI "as in
[26]" (Sen et al.) to remove the phase artefacts; reproducing the impairments
here lets the calibration stage in :mod:`repro.csi.calibration` do real work.

The impairments are i.i.d. per packet.  :meth:`ImpairmentModel.apply` draws
one fixed block of standard normals per packet, in packet order, from the one
generator it is handed, and every quantity reads its own slots of that block
whatever the switches.  A packet's values therefore
depend only on its position in the capture: impairing packets in one call or
split over consecutive calls on the same generator gives byte-identical
results, and switching one impairment off never moves another's values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.backend import active_backend
from repro.utils.validation import check_finite_real, check_positive


@dataclass(frozen=True)
class ImpairmentModel:
    """Per-packet impairments applied to a clean CFR.

    Parameters
    ----------
    snr_db:
        Average signal-to-noise ratio of the received CSI.  Thermal noise is
        complex Gaussian with power set relative to the mean subcarrier power
        of the clean CFR.  ``inf`` switches the noise off; any other value
        must be finite.
    cfo_phase:
        When True, a common random phase (uniform over ``[0, 2pi)``) is
        applied to the whole packet, identical across antennas driven by the
        same oscillator.  A boolean; any other value is rejected.
    sfo_slope_std:
        Standard deviation (radians per subcarrier index) of the random
        linear phase slope from SFO / packet detection delay; finite and
        >= 0, where 0 switches it off.
    agc_std_db:
        Standard deviation of the per-packet log-normal amplitude jitter from
        automatic gain control; finite and >= 0, where 0 switches it off.
    antenna_phase_offsets:
        When True, each antenna receives an additional small fixed-per-packet
        phase offset, modelling imperfect RF-chain phase alignment.  A
        boolean, like :attr:`cfo_phase`.
    """

    snr_db: float = 30.0
    cfo_phase: bool = True
    sfo_slope_std: float = 0.05
    agc_std_db: float = 0.5
    antenna_phase_offsets: bool = True

    def __post_init__(self) -> None:
        if self.snr_db != np.inf:
            check_finite_real("snr_db", self.snr_db)
        for name in ("sfo_slope_std", "agc_std_db"):
            check_positive(name, getattr(self, name), strict=False)
        for name in ("cfo_phase", "antenna_phase_offsets"):
            if not isinstance(getattr(self, name), bool):
                raise ValueError(f"{name} must be true or false, got {getattr(self, name)!r}")

    def apply(
        self,
        cleans: np.ndarray,
        candidates: np.ndarray,
        subcarrier_indices: np.ndarray,
        rng: np.random.Generator,
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
        rng:
            The generator to draw from: one block of standard normals per
            packet, in packet order, whatever the switches and the
            candidates' power, so splitting the packets over consecutive
            calls draws exactly the same values.  With ``A`` antennas and
            ``K`` subcarriers a block holds ``2 * A * K`` noise values
            ((real, imag) pairs, antenna-major), then 2 for the CFO phasor,
            1 SFO slope, ``A`` antenna offsets and 1 AGC gain.

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
        noise_end = 2 * antennas * subcarriers
        block = rng.standard_normal((packets, noise_end + antennas + 4))
        noisy = cleans[candidates]

        if self.cfo_phase:
            # A complex normal over its modulus: its angle is exactly uniform,
            # and every operation is correctly rounded on any backend.
            re, im = block[:, noise_end], block[:, noise_end + 1]
            modulus = np.sqrt(re * re + im * im)
            phasor = np.empty(packets, dtype=complex)
            phasor.real = re / modulus
            phasor.imag = im / modulus
            noisy *= phasor[:, None, None]
        if self.sfo_slope_std > 0:
            slope = self.sfo_slope_std * block[:, noise_end + 2]
            noisy *= backend.cis(slope[:, None] * indices[None, :])[:, None, :]
        if self.antenna_phase_offsets and antennas > 1:
            offsets = 0.1 * block[:, noise_end + 3 : noise_end + 3 + antennas]
            noisy *= backend.cis(offsets)[:, :, None]
        if self.agc_std_db > 0:
            gain_db = self.agc_std_db * block[:, noise_end + 3 + antennas]
            noisy *= backend.power_elementwise(10.0, gain_db / 20.0)[:, None, None]

        if np.isfinite(self.snr_db):
            # Noise power tracks each candidate's own mean subcarrier power
            # (correctly rounded squares reduced row by row, so its bits never
            # depend on the other candidates); a zero-power candidate's sigma
            # is 0, so its packets receive no noise.
            power = cleans.real**2 + cleans.imag**2
            mean_power = power.reshape(power.shape[0], -1).mean(axis=1)
            sigma = np.sqrt(mean_power / (10.0 ** (self.snr_db / 10.0)) / 2.0)
            # (real, imag) pairs, antenna-major, scaled in place and viewed
            # as complex.
            noise = block[:, :noise_end]
            noise *= sigma[candidates, None]
            noisy += noise.view(complex).reshape(packets, antennas, subcarriers)
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
