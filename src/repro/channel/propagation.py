"""Per-path propagation: amplitude, phase and delay.

The paper's free-space relation (Eq. 9) gives the received power of a path of
length ``d`` at frequency ``f`` as

    Pr = Pt Gt Gr c^2 / ((4 pi d)^n f^2)

so the field *amplitude* scales as ``d^{-n/2} f^{-1}``.  Reflections multiply
the amplitude by the product of the per-bounce material coefficients.  The
phase accumulated over the path is ``2 pi f d / c`` and the delay ``d / c``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.channel.constants import SPEED_OF_LIGHT
from repro.backend import active_backend
from repro.utils.validation import check_positive


@dataclass(frozen=True)
class PropagationModel:
    """Free-space-like propagation with a configurable attenuation exponent.

    Parameters
    ----------
    tx_power:
        Transmit power in linear units.  Only relative levels matter to the
        detection pipeline, so the default of 1.0 is a convenient reference.
    tx_gain, rx_gain:
        Antenna gains (linear).
    path_loss_exponent:
        The environmental attenuation factor ``n`` of Eq. 9.  Free space is 2;
        cluttered indoor environments are typically 2.5–3.5.
    reference_distance:
        Distances below this value are clamped before computing the loss to
        avoid the unphysical singularity at ``d -> 0``.
    """

    tx_power: float = 1.0
    tx_gain: float = 1.0
    rx_gain: float = 1.0
    path_loss_exponent: float = 2.0
    reference_distance: float = 0.1

    def __post_init__(self) -> None:
        check_positive("tx_power", self.tx_power)
        check_positive("tx_gain", self.tx_gain)
        check_positive("rx_gain", self.rx_gain)
        check_positive("path_loss_exponent", self.path_loss_exponent)
        check_positive("reference_distance", self.reference_distance)

    def amplitude(self, distance: float | np.ndarray, frequency: float | np.ndarray) -> np.ndarray:
        """Field amplitude of a path of *distance* metres at *frequency* Hz.

        Implements the square root of Eq. 9:
        ``sqrt(Pt Gt Gr) * c / ((4 pi d)^{n/2} f)``.
        """
        d = np.maximum(np.asarray(distance, dtype=float), self.reference_distance)
        f = np.asarray(frequency, dtype=float)
        if np.any(f <= 0):
            raise ValueError("frequency must be positive")
        amp_const = np.sqrt(self.tx_power * self.tx_gain * self.rx_gain) * SPEED_OF_LIGHT
        return amp_const / ((4.0 * np.pi * d) ** (self.path_loss_exponent / 2.0) * f)

    def amplitude_batch(self, distances: np.ndarray, frequency: np.ndarray) -> np.ndarray:
        """Field amplitudes for a stack of path lengths, ``(N, K)``.

        Bit-identical per row to :meth:`amplitude` called with each scalar
        distance: the scalar path's ``(4 pi d) ** (n/2)`` runs through libm's
        ``pow`` (NumPy returns scalars from 0-d operations, and scalar
        ``**`` takes the libm route), whereas an array ``**`` would use
        NumPy's SIMD pow kernel, which differs in the last ulp for some
        inputs — so the batch routes the pow through the active backend's
        ``power`` kernel (libm ``pow`` per element in ``exact`` mode) and
        keeps everything else in vectorised (exact) arithmetic.
        """
        d = np.maximum(np.asarray(distances, dtype=float), self.reference_distance)
        if d.ndim != 1:
            raise ValueError(f"distances must be 1-D, got shape {d.shape}")
        f = np.asarray(frequency, dtype=float)
        if np.any(f <= 0):
            raise ValueError("frequency must be positive")
        amp_const = np.sqrt(self.tx_power * self.tx_gain * self.rx_gain) * SPEED_OF_LIGHT
        factor = active_backend().power(4.0 * np.pi * d, self.path_loss_exponent / 2.0)
        return amp_const / (factor[:, None] * f)

    def phase(self, distance: float | np.ndarray, frequency: float | np.ndarray) -> np.ndarray:
        """Propagation phase ``2 pi f d / c`` in radians (not wrapped)."""
        d = np.asarray(distance, dtype=float)
        f = np.asarray(frequency, dtype=float)
        return 2.0 * np.pi * f * d / SPEED_OF_LIGHT

    def delay(self, distance: float | np.ndarray) -> np.ndarray:
        """Propagation delay ``d / c`` in seconds."""
        return np.asarray(distance, dtype=float) / SPEED_OF_LIGHT

    def complex_gain(
        self,
        distance: float | np.ndarray,
        frequency: float | np.ndarray,
        extra_amplitude_gain: float = 1.0,
    ) -> np.ndarray:
        """Complex channel coefficient ``a * exp(-j * phase)`` of one path.

        Parameters
        ----------
        distance:
            Total path length in metres.
        frequency:
            Carrier/subcarrier frequency in Hz.
        extra_amplitude_gain:
            Multiplier accumulating reflection-coefficient products and
            shadowing attenuation along the path.
        """
        amp = self.amplitude(distance, frequency) * float(extra_amplitude_gain)
        return amp * np.exp(-1j * self.phase(distance, frequency))

    def received_power_db(self, distance: float, frequency: float) -> float:
        """Received power of a single unobstructed path, in dB."""
        amp = float(self.amplitude(distance, frequency))
        return 20.0 * np.log10(max(amp, 1e-30))
