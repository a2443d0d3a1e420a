"""Bartlett (delay-and-sum) angular power spectrum.

MUSIC produces a *pseudo* spectrum: sharp peaks at the arrival angles, but
values with no power calibration (they measure the inverse distance to the
noise subspace).  For the detection statistic of the combined scheme, what
matters is how the received *power* is distributed over angle, because the
path weights of Eq. 17 are designed to amplify power changes arriving from
the weaker reflected directions.  The classic Bartlett beamformer provides
exactly that power-calibrated angular spectrum:

    P_B(theta) = a(theta)^H R a(theta) / M^2

with ``R`` the spatial covariance and ``a`` the steering vector.  The library
therefore uses MUSIC to *identify* path directions (Fig. 5b, Fig. 10) and the
Bartlett spectrum as the default angular power representation inside the
combined detector; the MUSIC pseudospectrum remains available there as a
configuration option.

Like every estimator the detector accepts, it has one array method,
:meth:`BartlettEstimator.spectrum_values`: an ``(N, M, M)`` covariance
stack in, ``(N, K)`` values out, or only the requested grid columns, each
to the bits it has in the full grid.  The spectrum of one capture is its
batch of one (:func:`~repro.aoa.music.capture_spectrum`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.aoa.music import (
    PseudoSpectrum,
    capture_spectrum,
    checked_angle_grid,
    grid_steering_matrix,
)
from repro.channel.antenna import UniformLinearArray
from repro.channel.constants import CHANNEL_11_CENTER_HZ


@dataclass
class BartlettEstimator:
    """Delay-and-sum angular power spectrum bound to an array geometry.

    Parameters
    ----------
    array:
        The receive array that produced the CSI snapshots.
    frequency_hz:
        Carrier frequency used for the steering vectors.
    angle_grid_deg:
        Angles at which the spectrum is evaluated.
    """

    array: UniformLinearArray
    frequency_hz: float = CHANNEL_11_CENTER_HZ
    angle_grid_deg: np.ndarray = field(
        default_factory=lambda: np.linspace(-90.0, 90.0, 181)
    )

    def __post_init__(self) -> None:
        self.angle_grid_deg = checked_angle_grid(self.angle_grid_deg)

    def steering(self) -> np.ndarray:
        """The cached steering matrix over the angle grid (see
        :func:`~repro.aoa.music.grid_steering_matrix`)."""
        return grid_steering_matrix(self)

    def spectrum_values(
        self, covariances: np.ndarray, columns: np.ndarray | None = None
    ) -> np.ndarray:
        """Angular power spectra of a covariance stack as one ``(N, K)`` array.

        One steering-matrix einsum evaluates every spectrum; the values are
        bit-identical to evaluating each covariance (or each angle)
        individually.  With *columns* (indices into the angle grid) only
        those angles are evaluated, each to the same bits as in the full
        grid: the einsum runs on the selected steering columns alone.

        Parameters
        ----------
        covariances:
            Complex covariance stack of shape ``(N, antennas, antennas)``.
        columns:
            Optional angle-grid indices; ``None`` evaluates the whole grid.
        """
        covariances = np.asarray(covariances, dtype=complex)
        expected = (self.array.num_elements, self.array.num_elements)
        if covariances.ndim != 3 or covariances.shape[1:] != expected:
            raise ValueError(
                f"covariances must have shape (N, {expected[0]}, {expected[1]}), "
                f"got {covariances.shape}"
            )
        steering = self.steering()
        if columns is not None:
            steering = steering[:, columns]
        # Quadratic form per angle: a^H R a, normalised by M^2 so that a
        # single unit-power plane wave yields a peak value of ~1.
        quad = np.einsum("ik,nij,jk->nk", steering.conj(), covariances, steering)
        return np.maximum(np.real(quad) / (self.array.num_elements**2), 0.0)

    def pseudospectrum(self, csi: np.ndarray) -> PseudoSpectrum:
        """Angular power spectrum of one CSI capture (see
        :func:`~repro.aoa.music.capture_spectrum`)."""
        return capture_spectrum(self, csi)

    def estimate_angles(self, csi: np.ndarray, *, max_paths: int = 2) -> list[float]:
        """Arrival angles from the Bartlett spectrum peaks (coarse)."""
        return self.pseudospectrum(csi).peaks(max_peaks=max_paths)
