"""Spatially-smoothed MUSIC for correlated (coherent) multipath signals.

Multipath replicas of the same transmitted signal are fully correlated, which
rank-deficient covariance matrices and can defeat plain MUSIC.  Forward
spatial smoothing [17], [24] averages the covariance over overlapping
subarrays to restore the rank — at the cost of shrinking the effective array.
The paper points out this trade-off explicitly: with only three antennas,
smoothing "relegates three antennas to only two, thus unable to detect more
than one path", which is why the main pipeline uses plain MUSIC.  This module
implements the smoothed variant so that the trade-off can be reproduced (see
the MUSIC ablation benchmark).

The estimator is smoothing plus plain MUSIC's array method on the virtual
subarray; that inner estimator is rebuilt from the current fields whenever
one of them changed, so the fields can be rebound like those of the plain
estimators.  The spectrum of one capture is the batch of one of that array
method (:func:`~repro.aoa.music.capture_spectrum`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.aoa.music import (
    MusicEstimator,
    PseudoSpectrum,
    capture_spectrum,
    checked_angle_grid,
)
from repro.channel.antenna import UniformLinearArray
from repro.channel.constants import CHANNEL_11_CENTER_HZ


def forward_smoothed_covariance(covariance: np.ndarray, subarray_size: int) -> np.ndarray:
    """Forward spatial smoothing of full-array covariance matrices.

    Parameters
    ----------
    covariance:
        Hermitian matrix of shape ``(M, M)``, or a stack ``(..., M, M)``
        smoothed matrix by matrix.
    subarray_size:
        Size ``L <= M`` of the overlapping subarrays; the result has shape
        ``(..., L, L)`` and is the average over the ``M - L + 1`` subarrays.
    """
    covariance = np.asarray(covariance, dtype=complex)
    num_elements = covariance.shape[-1]
    if covariance.ndim < 2 or covariance.shape[-2] != num_elements:
        raise ValueError(f"covariance must be square, got shape {covariance.shape}")
    if not 1 <= subarray_size <= num_elements:
        raise ValueError(
            f"subarray_size must be in [1, {num_elements}], got {subarray_size}"
        )
    num_subarrays = num_elements - subarray_size + 1
    smoothed = np.zeros(
        covariance.shape[:-2] + (subarray_size, subarray_size), dtype=complex
    )
    for start in range(num_subarrays):
        stop = start + subarray_size
        smoothed += covariance[..., start:stop, start:stop]
    return smoothed / num_subarrays


@dataclass
class SmoothedMusicEstimator:
    """MUSIC with forward spatial smoothing over subarrays.

    Parameters
    ----------
    array:
        The physical array producing the CSI.
    subarray_size:
        Effective array size after smoothing (default: one element fewer than
        the physical array, the usual single-step smoothing).
    num_sources:
        Signal-subspace dimension of the *smoothed* problem; must be smaller
        than ``subarray_size``, which with three physical antennas limits it
        to a single path — the drawback the paper calls out.
    frequency_hz:
        Carrier frequency.
    angle_grid_deg:
        Pseudospectrum evaluation grid.
    """

    array: UniformLinearArray
    subarray_size: int | None = None
    num_sources: int = 1
    frequency_hz: float = CHANNEL_11_CENTER_HZ
    angle_grid_deg: np.ndarray = field(
        default_factory=lambda: np.linspace(-90.0, 90.0, 181)
    )

    def __post_init__(self) -> None:
        if self.subarray_size is None:
            self.subarray_size = max(2, self.array.num_elements - 1)
        if not 2 <= self.subarray_size <= self.array.num_elements:
            raise ValueError(
                f"subarray_size must be in [2, {self.array.num_elements}], "
                f"got {self.subarray_size}"
            )
        if self.num_sources >= self.subarray_size:
            raise ValueError(
                f"num_sources ({self.num_sources}) must be smaller than "
                f"subarray_size ({self.subarray_size})"
            )
        self.angle_grid_deg = checked_angle_grid(self.angle_grid_deg)
        self._inner: MusicEstimator | None = None

    def _inner_estimator(self) -> MusicEstimator:
        """Plain MUSIC on the virtual subarray, built from the current fields.

        The smoothed problem behaves like a smaller array with the same
        spacing.  The inner estimator is cached and rebuilt whenever a field
        it is built from differs from its own (compared by value, the grid
        by a snapshot copy), so rebinding or mutating any field takes effect
        on the next spectrum, as on the plain estimators.
        """
        virtual = UniformLinearArray(
            num_elements=self.subarray_size,
            spacing=self.array.spacing,
            reference=self.array.reference,
            broadside=self.array.broadside,
        )
        inner = self._inner
        if (
            inner is None
            or inner.array != virtual
            or inner.num_sources != self.num_sources
            or inner.frequency_hz != self.frequency_hz
            or not np.array_equal(inner.angle_grid_deg, self.angle_grid_deg)
        ):
            inner = MusicEstimator(
                array=virtual,
                num_sources=self.num_sources,
                frequency_hz=self.frequency_hz,
                angle_grid_deg=np.array(self.angle_grid_deg, dtype=float),
            )
            self._inner = inner
        return inner

    def spectrum_values(
        self, covariances: np.ndarray, columns: np.ndarray | None = None
    ) -> np.ndarray:
        """Smoothed-MUSIC pseudospectra of a full-array covariance stack
        ``(N, M, M)`` as one ``(N, K)`` array: each covariance is
        forward-smoothed, then plain MUSIC's
        :meth:`~repro.aoa.music.MusicEstimator.spectrum_values` runs on the
        smoothed ``(N, L, L)`` stack (evaluating the full grid, then
        indexing *columns*)."""
        smoothed = forward_smoothed_covariance(covariances, self.subarray_size)
        return self._inner_estimator().spectrum_values(smoothed, columns)

    def pseudospectrum(self, csi: np.ndarray) -> PseudoSpectrum:
        """Smoothed-MUSIC pseudospectrum of one CSI capture (see
        :func:`~repro.aoa.music.capture_spectrum`)."""
        return capture_spectrum(self, csi)

    def estimate_angles(self, csi: np.ndarray, *, max_paths: int | None = None) -> list[float]:
        """Estimated arrival angles in degrees, strongest peak first."""
        spectrum = self.pseudospectrum(csi)
        limit = max_paths if max_paths is not None else self.num_sources
        return spectrum.peaks(max_peaks=limit)

    def max_resolvable_paths(self) -> int:
        """Number of paths the smoothed estimator can resolve."""
        return self.subarray_size - 1
