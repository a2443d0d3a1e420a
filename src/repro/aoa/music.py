"""MUSIC (MUltiple SIgnal Classification) angle-of-arrival estimation.

Implements Schmidt's MUSIC algorithm [23] as used in the paper
(Section IV-B1): the spatial covariance of the CSI snapshots is
eigendecomposed, the eigenvectors associated with the smallest eigenvalues
span the noise subspace, and the pseudospectrum

    P(theta) = 1 / (a(theta)^H  E_n E_n^H  a(theta))

peaks at the arrival angles of the incoming paths.  With the Intel 5300's
three antennas at most two paths can be resolved, which is exactly what the
paper relies on to separate the LOS direction from the strongest reflection.

Every estimator of this package computes spectra through one array method,
``spectrum_values`` (``(N, M, M)`` covariances in, ``(N, K)`` values out).
A single capture is its batch of one: :func:`capture_spectrum` wraps that
row in a :class:`PseudoSpectrum` for the figures that pick peaks, and
:func:`checked_angle_grid` is the grid check every estimator runs at
construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.aoa.covariance import spatial_covariance
from repro.channel.antenna import UniformLinearArray
from repro.channel.constants import CHANNEL_11_CENTER_HZ


def grid_steering_matrix(estimator) -> np.ndarray:
    """Identity-keyed steering-matrix cache shared by the spectrum estimators.

    *estimator* is any object with ``array``, ``frequency_hz`` and
    ``angle_grid_deg`` attributes (:class:`MusicEstimator`,
    :class:`~repro.aoa.bartlett.BartlettEstimator`).  The ``(M, K)`` matrix is
    computed once and reused by every spectrum evaluation; any change to the
    grid (rebinding or in-place mutation), ``frequency_hz`` or ``array``
    triggers a recompute — the cache compares the grid by value (a snapshot
    copy), which is far cheaper than rebuilding the steering matrix.
    """
    cache = getattr(estimator, "_steering_cache", None)
    if (
        cache is None
        or cache[1] != estimator.frequency_hz
        or cache[2] != estimator.array
        or not np.array_equal(cache[0], estimator.angle_grid_deg)
    ):
        matrix = estimator.array.steering_matrix(
            np.radians(estimator.angle_grid_deg), estimator.frequency_hz
        )
        cache = (
            np.array(estimator.angle_grid_deg, copy=True),
            estimator.frequency_hz,
            estimator.array,
            matrix,
        )
        estimator._steering_cache = cache
    return cache[3]


def checked_angle_grid(angle_grid_deg) -> np.ndarray:
    """*angle_grid_deg* as a float array, if it is a 1-D grid of at least 2
    finite angles.

    Every spectrum estimator runs this at construction: a scalar, 2-D,
    one-angle or NaN grid would otherwise surface only later, as a shape
    error, a spectrum with no power or a NaN score.
    """
    grid = np.asarray(angle_grid_deg, dtype=float)
    if grid.ndim != 1 or grid.size < 2 or not np.all(np.isfinite(grid)):
        raise ValueError(
            "angle_grid_deg must be a 1-D array of at least 2 finite angles, "
            f"got shape {grid.shape}"
        )
    return grid


def capture_spectrum(estimator, csi: np.ndarray) -> PseudoSpectrum:
    """The angular spectrum of one CSI capture over *estimator*'s whole grid.

    The batch of one of ``estimator.spectrum_values``: *csi* of shape
    ``(antennas, subcarriers)`` or ``(packets, antennas, subcarriers)``
    gives one covariance, whose row is wrapped with a copy of the grid.
    Every estimator's ``pseudospectrum`` returns this.
    """
    values = estimator.spectrum_values(spatial_covariance(csi)[None])[0]
    return PseudoSpectrum(estimator.angle_grid_deg.copy(), values)


@dataclass(frozen=True)
class PseudoSpectrum:
    """An angular pseudospectrum: power-like values over a grid of angles."""

    angles_deg: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        angles = np.asarray(self.angles_deg, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if angles.shape != values.shape or angles.ndim != 1:
            raise ValueError(
                "angles_deg and values must be 1-D arrays of equal length, "
                f"got {angles.shape} and {values.shape}"
            )
        object.__setattr__(self, "angles_deg", angles)
        object.__setattr__(self, "values", values)

    def normalized(self) -> "PseudoSpectrum":
        """Spectrum scaled so its maximum equals 1 (for display and weighting)."""
        peak = float(np.max(self.values))
        if peak <= 0:
            raise ValueError("cannot normalise a non-positive pseudospectrum")
        return PseudoSpectrum(self.angles_deg, self.values / peak)

    def peaks(self, max_peaks: int | None = None, *, min_prominence: float = 0.01) -> list[float]:
        """Angles (degrees) of the spectrum peaks, strongest first.

        Parameters
        ----------
        max_peaks:
            Keep at most this many peaks; ``None`` keeps all.
        min_prominence:
            Prominence threshold relative to the spectrum maximum, filtering
            out ripple in the noise floor.
        """
        # SciPy loads on first use: the detection path never picks peaks.
        from scipy.signal import find_peaks

        values = self.normalized().values
        indices, properties = find_peaks(values, prominence=min_prominence)
        if indices.size == 0:
            # Fall back to the global maximum (a flat or monotone spectrum).
            indices = np.asarray([int(np.argmax(values))])
            order = np.asarray([0])
        else:
            order = np.argsort(values[indices])[::-1]
        ranked = [float(self.angles_deg[indices[i]]) for i in order]
        if max_peaks is not None:
            ranked = ranked[:max_peaks]
        return ranked


@dataclass
class MusicEstimator:
    """MUSIC estimator bound to a receive array geometry.

    Parameters
    ----------
    array:
        The uniform linear array (spacing and element count) that produced
        the CSI.
    num_sources:
        Assumed number of incoming paths (signal-subspace dimension).  With
        three antennas the paper uses 2: the LOS path plus the strongest
        reflection.
    frequency_hz:
        Carrier frequency used to convert phase differences to angles.
    angle_grid_deg:
        Evaluation grid of the pseudospectrum; defaults to −90°…90° in 1°
        steps, matching the field of view of a linear array.
    """

    array: UniformLinearArray
    num_sources: int = 2
    frequency_hz: float = CHANNEL_11_CENTER_HZ
    angle_grid_deg: np.ndarray = field(
        default_factory=lambda: np.linspace(-90.0, 90.0, 181)
    )

    def __post_init__(self) -> None:
        if self.num_sources < 1:
            raise ValueError(f"num_sources must be >= 1, got {self.num_sources}")
        if self.num_sources >= self.array.num_elements:
            raise ValueError(
                f"num_sources ({self.num_sources}) must be smaller than the "
                f"number of antennas ({self.array.num_elements})"
            )
        self.angle_grid_deg = checked_angle_grid(self.angle_grid_deg)

    # ------------------------------------------------------------------ #
    # subspace machinery
    # ------------------------------------------------------------------ #
    def noise_subspaces(self, covariances: np.ndarray) -> np.ndarray:
        """Noise-subspace bases of a covariance stack, ``(N, M, M - num_sources)``."""
        covariances = np.asarray(covariances, dtype=complex)
        expected = (self.array.num_elements, self.array.num_elements)
        if covariances.ndim != 3 or covariances.shape[1:] != expected:
            raise ValueError(
                f"covariances must have shape (N, {expected[0]}, {expected[1]}), "
                f"got {covariances.shape}"
            )
        eigenvalues, eigenvectors = np.linalg.eigh(covariances)
        # eigh returns ascending eigenvalues; the smallest M - d span the
        # noise subspace.
        num_noise = self.array.num_elements - self.num_sources
        return eigenvectors[:, :, :num_noise]

    def steering(self) -> np.ndarray:
        """The cached steering matrix over the angle grid (see
        :func:`grid_steering_matrix`)."""
        return grid_steering_matrix(self)

    def spectrum_values(
        self, covariances: np.ndarray, columns: np.ndarray | None = None
    ) -> np.ndarray:
        """MUSIC pseudospectra of a covariance stack as one ``(N, K)`` array.

        The noise-subspace projections of the whole stack go through one
        batched matmul against the shared steering matrix; values are
        bit-identical to evaluating each covariance individually.  With
        *columns* (indices into the angle grid) the full grid is evaluated
        and then indexed: the matmul runs through BLAS, whose bits for one
        column can change with the number of columns in the call, so a
        matmul on the selected columns alone would break the rule that a
        column's value does not depend on the other columns requested.
        """
        noise = self.noise_subspaces(covariances)
        steering = self.steering()
        projected = np.matmul(noise.conj().transpose(0, 2, 1), steering)
        denom = np.sum(np.abs(projected) ** 2, axis=1)
        values = 1.0 / np.maximum(denom, 1e-12)
        return values if columns is None else values[:, columns]

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #
    def pseudospectrum(self, csi: np.ndarray) -> PseudoSpectrum:
        """Pseudospectrum of one CSI capture (see :func:`capture_spectrum`)."""
        return capture_spectrum(self, csi)

    def estimate_angles(
        self, csi: np.ndarray, *, max_paths: int | None = None
    ) -> list[float]:
        """Estimated arrival angles in degrees, strongest peak first."""
        spectrum = self.pseudospectrum(csi)
        limit = max_paths if max_paths is not None else self.num_sources
        return spectrum.peaks(max_peaks=limit)
