"""Subcarrier weighting via the multipath factor (Section IV-A2, Eq. 12–15).

Subcarriers with a larger multipath factor are more sensitive to human
presence, so the per-subcarrier RSS changes are re-weighted before computing
the detection statistic.  Two variants are provided:

* **Per-packet weighting** (Eq. 12): weights proportional to the multipath
  factors of the current packet.  Simple, but the most sensitive subcarrier
  can jump between packets.
* **Stabilised weighting** (Eq. 13–15, the paper's final scheme): weights
  combine the temporal mean ``mu_bar_k`` over a window of M packets with the
  stability ratio ``r_k`` (fraction of packets where the subcarrier exceeds
  the per-packet median factor), assigning high weight only to consistently
  sensitive subcarriers.

Both the stacked weights of the detectors' scoring kernels and the
single-window :meth:`SubcarrierWeighting.weights_from_factors` take the
stability ratio's above-median mask from one helper,
:func:`~repro.core.multipath_factor.exceeds_row_median`: one sort per stack
along the subcarrier axis, the same mask as ``np.median`` gives.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.multipath_factor import (
    exceeds_row_median,
    multipath_factor_batch,
    multipath_factor_trace,
    stability_ratio,
    temporal_mean_factor,
)
from repro.csi.trace import CSITrace


@dataclass(frozen=True)
class SubcarrierWeights:
    """Weights per antenna and subcarrier plus the statistics behind them.

    Attributes
    ----------
    weights:
        Non-negative weights of shape ``(antennas, subcarriers)``.  They are
        normalised so each antenna's weights sum to 1, making weighted
        features comparable across antennas and window sizes.
    mean_factor:
        Temporal mean multipath factor ``mu_bar_k``.
    ratio:
        Stability ratio ``r_k`` (all-ones for the per-packet variant).
    """

    weights: np.ndarray
    mean_factor: np.ndarray
    ratio: np.ndarray

    def __post_init__(self) -> None:
        weights = np.asarray(self.weights, dtype=float)
        if weights.ndim != 2:
            raise ValueError(
                f"weights must have shape (antennas, subcarriers), got {weights.shape}"
            )
        if np.any(weights < 0):
            raise ValueError("weights must be non-negative")
        object.__setattr__(self, "weights", weights)

    def apply(self, rss_change_db: np.ndarray) -> np.ndarray:
        """Weighted RSS change ``|w_k| * delta_s(f_k)`` (Eq. 12 / Eq. 15).

        *rss_change_db* may be ``(antennas, subcarriers)`` or
        ``(packets, antennas, subcarriers)``; the weights broadcast over the
        packet axis.
        """
        rss_change_db = np.asarray(rss_change_db, dtype=float)
        if rss_change_db.ndim == 2:
            return self.weights * rss_change_db
        if rss_change_db.ndim == 3:
            return self.weights[None, :, :] * rss_change_db
        raise ValueError(
            "rss_change_db must have 2 or 3 dimensions, "
            f"got shape {rss_change_db.shape}"
        )

    def top_subcarriers(self, antenna: int = 0, count: int = 5) -> list[int]:
        """Indices of the *count* highest-weighted subcarriers of one antenna."""
        if not 0 <= antenna < self.weights.shape[0]:
            raise IndexError(f"antenna {antenna} out of range")
        order = np.argsort(self.weights[antenna])[::-1]
        return [int(i) for i in order[:count]]


class SubcarrierWeighting:
    """Compute subcarrier weights from a window of CSI packets.

    Parameters
    ----------
    use_stability_ratio:
        When True (the paper's final scheme, Eq. 15), weights are
        ``|mu_bar_k * r_k|`` normalised per antenna.  When False, weights are
        ``|mu_bar_k|`` only — equivalent to averaging the per-packet Eq. 12
        weights over the window, used as the ablation baseline.
    frequencies:
        Optional subcarrier frequency grid forwarded to the multipath-factor
        computation.
    """

    def __init__(
        self,
        *,
        use_stability_ratio: bool = True,
        frequencies: np.ndarray | None = None,
    ) -> None:
        self.use_stability_ratio = use_stability_ratio
        self.frequencies = frequencies

    def weights_from_factors(self, factors: np.ndarray) -> SubcarrierWeights:
        """Weights from pre-computed multipath factors.

        Parameters
        ----------
        factors:
            Array of shape ``(packets, antennas, subcarriers)``.
        """
        factors = np.asarray(factors, dtype=float)
        if factors.ndim != 3:
            raise ValueError(
                "factors must have shape (packets, antennas, subcarriers), "
                f"got {factors.shape}"
            )
        mean_factor = temporal_mean_factor(factors)
        if self.use_stability_ratio:
            ratio = stability_ratio(factors)
        else:
            ratio = np.ones_like(mean_factor)
        raw = np.abs(mean_factor * ratio)
        weights = _normalize_per_antenna(raw)
        return SubcarrierWeights(weights=weights, mean_factor=mean_factor, ratio=ratio)

    def weights_from_trace(self, trace: CSITrace) -> SubcarrierWeights:
        """Weights from a window of M CSI packets (the monitoring window).

        All ``packets * antennas`` multipath factors of the window come from
        one batched :func:`~repro.core.multipath_factor.multipath_factor_trace`
        call (a single stacked IFFT), the hottest step of the detector
        scoring path.
        """
        factors = multipath_factor_trace(trace, self.frequencies)
        return self.weights_from_factors(factors)

    def stacked_weights(self, csi_stack: np.ndarray) -> np.ndarray:
        """Weight arrays for a stack of same-shape windows in one pass.

        The stacked form of :meth:`weights_from_trace` used by the detectors'
        scoring kernels: all ``windows * packets * antennas`` multipath
        factors come from one stacked IFFT and the Eq. 13–15 statistics
        reduce along the packet and subcarrier axes of each window, so a
        window's weights do not depend on the rest of the stack.

        Parameters
        ----------
        csi_stack:
            Complex CSI of shape ``(windows, packets, antennas, subcarriers)``.

        Returns
        -------
        numpy.ndarray
            Normalised weights of shape ``(windows, antennas, subcarriers)``.
        """
        csi_stack = np.asarray(csi_stack)
        if csi_stack.ndim != 4:
            raise ValueError(
                "csi_stack must have shape (windows, packets, antennas, "
                f"subcarriers), got {csi_stack.shape}"
            )
        factors = multipath_factor_batch(csi_stack, self.frequencies)
        mean_factor = factors.mean(axis=1)
        if self.use_stability_ratio:
            ratio = exceeds_row_median(factors).mean(axis=1)
        else:
            ratio = np.ones_like(mean_factor)
        raw = np.abs(mean_factor * ratio)
        sums = raw.sum(axis=2, keepdims=True)
        uniform = np.full_like(raw, 1.0 / raw.shape[2])
        with np.errstate(invalid="ignore", divide="ignore"):
            return np.where(sums > 0, raw / np.maximum(sums, 1e-30), uniform)

    def weights_from_packet(self, csi: np.ndarray) -> SubcarrierWeights:
        """Per-packet weights (Eq. 12) from a single CSI matrix."""
        csi = np.asarray(csi)
        if csi.ndim != 2:
            raise ValueError(
                f"csi must have shape (antennas, subcarriers), got {csi.shape}"
            )
        factors = multipath_factor_batch(csi[None, :, :], self.frequencies)
        mean_factor = factors[0]
        raw = np.abs(mean_factor)
        weights = _normalize_per_antenna(raw)
        return SubcarrierWeights(
            weights=weights, mean_factor=mean_factor, ratio=np.ones_like(mean_factor)
        )


def _normalize_per_antenna(raw: np.ndarray) -> np.ndarray:
    """Normalise non-negative weights so each antenna row sums to one."""
    sums = raw.sum(axis=1, keepdims=True)
    # An antenna with all-zero weights (pathological input) falls back to
    # uniform weighting rather than dividing by zero.
    uniform = np.full_like(raw, 1.0 / raw.shape[1])
    with np.errstate(invalid="ignore", divide="ignore"):
        normalized = np.where(sums > 0, raw / np.maximum(sums, 1e-30), uniform)
    return normalized
