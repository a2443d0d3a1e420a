"""Subcarrier weighting via the multipath factor (Section IV-A2, Eq. 12–15).

Subcarriers with a larger multipath factor are more sensitive to human
presence, so the per-subcarrier RSS changes are re-weighted before computing
the detection statistic.  The paper's final scheme (Eq. 13–15) combines the
temporal mean ``mu_bar_k`` of a window's M packets with the stability ratio
``r_k`` (fraction of packets where the subcarrier exceeds the per-packet
median factor), assigning high weight only to consistently sensitive
subcarriers.  Without the stability ratio the weights are the temporal mean
alone: the per-packet Eq. 12 weights averaged over the window, the ablation
baseline.

:meth:`SubcarrierWeighting.stacked_weights` is the only implementation: it
weights a stack of windows in one pass, and one window's weights are its
batch of one (``stacked_weights(csi[None])[0]``).  The stability ratio's
above-median mask comes from
:func:`~repro.core.multipath_factor.exceeds_row_median`: one sort along the
subcarrier axis, the same mask as ``np.median`` gives.
"""

from __future__ import annotations

import numpy as np

from repro.core.multipath_factor import exceeds_row_median, multipath_factor_batch


class SubcarrierWeighting:
    """Compute subcarrier weights from windows of CSI packets.

    Parameters
    ----------
    use_stability_ratio:
        When True (the paper's final scheme, Eq. 15), weights are
        ``|mu_bar_k * r_k|`` normalised per antenna.  When False, weights are
        ``|mu_bar_k|`` only — equivalent to averaging the per-packet Eq. 12
        weights over the window, used as the ablation baseline.
    """

    def __init__(self, *, use_stability_ratio: bool = True) -> None:
        self.use_stability_ratio = use_stability_ratio

    def stacked_weights(self, csi_stack: np.ndarray) -> np.ndarray:
        """Weight arrays for a stack of same-shape windows in one pass.

        All ``windows * packets * antennas`` multipath factors come from one
        stacked IFFT and the Eq. 13–15 statistics reduce along the packet
        and subcarrier axes of each window, so a window's weights do not
        depend on the rest of the stack.  Each antenna's weights sum to 1;
        an antenna whose weights are all zero (pathological input) falls
        back to uniform weighting rather than dividing by zero.

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
        factors = multipath_factor_batch(csi_stack)
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
