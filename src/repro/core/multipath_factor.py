"""The measurable multipath factor ``mu_k`` (Section IV-A1, Eq. 9–11).

The multipath factor of subcarrier ``f_k`` is the ratio between the LOS power
on that subcarrier and its total received power:

    mu_k = P_L(f_k) / |H(f_k)|^2                                   (Eq. 11)

The total received power per subcarrier comes directly from the CSI
amplitude.  The LOS power cannot be isolated per subcarrier with 20 MHz of
bandwidth, so the paper uses two approximations:

1. The power of the dominant time-domain tap ``|h^(0)|^2`` (IDFT of the CSI)
   approximates the combined LOS power across the band (following [11], [21]).
2. That power is apportioned to individual subcarriers proportionally to
   ``f_k^{-2}``, because free-space attenuation of the same physical path is
   inverse-proportional to the squared frequency (Eq. 9–10):

    P_L(f_k) = f_k^{-2} / (sum_i f_i^{-2}) * |h^(0)|^2             (Eq. 10)

The absolute scale of ``mu_k`` therefore carries the arbitrary constant of
the dominant-tap approximation; what the detection pipeline relies on — and
what Fig. 3 demonstrates — is that ``mu_k`` varies monotonically with the
link's sensitivity to human presence, and that its *relative* values across
subcarriers rank them by sensitivity.

The module also holds :func:`exceeds_row_median`, the mask of factors
above their packet's median from which
:meth:`~repro.core.subcarrier_weighting.SubcarrierWeighting.stacked_weights`
takes the stability ratio of Eq. 13–14.
"""

from __future__ import annotations

import numpy as np

from repro.channel.constants import subcarrier_frequencies
from repro.channel.ofdm import dominant_tap_power_batch
from repro.csi.trace import CSITrace

#: Cached ``f_k^{-2}`` apportionment weights of the Intel 5300 grid.  The
#: grid is a module-level constant, so the weight vector is a pure function
#: of it; computing it once removes a per-call ``**-2.0`` + sum + divide from
#: the hottest loop of the campaign profile.
_DEFAULT_APPORTIONMENT: np.ndarray | None = None


def _apportionment_weights() -> np.ndarray:
    """The normalised ``f_k^{-2}`` weight vector of Eq. 10, computed once."""
    global _DEFAULT_APPORTIONMENT
    if _DEFAULT_APPORTIONMENT is None:
        freqs = subcarrier_frequencies()
        inverse_f2 = freqs**-2.0  # repro: allow-det001 -- pinned expression: the sha256 score pins depend on this exact kernel staying as-is
        _DEFAULT_APPORTIONMENT = inverse_f2 / inverse_f2.sum()
    return _DEFAULT_APPORTIONMENT


def los_power_per_subcarrier_batch(csi_rows: np.ndarray) -> np.ndarray:
    """Eq. 10 for many CSI rows at once.

    One stacked IFFT (:func:`~repro.channel.ofdm.dominant_tap_power_batch`)
    followed by a broadcast multiply with the cached ``f_k^{-2}`` weights of
    the Intel 5300 grid; every row is bit-identical whatever other rows
    share the call.

    Parameters
    ----------
    csi_rows:
        Complex CSI rows, shape ``(num_rows, num_subcarriers)``.

    Returns
    -------
    numpy.ndarray
        LOS power per subcarrier, shape ``(num_rows, num_subcarriers)``.
    """
    csi_rows = np.asarray(csi_rows)
    if csi_rows.ndim != 2:
        raise ValueError(
            f"csi_rows must have shape (rows, subcarriers), got {csi_rows.shape}"
        )
    weights = _apportionment_weights()
    # Rows of the wrong subcarrier count must fail with the historical
    # message, not broadcast to (rows, 30).
    if weights.shape != csi_rows.shape[-1:]:
        raise ValueError(
            f"frequencies shape {weights.shape} does not match csi shape "
            f"{csi_rows.shape[-1:]}"
        )
    total_los_power = dominant_tap_power_batch(csi_rows)
    return weights[None, :] * total_los_power[:, None]


def multipath_factor_batch(csi_rows: np.ndarray) -> np.ndarray:
    """Per-subcarrier multipath factor ``mu_k`` (Eq. 11) of a stack of CSI rows.

    The workhorse behind :func:`multipath_factor_trace` and the subcarrier
    weighting of the detectors' scoring kernels: one stacked IFFT for the
    LOS powers, one broadcast division for the ratios.  Bit-identical to the
    per-row loop, which the parity suite checks.  One packet of shape
    ``(antennas, subcarriers)`` is a batch of its antenna rows.

    Parameters
    ----------
    csi_rows:
        Complex CSI of shape ``(..., num_subcarriers)`` on the Intel 5300
        grid; leading axes (for example packets and antennas) are flattened
        for the batch and restored on output.

    Returns
    -------
    numpy.ndarray
        Multipath factors with the same shape as *csi_rows*.
    """
    csi_rows = np.asarray(csi_rows)
    if csi_rows.ndim < 1:
        raise ValueError("csi_rows must have at least one dimension")
    shape = csi_rows.shape
    rows = np.ascontiguousarray(csi_rows).reshape(-1, shape[-1])
    los_power = los_power_per_subcarrier_batch(rows)
    total_power = np.abs(rows) ** 2
    factors = los_power / np.maximum(total_power, 1e-30)
    return factors.reshape(shape)


def multipath_factor_trace(trace: CSITrace) -> np.ndarray:
    """Multipath factors for every packet of a trace.

    All ``packets * antennas`` rows go through one stacked IFFT
    (:func:`multipath_factor_batch`).

    Returns an array of shape ``(num_packets, num_antennas, num_subcarriers)``.
    """
    return multipath_factor_batch(trace.csi)


def exceeds_row_median(values: np.ndarray) -> np.ndarray:
    """Mask of the values above their row's median, ``values >
    np.median(values, axis=-1, keepdims=True)``, from one sort.

    ``np.median`` runs a separate selection per row; on rows of a few dozen
    subcarriers one ``np.sort`` along the last axis is several times
    cheaper.  The median is the mean of the middle value or pair of the
    sorted row, exactly as ``np.median`` takes it, and a row whose sorted
    last value is NaN (NaN sorts last) has a NaN median, which no value
    exceeds — the same mask bit for bit.
    """
    ordered = np.sort(values, axis=-1)
    size = values.shape[-1]
    middle = ordered[..., (size - 1) // 2 : size // 2 + 1]
    medians = middle.mean(axis=-1, keepdims=True)
    return (values > medians) & ~np.isnan(ordered[..., -1:])

