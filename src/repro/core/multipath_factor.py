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

The module also holds the per-packet statistics of Eq. 13–15 on these
factors: the temporal mean and the stability ratio, whose mask of factors
above their packet's median (:func:`exceeds_row_median`) the stacked
subcarrier weights share.
"""

from __future__ import annotations

import numpy as np

from repro.channel.constants import subcarrier_frequencies
from repro.channel.ofdm import dominant_tap_power_batch
from repro.csi.trace import CSITrace

#: Cached ``f_k^{-2}`` apportionment weights of the default Intel 5300 grid.
#: The grid is a module-level constant, so the weight vector is a pure
#: function of it; computing it once removes a per-call ``**-2.0`` + sum +
#: divide from the hottest loop of the campaign profile.  Custom ``frequencies``
#: arguments always take the uncached path below.
_DEFAULT_APPORTIONMENT: np.ndarray | None = None


def _apportionment_weights(frequencies: np.ndarray | None) -> np.ndarray:
    """The normalised ``f_k^{-2}`` weight vector of Eq. 10.

    ``None`` resolves to the default Intel 5300 grid and is cached (keyed on
    that grid being the module constant); an explicit *frequencies* array is
    recomputed on every call with exactly the historical expressions.
    """
    global _DEFAULT_APPORTIONMENT
    if frequencies is None:
        if _DEFAULT_APPORTIONMENT is None:
            freqs = subcarrier_frequencies()
            inverse_f2 = freqs**-2.0  # repro: allow-det001 -- pinned expression: the sha256 score pins depend on this exact kernel staying as-is
            _DEFAULT_APPORTIONMENT = inverse_f2 / inverse_f2.sum()
        return _DEFAULT_APPORTIONMENT
    freqs = np.asarray(frequencies, dtype=float)
    inverse_f2 = freqs**-2.0  # repro: allow-det001 -- must match the cached default-grid expression above bit for bit (custom frequency grids take this uncached path)
    return inverse_f2 / inverse_f2.sum()


def los_power_per_subcarrier_batch(
    csi_rows: np.ndarray, frequencies: np.ndarray | None = None
) -> np.ndarray:
    """Eq. 10 for many CSI rows at once.

    One stacked IFFT (:func:`~repro.channel.ofdm.dominant_tap_power_batch`)
    followed by a broadcast multiply with the cached ``f_k^{-2}`` weights;
    every row is bit-identical whatever other rows share the call.

    Parameters
    ----------
    csi_rows:
        Complex CSI rows, shape ``(num_rows, num_subcarriers)``.
    frequencies:
        Absolute subcarrier frequencies shared by all rows; defaults to the
        Intel 5300 grid (whose weight vector is cached).

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
    if frequencies is not None:
        # Validate before computing: a malformed custom grid must raise here,
        # not emit ``**-2.0`` warnings first (the historical check order).
        frequencies = np.asarray(frequencies, dtype=float)
        if frequencies.shape != csi_rows.shape[-1:]:
            raise ValueError(
                f"frequencies shape {frequencies.shape} does not match csi shape "
                f"{csi_rows.shape[-1:]}"
            )
        weights = _apportionment_weights(frequencies)
    else:
        weights = _apportionment_weights(None)
        # Guard the default grid too: rows of the wrong subcarrier count must
        # fail with the historical message, not broadcast to (rows, 30).
        if weights.shape != csi_rows.shape[-1:]:
            raise ValueError(
                f"frequencies shape {weights.shape} does not match csi shape "
                f"{csi_rows.shape[-1:]}"
            )
    total_los_power = dominant_tap_power_batch(csi_rows)
    return weights[None, :] * total_los_power[:, None]


def multipath_factor_batch(
    csi_rows: np.ndarray, frequencies: np.ndarray | None = None
) -> np.ndarray:
    """Per-subcarrier multipath factor ``mu_k`` (Eq. 11) of a stack of CSI rows.

    The workhorse behind :func:`multipath_factor_trace` (and through it the
    subcarrier weighting and detector scoring): one stacked IFFT for the LOS
    powers, one broadcast division for the ratios.  Bit-identical to the
    per-row loop, which the parity suite checks.  One packet of shape
    ``(antennas, subcarriers)`` is a batch of its antenna rows.

    Parameters
    ----------
    csi_rows:
        Complex CSI of shape ``(..., num_subcarriers)``; leading axes (for
        example packets and antennas) are flattened for the batch and
        restored on output.
    frequencies:
        Absolute subcarrier frequencies; defaults to the Intel 5300 grid.

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
    los_power = los_power_per_subcarrier_batch(rows, frequencies)
    total_power = np.abs(rows) ** 2
    factors = los_power / np.maximum(total_power, 1e-30)
    return factors.reshape(shape)


def multipath_factor_trace(
    trace: CSITrace, frequencies: np.ndarray | None = None
) -> np.ndarray:
    """Multipath factors for every packet of a trace.

    All ``packets * antennas`` rows go through one stacked IFFT
    (:func:`multipath_factor_batch`) instead of the historical per-packet /
    per-antenna loop — the dominant cost of the campaign profile before this
    layer was batched.

    Returns an array of shape ``(num_packets, num_antennas, num_subcarriers)``.
    """
    return multipath_factor_batch(trace.csi, frequencies)


def temporal_mean_factor(factors: np.ndarray) -> np.ndarray:
    """Temporal mean ``mu_bar_k`` over the packet axis (Eq. 15 ingredient)."""
    factors = np.asarray(factors, dtype=float)
    if factors.ndim != 3:
        raise ValueError(
            "factors must have shape (packets, antennas, subcarriers), "
            f"got {factors.shape}"
        )
    return factors.mean(axis=0)


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


def stability_ratio(factors: np.ndarray) -> np.ndarray:
    """Fraction of packets where ``mu_k`` exceeds the per-packet median (Eq. 13–14).

    A subcarrier that is consistently above the median multipath factor of
    its packet is temporally stable and deserves a higher weight; one that
    only occasionally spikes is penalised.  The mask comes from
    :func:`exceeds_row_median`, which the stacked weights share.

    Parameters
    ----------
    factors:
        Multipath factors of shape ``(packets, antennas, subcarriers)``.

    Returns
    -------
    numpy.ndarray
        Ratios ``r_k`` in ``[0, 1]`` of shape ``(antennas, subcarriers)``.
    """
    factors = np.asarray(factors, dtype=float)
    if factors.ndim != 3:
        raise ValueError(
            "factors must have shape (packets, antennas, subcarriers), "
            f"got {factors.shape}"
        )
    return exceeds_row_median(factors).mean(axis=0)
