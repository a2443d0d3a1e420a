"""CSI phase sanitisation.

Raw CSI phase is unusable as-is: every packet carries a random common phase
(residual CFO) and a linear phase slope across subcarriers (SFO and packet
detection delay).  The paper calibrates its raw CSI "as in [26]" (Sen et al.,
*You Are Facing the Mona Lisa*), which removes exactly these two terms by a
linear fit of the unwrapped phase against the subcarrier index.

The sanitised phase preserves the *relative* phase structure across
subcarriers and antennas, which is what the multipath factor and the MUSIC
angle estimation consume.

Sanitisation runs over whole traces in one vectorised pass: a batched unwrap
over ``(packets, subcarriers)`` (``np.unwrap``'s bytes, with its modulo run
only on the steps that wrap), one batched least-squares slope/offset fit
and one broadcast correction.  The fit keeps ``np.polyfit``'s preprocessing
(Vandermonde matrix, column scaling, default ``rcond``) but applies one cached
pseudo-inverse of the shared design matrix to every row, so it agrees with a
per-frame ``np.polyfit`` to rounding, not to the bit.  Every frame's fit is
independent of the others, so a window sanitised inside any batch is
bit-identical to the same window sanitised alone.  The fit and the unwrap
have no libm transcendental, so both numeric backends share them; only the
correction phasor comes from the active backend.
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro.backend import active_backend
from repro.csi.trace import CSITrace


#: Pseudo-inverses of the scaled fit design matrix, keyed by abscissa bytes;
#: one ``2 x K`` entry per subcarrier grid in use.
_FIT_PINVS: dict[bytes, np.ndarray] = {}


def _linear_phase_fits(indices: np.ndarray, phases: np.ndarray) -> np.ndarray:
    """Per-row ``(slope, offset)`` degree-1 least-squares fits.

    Same Vandermonde/column-scaling/``rcond`` preprocessing as
    ``np.polyfit(indices, row, 1)``; the pseudo-inverse of the scaled design
    matrix is computed once per abscissa and applied row by row as an
    elementwise product and a reduction along the row.  No row sees another
    (a multi-RHS ``lstsq`` would give bits that depend on the row count), so
    the fits are batch-invariant.

    Parameters
    ----------
    indices:
        Shared abscissa (subcarrier indices), shape ``(K,)``.
    phases:
        Unwrapped phases, shape ``(rows, K)``.

    Returns
    -------
    numpy.ndarray
        Coefficients of shape ``(rows, 2)`` ordered ``[slope, offset]``.
    """
    indices = np.asarray(indices, dtype=float)
    phases = np.asarray(phases, dtype=float)
    key = indices.tobytes()
    pinv = _FIT_PINVS.get(key)
    if pinv is None:
        lhs = np.vander(indices, 2)
        scale = np.sqrt((lhs * lhs).sum(axis=0))
        rcond = len(indices) * np.finfo(indices.dtype).eps
        pinv = np.linalg.pinv(lhs / scale, rcond=rcond) / scale[:, None]
        _FIT_PINVS[key] = pinv
    return (phases[:, None, :] * pinv[None]).sum(axis=2)


def _unwrap(phases: np.ndarray) -> np.ndarray:
    """``np.unwrap(phases, axis=-1)``, bit for bit, correcting only the steps
    that wrap.

    ``np.unwrap`` reduces every step modulo 2π, then zeroes the correction
    of each step with ``abs(step) < π``.  Few steps of CSI phase wrap, so
    the reduction runs on those alone — the steps where ``not abs(step) <
    π``, which takes in NaN and infinite steps as ``np.unwrap`` does — with
    its expressions, boundary rule and running sum unchanged.
    """
    steps = np.diff(phases, axis=-1)
    wraps = ~(np.abs(steps) < np.pi)
    wrapped = steps[wraps]
    reduced = np.mod(wrapped + np.pi, 2 * np.pi) - np.pi
    # A step of exactly +π reduces to -π; np.unwrap keeps its sign.
    reduced[(reduced == -np.pi) & (wrapped > 0)] = np.pi
    corrections = np.zeros_like(steps)
    corrections[wraps] = reduced - wrapped
    unwrapped = phases.copy()
    # np.unwrap's own form of the sum: an in-place add can keep the other
    # operand's NaN when both are NaN.
    unwrapped[..., 1:] = phases[..., 1:] + corrections.cumsum(axis=-1)
    return unwrapped


def sanitize_csi_array(csi: np.ndarray, subcarrier_indices: np.ndarray) -> np.ndarray:
    """Sanitise a stack of CSI packets in one vectorised pass.

    Each packet's linear phase fit is computed on antenna 0 and the same
    correction applied to all its antennas, preserving the inter-antenna
    phase needed for angle estimation.

    Parameters
    ----------
    csi:
        Complex CSI of shape ``(packets, antennas, subcarriers)``.
    subcarrier_indices:
        Abscissa of the linear phase fit, shape ``(subcarriers,)``.

    Returns
    -------
    numpy.ndarray
        Sanitised CSI with the same shape; every packet is bit-identical to
        the same packet sanitised alone.
    """
    csi = np.asarray(csi, dtype=complex)
    if csi.ndim != 3:
        raise ValueError(
            f"csi must have shape (packets, antennas, subcarriers), got {csi.shape}"
        )
    subcarriers = csi.shape[2]
    indices = np.asarray(subcarrier_indices, dtype=float)
    if indices.shape != (subcarriers,):
        raise ValueError(
            f"subcarrier_indices has shape {indices.shape}, expected ({subcarriers},)"
        )
    with obs.span("collect.sanitize"):
        phases = _unwrap(np.angle(csi[:, 0, :]))
        coefficients = _linear_phase_fits(indices, phases)
        corrections = (
            coefficients[:, :1] * indices[None, :] + coefficients[:, 1:]
        )
        return csi * active_backend().cis(-corrections)[:, None, :]


def sanitize_trace(trace: CSITrace) -> CSITrace:
    """Sanitise every frame of a trace in one batched pass.

    Bit-identical with sanitising each frame alone, but the unwrap, the
    least-squares fits and the correction run over the whole
    ``(packets, subcarriers)`` stack at once.  The returned trace shares the
    input's timestamps (copied), subcarrier grid and label.
    """
    sanitized = sanitize_csi_array(
        trace.csi, np.asarray(trace.subcarrier_indices, dtype=float)
    )
    return CSITrace(
        csi=sanitized,
        timestamps=trace.timestamps.copy(),
        subcarrier_indices=trace.subcarrier_indices,
        label=trace.label,
    )
