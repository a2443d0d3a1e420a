"""The bit-parity backend: every kernel takes the scalar libm route.

This is the default backend and the one the campaign sha256 pins are taken
against.  The elementwise transcendentals delegate to
:mod:`repro.utils.exactmath` (``np.frompyfunc`` over :mod:`math`, i.e. the
same libm calls the scalar reference code makes), the IFFT is NumPy's own
(the scalar and batch paths share pocketfft, so there is nothing to pin
around), and the batched linear-phase fit replicates ``np.polyfit(deg=1)``
bit-for-bit through NumPy's private ``lstsq`` gufunc with a per-row
``np.polyfit`` fallback.

DET001 (the determinism lint's exactmath-routing rule) is scoped to this
module: a bare NumPy transcendental here would silently break the sha256
pins, so the lint keeps the libm routing honest.  The private-API rule
DET006 is excluded for this module in ``pyproject.toml`` — the gufunc import
below is the one sanctioned private-NumPy site in the tree, guarded by a
try/except and the ``REPRO_FORCE_POLYFIT_FALLBACK`` escape hatch.
"""

from __future__ import annotations

import math
import os

import numpy as np

from repro.backend.registry import register_backend
from repro.utils import exactmath

#: Elementwise ``math.exp(-(r ** 2))`` — the Gaussian core of the human
#: shadowing profile, fused into one exact pass so the batched attenuation
#: reproduces the scalar expression bit-for-bit (both the libm ``pow`` of
#: ``r ** 2`` and the libm ``exp``).
_GAUSS_PROFILE = np.frompyfunc(lambda r: math.exp(-(float(r) ** 2)), 1, 1)

try:  # pragma: no cover - import guard exercised implicitly
    from numpy.linalg import _umath_linalg as _umath_linalg

    _LSTSQ_GUFUNC = getattr(_umath_linalg, "lstsq", None) or getattr(
        _umath_linalg, "lstsq_m", None
    )
except Exception:  # pragma: no cover - numpy layout change
    _LSTSQ_GUFUNC = None

# Deterministic escape hatch for CI: setting REPRO_FORCE_POLYFIT_FALLBACK
# (to anything but an explicit off value) makes the batched fits take the
# per-row np.polyfit path even when the private gufunc is available, so the
# fallback is exercised on every NumPy rather than only on layouts where the
# gufunc has moved.
if os.environ.get("REPRO_FORCE_POLYFIT_FALLBACK", "").strip().lower() not in (
    "",
    "0",
    "false",
    "no",
):
    _LSTSQ_GUFUNC = None


@register_backend("exact")
class ExactBackend:
    """Libm-routed kernels, bit-identical to the scalar reference path."""

    name = "exact"

    @property
    def real_dtype(self):
        return np.dtype(np.float64)

    @property
    def complex_dtype(self):
        return np.dtype(np.complex128)

    # -- elementwise transcendentals ------------------------------------- #
    def exp(self, x: np.ndarray) -> np.ndarray:
        return exactmath.exp(x)

    def hypot(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return exactmath.hypot(x, y)

    def sin(self, x: np.ndarray) -> np.ndarray:
        return exactmath.sin(x)

    def acos(self, x: np.ndarray) -> np.ndarray:
        return exactmath.acos(x)

    def power(self, x: np.ndarray, exponent: float) -> np.ndarray:
        return exactmath.power(x, exponent)

    def power_elementwise(self, x: np.ndarray, p: np.ndarray) -> np.ndarray:
        return exactmath.power_elementwise(x, p)

    def gauss(self, x: np.ndarray) -> np.ndarray:
        return _GAUSS_PROFILE(np.asarray(x, dtype=float)).astype(float)

    def cis(self, theta: np.ndarray) -> np.ndarray:
        # Bit-identical to the historical ``np.exp(1j * theta)`` call sites:
        # complex exp evaluates exp(re) * (cos(im) + 1j sin(im)) with
        # exp(+/-0.0) == 1.0 exactly, so the sign of the zero real part
        # (from ``1j * theta`` vs ``-1j * (-theta)``) never surfaces.
        return np.exp(1j * np.asarray(theta, dtype=float))

    # -- FFT entry points ------------------------------------------------ #
    def ifft(self, rows: np.ndarray, axis: int = -1) -> np.ndarray:
        return np.fft.ifft(rows, axis=axis)

    # -- batched linear algebra ------------------------------------------ #
    def linear_phase_fits(self, indices: np.ndarray, phases: np.ndarray) -> np.ndarray:
        """Per-row ``(slope, offset)`` fits, bit-identical to ``np.polyfit(deg=1)``.

        Replicates ``np.polyfit``'s preprocessing (Vandermonde matrix, column
        scaling, default ``rcond``) once for the shared abscissa, then solves
        all rows through the ``lstsq`` gufunc with a leading batch dimension:
        every row is still an independent single-RHS LAPACK solve on the same
        scaled matrix — exactly the computation ``np.polyfit(indices, row, 1)``
        runs — but the loop over rows happens in C.  Falls back to the literal
        per-row ``np.polyfit`` when the gufunc is unavailable.
        """
        # np.polyfit promotes x and y with `+ 0.0`, which also normalises any
        # negative zeros; repeat it so the fitted bits cannot differ.
        indices = np.asarray(indices, dtype=float) + 0.0
        phases = np.ascontiguousarray(phases, dtype=float) + 0.0
        if phases.shape[0] == 0:
            return np.zeros((0, 2), dtype=float)
        lhs = np.vander(indices, 2)
        scale = np.sqrt((lhs * lhs).sum(axis=0))
        lhs_scaled = lhs / scale
        rcond = len(indices) * np.finfo(indices.dtype).eps
        if _LSTSQ_GUFUNC is not None:
            stacked = np.broadcast_to(
                lhs_scaled, (phases.shape[0], *lhs_scaled.shape)
            )
            coefficients = _LSTSQ_GUFUNC(stacked, phases[:, :, None], rcond)[0][:, :, 0]
            return coefficients / scale[None, :]
        return np.stack([np.polyfit(indices, row, 1) for row in phases])
