"""The SIMD backend: bare NumPy ufuncs.

``fast`` trades the last-ulp bit parity of :class:`repro.backend.exact.ExactBackend`
for NumPy's vectorised kernels: the transcendentals are the bare SIMD ufuncs
(``np.exp``/``np.hypot``/``np.sin``/``np.arccos``/``np.power``) instead of a
Python-level libm call per element.

Every kernel is elementwise, so scores stay bit-identical for any batch size,
as under ``exact``.  Scores produced under ``fast`` differ from ``exact`` in
the trailing bits only; the parity suite (``tests/test_backend_parity.py``)
bounds the per-window score deltas and requires identical ROC operating
points and headline detection numbers.  This module is deliberately
*outside* the DET001 lint scope — bare NumPy transcendentals are the point
here.
"""

from __future__ import annotations

import numpy as np

from repro.backend.registry import register_backend


@register_backend("fast")
class FastBackend:
    """Bare NumPy SIMD kernels with tolerance (not byte) parity."""

    name = "fast"

    def exp(self, x: np.ndarray) -> np.ndarray:
        return np.exp(np.asarray(x, dtype=float))

    def hypot(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return np.hypot(np.asarray(x, dtype=float), np.asarray(y, dtype=float))

    def sin(self, x: np.ndarray) -> np.ndarray:
        return np.sin(np.asarray(x, dtype=float))

    def acos(self, x: np.ndarray) -> np.ndarray:
        return np.arccos(np.asarray(x, dtype=float))

    def power(self, x: np.ndarray, exponent: float) -> np.ndarray:
        return np.power(np.asarray(x, dtype=float), exponent)

    def power_elementwise(self, x: np.ndarray, p: np.ndarray) -> np.ndarray:
        return np.power(np.asarray(x, dtype=float), np.asarray(p, dtype=float))

    def gauss(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return np.exp(-(x * x))

    def cis(self, theta: np.ndarray) -> np.ndarray:
        theta = np.asarray(theta, dtype=float)
        # cos/sin into the real/imag views skips the exp(0) factor (and the
        # temporary) a complex ``exp`` of a purely imaginary argument pays.
        out = np.empty(theta.shape, dtype=complex)
        np.cos(theta, out=out.real)
        np.sin(theta, out=out.imag)
        return out
