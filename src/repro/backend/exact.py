"""The bit-parity backend: every transcendental takes the scalar libm route.

This is the default backend and the one the campaign sha256 pins are taken
against.  NumPy's own ``np.exp`` / ``np.hypot`` / ``np.arccos`` / ``**`` use
SIMD kernels (or ``x*x`` strength reduction for squares) that differ from
CPython's libm-backed :mod:`math` functions in the last ulp on some CPUs, so
the batch layers could not reproduce their scalar reference implementations
through them.  Each kernel here is an ``np.frompyfunc`` over :mod:`math`: the
*same* libm call the scalar code makes, applied elementwise.  All
surrounding arithmetic (``+ - * /``, ``min``/``max``/``clip``) is correctly
rounded per IEEE-754 and therefore identical between NumPy and Python
scalars; only these functions need the exact route.  The cost is a
Python-level call per element, which is fine for the small arrays these
appear in (person-to-segment offsets, per-scene angles, per-row tap powers).

DET001 (the determinism lint's libm-routing rule) is scoped to this module:
a bare NumPy transcendental here would silently break the sha256 pins, so
the lint keeps the libm routing honest.
"""

from __future__ import annotations

import math

import numpy as np

from repro.backend.registry import register_backend

_EXP = np.frompyfunc(math.exp, 1, 1)
_HYPOT = np.frompyfunc(math.hypot, 2, 1)
_SIN = np.frompyfunc(math.sin, 1, 1)
_ACOS = np.frompyfunc(math.acos, 1, 1)
# ``float.__pow__`` calls libm ``pow``, whereas ``np.ndarray.__pow__``
# strength-reduces small integral exponents to repeated multiplication.
_POW = np.frompyfunc(lambda x, p: float(x) ** p, 2, 1)
_POW_ELEMENTWISE = np.frompyfunc(lambda x, p: float(x) ** float(p), 2, 1)
#: ``math.exp(-(r ** 2))`` fused into one pass, so the batched shadowing
#: profile reproduces the scalar expression (libm ``pow`` then libm ``exp``).
_GAUSS = np.frompyfunc(lambda r: math.exp(-(float(r) ** 2)), 1, 1)


@register_backend("exact")
class ExactBackend:
    """Libm-routed kernels, bit-identical to the scalar reference path."""

    name = "exact"

    def exp(self, x: np.ndarray) -> np.ndarray:
        return _EXP(np.asarray(x, dtype=float)).astype(float)

    def hypot(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
        return _HYPOT(x, y).astype(float)

    def sin(self, x: np.ndarray) -> np.ndarray:
        return _SIN(np.asarray(x, dtype=float)).astype(float)

    def acos(self, x: np.ndarray) -> np.ndarray:
        return _ACOS(np.asarray(x, dtype=float)).astype(float)

    def power(self, x: np.ndarray, exponent: float) -> np.ndarray:
        return _POW(np.asarray(x, dtype=float), float(exponent)).astype(float)

    def power_elementwise(self, x: np.ndarray, p: np.ndarray) -> np.ndarray:
        x, p = np.asarray(x, dtype=float), np.asarray(p, dtype=float)
        return _POW_ELEMENTWISE(x, p).astype(float)

    def gauss(self, x: np.ndarray) -> np.ndarray:
        return _GAUSS(np.asarray(x, dtype=float)).astype(float)

    def cis(self, theta: np.ndarray) -> np.ndarray:
        # Bit-identical to the historical ``np.exp(1j * theta)`` call sites:
        # complex exp evaluates exp(re) * (cos(im) + 1j sin(im)) with
        # exp(+/-0.0) == 1.0 exactly, so the sign of the zero real part
        # (from ``1j * theta`` vs ``-1j * (-theta)``) never surfaces.
        return np.exp(1j * np.asarray(theta, dtype=float))
