"""The SIMD backend: NumPy ufuncs and a cached least-squares pseudo-inverse.

``fast`` trades the last-ulp bit parity of :class:`repro.backend.exact.ExactBackend`
for NumPy's vectorised kernels:

* the transcendentals are the bare SIMD ufuncs (``np.exp``/``np.hypot``/
  ``np.sin``/``np.arccos``/``np.power``) instead of a Python-level libm call
  per element;
* the linear-phase fit applies one cached ``2 x K`` pseudo-inverse of the
  shared design matrix to every row instead of per-row LAPACK solves.

Every kernel is row-independent — a row's result does not depend on how
many rows share the call — so scores stay bit-identical for any batch size,
as under ``exact``.  Scores produced under ``fast`` differ from ``exact`` in
the trailing bits only; the parity suite (``tests/test_backend_parity.py``)
bounds the per-window score deltas and requires identical ROC operating
points and headline detection numbers.  This module is deliberately
*outside* the DET001 lint scope — bare NumPy transcendentals are the point
here.

The backend is float32-capable: ``FastBackend(dtype=np.float32)`` computes
through single precision (useful for accelerator offload experiments), but
the registered ``"fast"`` instance stays float64 so its output is directly
comparable to ``exact``.
"""

from __future__ import annotations

import numpy as np

from repro.backend.registry import register_backend


@register_backend("fast")
class FastBackend:
    """Bare NumPy SIMD kernels with tolerance (not byte) parity."""

    name = "fast"

    def __init__(self, dtype=np.float64) -> None:
        self._real_dtype = np.dtype(dtype)
        if self._real_dtype == np.dtype(np.float32):
            self._complex_dtype = np.dtype(np.complex64)
        else:
            self._complex_dtype = np.dtype(np.complex128)
        self._fit_pinvs: dict[bytes, np.ndarray] = {}

    @property
    def real_dtype(self):
        return self._real_dtype

    @property
    def complex_dtype(self):
        return self._complex_dtype

    def _as_real(self, x) -> np.ndarray:
        return np.asarray(x, dtype=self._real_dtype)

    # -- elementwise transcendentals ------------------------------------- #
    def exp(self, x: np.ndarray) -> np.ndarray:
        return np.exp(self._as_real(x))

    def hypot(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return np.hypot(self._as_real(x), self._as_real(y))

    def sin(self, x: np.ndarray) -> np.ndarray:
        return np.sin(self._as_real(x))

    def acos(self, x: np.ndarray) -> np.ndarray:
        return np.arccos(self._as_real(x))

    def power(self, x: np.ndarray, exponent: float) -> np.ndarray:
        return np.power(self._as_real(x), exponent)

    def power_elementwise(self, x: np.ndarray, p: np.ndarray) -> np.ndarray:
        return np.power(self._as_real(x), self._as_real(p))

    def gauss(self, x: np.ndarray) -> np.ndarray:
        x = self._as_real(x)
        return np.exp(-(x * x))

    def cis(self, theta: np.ndarray) -> np.ndarray:
        theta = self._as_real(theta)
        # cos/sin into the real/imag views skips the exp(0) factor (and the
        # temporary) a complex ``exp`` of a purely imaginary argument pays.
        out = np.empty(theta.shape, dtype=self._complex_dtype)
        np.cos(theta, out=out.real)
        np.sin(theta, out=out.imag)
        return out

    # -- FFT entry points ------------------------------------------------ #
    def ifft(self, rows: np.ndarray, axis: int = -1) -> np.ndarray:
        # pocketfft transforms each row on its own; a cached IDFT matrix
        # multiply (BLAS zgemm) gives different bits for a one-row call.
        return np.fft.ifft(rows, axis=axis)

    # -- batched linear algebra ------------------------------------------ #
    def linear_phase_fits(self, indices: np.ndarray, phases: np.ndarray) -> np.ndarray:
        """Every row through one cached ``2 x K`` pseudo-inverse.

        Same Vandermonde/column-scaling/``rcond`` preprocessing as the exact
        backend; the pseudo-inverse of the scaled design matrix is computed
        once per abscissa and applied row by row as an elementwise product
        and a reduction along the row — no row sees another, unlike a
        multi-RHS ``lstsq`` whose bits depend on the row count.  Tolerance,
        not byte, parity with ``np.polyfit``.
        """
        indices = np.asarray(indices, dtype=self._real_dtype)
        phases = np.asarray(phases, dtype=self._real_dtype)
        key = indices.tobytes()
        pinv = self._fit_pinvs.get(key)
        if pinv is None:
            lhs = np.vander(indices, 2)
            scale = np.sqrt((lhs * lhs).sum(axis=0))
            rcond = len(indices) * np.finfo(indices.dtype).eps
            pinv = np.linalg.pinv(lhs / scale, rcond=rcond) / scale[:, None]
            self._fit_pinvs[key] = pinv
        return (phases[:, None, :] * pinv[None]).sum(axis=2)
