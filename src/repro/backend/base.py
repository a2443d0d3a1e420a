"""The numeric backend protocol.

Every transcendental whose NumPy SIMD kernel diverges from CPython's libm
route in the last ulp (see :mod:`repro.utils.exactmath`), plus the batched
linear-phase least-squares fit and the channel IFFT, reaches the batch-path
modules through a :class:`NumericBackend`.  Two implementations ship:

* :class:`repro.backend.exact.ExactBackend` (``"exact"``) routes every kernel
  through the same libm calls the scalar reference code makes, preserving the
  campaign sha256 pins byte-for-byte.  It is the default everywhere.
* :class:`repro.backend.fast.FastBackend` (``"fast"``) takes NumPy's SIMD
  ufuncs and a cached least-squares pseudo-inverse; it is verified by
  tolerance parity (bounded score deltas, identical ROC operating points)
  rather than byte equality.

Every kernel of every backend is row-independent: a row's result never
depends on how many rows share the call.  Acquisition and the stacked
scoring program rely on this for their batch-invariance contracts (a
window's packets and score are bit-identical for any batch size or
composition).  Every layer takes the same operation order under every
backend; backends differ only inside their kernels.

Backends are looked up by name in a :class:`repro.backend.registry.BackendRegistry`
and activated with :func:`repro.backend.use_backend`; kernels are taken from
:func:`repro.backend.active_backend` at call time, so a whole campaign, fleet
shard or CLI command switches modes with one ``with`` block.
"""

from __future__ import annotations

from typing import Any, Protocol, runtime_checkable

import numpy as np


@runtime_checkable
class NumericBackend(Protocol):
    """Kernel surface the batch-path modules draw from.

    Implementations are stateless apart from caches (FFT plans), so one
    instance per registry is shared by every caller in the process.
    """

    #: Registry name, e.g. ``"exact"``; also the obs span/snapshot tag value.
    name: str

    # -- dtype policy ---------------------------------------------------- #
    @property
    def real_dtype(self) -> Any:
        """Dtype for real-valued kernel results (``float64`` in exact mode)."""
        ...

    @property
    def complex_dtype(self) -> Any:
        """Dtype for complex kernel results (``complex128`` in exact mode)."""
        ...

    # -- elementwise transcendentals (the exactmath surface) ------------- #
    def exp(self, x: np.ndarray) -> np.ndarray:
        """Elementwise ``exp``."""
        ...

    def hypot(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Elementwise ``hypot`` with broadcasting."""
        ...

    def sin(self, x: np.ndarray) -> np.ndarray:
        """Elementwise ``sin``."""
        ...

    def acos(self, x: np.ndarray) -> np.ndarray:
        """Elementwise ``arccos``."""
        ...

    def power(self, x: np.ndarray, exponent: float) -> np.ndarray:
        """Elementwise ``x ** exponent`` for a scalar exponent."""
        ...

    def power_elementwise(self, x: np.ndarray, p: np.ndarray) -> np.ndarray:
        """Elementwise ``x ** p`` broadcasting over base and exponent."""
        ...

    def gauss(self, x: np.ndarray) -> np.ndarray:
        """Elementwise ``exp(-(x ** 2))`` (the shadowing-profile core).

        Fused because the scalar reference squares through libm ``pow`` and
        exponentiates through libm ``exp``; a backend that split the two
        NumPy-side would diverge in the last ulp on both steps.
        """
        ...

    def cis(self, theta: np.ndarray) -> np.ndarray:
        """Elementwise unit phasor ``exp(1j * theta)`` for real *theta*.

        The phase-rotation workhorse of sanitisation and impairment
        synthesis; ``exact`` takes NumPy's complex ``exp`` (shared by the
        scalar and batch paths, so there is nothing to pin around), ``fast``
        assembles ``cos + 1j sin`` directly.
        """
        ...

    # -- FFT entry points ------------------------------------------------ #
    def ifft(self, rows: np.ndarray, axis: int = -1) -> np.ndarray:
        """Inverse DFT along *axis* (the CFR → impulse-response transform)."""
        ...

    # -- batched linear algebra ------------------------------------------ #
    def linear_phase_fits(self, indices: np.ndarray, phases: np.ndarray) -> np.ndarray:
        """Per-row ``(slope, offset)`` degree-1 fits of *phases* against *indices*.

        ``indices`` has shape ``(K,)``, ``phases`` has shape ``(rows, K)``;
        the result has shape ``(rows, 2)`` ordered ``[slope, offset]``.
        """
        ...
