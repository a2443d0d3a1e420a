"""The numeric backend protocol.

A :class:`NumericBackend` is the set of elementwise transcendentals whose
NumPy SIMD kernels diverge from CPython's libm route in the last ulp — the
one place two implementations are needed.  Everything else (the IFFT, the
linear-phase fit, the surrounding arithmetic) has one implementation that
every mode shares.  Two backends ship:

* :class:`repro.backend.exact.ExactBackend` (``"exact"``) calls libm once per
  element, so its output is independent of NumPy's SIMD dispatch; it holds
  the campaign sha256 pins and is the default everywhere.
* :class:`repro.backend.fast.FastBackend` (``"fast"``) takes NumPy's SIMD
  ufuncs; it is verified by tolerance parity (bounded score deltas,
  identical ROC operating points) rather than byte equality.

Every kernel of every backend is elementwise, hence row-independent: a row's
result never depends on how many rows share the call.  Acquisition and the
stacked scoring program rely on this for their batch-invariance contracts (a
window's packets and score are bit-identical for any batch size or
composition).  Every layer takes the same operation order under every
backend; backends differ only inside these kernels.

Backends are looked up by name in :data:`repro.backend.registry.DEFAULT_REGISTRY`
and activated with :func:`repro.backend.use_backend`; kernels are taken from
:func:`repro.backend.active_backend` at call time, so a whole campaign, fleet
shard or CLI command switches modes with one ``with`` block.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

import numpy as np


@runtime_checkable
class NumericBackend(Protocol):
    """The elementwise transcendentals the batch-path modules draw from.

    Implementations are stateless and take no constructor arguments, so the
    registry holds one instance per backend, shared by every caller in the
    process.
    """

    #: Registry name, e.g. ``"exact"``; also the obs span/snapshot tag value.
    name: str

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
