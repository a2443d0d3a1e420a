"""Pluggable numeric backends (`exact` bit-parity vs `fast` SIMD).

The batch-path modules take the elementwise transcendentals whose NumPy SIMD
kernels diverge from libm in the last ulp from the *active backend*; every
other stage (IFFT, phase fit, arithmetic) has one implementation shared by
both modes::

    from repro.backend import active_backend

    factor = active_backend().power(4.0 * np.pi * d, exponent)

The process-wide default is ``"exact"`` (libm-routed, bit-identical to the
scalar reference path; all sha256 pins hold).  A run switches modes with
:func:`use_backend`, which every entry point (campaign ``run_case``, fleet
shards, the ``figure``/``pipeline`` CLI commands) wraps around its
computation based on the ``backend`` config field::

    with use_backend("fast"):
        outcome = run_evaluation(config)   # SIMD kernels, tolerance parity

``use_backend`` also tags the observability recorder with the backend name,
so spans and metric snapshots recorded inside attribute stage timings per
backend.  New backends register through :func:`register_backend`, which
registers one shared instance of the decorated class — see
:class:`repro.backend.base.NumericBackend` for the protocol.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

from repro.backend.base import NumericBackend
from repro.backend.registry import DEFAULT_REGISTRY, available_backends, register_backend

# Importing the built-in implementations registers them.
from repro.backend import exact as _exact_module  # noqa: F401
from repro.backend import fast as _fast_module  # noqa: F401

__all__ = [
    "NumericBackend",
    "DEFAULT_REGISTRY",
    "available_backends",
    "register_backend",
    "active_backend",
    "resolve_backend",
    "use_backend",
]

#: The process-wide active backend; module-global so the per-call-site cost
#: of `active_backend()` is one dict-free attribute read.
_ACTIVE: NumericBackend = DEFAULT_REGISTRY.get("exact")


def active_backend() -> NumericBackend:
    """The backend whose kernels the batch-path modules are currently using."""
    return _ACTIVE


def resolve_backend(name: str | NumericBackend) -> NumericBackend:
    """Resolve *name* to its registered backend instance.

    Raises ``ValueError`` naming the registered backends when *name* is
    unknown; passes backend instances through unchanged.
    """
    return DEFAULT_REGISTRY.get(name) if isinstance(name, str) else name


@contextmanager
def use_backend(name: str | NumericBackend) -> Iterator[NumericBackend]:
    """Activate a backend for the duration of a ``with`` block.

    Resolves *name* through the registry (``ValueError`` on unknown names),
    installs the instance as the process-wide active backend, tags the obs
    recorder with the backend name (a no-op when observability is off) and
    restores the previous backend on exit.  The obs tag is deliberately
    sticky: shard snapshots taken after the block closes still attribute
    their spans and metrics to the backend that produced them.
    """
    global _ACTIVE
    backend = resolve_backend(name)
    previous = _ACTIVE
    _ACTIVE = backend
    from repro import obs

    obs.tag("backend", backend.name)
    try:
        yield backend
    finally:
        _ACTIVE = previous
