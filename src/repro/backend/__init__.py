"""The two numeric backends (`exact` bit-parity vs `fast` SIMD).

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
backend.  :data:`BACKENDS` is the closed table of the two; every config with
a ``backend`` field checks the name against it with :func:`check_backend`
when it is built, so a mistyped name never reaches a run.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

from repro.backend.base import NumericBackend
from repro.backend.exact import ExactBackend
from repro.backend.fast import FastBackend

__all__ = [
    "BACKENDS",
    "NumericBackend",
    "active_backend",
    "check_backend",
    "use_backend",
]

#: The backends by name.  A backend is stateless, so every caller in the
#: process shares one instance.
BACKENDS: dict[str, NumericBackend] = {"exact": ExactBackend(), "fast": FastBackend()}

#: The process-wide active backend; module-global so the per-call-site cost
#: of `active_backend()` is one dict-free attribute read.
_ACTIVE: NumericBackend = BACKENDS["exact"]


def check_backend(name: str) -> str:
    """*name* if it names a backend; otherwise a one-line ``ValueError``
    listing the backends."""
    if not isinstance(name, str) or name not in BACKENDS:
        raise ValueError(f"unknown backend {name!r}; registered backends: {list(BACKENDS)}")
    return name


def active_backend() -> NumericBackend:
    """The backend whose kernels the batch-path modules are currently using."""
    return _ACTIVE


@contextmanager
def use_backend(name: str) -> Iterator[NumericBackend]:
    """Activate the backend *name* for the duration of a ``with`` block.

    Installs it as the process-wide active backend (``ValueError`` from
    :func:`check_backend` on an unknown name), tags the obs recorder with
    the backend name (a no-op when observability is off) and restores the
    previous backend on exit.  The obs tag is deliberately sticky: shard
    snapshots taken after the block closes still attribute their spans and
    metrics to the backend that produced them.
    """
    global _ACTIVE
    backend = BACKENDS[check_backend(name)]
    previous = _ACTIVE
    _ACTIVE = backend
    from repro import obs

    obs.tag("backend", backend.name)
    try:
        yield backend
    finally:
        _ACTIVE = previous
