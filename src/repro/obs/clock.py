"""The clock seam: the single sanctioned wall-clock source outside the CLI.

The repo's determinism contract forbids wall-clock reads in library code
(rule DET003 of ``repro lint``): scores, events and digests must be pure
functions of seed and config.  Timing *measurements* are still wanted — the
fleet scheduler reports each flush's wall latency, the sweep runner
per-point wall time — so every such measurement flows through this module
instead of calling :func:`time.perf_counter` directly:

* :class:`Clock` — the protocol (``now() -> float`` monotonic seconds);
* :class:`MonotonicClock` — the production clock, the only place in
  ``src/repro`` outside the CLI entry points that touches ``time.*``
  (``[tool.repro.lint]`` scopes DET003 to exclude exactly this file);
* :class:`ManualClock` — a deterministic clock for tests: time advances only
  when the test says so, which makes span durations, histogram contents and
  latency stats exact, assertable values.

Instrumented code never imports ``time``; it asks the active recorder for
its clock (:func:`repro.obs.trace.active_clock`) or accepts a ``Clock``
explicitly.  Swapping in a :class:`ManualClock` therefore freezes every
timing number in the system without touching the measured code.
"""

from __future__ import annotations

import time
from typing import Protocol, runtime_checkable


@runtime_checkable
class Clock(Protocol):
    """Anything that can report monotonic seconds."""

    def now(self) -> float:
        """The current monotonic time, in seconds."""
        ...  # pragma: no cover - protocol body


class MonotonicClock:
    """The production clock: a thin seam over ``time.perf_counter``.

    This is the one sanctioned wall-clock read in library code; everything
    else measures time through a :class:`Clock` it was handed (or the active
    recorder's clock), so tests can substitute a :class:`ManualClock`.
    """

    __slots__ = ()

    def now(self) -> float:
        """Monotonic wall-clock seconds (undefined epoch, like perf_counter)."""
        return time.perf_counter()

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class ManualClock:
    """A test clock: time stands still until :meth:`advance` is called.

    ::

        clock = ManualClock()
        with Recorder(clock=clock).span("stage"):
            clock.advance(0.25)
        # the span's duration is exactly 0.25 s
    """

    __slots__ = ("_now",)

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)

    def now(self) -> float:
        """The frozen current time, in seconds."""
        return self._now

    def advance(self, seconds: float) -> float:
        """Move time forward by *seconds* (must be >= 0); returns the new time."""
        if seconds < 0:
            raise ValueError(f"a monotonic clock cannot go backwards, got {seconds}")
        self._now += float(seconds)
        return self._now

    def __repr__(self) -> str:
        return f"{type(self).__name__}(now={self._now})"


#: The shared production clock — what :func:`repro.obs.trace.active_clock`
#: falls back to when no recorder is installed.
MONOTONIC = MonotonicClock()
