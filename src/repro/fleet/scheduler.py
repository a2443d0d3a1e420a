"""Event-ordered cross-link scheduling of streaming detection sessions.

The fleet's links ping at independent Poisson rates, so their packets arrive
interleaved in one global time order.  :class:`FleetScheduler` merges the
per-link arrival streams with a heap (one entry per live link, keyed by its
next arrival time), advances each link's
:class:`~repro.api.session.StreamingSession` window state through the
non-scoring :meth:`~repro.api.session.StreamingSession.advance` hook, and
defers the scoring of completed windows: ready windows accumulate across
links and are flushed through the shared vectorized batch scorer
(:func:`repro.api.monitor.score_windows_batch`) once ``batch_windows`` of
them are pending.

Batching changes *when* a window is scored, never *what* its score is: a
window's score depends only on its detector's calibration and its packets
(:func:`repro.api.monitor.score_windows`), and every event field is
session-local, so the emitted events are byte-for-byte the ones sequential
per-link :meth:`~repro.api.session.StreamingSession.push` would produce —
for any batch size and any link interleaving.  The flush
delay is what the scheduler *measures*: each ready window records its
completion instant, and the arrival-to-emission latency of every event is
reported alongside throughput.  All timestamps come from the
:mod:`repro.obs` clock seam — wall clock by default, a
:class:`~repro.obs.clock.ManualClock` under test — and feed the stats only,
never the events or their digest.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from repro import obs
from repro.api.monitor import score_windows_batch
from repro.api.session import DetectionEvent, StreamingSession
from repro.obs.clock import Clock

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.csi.trace import CSITrace

    from repro.fleet.traffic import LinkTraffic


@dataclass(frozen=True)
class ScheduleStats:
    """Throughput/latency measurements of one scheduler run.

    Attributes
    ----------
    arrivals:
        Packets consumed across all links.
    windows:
        Monitoring windows completed and scored.
    elapsed_s:
        Wall-clock seconds of the scheduling loop (arrival merge, window
        advance, batch scoring).
    latencies_s:
        Arrival-to-emission wall latency of every event, in emission order:
        the delay between a window completing and its event being emitted
        after the batch flush.
    """

    arrivals: int
    windows: int
    elapsed_s: float
    latencies_s: tuple[float, ...]


class FleetScheduler:
    """Merge per-link arrival streams and batch window scoring across links.

    Parameters
    ----------
    batch_windows:
        Ready windows accumulated before a scoring flush.  ``1`` scores
        every window the moment it completes (lowest latency); larger values
        trade latency for vectorization (the batch scorer stacks each
        scheme's windows into one kernel call).  Events are bit-identical
        for every value.
    clock:
        Time source for the throughput and latency stamps; defaults to the
        active :mod:`repro.obs` clock (wall clock unless a recorder with a
        :class:`~repro.obs.clock.ManualClock` is installed).
    """

    def __init__(
        self, *, batch_windows: int = 32, clock: Clock | None = None
    ) -> None:
        if batch_windows < 1:
            raise ValueError(f"batch_windows must be >= 1, got {batch_windows}")
        self.batch_windows = batch_windows
        self.clock = clock

    def run(
        self, streams: Sequence[tuple[StreamingSession, "LinkTraffic"]]
    ) -> tuple[list[DetectionEvent], ScheduleStats]:
        """Drive every link's traffic through its session, in global time order.

        Returns the emitted events (in emission order: window-completion
        order, batched) and the run's :class:`ScheduleStats`.
        """
        for session, _ in streams:
            if not isinstance(session, StreamingSession):
                raise TypeError(
                    f"streams must pair StreamingSessions with traffic, "
                    f"got {type(session).__name__}"
                )
        clock = self.clock if self.clock is not None else obs.active_clock()
        events: list[DetectionEvent] = []
        latencies: list[float] = []
        pending: list[tuple[StreamingSession, "CSITrace", float]] = []

        def flush() -> None:
            if not pending:
                return
            flushed = score_windows_batch([(s, w) for s, w, _ in pending])
            emitted_at = clock.now()
            for _, _, ready_at in pending:
                latency = emitted_at - ready_at
                latencies.append(latency)
                obs.observe("fleet.latency_s", latency)
            events.extend(flushed)
            pending.clear()

        # One heap entry per link that still has arrivals: (next time, link
        # position, arrival index).  The link position breaks exact-time ties
        # deterministically.
        heap: list[tuple[float, int, int]] = [
            (float(traffic.arrivals[0]), position, 0)
            for position, (_, traffic) in enumerate(streams)
            if traffic.num_arrivals > 0
        ]
        heapq.heapify(heap)

        arrivals = 0
        windows = 0
        started_at = clock.now()
        while heap:
            _, position, index = heapq.heappop(heap)
            session, traffic = streams[position]
            arrivals += 1
            if session.advance(traffic.frame(index)):
                windows += 1
                pending.append((session, session.pending_window(), clock.now()))
                if len(pending) >= self.batch_windows:
                    flush()
            if index + 1 < traffic.num_arrivals:
                heapq.heappush(
                    heap, (float(traffic.arrivals[index + 1]), position, index + 1)
                )
        flush()
        elapsed = clock.now() - started_at
        obs.count("fleet.arrivals", arrivals)
        obs.count("fleet.windows", windows)
        return events, ScheduleStats(
            arrivals=arrivals,
            windows=windows,
            elapsed_s=elapsed,
            latencies_s=tuple(latencies),
        )
