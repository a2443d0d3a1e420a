"""Cross-link window scheduling of streaming detection sessions.

A fleet link's arrival times and packet pool are fixed at set-up, so every
window it will complete is known in advance.  :class:`FleetScheduler` plans
them from arrays — each link's window starts
(:meth:`~repro.api.session.StreamingSession.window_starts`), each completing
at its last packet's arrival — sorts all links' windows once by (completion
time, link position) and scores them in flushes of ``batch_windows`` through
the shared batch scorer (:func:`repro.api.monitor.score_windows_batch`).
Set-up acquires only the pool frames these windows read, and a window
gathers them through :meth:`~repro.fleet.traffic.LinkTraffic.arrival_csi`
(:class:`IndexError` for a frame its traffic did not acquire).  The fleet
engine hands it only the links that complete a window: set-up gives an idle
link no session, so its checks never see one.

A window's score depends only on its detector's calibration and its packets
(:func:`repro.api.monitor.score_windows`), and every event field is
session-local, so the events are byte-for-byte the ones sequential per-link
:meth:`~repro.api.session.StreamingSession.push` would produce, for any batch
size.  Each event's latency is its flush's wall time, read through the
:mod:`repro.obs` clock seam (a :class:`~repro.obs.clock.ManualClock` under
test); timings feed the stats only, never the events or their digest.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro import obs
from repro.api.monitor import score_windows_batch
from repro.api.session import DetectionEvent, StreamingSession
from repro.csi.trace import CSITrace
from repro.utils.validation import check_integer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.fleet.traffic import LinkTraffic


@dataclass(frozen=True)
class ScheduleStats:
    """Throughput/latency measurements of one scheduler run.

    Attributes
    ----------
    arrivals:
        Packets consumed across the scheduled links.
    windows:
        Monitoring windows completed and scored.
    elapsed_s:
        Wall-clock seconds of the run (window plan, gathering, batch
        scoring).
    latencies_s:
        Flush wall latency of every event, in emission order: the time from
        the start of the event's flush (gathering its windows) to the
        emission of that flush's events.
    """

    arrivals: int
    windows: int
    elapsed_s: float
    latencies_s: tuple[float, ...]


def _window(
    session: StreamingSession, traffic: "LinkTraffic", start: int
) -> tuple[StreamingSession, CSITrace, int]:
    """The window starting at packet *start* and the packet count at which
    it completes (:meth:`~repro.fleet.traffic.LinkTraffic.arrival_csi`
    gives its frames)."""
    end = start + session.window_packets
    window = CSITrace(
        csi=traffic.arrival_csi(np.arange(start, end)),
        timestamps=traffic.arrivals[start:end],
        subcarrier_indices=traffic.subcarrier_indices,
        label=session.link_name,
    )
    return session, window, end


class FleetScheduler:
    """Plan every link's windows in global time order and score them in
    cross-link batches.

    Parameters
    ----------
    batch_windows:
        Windows per scoring flush.  ``1`` scores every window on its own
        (lowest latency); larger values trade latency for vectorization (the
        batch scorer stacks each scheme's windows into one kernel call).
        Events are bit-identical for every value.
    """

    def __init__(self, *, batch_windows: int = 32) -> None:
        if check_integer("batch_windows", batch_windows) < 1:
            raise ValueError(f"batch_windows must be >= 1, got {batch_windows}")
        self.batch_windows = batch_windows

    def run(
        self, streams: Sequence[tuple[StreamingSession, "LinkTraffic"]]
    ) -> tuple[list[DetectionEvent], ScheduleStats]:
        """Score every link's traffic through its fresh session, in global
        time order.

        Returns the emitted events (in emission order: window-completion
        order, batched) and the run's :class:`ScheduleStats`.
        """
        for session, _ in streams:
            if not isinstance(session, StreamingSession):
                raise TypeError(
                    f"streams must pair StreamingSessions with traffic, "
                    f"got {type(session).__name__}"
                )
            if not session.is_calibrated:
                raise RuntimeError(
                    "StreamingSession must be calibrated before pushing frames"
                )
            if session.packets_seen or session.events_emitted:
                raise ValueError(
                    "FleetScheduler plans windows from a session's first "
                    "packet; reset() sessions that have already streamed"
                )
        clock = obs.active_clock()
        started_at = clock.now()
        # Every window of every link: first packet, completion time, link.
        link_starts = [
            session.window_starts(traffic.num_arrivals) for session, traffic in streams
        ]
        completions = [
            traffic.arrivals[starts + session.window_packets - 1]
            for starts, (session, traffic) in zip(link_starts, streams)
        ]
        positions = np.repeat(
            np.arange(len(streams)), [starts.size for starts in link_starts]
        )
        # Sorted by (completion time, link position); the sort is stable, so
        # a link's windows stay in order.
        order = np.lexsort((positions, np.concatenate([np.empty(0), *completions])))
        starts = np.concatenate([np.empty(0, dtype=int), *link_starts])
        plan = list(zip(positions[order].tolist(), starts[order].tolist()))

        events: list[DetectionEvent] = []
        latencies: list[float] = []
        for lo in range(0, len(plan), self.batch_windows):
            flush_started = clock.now()
            flushed = score_windows_batch(
                [
                    _window(*streams[position], start)
                    for position, start in plan[lo : lo + self.batch_windows]
                ]
            )
            latency = clock.now() - flush_started
            for _ in flushed:
                obs.observe("fleet.latency_s", latency)
            latencies.extend([latency] * len(flushed))
            events.extend(flushed)
        elapsed = clock.now() - started_at
        obs.count("fleet.windows", len(events))
        return events, ScheduleStats(
            arrivals=sum(traffic.num_arrivals for _, traffic in streams),
            windows=len(events),
            elapsed_s=elapsed,
            latencies_s=tuple(latencies),
        )
