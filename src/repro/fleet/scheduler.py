"""Cross-link window scheduling of streaming detection sessions.

A fleet link's arrival times and packet pool are fixed at set-up, so every
window it will complete is known in advance.  :class:`FleetScheduler` plans
them from arrays — each link's window starts
(:meth:`~repro.api.session.StreamingSession.window_starts`), each completing
at its last packet's arrival — sorts all links' windows once by (completion
time, link position) and scores them in flushes of ``batch_windows``.  Its
links are grouped once per run, before the pass is timed: by stack (frame
layout, window length and subcarrier grid) and by kernel
(:func:`repro.api.monitor.kernel_groups`).  The plan gives every window's
rows in its shard's frame layout
(:attr:`~repro.fleet.traffic.LinkTraffic.frames`), each checked against the
frames its link's traffic acquired before any flush runs: an unacquired
frame raises :class:`IndexError` instead of reading a neighbouring link's
rows.  A flush is then array work on :mod:`repro.api.monitor`'s stack
program:

* gather: the flush's ``(windows, packets)`` frame-index matrix indexes the
  frame layout once per stack;
* score: one ``score.batch`` pass, :func:`~repro.api.monitor.prepare_stack`
  (one sanitisation of the stack) and
  :func:`~repro.api.monitor.score_stack` per kernel group;
* emit: each row's event straight from the score array through
  :meth:`~repro.api.session.StreamingSession.emit`.

The engine hands the scheduler only the links that complete a window:
set-up gives an idle link no session, so its checks never see one.

A window's score depends only on its detector's calibration and its packets,
and every event field is session-local, so the events are byte-for-byte the
ones sequential per-link :meth:`~repro.api.session.StreamingSession.push`
would produce, for any batch size.  Each event's latency is its flush's wall
time, read through the :mod:`repro.obs` clock seam (a
:class:`~repro.obs.clock.ManualClock` under test); timings feed the stats
only, never the events or their digest.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Hashable, Sequence

import numpy as np

from repro import obs
from repro.api.monitor import kernel_groups, prepare_stack, score_stack
from repro.api.session import DetectionEvent, StreamingSession
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
        Wall-clock seconds of the pass: the window plan, then each flush's
        gathering, batch scoring and emission.  The per-link grouping
        before it is set-up.
    latencies_s:
        Flush wall latency of every event, in emission order: the time from
        the start of the event's flush (gathering its windows) to the
        emission of that flush's events.
    """

    arrivals: int
    windows: int
    elapsed_s: float
    latencies_s: tuple[float, ...]


def _unique_in_order(values: np.ndarray) -> list[int]:
    """The distinct entries of *values*, in first-seen order."""
    return list(dict.fromkeys(values.tolist()))


@dataclass(frozen=True)
class _LinkGroups:
    """The scheduled links grouped once, before the pass is timed.

    Per link: its window length, its stack (frame layout, window length and
    subcarrier grid: the windows one gather stacks), its kernel group
    (:func:`~repro.api.monitor.kernel_groups`) and where its frames sit in
    its layout.  ``stack_links`` names one link of each stack.
    """

    window: np.ndarray
    stack_of: np.ndarray
    stack_links: list[int]
    kernel_of: np.ndarray
    first: np.ndarray
    acquired: np.ndarray
    cycle: np.ndarray

    @classmethod
    def of(
        cls, sessions: Sequence[StreamingSession], traffics: Sequence["LinkTraffic"]
    ) -> "_LinkGroups":
        window = np.array([session.window_packets for session in sessions], dtype=int)
        stack_keys: dict[Hashable, int] = {}
        stack_links: list[int] = []
        stack_of = np.empty(len(sessions), dtype=int)
        for position, (traffic, size) in enumerate(zip(traffics, window.tolist())):
            key = (id(traffic.frames), size, tuple(traffic.subcarrier_indices))
            if key not in stack_keys:
                stack_keys[key] = len(stack_links)
                stack_links.append(position)
            stack_of[position] = stack_keys[key]
        kernel_of = np.empty(len(sessions), dtype=int)
        for kernel, group in enumerate(kernel_groups([session.detector for session in sessions])):
            kernel_of[group] = kernel
        return cls(
            window=window,
            stack_of=stack_of,
            stack_links=stack_links,
            kernel_of=kernel_of,
            first=np.array([traffic.first_frame for traffic in traffics], dtype=int),
            acquired=np.array([len(traffic.pool_occupied) for traffic in traffics], dtype=int),
            cycle=np.array([traffic.pool_cycle for traffic in traffics], dtype=int),
        )


class FleetScheduler:
    """Plan every link's windows in global time order and score them in
    cross-link batches.

    Parameters
    ----------
    batch_windows:
        Windows per scoring flush.  ``1`` scores every window on its own
        (lowest latency); larger values trade latency for vectorization (a
        flush's windows are one stack, scored in one kernel call per kernel
        group).  Events are bit-identical for every value.
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
        sessions = [session for session, _ in streams]
        traffics = [traffic for _, traffic in streams]
        with obs.span("fleet.schedule.group"):
            links = _LinkGroups.of(sessions, traffics)
        clock = obs.active_clock()
        started_at = clock.now()
        # Every window of every link: first packet, completion time, link.
        link_starts = [
            session.window_starts(traffic.num_arrivals) for session, traffic in streams
        ]
        completions = np.concatenate(
            [
                np.empty(0),
                *(
                    traffic.arrivals[starts + size - 1]
                    for starts, traffic, size in zip(link_starts, traffics, links.window)
                ),
            ]
        )
        positions = np.repeat(
            np.arange(len(streams)), [starts.size for starts in link_starts]
        )
        # Sorted by (completion time, link position); the sort is stable, so
        # a link's windows stay in order.
        order = np.lexsort((positions, completions))
        plan_links = positions[order]
        plan_starts = np.concatenate([np.empty(0, dtype=int), *link_starts])[order]
        plan_times = completions[order].tolist()
        plan_ends = (plan_starts + links.window[plan_links]).tolist()
        plan_emits = [sessions[link].emit for link in plan_links.tolist()]

        # Per stack: its windows' plan positions and layout rows, every row
        # checked before any flush, and per kernel group the rows of its
        # windows among them with their detectors.
        stacks = []
        plan_stack = links.stack_of[plan_links]
        for stack, link in enumerate(links.stack_links):
            positions = np.flatnonzero(plan_stack == stack)
            members = plan_links[positions]
            packets = plan_starts[positions, None] + np.arange(links.window[link])
            frames = packets % links.cycle[members, None]
            unread = np.argwhere(frames >= links.acquired[members, None])
            if unread.size:
                row, column = unread[0]
                reader = int(members[row])
                raise IndexError(
                    f"{sessions[reader].link_name or f'link {reader}'}: arrival "
                    f"{packets[row, column]} reads pool frame {frames[row, column]}, "
                    f"but its traffic acquired {links.acquired[reader]} frames"
                )
            kernels = links.kernel_of[members]
            groups = []
            for kernel in _unique_in_order(kernels):
                rows = np.flatnonzero(kernels == kernel)
                detectors = [sessions[reader].detector for reader in members[rows].tolist()]
                groups.append((rows, detectors))
            stacks.append((positions, links.first[members, None] + frames, groups, traffics[link]))

        events: list[DetectionEvent] = []
        latencies: list[float] = []
        for lo in range(0, plan_links.size, self.batch_windows):
            flush_started = clock.now()
            hi = min(lo + self.batch_windows, plan_links.size)
            with obs.span("fleet.schedule.gather"):
                flush = []
                for positions, index, groups, traffic in stacks:
                    a, b = np.searchsorted(positions, (lo, hi))
                    if a == b:
                        continue
                    jobs = []
                    for rows, detectors in groups:
                        c, d = np.searchsorted(rows, (a, b))
                        if c < d:
                            jobs.append((detectors[c:d], rows[c:d] - a))
                    csi = traffic.frames[index[a:b]]
                    flush.append((positions[a:b] - lo, csi, traffic.subcarrier_indices, jobs))
            scores = np.empty(hi - lo)
            with obs.span("score.batch"):
                for rows, csi, grid, jobs in flush:
                    values = score_stack(prepare_stack(csi, grid, jobs), jobs)
                    for (_, local), value in zip(jobs, values):
                        scores[rows[local]] = value
            with obs.span("fleet.schedule.emit"):
                events.extend(
                    emit(timestamp, score, end)
                    for emit, timestamp, score, end in zip(
                        plan_emits[lo:hi], plan_times[lo:hi], scores.tolist(), plan_ends[lo:hi]
                    )
                )
            latency = clock.now() - flush_started
            for _ in range(hi - lo):
                obs.observe("fleet.latency_s", latency)
            latencies.extend([latency] * (hi - lo))
        elapsed = clock.now() - started_at
        obs.count("fleet.windows", len(events))
        return events, ScheduleStats(
            arrivals=sum(traffic.num_arrivals for traffic in traffics),
            windows=len(events),
            elapsed_s=elapsed,
            latencies_s=tuple(latencies),
        )
