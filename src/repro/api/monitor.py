"""Cross-link scoring and calibration: one program over a stack of CSI.

Every caller scores and calibrates a stack of raw CSI, shape ``(rows,
packets, antennas, subcarriers)``, in the same two steps.
:func:`prepare_stack` sanitises every row a sanitising detector reads in one
:func:`~repro.csi.calibration.sanitize_csi_array` call, each packet once
however many detectors read it.  :func:`score_stack` then scores, and
:func:`calibrate_stack` calibrates, each kernel group's rows in one
:meth:`~repro.core.detector.Detector.stacked_scores` or
:meth:`~repro.core.detector.Detector.stacked_calibrate` call per chunk.

A *job* ``(detectors, rows)`` reads row ``rows[i]`` of the stack under
``detectors[i]``; its detectors share one kernel: class,
:meth:`~repro.core.detector.Detector.batch_key` and sanitise flag
(:func:`kernel_groups`).  The callers:

* the fleet scheduler (:mod:`repro.fleet.scheduler`) groups its links once
  per run and gathers each flush's stack from its shard's frame layout;
* :func:`calibrate_sessions` (behind
  :meth:`~repro.api.session.StreamingSession.calibrate` and the fleet's
  shard set-up) stacks the calibration traces, calibrates, and replays the
  prepared stack reshaped into tumbling windows;
* the campaign stacks a case's windows once (:func:`score_windows_shared`,
  after :func:`calibrate_shared`);
* :func:`score_windows` stacks arbitrary (detector, window) pairs.

A window's score depends only on its detector's calibration and its
packets, and a detector's state only on its own trace, so both are
bit-identical for any batch size or composition: a standalone
``detector.score(window)`` or ``detector.calibrate(trace)`` is the batch of
one.
"""

from __future__ import annotations

from typing import Hashable, Mapping, Sequence

import numpy as np

from repro import obs
from repro.core.detector import Detector
from repro.csi.calibration import sanitize_csi_array
from repro.csi.trace import CSITrace

from repro.api.session import StreamingSession

#: Most rows one kernel call stacks: bounds the temporaries of a large
#: calibration or replay and keeps each stack in cache (results do not
#: depend on how a job is split).
_MAX_STACK = 256

#: ``(detectors, rows)``: stack row ``rows[i]`` under ``detectors[i]``.
Job = tuple[Sequence[Detector], np.ndarray]


def kernel_groups(detectors: Sequence[Detector]) -> list[list[int]]:
    """Positions of *detectors* that one kernel call may stack, in
    first-seen order: same class,
    :meth:`~repro.core.detector.Detector.batch_key` and sanitise flag.  Each
    distinct detector's key is computed once."""
    keys: dict[int, Hashable] = {}
    groups: dict[Hashable, list[int]] = {}
    for position, detector in enumerate(detectors):
        if id(detector) not in keys:
            keys[id(detector)] = (type(detector), detector.batch_key(), detector.sanitize)
        groups.setdefault(keys[id(detector)], []).append(position)
    return list(groups.values())


def prepare_stack(
    csi: np.ndarray, subcarrier_indices: Sequence[int], jobs: Sequence[Job]
) -> dict[bool, np.ndarray]:
    """The raw stack *csi* as each job's kernel reads it, keyed by its
    detectors' sanitise flag.

    The rows a sanitising job reads are cleaned in one
    :func:`~repro.csi.calibration.sanitize_csi_array` call over their
    packets; sanitisation fits every packet on its own, so a cleaned row is
    the row sanitised alone.
    """
    views: dict[bool, np.ndarray] = {}
    needed = np.zeros(csi.shape[0], dtype=bool)
    for detectors, rows in jobs:
        if detectors[0].sanitize:
            needed[rows] = True
        else:
            views[False] = csi
    if needed.all():
        packets = csi.reshape(-1, *csi.shape[2:])
        views[True] = sanitize_csi_array(packets, subcarrier_indices).reshape(csi.shape)
    elif needed.any():
        cleaned = csi.copy()
        packets = csi[needed].reshape(-1, *csi.shape[2:])
        cleaned[needed] = sanitize_csi_array(packets, subcarrier_indices).reshape(
            (-1, *csi.shape[1:])
        )
        views[True] = cleaned
    return views


def _take(view: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``view[rows]``, as a slice (no copy) when *rows* are consecutive."""
    first = int(rows[0])
    if np.array_equal(rows, np.arange(first, first + rows.size)):
        return view[first : first + rows.size]
    return view[rows]


def _chunks(job: Job):
    """A job cut into ``(detectors, rows)`` pieces of at most ``_MAX_STACK``."""
    detectors, rows = job
    for lo in range(0, len(rows), _MAX_STACK):
        yield detectors[lo : lo + _MAX_STACK], rows[lo : lo + _MAX_STACK]


def score_stack(views: Mapping[bool, np.ndarray], jobs: Sequence[Job]) -> list[np.ndarray]:
    """Scores of each job's rows, from the view its detectors read
    (:func:`prepare_stack`).

    Each job is one :meth:`~repro.core.detector.Detector.stacked_scores`
    call per chunk, under its ``score.<scheme>`` span; jobs reading the same
    rows of one view share one stack and its window-only intermediates (the
    subcarrier weights).  The caller holds the ``score.batch`` span.
    """
    scratches: dict[tuple[bool, bytes], dict] = {}
    results = []
    for job in jobs:
        cls, clean = type(job[0][0]), job[0][0].sanitize
        scores = np.empty(len(job[1]))
        with obs.span(f"score.{cls.scheme}"):
            done = 0
            for detectors, rows in _chunks(job):
                scratch = scratches.setdefault((clean, rows.tobytes()), {})
                if "csi" not in scratch:
                    scratch["csi"] = _take(views[clean], rows)
                scores[done : done + len(rows)] = cls.stacked_scores(
                    detectors, scratch["csi"], scratch
                )
                done += len(rows)
        results.append(scores)
    obs.count("score.windows", sum(len(rows) for _, rows in jobs))
    return results


def calibrate_stack(views: Mapping[bool, np.ndarray], jobs: Sequence[Job]) -> None:
    """Calibrate each job's detectors from their rows of the view they read
    (:func:`prepare_stack`), one
    :meth:`~repro.core.detector.Detector.stacked_calibrate` call per chunk,
    under one ``calibrate.kernel`` span."""
    with obs.span("calibrate.kernel"):
        for job in jobs:
            cls, view = type(job[0][0]), views[job[0][0].sanitize]
            for detectors, rows in _chunks(job):
                cls.stacked_calibrate(detectors, _take(view, rows))


def _jobs(
    detectors: Sequence[Detector], rows: Sequence[int]
) -> tuple[list[list[int]], list[Job]]:
    """The kernel groups of *detectors* and one job per group, detector
    ``i`` reading stack row ``rows[i]``."""
    rows = np.asarray(rows, dtype=int)
    groups = kernel_groups(detectors)
    return groups, [([detectors[i] for i in group], rows[group]) for group in groups]


def score_windows(pairs: Sequence[tuple[Detector, CSITrace]]) -> list[float]:
    """Scores of (detector, window) pairs, in *pairs* order.

    The windows are stacked by shape and subcarrier grid, each distinct
    window once, and every stack goes through :func:`prepare_stack` and
    :func:`score_stack` under one ``score.batch`` span.  Every score is
    bit-identical to ``detector.score(window)``.
    """
    pairs = list(pairs)
    if not pairs:
        return []
    if any(window.num_packets < 1 for _, window in pairs):
        raise ValueError("monitoring window must contain at least one packet")
    # Per stack: its distinct windows (row by id) and the pairs reading it.
    stacks: dict[Hashable, tuple[dict[int, CSITrace], list[int]]] = {}
    for position, (_, window) in enumerate(pairs):
        key = (window.csi.shape, tuple(window.subcarrier_indices))
        windows, positions = stacks.setdefault(key, ({}, []))
        windows.setdefault(id(window), window)
        positions.append(position)
    scores = np.empty(len(pairs))
    with obs.span("score.batch"):
        for (_, grid), (windows, positions) in stacks.items():
            row_of = {key: row for row, key in enumerate(windows)}
            groups, jobs = _jobs(
                [pairs[p][0] for p in positions], [row_of[id(pairs[p][1])] for p in positions]
            )
            csi = np.stack([window.csi for window in windows.values()])
            values = score_stack(prepare_stack(csi, grid, jobs), jobs)
            for group, value in zip(groups, values):
                scores[[positions[i] for i in group]] = value
    return scores.tolist()


def calibrate_sessions(pairs: Sequence[tuple[StreamingSession, CSITrace]]) -> None:
    """Calibrate several sessions from their empty-environment traces at once.

    Per session this is :meth:`~repro.api.session.StreamingSession.calibrate`:
    the detector is calibrated and, under the ``"calibration"`` threshold
    policy, the trace is replayed as tumbling monitoring windows whose
    largest score times the session's margin becomes its threshold.  Across
    sessions it is one program per stack of traces that share a shape, a
    subcarrier grid and a replay window: the stack is prepared in one
    :func:`prepare_stack` pass, the detectors are grouped by kernel once
    (:func:`kernel_groups`) and calibrate through :func:`calibrate_stack`,
    and the prepared stack, reshaped into each trace's whole windows
    (trailing packets dropped), is the replay every group scores in one
    ``score.batch`` pass.  Sanitisation fits every packet on its own, so a
    window of the prepared trace is the prepared window.  A trace shorter
    than one window raises before any detector is calibrated.  Detectors
    and thresholds end up bit-identical to calibrating each session alone.
    """
    with obs.span("calibrate"):
        pairs = list(pairs)
        stacks: dict[Hashable, list[int]] = {}
        for position, (session, baseline) in enumerate(pairs):
            replay = session.threshold_policy == "calibration"
            if replay:
                session.replay_windows(baseline.num_packets)
            key = (
                baseline.csi.shape,
                tuple(baseline.subcarrier_indices),
                session.window_packets if replay else None,
            )
            stacks.setdefault(key, []).append(position)
        replays = []
        for (shape, grid, window), members in stacks.items():
            sessions = [pairs[i][0] for i in members]
            detectors = [session.detector for session in sessions]
            _, jobs = _jobs(detectors, range(len(members)))
            csi = np.stack([pairs[i][1].csi for i in members])
            views = prepare_stack(csi, grid, jobs)
            calibrate_stack(views, jobs)
            if window is not None:
                count = sessions[0].replay_windows(shape[0])
                windows = {
                    clean: view[:, : count * window].reshape(-1, window, *shape[1:])
                    for clean, view in views.items()
                }
                # Trace row r's windows are rows r * count … r * count + count - 1.
                replay_jobs = [
                    (
                        [detector for detector in readers for _ in range(count)],
                        (rows[:, None] * count + np.arange(count)).ravel(),
                    )
                    for readers, rows in jobs
                ]
                replays.append((sessions, count, windows, replay_jobs))
        if not replays:
            return
        with obs.span("score.batch"):
            for sessions, count, windows, replay_jobs in replays:
                scores = np.empty(len(sessions) * count)
                for (_, rows), values in zip(replay_jobs, score_stack(windows, replay_jobs)):
                    scores[rows] = values
                for session, row in zip(sessions, scores.reshape(-1, count).tolist()):
                    session.threshold = max(row) * session.threshold_margin


def calibrate_shared(detectors: Mapping[str, Detector], baseline: CSITrace) -> None:
    """Calibrate several detectors from one baseline, sanitising it once.

    The campaign's calibration step: the baseline is a stack of one row that
    every detector reads, prepared once (:func:`prepare_stack`) and
    calibrated through :func:`calibrate_stack`.  Each detector ends up in
    the state its standalone ``calibrate`` would have produced, bit for bit.
    """
    with obs.span("calibrate"):
        detectors = list(detectors.values())
        _, jobs = _jobs(detectors, [0] * len(detectors))
        views = prepare_stack(baseline.csi[None], baseline.subcarrier_indices, jobs)
        calibrate_stack(views, jobs)


def score_windows_shared(
    detectors: Mapping[str, Detector], windows: Sequence[CSITrace]
) -> dict[str, list[float]]:
    """Score every window under every detector in one :func:`score_windows`
    call: each window is stacked and sanitised once for all schemes.

    Returns a mapping from detector name to the per-window score list, in
    *windows* order.
    """
    windows = list(windows)
    scores = score_windows(
        [(detector, window) for detector in detectors.values() for window in windows]
    )
    count = len(windows)
    return {
        name: scores[i * count : (i + 1) * count] for i, name in enumerate(detectors)
    }
