"""Cross-link scoring and calibration.

:func:`score_windows` is the one scoring program of every caller: the
campaign (:func:`score_windows_shared`), the calibration-threshold replay of
:func:`calibrate_sessions` (behind
:meth:`~repro.api.session.StreamingSession.calibrate` and the fleet's shard
set-up), and the fleet scheduler, which scores and emits sessions' completed
windows through :func:`score_windows_batch`.  It groups
(detector, window) pairs by scheme kernel and window shape, sanitises every
window once, and scores each group in one stacked kernel call
(:meth:`~repro.core.detector.Detector.stacked_scores`).  A window's score
depends only on its detector's calibration and its packets, so it is
bit-identical for any batch size or composition — a standalone
``detector.score(window)`` is the batch of one.  Calibration is grouped the
same way, by the same key: :func:`calibrate_sessions` and
:func:`calibrate_shared` stack each group's calibration traces into one
:meth:`~repro.core.detector.Detector.stacked_calibrate` call per chunk,
and a standalone ``detector.calibrate(trace)`` is the batch of one.  Every
detector is a :class:`~repro.core.detector.Detector`, so every pair takes
this one path.
"""

from __future__ import annotations

from typing import Hashable, Mapping, Sequence

import numpy as np

from repro import obs
from repro.core.detector import Detector
from repro.csi.calibration import sanitize_traces
from repro.csi.trace import CSITrace

from repro.api.session import DetectionEvent, StreamingSession

#: Most detectors one kernel call stacks: bounds the temporaries of a large
#: calibration or replay and keeps each stack in cache (results do not
#: depend on how a group is split).
_MAX_STACK = 256


def _prepared_views(pairs: Sequence[tuple[Detector, CSITrace]]) -> list[CSITrace]:
    """The traces of (detector, trace) *pairs* as their detectors' kernels
    read them: cleaned for a sanitising detector — every distinct trace
    once, all in one :func:`~repro.csi.calibration.sanitize_traces` pass."""
    views = [trace for _, trace in pairs]
    cleaning = [i for i, (detector, _) in enumerate(pairs) if detector.sanitize]
    raw = {id(views[i]): views[i] for i in cleaning}
    cleaned = dict(zip(raw, sanitize_traces(list(raw.values()))))
    for i in cleaning:
        views[i] = cleaned[id(views[i])]
    return views


def _kernel_groups(
    detectors: Sequence[Detector], views: Sequence[CSITrace]
) -> list[tuple[type[Detector], list[list[int]]]]:
    """The positions whose (detector, prepared view) pairs one kernel call
    may stack: grouped by kernel (class and
    :meth:`~repro.core.detector.Detector.batch_key`) and view shape, in
    first-seen order, each group cut into chunks of at most ``_MAX_STACK``."""
    keys: dict[int, Hashable] = {}
    groups: dict[tuple[type[Detector], Hashable, tuple[int, ...]], list[int]] = {}
    for position, (detector, view) in enumerate(zip(detectors, views)):
        if id(detector) not in keys:
            keys[id(detector)] = detector.batch_key()
        key = (type(detector), keys[id(detector)], view.csi.shape)
        groups.setdefault(key, []).append(position)
    return [
        (cls, [members[i : i + _MAX_STACK] for i in range(0, len(members), _MAX_STACK)])
        for (cls, _, _), members in groups.items()
    ]


def _score_views(detectors: Sequence[Detector], views: Sequence[CSITrace]) -> list[float]:
    """Scores of prepared windows, window *i* under ``detectors[i]``.

    Each kernel group is one stacked
    :meth:`~repro.core.detector.Detector.stacked_scores` call per chunk;
    schemes scoring the same windows share one stack and its window-only
    intermediates (the subcarrier weights).  The caller holds the
    ``score.batch`` span.
    """
    scores = [0.0] * len(views)
    scratches: dict[tuple[int, ...], dict] = {}
    for cls, chunks in _kernel_groups(detectors, views):
        with obs.span(f"score.{cls.scheme}"):
            for chunk in chunks:
                scratch = scratches.setdefault(tuple(id(views[i]) for i in chunk), {})
                if "csi" not in scratch:
                    scratch["csi"] = np.stack([views[i].csi for i in chunk])
                values = cls.stacked_scores(
                    [detectors[i] for i in chunk], scratch["csi"], scratch
                )
                for position, value in zip(chunk, values):
                    scores[position] = float(value)
    obs.count("score.windows", len(views))
    return scores


def score_windows(pairs: Sequence[tuple[Detector, CSITrace]]) -> list[float]:
    """Scores of (detector, window) pairs, in *pairs* order.

    Every window a sanitising detector needs is cleaned in one
    :func:`~repro.csi.calibration.sanitize_traces` pass (once, however many
    detectors score it); the pairs are then grouped by class,
    :meth:`~repro.core.detector.Detector.batch_key` and window shape, and
    each group is scored by one stacked kernel call per chunk.  Every score
    is bit-identical to ``detector.score(window)``.
    """
    pairs = list(pairs)
    if not pairs:
        return []
    if any(window.num_packets < 1 for _, window in pairs):
        raise ValueError("monitoring window must contain at least one packet")
    # The span covers the sanitisation pass: its grouping and stacking
    # outside ``collect.sanitize`` is scoring time.
    with obs.span("score.batch"):
        return _score_views([detector for detector, _ in pairs], _prepared_views(pairs))


def score_windows_batch(
    ready: Sequence[tuple[StreamingSession, CSITrace, int]]
) -> list[DetectionEvent]:
    """Score completed windows from several sessions and emit their events.

    *ready* holds ``(session, window, packets_seen)`` triples, where
    *packets_seen* is the session's packet count when the window completed.
    The cross-link scoring step of the fleet scheduler
    (:mod:`repro.fleet.scheduler`): one :func:`score_windows` call, then
    events through
    :meth:`~repro.api.session.StreamingSession.emit` in *ready* order —
    bit-identical to the ones inline
    :meth:`~repro.api.session.StreamingSession.push` would emit.
    """
    scores = score_windows([(session.detector, window) for session, window, _ in ready])
    return [
        session.emit(window, score, packets_seen)
        for (session, window, packets_seen), score in zip(ready, scores)
    ]


def _calibrate(pairs: Sequence[tuple[Detector, CSITrace]]) -> list[CSITrace]:
    """Calibrate each (detector, baseline) pair; return the baselines as the
    detectors' kernels read them.

    The pairs are grouped the way :func:`score_windows` groups windows — by
    class, :meth:`~repro.core.detector.Detector.batch_key` and trace shape
    — and each chunk is one
    :meth:`~repro.core.detector.Detector.stacked_calibrate` call; every
    baseline a sanitising detector needs is cleaned once, in one pass.
    """
    detectors = [detector for detector, _ in pairs]
    views = _prepared_views(pairs)
    for cls, chunks in _kernel_groups(detectors, views):
        for chunk in chunks:
            cls.stacked_calibrate(
                [detectors[i] for i in chunk], np.stack([views[i].csi for i in chunk])
            )
    return views


def calibrate_sessions(pairs: Sequence[tuple[StreamingSession, CSITrace]]) -> None:
    """Calibrate several sessions from their empty-environment traces at once.

    Per session this is :meth:`~repro.api.session.StreamingSession.calibrate`:
    the detector is calibrated and, under the ``"calibration"`` threshold
    policy, the trace is replayed as monitoring windows whose largest score
    times the session's margin becomes its threshold.  Across sessions it is
    one program: every calibration trace is sanitised in one
    :func:`~repro.csi.calibration.sanitize_traces` pass, the detectors are
    grouped like :func:`score_windows` groups windows and each group
    calibrates in one stacked kernel call per chunk, and every replay window
    is scored in one pass.  A replay window is a slice of the trace as its
    detector's kernel read it: sanitisation fits every packet on its own, so
    a slice of the sanitised trace is the sanitised slice.  Detectors and
    thresholds end up bit-identical to calibrating each session alone.
    """
    with obs.span("calibrate"):
        pairs = list(pairs)
        views = _calibrate([(session.detector, baseline) for session, baseline in pairs])
        replay = [
            (session, window)
            for (session, _), view in zip(pairs, views)
            if session.threshold_policy == "calibration"
            for window in session.calibration_windows(view)
        ]
        if not replay:
            return
        with obs.span("score.batch"):
            scores = _score_views(
                [session.detector for session, _ in replay],
                [window for _, window in replay],
            )
        largest: dict[StreamingSession, float] = {}
        for (session, _), score in zip(replay, scores):
            largest[session] = max(largest.get(session, score), score)
        for session, score in largest.items():
            session.threshold = score * session.threshold_margin


def calibrate_shared(detectors: Mapping[str, Detector], baseline: CSITrace) -> None:
    """Calibrate several detectors from one baseline, sanitising it once.

    The campaign's calibration step: the detectors share one
    ``sanitize_trace(baseline)`` and are grouped like :func:`score_windows`
    groups windows, each group calibrating in one stacked kernel call (one
    detector per scheme, so every group is a batch of one).  Each detector
    ends up in the state its standalone ``calibrate`` would have produced,
    bit for bit.
    """
    with obs.span("calibrate"):
        _calibrate([(detector, baseline) for detector in detectors.values()])


def score_windows_shared(
    detectors: Mapping[str, Detector], windows: Sequence[CSITrace]
) -> dict[str, list[float]]:
    """Score every window under every detector in one :func:`score_windows`
    call, each window sanitised once for all schemes.

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
