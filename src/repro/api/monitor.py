"""Cross-link scoring and multi-link monitoring.

:func:`score_windows` is the one scoring program of every caller: the
campaign (:func:`score_windows_shared`), the calibration-threshold replay of
:func:`calibrate_sessions` (behind
:meth:`~repro.api.session.StreamingSession.calibrate`,
:meth:`MultiLinkMonitor.calibrate` and the fleet's shard set-up), and
:class:`MultiLinkMonitor` and the fleet scheduler, which both score and emit
sessions' completed windows through :func:`score_windows_batch`.  It groups
(detector, window) pairs by scheme kernel and window shape, sanitises every
window once, and scores each group in one stacked kernel call
(:meth:`~repro.core.detector._BaseDetector.stacked_scores`).  A window's score
depends only on its detector's calibration and its packets, so it is
bit-identical for any batch size or composition — a standalone
``detector.score(window)`` is the batch of one.  Calibration is grouped the
same way, by the same key: :func:`calibrate_sessions` and
:func:`calibrate_shared` stack each group's calibration traces into one
:meth:`~repro.core.detector._BaseDetector.stacked_calibrate` call per chunk,
and a standalone ``detector.calibrate(trace)`` is the batch of one.

A deployment rarely watches a single TX-RX pair — the paper's evaluation alone
spans five links.  :class:`MultiLinkMonitor` owns one
:class:`~repro.api.session.StreamingSession` per link, accepts per-link frames
in lockstep (the links all hear the same ping schedule, so their windows
complete on the same pushes), advances each session with
:meth:`~repro.api.session.StreamingSession.advance` and scores every window
completed on a push in one batch.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Hashable, Mapping, Sequence

import numpy as np

from repro import obs
from repro.core.detector import (
    calibrates_by_kernel,
    runs_scheme_kernel,
    shares_sanitized_view,
)
from repro.csi.calibration import sanitize_traces
from repro.csi.format import CSIFrame
from repro.csi.trace import CSITrace

from repro.api.session import DetectionEvent, StreamingSession

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.channel.channel import Link

    from repro.api.config import PipelineConfig


class MultiLinkMonitor:
    """Fan a shared packet stream across N links and score them together.

    Parameters
    ----------
    sessions:
        Mapping from link name to the session monitoring that link.  Sessions
        without a ``link_name`` inherit the mapping key so their events are
        attributable.
    """

    def __init__(self, sessions: Mapping[str, StreamingSession]) -> None:
        if not sessions:
            raise ValueError("MultiLinkMonitor needs at least one session")
        self._sessions: dict[str, StreamingSession] = {}
        for name, session in sessions.items():
            if not isinstance(session, StreamingSession):
                raise TypeError(
                    f"session for {name!r} must be a StreamingSession, "
                    f"got {type(session).__name__}"
                )
            if not session.link_name:
                session.link_name = name
            self._sessions[name] = session

    @classmethod
    def from_config(
        cls, config: "PipelineConfig", links: Sequence["Link"]
    ) -> "MultiLinkMonitor":
        """One monitor with an identically-configured session per link."""
        if not links:
            raise ValueError("from_config needs at least one link")
        names = [getattr(link, "name", "") or f"link-{i}" for i, link in enumerate(links)]
        if len(set(names)) != len(names):
            raise ValueError(f"link names must be unique, got {names}")
        return cls(
            {
                name: StreamingSession.from_config(config, link, link_name=name)
                for name, link in zip(names, links)
            }
        )

    # ------------------------------------------------------------------ #
    # calibration
    # ------------------------------------------------------------------ #
    def calibrate(self, baselines: Mapping[str, CSITrace]) -> None:
        """Calibrate every session from its link's empty-environment trace,
        all links in one :func:`calibrate_sessions` pass."""
        missing = set(self._sessions) - set(baselines)
        if missing:
            raise ValueError(f"missing calibration traces for links: {sorted(missing)}")
        calibrate_sessions(
            [(session, baselines[name]) for name, session in self._sessions.items()]
        )

    # ------------------------------------------------------------------ #
    # streaming
    # ------------------------------------------------------------------ #
    def push(self, frames: Mapping[str, CSIFrame]) -> list[DetectionEvent]:
        """Consume one frame per link; return the events of this step.

        Frames are keyed by link name; links absent from *frames* simply do
        not advance this step (e.g. a lost ping on one link).  All windows
        completing on this push are scored in one batch.
        """
        unknown = set(frames) - set(self._sessions)
        if unknown:
            raise ValueError(
                f"frames for unknown links {sorted(unknown)}; "
                f"known links: {sorted(self._sessions)}"
            )
        ready: list[tuple[StreamingSession, CSITrace, int]] = []
        for name, session in self._sessions.items():
            if name not in frames:
                continue
            window = session.advance(frames[name])
            if window is not None:
                ready.append((session, window, session.packets_seen))
        return score_windows_batch(ready)

    def push_traces(self, traces: Mapping[str, CSITrace]) -> list[DetectionEvent]:
        """Stream per-link traces of equal length frame by frame, in lockstep."""
        unknown = set(traces) - set(self._sessions)
        if unknown:
            raise ValueError(
                f"traces for unknown links {sorted(unknown)}; "
                f"known links: {sorted(self._sessions)}"
            )
        lengths = {name: trace.num_packets for name, trace in traces.items()}
        if len(set(lengths.values())) > 1:
            raise ValueError(
                f"traces must share one packet count for lockstep streaming, got {lengths}"
            )
        events: list[DetectionEvent] = []
        num_packets = next(iter(lengths.values())) if lengths else 0
        for i in range(num_packets):
            events.extend(self.push({name: trace.frame(i) for name, trace in traces.items()}))
        return events

    # ------------------------------------------------------------------ #
    # inspection
    # ------------------------------------------------------------------ #
    @property
    def sessions(self) -> dict[str, StreamingSession]:
        """The per-link sessions (mapping key = link name)."""
        return dict(self._sessions)

    @property
    def links(self) -> tuple[str, ...]:
        """Monitored link names."""
        return tuple(self._sessions)

    def events(self) -> list[DetectionEvent]:
        """The retained events across links, in timestamp order.

        Each session keeps its last ``event_history`` events (see
        :class:`~repro.api.session.StreamingSession`).
        """
        merged: list[DetectionEvent] = []
        for session in self._sessions.values():
            merged.extend(session.events)
        merged.sort(key=lambda e: (e.timestamp, e.link))
        return merged

    def __repr__(self) -> str:
        return f"{type(self).__name__}(links={list(self._sessions)})"


#: Most detectors one kernel call stacks: bounds the temporaries of a large
#: calibration or replay and keeps each stack in cache (results do not
#: depend on how a group is split).
_MAX_STACK = 256


def _prepared_views(
    pairs: Sequence[tuple[Any, CSITrace]], positions: Sequence[int]
) -> list[CSITrace]:
    """The traces of (detector, trace) *pairs*, those at *positions* as
    their detectors' kernels read them: cleaned for a sanitising detector —
    every distinct trace once, all in one
    :func:`~repro.csi.calibration.sanitize_traces` pass."""
    views = [trace for _, trace in pairs]
    cleaning = [i for i in positions if pairs[i][0].sanitize]
    raw = {id(views[i]): views[i] for i in cleaning}
    cleaned = dict(zip(raw, sanitize_traces(list(raw.values()))))
    for i in cleaning:
        views[i] = cleaned[id(views[i])]
    return views


def _kernel_groups(
    detectors: Sequence[Any], views: Sequence[CSITrace], positions: Sequence[int]
) -> list[tuple[type, list[list[int]]]]:
    """The *positions* whose (detector, prepared view) pairs one kernel call
    may stack: grouped by kernel (class and
    :meth:`~repro.core.detector._BaseDetector.batch_key`) and view shape, in
    first-seen order, each group cut into chunks of at most ``_MAX_STACK``."""
    keys: dict[int, Hashable] = {}
    groups: dict[tuple[type, Hashable, tuple[int, ...]], list[int]] = {}
    for position in positions:
        detector = detectors[position]
        if id(detector) not in keys:
            keys[id(detector)] = detector.batch_key()
        key = (type(detector), keys[id(detector)], views[position].csi.shape)
        groups.setdefault(key, []).append(position)
    return [
        (cls, [members[i : i + _MAX_STACK] for i in range(0, len(members), _MAX_STACK)])
        for (cls, _, _), members in groups.items()
    ]


def score_windows(
    pairs: Sequence[tuple[Any, CSITrace]], *, prepared: bool = False
) -> list[float]:
    """Scores of (detector, window) pairs, in *pairs* order.

    Scheme-kernel detectors (:func:`~repro.core.detector.runs_scheme_kernel`)
    are grouped by class, :meth:`~repro.core.detector._BaseDetector.batch_key`
    and window shape; every window a sanitising detector needs is cleaned in
    one :func:`~repro.csi.calibration.sanitize_traces` pass (once, however
    many detectors score it) and each group is scored by one stacked kernel
    call per chunk.  Any other detector scores its raw window through its
    own ``score``.  Every score is bit-identical to
    ``detector.score(window)``.

    With *prepared*, the windows are already sanitised views — slices of one
    shared ``sanitize_trace`` pass, as in the calibration replay of
    :func:`calibrate_sessions` — and every detector must share sanitised
    views (:func:`~repro.core.detector.shares_sanitized_view`).
    """
    pairs = list(pairs)
    if not pairs:
        return []
    scores = [0.0] * len(pairs)
    with obs.span("score.batch"):
        kernel: dict[int, bool] = {}
        stacked = []
        for position, (detector, window) in enumerate(pairs):
            if id(detector) not in kernel:
                kernel[id(detector)] = runs_scheme_kernel(detector)
            if not kernel[id(detector)]:
                scores[position] = float(detector.score(window))
            elif window.num_packets < 1:
                raise ValueError("monitoring window must contain at least one packet")
            else:
                stacked.append(position)
        detectors = [detector for detector, _ in pairs]
        views = [window for _, window in pairs] if prepared else _prepared_views(pairs, stacked)
        # Schemes scoring the same windows share one stack and its window-only
        # intermediates (the subcarrier weights).
        scratches: dict[tuple[int, ...], dict] = {}
        for cls, chunks in _kernel_groups(detectors, views, stacked):
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
    obs.count("score.windows", len(pairs))
    return scores


def score_windows_batch(
    ready: Sequence[tuple[StreamingSession, CSITrace, int]]
) -> list[DetectionEvent]:
    """Score completed windows from several sessions and emit their events.

    *ready* holds ``(session, window, packets_seen)`` triples, where
    *packets_seen* is the session's packet count when the window completed.
    The cross-link scoring step of :meth:`MultiLinkMonitor.push` and the
    fleet scheduler (:mod:`repro.fleet.scheduler`): one
    :func:`score_windows` call, then events through
    :meth:`~repro.api.session.StreamingSession.emit` in *ready* order —
    bit-identical to the ones inline
    :meth:`~repro.api.session.StreamingSession.push` would emit.
    """
    scores = score_windows([(session.detector, window) for session, window, _ in ready])
    return [
        session.emit(window, score, packets_seen)
        for (session, window, packets_seen), score in zip(ready, scores)
    ]


def _calibrate(pairs: Sequence[tuple[Any, CSITrace]]) -> list[CSITrace]:
    """Calibrate each (detector, baseline) pair; return the baselines as the
    detectors' kernels read them.

    Kernel-calibrated detectors (:func:`~repro.core.detector.calibrates_by_kernel`)
    are grouped the way :func:`score_windows` groups windows — by class,
    :meth:`~repro.core.detector._BaseDetector.batch_key` and trace shape —
    and each chunk is one
    :meth:`~repro.core.detector._BaseDetector.stacked_calibrate` call; every
    baseline a sanitising one needs is cleaned once, in one pass.  Any other
    detector calibrates from its raw baseline through its own ``calibrate``.
    """
    detectors = [detector for detector, _ in pairs]
    stacked = []
    for position, (detector, baseline) in enumerate(pairs):
        if calibrates_by_kernel(detector):
            stacked.append(position)
        else:
            detector.calibrate(baseline)
    views = _prepared_views(pairs, stacked)
    for cls, chunks in _kernel_groups(detectors, views, stacked):
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
    — a slice of the sanitised trace for a detector that shares sanitised
    views — is scored in one :func:`score_windows` call.  Detectors and
    thresholds end up bit-identical to calibrating each session alone.
    """
    with obs.span("calibrate"):
        pairs = list(pairs)
        views = _calibrate([(session.detector, baseline) for session, baseline in pairs])
        replays: dict[bool, list[tuple[StreamingSession, CSITrace]]] = {True: [], False: []}
        for (session, baseline), view in zip(pairs, views):
            if session.threshold_policy == "calibration":
                shared = shares_sanitized_view(session.detector)
                replays[shared].extend(
                    (session, window)
                    for window in session.calibration_windows(view if shared else baseline)
                )
        largest: dict[StreamingSession, float] = {}
        for is_shared, replay in replays.items():
            scores = score_windows(
                [(session.detector, window) for session, window in replay], prepared=is_shared
            )
            for (session, _), score in zip(replay, scores):
                largest[session] = max(largest.get(session, score), score)
        for session, score in largest.items():
            session.threshold = score * session.threshold_margin


def calibrate_shared(detectors: Mapping[str, Any], baseline: CSITrace) -> None:
    """Calibrate several detectors from one baseline, sanitising it once.

    The campaign's calibration step: kernel-calibrated detectors (see
    :func:`~repro.core.detector.calibrates_by_kernel`) share one
    ``sanitize_trace(baseline)`` and are grouped like :func:`score_windows`
    groups windows, each group calibrating in one stacked kernel call (one
    detector per scheme, so every group is a batch of one); everything else
    gets the raw trace through its own ``calibrate``.  Either way each
    detector ends up in the state its standalone ``calibrate`` would have
    produced, bit for bit.
    """
    with obs.span("calibrate"):
        _calibrate([(detector, baseline) for detector in detectors.values()])


def score_windows_shared(
    detectors: Mapping[str, Any], windows: Sequence[CSITrace]
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
