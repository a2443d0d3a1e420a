"""Push-based streaming detection sessions.

The paper's system is an online monitor: calibrate once on the empty
environment, then score sliding windows of CSI packets forever.  The seed
codebase only exposed the batch half of that loop (``calibrate()`` /
``score(trace)``); :class:`StreamingSession` supplies the online half.  Frames
are pushed one at a time, the session maintains the sliding window, and every
completed window is scored with the *same* batch ``score()`` call — so a
streamed score is bit-identical to scoring the equivalent batch trace.

::

    session = PipelineConfig(detector="subcarrier").session(link)
    session.calibrate(collector.collect_empty(num_packets=150))
    for frame in live_frames:
        event = session.push(frame)
        if event is not None and event.detected:
            alert(event)

``push`` is :meth:`~StreamingSession.advance` (buffer a frame, return the
window it completes) + ``score`` + :meth:`~StreamingSession.emit` (stamp the
event).  Callers that score many sessions' windows together use those two
halves directly, and :meth:`~StreamingSession.window_starts` gives the same
window rule as an array, for traffic known in advance.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Iterable

import numpy as np

from repro.core.detector import Detector
from repro.csi.format import CSIFrame
from repro.csi.trace import CSITrace
from repro.utils.validation import check_finite_real, check_integer

from repro.api.config import THRESHOLD_POLICIES

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.channel.channel import Link

    from repro.api.config import PipelineConfig


def window_starts(num_packets: int, window_packets: int, window_stride: int | None) -> np.ndarray:
    """:meth:`StreamingSession.window_starts` for these window settings,
    before the session exists (``window_stride=None``: tumbling)."""
    stride = window_packets if window_stride is None else window_stride
    return np.arange(0, max(num_packets - window_packets + 1, 0), stride)


@dataclass(frozen=True)
class DetectionEvent:
    """One scored monitoring window emitted by a streaming session.

    Attributes
    ----------
    link:
        Name of the monitored link (empty for anonymous sessions).
    index:
        Sequence number of the event within its session, starting at 0.
    timestamp:
        Reception time of the window's newest packet, in seconds.
    score:
        The detection statistic (bit-identical to batch ``Detector.score()``
        on the same window of packets).
    threshold:
        Decision threshold in force, or ``None`` when the session has no
        threshold yet.
    detected:
        ``score > threshold``, or ``None`` when no threshold is in force.
    window_packets:
        Number of packets in the scored window.
    packets_seen:
        Total packets the session had consumed when the event fired.
    """

    link: str
    index: int
    timestamp: float
    score: float
    threshold: float | None
    detected: bool | None
    window_packets: int
    packets_seen: int

    def to_dict(self) -> dict[str, Any]:
        """The event as a plain JSON-serialisable dict."""
        return {
            "link": self.link,
            "index": self.index,
            "timestamp": self.timestamp,
            "score": self.score,
            "threshold": self.threshold,
            "detected": self.detected,
            "window_packets": self.window_packets,
            "packets_seen": self.packets_seen,
        }


class StreamingSession:
    """Online monitoring loop over one link: push frames, receive events.

    Parameters
    ----------
    detector:
        The :class:`~repro.core.detector.Detector` scoring the windows,
        typically built via the registry.
    window_packets:
        Packets per scored window.
    window_stride:
        Packets between consecutive scored windows once the first window is
        full; ``None`` means tumbling windows (stride = ``window_packets``).
    threshold:
        Fixed decision threshold (``threshold_policy="fixed"``).
    threshold_policy:
        ``"fixed"`` or ``"calibration"`` — see
        :class:`~repro.api.config.PipelineConfig`.
    threshold_margin:
        Safety factor of the calibration-derived threshold.
    link_name:
        Name stamped on emitted events.
    event_history:
        How many emitted events :attr:`events` retains (oldest dropped
        first), so a session that monitors forever does not grow without
        bound.  ``None`` keeps everything.  Event ``index`` numbering is
        unaffected by eviction.
    """

    def __init__(
        self,
        detector: Detector,
        *,
        window_packets: int = 25,
        window_stride: int | None = None,
        threshold: float | None = None,
        threshold_policy: str = "calibration",
        threshold_margin: float = 1.5,
        link_name: str = "",
        event_history: int | None = 4096,
    ) -> None:
        if not isinstance(detector, Detector):
            raise TypeError(
                f"detector must be a repro.core.Detector, got {type(detector).__name__}"
            )
        if check_integer("window_packets", window_packets) < 1:
            raise ValueError(f"window_packets must be >= 1, got {window_packets}")
        if window_stride is not None and check_integer("window_stride", window_stride) < 1:
            raise ValueError(f"window_stride must be >= 1, got {window_stride}")
        if threshold is not None:
            check_finite_real("threshold", threshold)
        if threshold_policy not in THRESHOLD_POLICIES:
            raise ValueError(
                f"threshold_policy must be one of {THRESHOLD_POLICIES}, "
                f"got {threshold_policy!r}"
            )
        if threshold_policy == "fixed" and threshold is None:
            raise ValueError('threshold_policy "fixed" requires an explicit threshold')
        if check_finite_real("threshold_margin", threshold_margin) <= 0:
            raise ValueError(f"threshold_margin must be > 0, got {threshold_margin}")
        if event_history is not None and check_integer("event_history", event_history) < 1:
            raise ValueError(f"event_history must be >= 1 or None, got {event_history}")
        self.detector = detector
        self.window_packets = window_packets
        self.window_stride = window_stride if window_stride is not None else window_packets
        self.threshold = threshold
        self.threshold_policy = threshold_policy
        self.threshold_margin = threshold_margin
        self.link_name = link_name
        self._buffer: deque[CSIFrame] = deque(maxlen=window_packets)
        self._packets_seen = 0
        self._events: deque[DetectionEvent] = deque(maxlen=event_history)
        self._event_count = 0

    @classmethod
    def from_config(
        cls,
        config: "PipelineConfig",
        link: "Link | None" = None,
        *,
        link_name: str = "",
    ) -> "StreamingSession":
        """Build a session whose detector and window policy come from *config*."""
        detector = config.build_detector(link)
        if not link_name and link is not None:
            link_name = getattr(link, "name", "") or ""
        return cls(
            detector,
            window_packets=config.window_packets,
            window_stride=config.window_stride,
            threshold=config.threshold,
            threshold_policy=config.threshold_policy,
            threshold_margin=config.threshold_margin,
            link_name=link_name,
        )

    # ------------------------------------------------------------------ #
    # calibration
    # ------------------------------------------------------------------ #
    def calibrate(self, baseline: CSITrace) -> None:
        """Calibrate the detector and (optionally) derive the threshold.

        Under the ``"calibration"`` policy the empty-environment trace is also
        replayed as monitoring windows: the threshold becomes the largest
        empty-window score times :attr:`threshold_margin`, i.e. the tightest
        threshold that would have produced zero false alarms on the
        calibration data plus a safety margin.

        The batch of one of :func:`repro.api.monitor.calibrate_sessions`:
        the detector is calibrated from the trace as its kernel reads it
        (``sanitize_trace(baseline)`` for a sanitising detector), whose
        whole windows (:meth:`replay_windows`) are also the replay, scored
        in one stacked pass.
        """
        from repro.api.monitor import calibrate_sessions

        calibrate_sessions([(self, baseline)])

    def replay_windows(self, num_packets: int) -> int:
        """How many tumbling monitoring windows the ``"calibration"``
        threshold policy replays from a calibration trace of *num_packets*
        (trailing packets that fill no window are dropped)."""
        num_windows = num_packets // self.window_packets
        if num_windows < 1:
            raise ValueError(
                f"calibration trace has {num_packets} packets but the "
                f'"calibration" threshold policy needs at least one full window '
                f"of {self.window_packets}"
            )
        return num_windows

    @property
    def is_calibrated(self) -> bool:
        """Whether the underlying detector has been calibrated."""
        return self.detector.is_calibrated

    # ------------------------------------------------------------------ #
    # streaming
    # ------------------------------------------------------------------ #
    def push(self, frame: CSIFrame) -> DetectionEvent | None:
        """Consume one frame; return an event when a window completes.

        Exactly :meth:`advance` + ``score`` + :meth:`emit`.
        """
        window = self.advance(frame)
        if window is None:
            return None
        score = float(self.detector.score(window))
        return self.emit(float(window.timestamps[-1]), score, self._packets_seen)

    def push_many(self, frames: Iterable[CSIFrame]) -> list[DetectionEvent]:
        """Consume several frames; return the events they triggered."""
        events = []
        for frame in frames:
            event = self.push(frame)
            if event is not None:
                events.append(event)
        return events

    def push_trace(self, trace: CSITrace) -> list[DetectionEvent]:
        """Stream every packet of a trace through the session."""
        return self.push_many(trace)

    # ------------------------------------------------------------------ #
    # the window rule, for callers that score windows themselves
    # ------------------------------------------------------------------ #
    def advance(self, frame: CSIFrame) -> CSITrace | None:
        """Buffer one frame *without* scoring; return the window it completes.

        :meth:`push` is this, a score and :meth:`emit`.  A caller watching
        several links collects the windows its sessions complete, scores
        them together (:func:`repro.api.monitor.score_windows`) and gets
        each link's events through :meth:`emit`.
        """
        if not self.is_calibrated:
            raise RuntimeError("StreamingSession must be calibrated before pushing frames")
        if not isinstance(frame, CSIFrame):
            raise TypeError(f"push expects a CSIFrame, got {type(frame).__name__}")
        self._buffer.append(frame)
        self._packets_seen += 1
        if self._packets_seen < self.window_packets:
            return None
        if (self._packets_seen - self.window_packets) % self.window_stride != 0:
            return None
        return CSITrace.from_frames(list(self._buffer), label=self.link_name)

    def window_starts(self, num_packets: int) -> np.ndarray:
        """First-packet indices of the windows *num_packets* frames complete.

        The array form of :meth:`advance`'s rule for a fresh session: the
        window starting at packet ``s`` completes on packet ``s +
        window_packets``.  The fleet scheduler plans every window of a link
        from it.
        """
        return window_starts(num_packets, self.window_packets, self.window_stride)

    def emit(self, timestamp: float, score: float, packets_seen: int) -> DetectionEvent:
        """Record and return the event for a completed, scored window.

        *timestamp* is the reception time of the window's newest packet and
        *packets_seen* the session's packet count when the window completed,
        so a window scored after later packets arrived (or never built as a
        trace, like the fleet scheduler's rows) still gets the event
        :meth:`push` would have emitted.  The window holds
        :attr:`window_packets` packets.
        """
        detected = None if self.threshold is None else bool(score > self.threshold)
        event = DetectionEvent(
            link=self.link_name,
            index=self._event_count,
            timestamp=timestamp,
            score=score,
            threshold=self.threshold,
            detected=detected,
            window_packets=self.window_packets,
            packets_seen=packets_seen,
        )
        self._event_count += 1
        self._events.append(event)
        return event

    # ------------------------------------------------------------------ #
    # inspection
    # ------------------------------------------------------------------ #
    @property
    def events(self) -> tuple[DetectionEvent, ...]:
        """The retained events (the last ``event_history``), in order."""
        return tuple(self._events)

    @property
    def events_emitted(self) -> int:
        """Total events emitted over the session's lifetime."""
        return self._event_count

    @property
    def packets_seen(self) -> int:
        """Total packets consumed so far."""
        return self._packets_seen

    def reset(self) -> None:
        """Drop the window buffer, packet count and event history.

        Calibration (and a calibration-derived threshold) is kept, so a reset
        session resumes monitoring immediately.
        """
        self._buffer.clear()
        self._packets_seen = 0
        self._events.clear()
        self._event_count = 0

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(link={self.link_name!r}, "
            f"detector={type(self.detector).__name__}, "
            f"window={self.window_packets}, stride={self.window_stride}, "
            f"packets_seen={self._packets_seen}, events={self._event_count})"
        )
