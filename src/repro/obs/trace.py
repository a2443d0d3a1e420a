"""Nested span tracing with a bounded ring buffer and a no-op default.

The process-wide recorder seam.  Instrumented code calls the module-level
helpers unconditionally::

    from repro import obs

    with obs.span("collect.synthesize"):
        clean = simulator.clean_cfr(humans)
    obs.count("collect.packets", num_packets)

By default the installed recorder is :data:`NULL_RECORDER`, whose ``span``
returns one shared no-op context manager and whose ``count``/``observe``/
``gauge`` do nothing — the disabled path costs two attribute lookups and
zero allocations, so the instrumentation can live in hot layers permanently.

Enabling observability swaps in a real :class:`Recorder`
(:func:`recording`), which stamps every span with its clock
(:mod:`repro.obs.clock` — the only sanctioned wall-clock source), appends a
:class:`SpanRecord` to a bounded ring buffer, and feeds the duration into a
per-stage log-bucket histogram.  Recording never touches the measured
computation: scores, events and digests are byte-identical with
observability on or off.

Process-pool workers cannot share the parent's recorder; they record into
their own (:func:`shard_recording`) and return an :class:`ObsSnapshot`
alongside their results, which the parent merges back **in shard order** —
so the merged metrics are structurally identical for any worker count.
"""

from __future__ import annotations

from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass
from types import TracebackType
from typing import Any, Iterator, Mapping, Union

from repro.obs.clock import MONOTONIC, Clock, MonotonicClock
from repro.obs.metrics import MetricsRegistry, MetricsSnapshot
from repro.utils.validation import check_known_keys

#: Default capacity of a recorder's span ring buffer.  Old spans are evicted
#: first; the per-stage histograms keep aggregating regardless, so a bounded
#: buffer never loses the latency distribution, only old individual traces.
DEFAULT_MAX_SPANS = 4096


@dataclass(frozen=True)
class SpanRecord:
    """One finished span: where it sat in the nesting, when, and how long."""

    name: str
    path: str
    start_s: float
    duration_s: float
    attrs: tuple[tuple[str, Any], ...] = ()

    def to_dict(self) -> dict[str, Any]:
        """The record as a plain JSON-serialisable dict (``from_dict`` inverse)."""
        return {
            "name": self.name,
            "path": self.path,
            "start_s": self.start_s,
            "duration_s": self.duration_s,
            "attrs": {key: value for key, value in self.attrs},
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SpanRecord":
        """Rebuild a record from :meth:`to_dict` output."""
        check_known_keys(
            "SpanRecord",
            data,
            ("name", "path", "start_s", "duration_s", "attrs"),
            required=("name", "path", "start_s", "duration_s"),
        )
        attrs = data.get("attrs", {})
        return cls(
            name=str(data["name"]),
            path=str(data["path"]),
            start_s=float(data["start_s"]),
            duration_s=float(data["duration_s"]),
            attrs=tuple(sorted(attrs.items())),
        )


@dataclass(frozen=True)
class ObsSnapshot:
    """Everything a recorder knows, as an immutable, shippable value."""

    metrics: MetricsSnapshot
    spans: tuple[SpanRecord, ...] = ()
    tags: tuple[tuple[str, str], ...] = ()

    def to_dict(self) -> dict[str, Any]:
        """The snapshot as a plain JSON-serialisable dict (``from_dict`` inverse)."""
        return {
            "metrics": self.metrics.to_dict(),
            "spans": [span.to_dict() for span in self.spans],
            "tags": {key: value for key, value in self.tags},
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ObsSnapshot":
        """Rebuild a snapshot from :meth:`to_dict` output."""
        check_known_keys(
            "ObsSnapshot", data, ("metrics", "spans", "tags"), required=("metrics",)
        )
        tags = data.get("tags", {})
        return cls(
            metrics=MetricsSnapshot.from_dict(data["metrics"]),
            spans=tuple(SpanRecord.from_dict(span) for span in data.get("spans", ())),
            tags=tuple(sorted((str(k), str(v)) for k, v in tags.items())),
        )

    @classmethod
    def empty(cls) -> "ObsSnapshot":
        """A snapshot with no metrics, spans or tags."""
        return cls(metrics=MetricsSnapshot.empty(), spans=(), tags=())


class _Span:
    """A live span: context manager stamping enter/exit with the clock."""

    __slots__ = ("_recorder", "name", "_attrs", "_path", "_start")

    def __init__(self, recorder: "Recorder", name: str, attrs: dict[str, Any]) -> None:
        self._recorder = recorder
        self.name = name
        self._attrs = attrs
        self._path = ""
        self._start = 0.0

    def __enter__(self) -> "_Span":
        stack = self._recorder._stack
        self._path = f"{stack[-1]}/{self.name}" if stack else self.name
        stack.append(self._path)
        self._start = self._recorder.clock.now()
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        duration = self._recorder.clock.now() - self._start
        stack = self._recorder._stack
        if stack and stack[-1] == self._path:
            stack.pop()
        self._recorder._finish_span(self, duration)


class Recorder:
    """An enabled observability sink: clock + metrics + span ring buffer.

    Parameters
    ----------
    clock:
        Time source for spans and any instrumented code that asks
        (:func:`active_clock`); defaults to a fresh
        :class:`~repro.obs.clock.MonotonicClock`.  Pass a
        :class:`~repro.obs.clock.ManualClock` to make every timing number
        deterministic in tests.
    metrics:
        The registry spans aggregate into; defaults to a fresh one.
    max_spans:
        Ring-buffer capacity for individual :class:`SpanRecord` traces
        (oldest evicted first); ``None`` keeps everything.
    """

    enabled = True

    def __init__(
        self,
        *,
        clock: Clock | None = None,
        metrics: MetricsRegistry | None = None,
        max_spans: int | None = DEFAULT_MAX_SPANS,
    ) -> None:
        if max_spans is not None and max_spans < 1:
            raise ValueError(f"max_spans must be >= 1 or None, got {max_spans}")
        self.clock: Clock = clock if clock is not None else MonotonicClock()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.spans: deque[SpanRecord] = deque(maxlen=max_spans)
        self.tags: dict[str, str] = {}
        self._stack: list[str] = []

    # ------------------------------------------------------------------ #
    # recording
    # ------------------------------------------------------------------ #
    def span(self, name: str, **attrs: Any) -> _Span:
        """A context manager timing one named stage (nests via a path stack)."""
        return _Span(self, name, attrs)

    def _finish_span(self, span: _Span, duration: float) -> None:
        attrs: Mapping[str, Any] = span._attrs
        if self.tags:
            # Sticky recorder tags annotate every span; explicit span attrs
            # win on key collisions.
            attrs = {**self.tags, **attrs}
        self.spans.append(
            SpanRecord(
                name=span.name,
                path=span._path,
                start_s=span._start,
                duration_s=duration,
                attrs=tuple(sorted(attrs.items())),
            )
        )
        self.metrics.histogram(span.name).observe(duration)

    def tag(self, key: str, value: str) -> None:
        """Set a sticky tag stamped onto every subsequently finished span.

        Tags also ride along in :meth:`snapshot`, so exported metrics carry
        run-level attribution (e.g. ``backend=fast``) without threading a
        label through every ``count``/``observe`` call site.
        """
        self.tags[str(key)] = str(value)

    def count(self, name: str, amount: int = 1) -> None:
        """Increment the counter *name* by *amount*."""
        self.metrics.counter(name).inc(amount)

    def observe(self, name: str, value: float) -> None:
        """Record *value* into the histogram *name* (default latency buckets)."""
        self.metrics.histogram(name).observe(value)

    def gauge(self, name: str, value: float) -> None:
        """Set the gauge *name* to *value*."""
        self.metrics.gauge(name).set(value)

    # ------------------------------------------------------------------ #
    # snapshot / merge
    # ------------------------------------------------------------------ #
    def snapshot(self) -> ObsSnapshot:
        """The recorder's state as an immutable, process-shippable value."""
        return ObsSnapshot(
            metrics=self.metrics.snapshot(),
            spans=tuple(self.spans),
            tags=tuple(sorted(self.tags.items())),
        )

    def merge(self, snapshot: ObsSnapshot | None) -> None:
        """Fold a worker's snapshot into this recorder (``None`` is a no-op).

        Metric names add/merge via :meth:`MetricsRegistry.merge`; the
        worker's spans are appended to the ring buffer in their recorded
        order.  Tag keys union in; a conflicting value joins into a sorted
        comma-separated set (a fleet mixing backends reports both names).
        Merging shards in a fixed order keeps the result structurally
        identical for any worker count.
        """
        if snapshot is None:
            return
        self.metrics.merge(snapshot.metrics)
        self.spans.extend(snapshot.spans)
        for key, value in snapshot.tags:
            existing = self.tags.get(key)
            if existing is None or existing == value:
                self.tags[key] = value
            else:
                joined = set(existing.split(",")) | set(value.split(","))
                self.tags[key] = ",".join(sorted(joined))

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(clock={self.clock!r}, "
            f"spans={len(self.spans)}, metrics={list(self.metrics)})"
        )


class _NullSpan:
    """The shared do-nothing span: zero allocations on the disabled path."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        return None


_NULL_SPAN = _NullSpan()


class NullRecorder:
    """The default, disabled recorder: every operation is a no-op.

    ``span`` hands back one shared context manager and the metric helpers
    return immediately, so permanently instrumented hot paths pay only a
    method call when observability is off.
    """

    enabled = False
    clock: Clock = MONOTONIC

    def span(self, name: str, **attrs: Any) -> _NullSpan:
        """The shared no-op span."""
        return _NULL_SPAN

    def count(self, name: str, amount: int = 1) -> None:
        """No-op."""

    def observe(self, name: str, value: float) -> None:
        """No-op."""

    def gauge(self, name: str, value: float) -> None:
        """No-op."""

    def tag(self, key: str, value: str) -> None:
        """No-op."""

    def snapshot(self) -> ObsSnapshot:
        """An empty snapshot."""
        return ObsSnapshot.empty()

    def merge(self, snapshot: ObsSnapshot | None) -> None:
        """No-op."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


AnyRecorder = Union[Recorder, NullRecorder]

#: The process-wide default: observability off.
NULL_RECORDER = NullRecorder()

_RECORDER: AnyRecorder = NULL_RECORDER


# --------------------------------------------------------------------------- #
# module-level seam — what instrumented code calls
# --------------------------------------------------------------------------- #
def get_recorder() -> AnyRecorder:
    """The currently installed recorder (the shared null one by default)."""
    return _RECORDER


def set_recorder(recorder: AnyRecorder) -> AnyRecorder:
    """Install *recorder* process-wide; returns the previous one."""
    global _RECORDER
    previous = _RECORDER
    _RECORDER = recorder
    return previous


def enabled() -> bool:
    """Whether an enabled recorder is installed."""
    return _RECORDER.enabled


def active_clock() -> Clock:
    """The installed recorder's clock (the production clock when disabled).

    Library code that needs a timestamp — the fleet scheduler's latency
    stamps, the sweep runner's per-point timers — reads it from here instead
    of ``time.*``, so a :class:`~repro.obs.clock.ManualClock` installed by a
    test freezes every timing number at once.
    """
    return _RECORDER.clock


def span(name: str, **attrs: Any) -> _Span | _NullSpan:
    """Time a named stage under the installed recorder (no-op when disabled)."""
    return _RECORDER.span(name, **attrs)


def count(name: str, amount: int = 1) -> None:
    """Increment a counter under the installed recorder (no-op when disabled)."""
    _RECORDER.count(name, amount)


def observe(name: str, value: float) -> None:
    """Record a histogram value under the installed recorder (no-op when disabled)."""
    _RECORDER.observe(name, value)


def gauge(name: str, value: float) -> None:
    """Set a gauge under the installed recorder (no-op when disabled)."""
    _RECORDER.gauge(name, value)


def tag(key: str, value: str) -> None:
    """Set a sticky tag on the installed recorder (no-op when disabled)."""
    _RECORDER.tag(key, value)


def merge(snapshot: ObsSnapshot | None) -> None:
    """Merge a worker snapshot into the installed recorder (no-op when disabled)."""
    _RECORDER.merge(snapshot)


@contextmanager
def recording(recorder: Recorder | None = None) -> Iterator[Recorder]:
    """Install a recorder for the duration of the block.

    ::

        with obs.recording() as recorder:
            report = run_fleet(config)
        write_jsonl(recorder.snapshot(), "fleet-obs.jsonl")

    The previous recorder (usually the null one) is restored on exit, even
    on error, so observability never leaks across callers.
    """
    recorder = recorder if recorder is not None else Recorder()
    previous = set_recorder(recorder)
    try:
        yield recorder
    finally:
        set_recorder(previous)


@contextmanager
def shard_recording(shard_enabled: bool) -> Iterator[Recorder | None]:
    """Recording context for one process-pool work unit.

    When *shard_enabled* is false, yields ``None`` and records nothing —
    the disabled path of sharded drivers stays free.  When true, installs a
    fresh :class:`Recorder` (inheriting the clock and span capacity of an
    already-enabled recorder, so in-process shards keep a test's
    :class:`~repro.obs.clock.ManualClock` and an unbounded recorder keeps
    every shard span) and yields it; the caller returns
    ``recorder.snapshot()`` with its results for in-order merge in the
    parent.  Works identically whether the unit runs in-process or in a
    forked/spawned worker.
    """
    if not shard_enabled:
        yield None
        return
    current = _RECORDER
    if isinstance(current, Recorder):
        recorder = Recorder(clock=current.clock, max_spans=current.spans.maxlen)
    else:
        recorder = Recorder()
    previous = set_recorder(recorder)
    try:
        yield recorder
    finally:
        set_recorder(previous)
