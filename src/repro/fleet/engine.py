"""Fleet engine: population spec, sharded execution and the fleet report.

One :class:`FleetConfig` describes an entire fleet run — population size and
heterogeneity, traffic duration, the detection pipeline every link runs, and
the scheduler's batch-flush policy — as a JSON-round-trippable dataclass.
:func:`run_fleet` executes it in any of three modes from the same code path:

* **library** — ``run_fleet(FleetConfig(...))`` in-process;
* **CLI** — ``repro --config fleet.json fleet run`` (see :mod:`repro.cli`);
* **sharded** — ``max_workers > 1`` partitions the link population over a
  process pool; every worker rebuilds its links' traffic from the fleet seed
  (per-link streams are pure functions of ``(seed, link_index)``) and runs
  its own scheduler, and the merged event stream is byte-identical to the
  single-process run for any worker count.

The merge works because event *content* is session-local (scores are
bit-identical however windows are batched — see
:func:`repro.api.monitor.score_windows`) and the report orders events
canonically by ``(timestamp, link, index)``.  Throughput and latency numbers
are measurements, not part of the deterministic stream.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping, Sequence

import numpy as np

from repro import obs
from repro.api.config import PipelineConfig
from repro.api.monitor import calibrate_sessions
from repro.backend import use_backend
from repro.api.session import DetectionEvent, StreamingSession
from repro.obs.trace import ObsSnapshot
from repro.utils.validation import (
    check_finite_real,
    check_integer,
    check_known_keys,
    check_probability,
)

from repro.fleet.scheduler import FleetScheduler
from repro.fleet.traffic import RATE_CLASSES, LinkTraffic, build_fleet_traffic


def _default_pipeline() -> PipelineConfig:
    """The default per-link pipeline: the baseline scheme.

    A fleet config can swap in any registered detector; every built-in
    scheme scores through the stacked cross-link kernels.
    """
    return PipelineConfig(detector="baseline", calibration_packets=50)


def _default_class_mix() -> dict[str, float]:
    return {"normal": 0.8, "busy": 0.15, "abusive": 0.05}


def _default_class_rates() -> dict[str, float]:
    return {"normal": 5.0, "busy": 20.0, "abusive": 60.0}


@dataclass(frozen=True)
class FleetConfig:
    """Declarative description of one fleet run.

    Parameters
    ----------
    links:
        Population size.  Link ``i`` re-uses evaluation case ``i mod 5``'s
        geometry with its own seeded traffic.
    duration_s:
        Synthetic traffic duration in seconds (per link).
    seed:
        Fleet seed; every link's streams derive from it and the link index
        (:func:`repro.fleet.traffic.derive_link_seed`).
    backend:
        Numeric backend (:mod:`repro.backend`) every shard — traffic
        synthesis and scheduling alike — computes through: ``"exact"``
        (default; libm-routed kernels) or ``"fast"`` (SIMD kernels,
        tolerance parity).  Authoritative
        for the whole fleet: the per-link ``pipeline.backend`` field is
        ignored here, exactly as ``pipeline.seed`` is.
    batch_windows:
        Windows per scheduler flush — the time-ordered windows of all links
        are scored across links in vectorized passes of this many.  Events
        are bit-identical for every value.
    pool_packets:
        Synthetic monitoring packets collected per link; arrivals cycle
        through the pool (an idle burst then an occupied burst).
    occupied_fraction:
        Fraction of each link's pool collected with a person present.
    max_workers:
        Process-pool width the population is sharded over; the merged event
        stream is byte-identical for any value.
    class_mix:
        Relative population weight per rate class (``normal`` / ``busy`` /
        ``abusive``); weights are normalised, zero-weight classes never
        assigned.
    class_rates_hz:
        Mean Poisson packet rate per rate class.
    pipeline:
        The detection pipeline every link runs.  Its ``seed`` and
        ``backend`` fields are ignored — fleet randomness comes from the
        fleet seed so that traffic is per-link reproducible, and the numeric
        backend comes from the fleet-level :attr:`backend`.
    """

    links: int = 100
    duration_s: float = 10.0
    seed: int = 2015
    backend: str = "exact"
    batch_windows: int = 32
    pool_packets: int = 50
    occupied_fraction: float = 0.5
    max_workers: int = 1
    class_mix: dict[str, float] = field(default_factory=_default_class_mix)
    class_rates_hz: dict[str, float] = field(default_factory=_default_class_rates)
    pipeline: PipelineConfig = field(default_factory=_default_pipeline)

    def __post_init__(self) -> None:
        for name, minimum in (
            ("links", 1),
            ("batch_windows", 1),
            ("pool_packets", 1),
            ("max_workers", 1),
        ):
            value = check_integer(name, getattr(self, name))
            if value < minimum:
                raise ValueError(f"{name} must be >= {minimum}, got {value}")
        if check_finite_real("duration_s", self.duration_s) <= 0:
            raise ValueError(f"duration_s must be > 0, got {self.duration_s!r}")
        check_integer("seed", self.seed)
        if not self.backend or not isinstance(self.backend, str):
            raise ValueError(f"backend must be a non-empty string, got {self.backend!r}")
        check_probability("occupied_fraction", self.occupied_fraction)
        if not isinstance(self.pipeline, PipelineConfig):
            raise ValueError(
                f"pipeline must be a PipelineConfig, got {type(self.pipeline).__name__}"
            )
        if not isinstance(self.class_mix, Mapping) or not self.class_mix:
            raise ValueError(f"class_mix must be a non-empty mapping, got {self.class_mix!r}")
        unknown = set(self.class_mix) - set(RATE_CLASSES)
        if unknown:
            raise ValueError(
                f"unknown class_mix classes {sorted(unknown)}; "
                f"known classes: {list(RATE_CLASSES)}"
            )
        weights = {k: check_finite_real(f"class_mix[{k!r}]", v) for k, v in self.class_mix.items()}
        if any(value < 0 for value in weights.values()) or sum(weights.values()) <= 0:
            raise ValueError(
                f"class_mix weights must be non-negative with a positive sum, "
                f"got {self.class_mix!r}"
            )
        if not isinstance(self.class_rates_hz, Mapping):
            raise ValueError(
                f"class_rates_hz must be a mapping, got {self.class_rates_hz!r}"
            )
        for name, rate in self.class_rates_hz.items():
            check_finite_real(f"class_rates_hz[{name!r}]", rate)
        for name, weight in weights.items():
            if weight <= 0:
                continue
            rate = self.class_rates_hz.get(name)
            if rate is None or rate <= 0:
                raise ValueError(
                    f"class_rates_hz[{name!r}] must be a positive rate for a "
                    f"class with positive mix weight, got {rate!r}"
                )

    # ------------------------------------------------------------------ #
    # serialisation
    # ------------------------------------------------------------------ #
    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FleetConfig":
        """Build a config from a plain mapping, rejecting unknown keys."""
        check_known_keys(
            "FleetConfig", data, (f.name for f in dataclasses.fields(cls))
        )
        payload = dict(data)
        pipeline = payload.get("pipeline")
        if isinstance(pipeline, Mapping):
            payload["pipeline"] = PipelineConfig.from_dict(pipeline)
        return cls(**payload)

    def to_dict(self) -> dict[str, Any]:
        """The config as a plain JSON-serialisable dict (``from_dict`` inverse)."""
        data = dataclasses.asdict(self)
        data["class_mix"] = dict(self.class_mix)
        data["class_rates_hz"] = dict(self.class_rates_hz)
        data["pipeline"] = self.pipeline.to_dict()
        return data

    @classmethod
    def from_json(cls, text: str) -> "FleetConfig":
        """Parse a config from a JSON object string."""
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ValueError(f"expected a JSON object, got {type(data).__name__}")
        return cls.from_dict(data)

    @classmethod
    def from_file(cls, path: str | Path) -> "FleetConfig":
        """Load a config from a JSON file."""
        return cls.from_json(Path(path).read_text())

    def to_json(self, *, indent: int | None = 2) -> str:
        """The config as a JSON object string."""
        return json.dumps(self.to_dict(), indent=indent)

    def replace(self, **changes: Any) -> "FleetConfig":
        """A copy of the config with *changes* applied (validated)."""
        return dataclasses.replace(self, **changes)


@dataclass(frozen=True)
class FleetReport:
    """Outcome of one fleet run: the event stream plus service metrics.

    The event stream (canonically ordered by ``(timestamp, link, index)``)
    is deterministic — byte-identical for any worker count and batch size.
    The throughput/latency numbers are wall-clock measurements of this run;
    an event's latency is the wall time of its scheduler flush, from
    gathering the flush's windows to emitting its events.
    """

    links: int
    workers: int
    arrivals: int
    windows_scored: int
    detected: int
    per_class: dict[str, int]
    events: tuple[DetectionEvent, ...]
    setup_s: float
    elapsed_s: float
    wall_s: float
    windows_per_sec: float
    arrivals_per_sec: float
    latency_p50_s: float
    latency_p99_s: float

    def to_dict(self, *, include_events: bool = False) -> dict[str, Any]:
        """The report as a JSON-serialisable dict.

        The full event stream is included only on request — a fleet run can
        emit tens of thousands of events, and the summary plus
        :meth:`event_digest` is usually what a caller wants to persist.
        """
        data = {
            "links": self.links,
            "workers": self.workers,
            "arrivals": self.arrivals,
            "windows_scored": self.windows_scored,
            "events": len(self.events),
            "detected": self.detected,
            "per_class": dict(self.per_class),
            "setup_s": self.setup_s,
            "elapsed_s": self.elapsed_s,
            "wall_s": self.wall_s,
            "windows_per_sec": self.windows_per_sec,
            "arrivals_per_sec": self.arrivals_per_sec,
            "latency_p50_s": self.latency_p50_s,
            "latency_p99_s": self.latency_p99_s,
            "event_digest": self.event_digest(),
        }
        if include_events:
            data["event_stream"] = [event.to_dict() for event in self.events]
        return data

    def event_digest(self) -> str:
        """sha256 over the canonical JSON of the event stream.

        Two runs of the same :class:`FleetConfig` produce the same digest
        regardless of worker count or batch size — the determinism tests and
        the example's three-mode comparison hinge on exactly this value.
        """
        payload = json.dumps(
            [event.to_dict() for event in self.events], sort_keys=True
        )
        return hashlib.sha256(payload.encode()).hexdigest()


def _shard_indices(links: int, workers: int) -> list[list[int]]:
    """Contiguous link-index shards, at most one per worker, none empty."""
    workers = min(workers, links)
    return [chunk.tolist() for chunk in np.array_split(np.arange(links), workers)]


_ShardResult = tuple[
    list[DetectionEvent],
    tuple[float, ...],
    int,
    int,
    float,
    dict[str, int],
    "ObsSnapshot | None",
]


def _shard_links(indices: Sequence[int]) -> list["Any"]:
    """The evaluation-case geometry of each link index, aligned one-to-one."""
    from repro.experiments.scenarios import evaluation_cases

    cases = evaluation_cases()
    return [cases[index % len(cases)][1] for index in indices]


def _build_shard_traffic(config: FleetConfig, indices: Sequence[int]) -> list[LinkTraffic]:
    """Synthesise one index-shard's traffic through the batched builder."""
    return build_fleet_traffic(
        indices,
        _shard_links(indices),
        seed=config.seed,
        pipeline=config.pipeline,
        duration_s=config.duration_s,
        pool_packets=config.pool_packets,
        occupied_fraction=config.occupied_fraction,
        class_mix=config.class_mix,
        class_rates_hz=config.class_rates_hz,
    )


def _setup_streams(
    config: FleetConfig, indices: Sequence[int]
) -> tuple[list[tuple[StreamingSession, LinkTraffic]], dict[str, int]]:
    """Build the (calibrated session, traffic) streams of one shard.

    Traffic comes from :func:`~repro.fleet.traffic.build_fleet_traffic`
    (geometry-shared clean CFRs, one acquisition call per link of the frames
    it reads).  Every session is calibrated in one shard-wide
    :func:`~repro.api.monitor.calibrate_sessions` pass: one sanitisation of
    all calibration traces, one stacked calibration call per chunk of links
    that share a kernel (links on geometries that differ only in array
    placement share one), and one scoring call for all threshold-replay
    windows.
    """
    links = _shard_links(indices)
    traffics = _build_shard_traffic(config, indices)
    streams: list[tuple[StreamingSession, LinkTraffic]] = []
    census: dict[str, int] = {}
    for link, traffic in zip(links, traffics):
        session = config.pipeline.session(link, link_name=traffic.profile.name)
        census[traffic.profile.rate_class] = (
            census.get(traffic.profile.rate_class, 0) + 1
        )
        streams.append((session, traffic))
    calibrate_sessions([(session, traffic.calibration) for session, traffic in streams])
    return streams, census


def _run_fleet_shard(
    config: FleetConfig, indices: Sequence[int], obs_enabled: bool = False
) -> _ShardResult:
    """Build and run one shard of the link population.

    Returns ``(events, latencies, arrivals, windows, schedule_elapsed_s,
    class_census, obs_snapshot)``.  Everything a shard needs is rebuilt from
    the config and its link indices, so shards are independent of each other
    and of the process they run in.  When *obs_enabled*, the shard records
    into its own :mod:`repro.obs` recorder and ships the snapshot home for
    in-order merge (process pools don't share the parent's recorder).  Each
    shard activates the fleet backend itself for the same reason.
    """
    with obs.shard_recording(obs_enabled) as recorder:
        with use_backend(config.backend):
            with obs.span("fleet.shard_setup"):
                streams, census = _setup_streams(config, indices)
            scheduler = FleetScheduler(batch_windows=config.batch_windows)
            with obs.span("fleet.schedule"):
                events, stats = scheduler.run(streams)
        snapshot = recorder.snapshot() if recorder is not None else None
    return (
        events,
        stats.latencies_s,
        stats.arrivals,
        stats.windows,
        stats.elapsed_s,
        census,
        snapshot,
    )


def _percentile(latencies: Sequence[float], q: float) -> float:
    if not latencies:
        return 0.0
    return float(np.percentile(np.asarray(latencies, dtype=float), q))


def run_fleet(config: FleetConfig, *, max_workers: int | None = None) -> FleetReport:
    """Execute a fleet run: build the population, schedule it, report.

    Parameters
    ----------
    config:
        The fleet to run.
    max_workers:
        Worker-count override; ``None`` uses ``config.max_workers``.  The
        link population is partitioned into contiguous shards, one scheduler
        per shard; the merged, canonically ordered event stream is
        byte-identical for any worker count (per-link traffic and scores are
        pure functions of the config).
    """
    workers = config.max_workers if max_workers is None else max_workers
    if workers < 1:
        raise ValueError(f"max_workers must be >= 1, got {workers}")
    obs_enabled = obs.enabled()
    started_at = obs.active_clock().now()
    shards = _shard_indices(config.links, workers)

    shard_results: list[_ShardResult]
    if len(shards) <= 1:
        shard_results = [_run_fleet_shard(config, shards[0], obs_enabled)]
    else:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=len(shards)) as executor:
            futures = [
                executor.submit(_run_fleet_shard, config, indices, obs_enabled)
                for indices in shards
            ]
            shard_results = [future.result() for future in futures]
    wall_s = obs.active_clock().now() - started_at

    events: list[DetectionEvent] = []
    latencies: list[float] = []
    arrivals = 0
    windows = 0
    elapsed_s = 0.0
    per_class: dict[str, int] = {name: 0 for name in RATE_CLASSES}
    # Merge shard snapshots in shard order so the combined metrics are
    # structurally identical for any worker count.
    for shard in shard_results:
        (
            shard_events,
            shard_latencies,
            shard_arrivals,
            shard_windows,
            shard_elapsed,
            census,
            shard_snapshot,
        ) = shard
        events.extend(shard_events)
        latencies.extend(shard_latencies)
        arrivals += shard_arrivals
        windows += shard_windows
        # Shards run concurrently; the slowest scheduling loop bounds the
        # fleet's streaming throughput.
        elapsed_s = max(elapsed_s, shard_elapsed)
        for name, count in census.items():
            per_class[name] = per_class.get(name, 0) + count
        obs.merge(shard_snapshot)
    events.sort(key=lambda event: (event.timestamp, event.link, event.index))
    setup_s = max(wall_s - elapsed_s, 0.0)
    obs.gauge("fleet.setup_s", setup_s)
    obs.gauge("fleet.schedule_s", elapsed_s)
    obs.gauge("fleet.wall_s", wall_s)
    return FleetReport(
        links=config.links,
        workers=len(shards),
        arrivals=arrivals,
        windows_scored=windows,
        detected=sum(1 for event in events if event.detected),
        per_class=per_class,
        events=tuple(events),
        setup_s=setup_s,
        elapsed_s=elapsed_s,
        wall_s=wall_s,
        windows_per_sec=windows / elapsed_s if elapsed_s > 0 else 0.0,
        arrivals_per_sec=arrivals / elapsed_s if elapsed_s > 0 else 0.0,
        latency_p50_s=_percentile(latencies, 50.0),
        latency_p99_s=_percentile(latencies, 99.0),
    )
