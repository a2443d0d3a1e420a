"""repro.api — the config-driven, streaming, multi-link detection pipeline API.

This subsystem is the single way consumers (the experiment runner, the CLI,
the examples and future services) construct and drive detection:

* :mod:`repro.api.registry` — the detector registry
  (:data:`DEFAULT_REGISTRY`, a :class:`repro.utils.registry.Registry`) with a
  :func:`register_detector` decorator, so detection schemes are pluggable
  instead of a hard-coded triple.
* :mod:`repro.api.config` — a declarative :class:`PipelineConfig` dataclass
  (buildable from dict/JSON) capturing detector choice, sanitisation, window
  policy, threshold policy and collector settings.
* :mod:`repro.api.session` — a push-based :class:`StreamingSession` that
  accepts CSI frames one at a time and emits incremental
  :class:`DetectionEvent` objects — the paper's online monitoring loop.
* :mod:`repro.api.monitor` — a :class:`MultiLinkMonitor` fanning a shared
  packet stream across N links with batched, vectorized window scoring.
* :mod:`repro.sweep` (re-exported here) — declarative :class:`SweepSpec`
  parameter sweeps over evaluation campaigns, executed deterministically by
  :class:`SweepRunner` into a resumable :class:`SweepStore`.
* :mod:`repro.fleet` (re-exported here) — fleet-scale streaming: synthetic
  Poisson traffic over thousands of heterogeneous links, an event-ordered
  cross-link batch scheduler, and :func:`run_fleet` producing a
  :class:`FleetReport` with deterministic events plus throughput/latency
  metrics.

Quickstart::

    from repro.api import PipelineConfig

    config = PipelineConfig.from_dict({"detector": "combined", "window_packets": 25})
    session = config.session(link)
    session.calibrate(collector.collect_empty(num_packets=config.calibration_packets))
    for frame in collector.collect(scene, num_packets=25):
        event = session.push(frame)
        if event is not None:
            print(event.to_dict())
"""

from repro.api.config import PipelineConfig
from repro.api.monitor import MultiLinkMonitor
from repro.api.registry import DEFAULT_REGISTRY, available_detectors, register_detector
from repro.api.session import DetectionEvent, StreamingSession

#: Sweep names re-exported lazily: repro.sweep sits above the experiment
#: runner, which itself imports repro.api.config, so an eager import here
#: would be circular whenever repro.sweep is imported first.
_SWEEP_EXPORTS = (
    "SweepAxis",
    "SweepPoint",
    "SweepRecord",
    "SweepRunResult",
    "SweepRunner",
    "SweepSpec",
    "SweepStore",
    "run_sweep",
)

#: Fleet names re-exported lazily for the same reason: repro.fleet sits above
#: the experiment scenarios and this config module, so it must not be pulled
#: in eagerly when repro.api itself is being imported.
_FLEET_EXPORTS = (
    "FleetConfig",
    "FleetReport",
    "FleetScheduler",
    "run_fleet",
)


def __getattr__(name: str):
    if name in _SWEEP_EXPORTS:
        import repro.sweep

        return getattr(repro.sweep, name)
    if name in _FLEET_EXPORTS:
        import repro.fleet

        return getattr(repro.fleet, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "DEFAULT_REGISTRY",
    "DetectionEvent",
    "FleetConfig",
    "FleetReport",
    "FleetScheduler",
    "MultiLinkMonitor",
    "PipelineConfig",
    "StreamingSession",
    "SweepAxis",
    "SweepPoint",
    "SweepRecord",
    "SweepRunResult",
    "SweepRunner",
    "SweepSpec",
    "SweepStore",
    "available_detectors",
    "register_detector",
    "run_fleet",
    "run_sweep",
]
