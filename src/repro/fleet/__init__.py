"""repro.fleet — fleet-scale streaming: synthetic traffic over thousands of links.

The paper's detector is an online monitor; production runs it against
thousands of independent links with ragged packet schedules.  This package
supplies that layer on top of :mod:`repro.api`:

* :mod:`repro.fleet.traffic` — deterministic per-link Poisson traffic over a
  heterogeneous (``normal`` / ``busy`` / ``abusive``) link population; every
  link's streams derive from the fleet seed and its index alone, so any
  subset rebuilds byte-identically on any worker, and set-up acquires only
  the pool frames a link's windows read (nothing, and no calibration, for a
  link that completes no window), written once into a shard-wide frame
  layout.
* :mod:`repro.fleet.scheduler` — a window scheduler that plans every
  link's windows from its arrival times (each link's
  :class:`~repro.api.session.StreamingSession` supplies the window rule),
  sorts them once by completion time and scores them in flushes *across
  links*: each flush gathers one stack from the frame layout and scores it
  through :mod:`repro.api.monitor`'s stack program.  Events are
  bit-identical to sequential per-link ``push`` for any batch size.
* :mod:`repro.fleet.engine` — :class:`FleetConfig` (JSON round-trip),
  :class:`FleetReport` (throughput, p50/p99 flush latency, a
  canonical event stream with a sha256 digest) and :func:`run_fleet`, which
  runs the same fleet as an in-process library call, from the CLI
  (``repro fleet run``), or sharded over a process pool with a
  byte-identical merged event stream.

Quickstart::

    from repro.fleet import FleetConfig, run_fleet

    report = run_fleet(FleetConfig(links=1000, duration_s=5.0, seed=7))
    print(report.windows_per_sec, report.latency_p99_s)
"""

from repro.fleet.engine import FleetConfig, FleetReport, run_fleet
from repro.fleet.scheduler import FleetScheduler, ScheduleStats
from repro.fleet.traffic import (
    RATE_CLASSES,
    LinkProfile,
    LinkTraffic,
    derive_link_seed,
    poisson_arrival_times,
)

__all__ = [
    "RATE_CLASSES",
    "FleetConfig",
    "FleetReport",
    "FleetScheduler",
    "LinkProfile",
    "LinkTraffic",
    "ScheduleStats",
    "derive_link_seed",
    "poisson_arrival_times",
    "run_fleet",
]
