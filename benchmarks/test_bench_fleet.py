"""Perf benchmark: a 1,000-link fleet through the cross-link batch scheduler.

The fleet engine plans every link's windows from its Poisson arrival times,
sorts them into one time order and scores them in flushes across links
through the shared stacked scoring program.  This benchmark runs a
1,000-link heterogeneous population (normal/busy/abusive rate classes) end
to end, on the baseline scheme and on the paper's combined scheme, and
prints the service-level numbers the README quotes: scheduler throughput in
windows/sec plus p50/p99 flush latency (the wall time from the start of an
event's flush to its emission).  The event stream is
deterministic, so the run also doubles as a smoke check that the digest is
stable across CI pushes.
"""

from __future__ import annotations

import pytest

from repro.api import PipelineConfig
from repro.fleet import FleetConfig, run_fleet


def fleet_config(backend: str = "exact", detector: str = "baseline") -> FleetConfig:
    """1,000 concurrent links over 2 simulated seconds, sized for CI."""
    return FleetConfig(
        links=1000,
        duration_s=2.0,
        seed=7,
        batch_windows=64,
        pool_packets=40,
        backend=backend,
        pipeline=PipelineConfig(
            detector=detector,
            window_packets=10,
            calibration_packets=30,
        ),
    )


#: (backend, scheme) cases of the scheduler bench.  The baseline cases keep
#: their plain backend ids, under which ``baselines.json`` has gated them all
#: along.
SCHEDULER_CASES = [
    pytest.param(
        backend,
        detector,
        id=backend if detector == "baseline" else f"{detector}-{backend}",
    )
    for detector in ("baseline", "combined")
    for backend in ("exact", "fast")
]


def test_fleet_1000_links_setup_only(benchmark):
    """Traffic synthesis for the 1,000-link population, scheduling excluded.

    Setup dominates a fleet run's wall-clock; the batched builder shares
    clean-CFR synthesis per geometry and one acquisition call per link.
    Tracked separately from the end-to-end run so a setup regression is
    visible even when scheduling noise hides it.
    """
    from repro.fleet.engine import _build_shard_traffic

    config = fleet_config()
    indices = list(range(config.links))

    traffics = benchmark.pedantic(
        lambda: _build_shard_traffic(config, indices), rounds=1, iterations=1
    )
    assert len(traffics) == config.links
    assert all(traffic.num_arrivals > 0 for traffic in traffics)


@pytest.mark.parametrize(("backend", "detector"), SCHEDULER_CASES)
def test_fleet_1000_links_batched_scheduler(benchmark, backend, detector):
    """Wall-clock of a 1,000-link fleet run (traffic synthesis + scheduling).

    Parametrized over the numeric backends and over the baseline and
    combined schemes; every median is gated in ``baselines.json`` and each
    scheme's backend pair feeds the fast-vs-exact speedup table.
    """
    config = fleet_config(backend, detector)

    report = benchmark.pedantic(lambda: run_fleet(config), rounds=1, iterations=1)

    assert report.links == 1000
    assert report.windows_scored > 1000  # every rate class contributes windows
    assert report.latency_p50_s <= report.latency_p99_s
    print(f"\n=== Fleet 1000-link smoke ({detector}, {backend}) ===")
    print(f"arrivals={report.arrivals} windows={report.windows_scored}")
    print(f"per_class={report.per_class}")
    print(
        f"windows/sec={report.windows_per_sec:.0f} "
        f"arrivals/sec={report.arrivals_per_sec:.0f}"
    )
    print(
        f"latency p50={report.latency_p50_s * 1e3:.3f}ms "
        f"p99={report.latency_p99_s * 1e3:.3f}ms"
    )
    print(f"setup={report.setup_s:.2f}s schedule={report.elapsed_s:.2f}s")
    print(f"event_digest={report.event_digest()}")
