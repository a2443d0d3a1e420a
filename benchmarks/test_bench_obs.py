"""Perf benchmarks for the observability layer's overhead contract.

The deal ``repro.obs`` makes with the hot paths is:

* **disabled (the default)** — spans are one shared no-op object and the
  counter/observe hooks return immediately, so instrumented code must run at
  the same speed as before instrumentation.  The disabled-mode walk bench
  below runs the exact workload of
  ``test_bench_geometry.py::test_collect_walk_500_positions`` and is gated
  against the *same* reference-machine baseline median: if the no-op seam
  ever grows measurable cost, the perf gate trips.
* **enabled** — recording costs whatever clocks and dict updates cost.  The
  enabled-mode bench is deliberately ungated; its number lands in the CI
  job log so the overhead trend is visible without gating on it.
"""

from __future__ import annotations

from repro import obs
from repro.channel.channel import ChannelSimulator
from repro.csi.collector import PacketCollector
from repro.experiments.scenarios import evaluation_cases
from repro.experiments.workloads import walking_trajectory


def _walk_workload():
    _, link = evaluation_cases()[0]
    simulator = ChannelSimulator(link, max_bounces=2)
    positions = walking_trajectory(simulator.link, num_packets=500, seed=3)
    return simulator, positions


def test_collect_walk_obs_disabled(benchmark):
    """The geometry walk workload with the default no-op recorder installed.

    Gated against the same baseline as the uninstrumented geometry bench:
    observability off must be free.
    """
    simulator, positions = _walk_workload()
    assert not obs.enabled()

    def run():
        collector = PacketCollector(simulator, seed=5)
        return collector.collect_walk(positions)

    trace = benchmark.pedantic(run, rounds=3, iterations=1, warmup_rounds=1)
    assert trace.num_packets == 500


def test_collect_walk_obs_enabled(benchmark):
    """The same walk with a live recorder: measures recording overhead.

    Ungated — the number is informational (clock reads plus histogram
    updates per span); the determinism parity tests, not this bench, are
    what guarantee enabled-mode correctness.
    """
    simulator, positions = _walk_workload()

    def run():
        with obs.recording() as recorder:
            collector = PacketCollector(simulator, seed=5)
            trace = collector.collect_walk(positions)
        return trace, recorder.snapshot()

    trace, snapshot = benchmark.pedantic(run, rounds=3, iterations=1, warmup_rounds=1)
    assert trace.num_packets == 500
    assert snapshot.metrics.counters["collect.packets"] == 500
