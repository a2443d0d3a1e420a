"""Perf benchmarks for the array-based scene engine and batched sanitisation.

Pre-refactor numbers on the reference container (recorded in the PR that
introduced this file, measured immediately before the refactor on the same
machine):

* ``clean_cfr``  — 0 bodies 0.556 ms, 1 body 0.906 ms, 3 bodies 1.620 ms
* ``collect_walk`` (500 positions, 1 body) — 0.497 s
* ``sanitize_trace`` (100-packet window)   — 6.871 ms

Post-refactor the same workloads measure ~0.13 / 0.32 / 0.91 ms,
~0.042 s (~12x) and ~0.55 ms (~12x): the point-to-segment geometry runs
over a stacked ``(bodies, segments)`` array, CFR synthesis reuses cached
per-path spectral tables, and the per-frame ``np.polyfit`` loop became one
cached pseudo-inverse applied row by row.  Geometry and synthesis are
bit-identical to the scalar layer; sanitisation matches per-frame
``np.polyfit`` to rounding (both checked by tests/test_scene_parity.py).
"""

from __future__ import annotations

from repro.channel.channel import ChannelSimulator
from repro.channel.geometry import Point
from repro.channel.human import HumanBody
from repro.csi.calibration import sanitize_trace
from repro.csi.collector import PacketCollector
from repro.experiments.scenarios import evaluation_cases
from repro.experiments.workloads import walking_trajectory


def _simulator() -> ChannelSimulator:
    _, link = evaluation_cases()[0]
    return ChannelSimulator(link, max_bounces=2)


def _bodies(count: int) -> list[HumanBody] | None:
    if count == 0:
        return None
    return [
        HumanBody(position=Point(4.0 + 0.3 * i, 3.0 + 0.2 * i)) for i in range(count)
    ]


def test_clean_cfr_empty_scene(benchmark):
    """Noise-free CFR synthesis of the static environment (0 bodies)."""
    simulator = _simulator()
    simulator.clean_cfr(None)  # warm the static-path and synthesis caches
    cfr = benchmark(simulator.clean_cfr, None)
    assert cfr.shape == (3, 30)


def test_clean_cfr_one_body(benchmark):
    """CFR synthesis with one person (shadowing + one reflection path)."""
    simulator = _simulator()
    scene = _bodies(1)
    simulator.clean_cfr(scene)
    cfr = benchmark(simulator.clean_cfr, scene)
    assert cfr.shape == (3, 30)


def test_clean_cfr_three_bodies(benchmark):
    """CFR synthesis with three people (pairwise reflection shadowing)."""
    simulator = _simulator()
    scene = _bodies(3)
    simulator.clean_cfr(scene)
    cfr = benchmark(simulator.clean_cfr, scene)
    assert cfr.shape == (3, 30)


def test_collect_walk_500_positions(benchmark):
    """A 500-position walking trajectory through the batched scene engine."""
    simulator = _simulator()
    positions = walking_trajectory(simulator.link, num_packets=500, seed=3)

    def run():
        collector = PacketCollector(simulator, seed=5)
        return collector.collect_walk(positions)

    trace = benchmark.pedantic(run, rounds=3, iterations=1, warmup_rounds=1)
    assert trace.num_packets == 500


def test_sanitize_trace_100_packets(benchmark):
    """Batched phase sanitisation of a 100-packet monitoring window."""
    simulator = _simulator()
    collector = PacketCollector(simulator, seed=6)
    window = collector.collect(None, num_packets=100)
    sanitized = benchmark(sanitize_trace, window)
    assert sanitized.num_packets == 100
