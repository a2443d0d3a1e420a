"""Perf benchmark: the evaluation campaign on the window-cached substrate.

Before the window-cached CFR synthesis the five-case campaign re-enumerated
paths and re-synthesized the clean CFR for every one of its ~7,500 packets
(~3.4 s/case, ~17 s per campaign on the reference container).  With the clean
CFR computed once per static monitoring window the same bit-identical
campaign runs in ~3.4 s total (~4.7x).  This benchmark records the campaign
wall-clock and the raw collector throughput in the BENCH JSON so the perf
trajectory is tracked from this PR on; `--workers N` (or
``EvaluationConfig(max_workers=N)``) additionally shards cases over processes
on multi-core hosts with bit-identical results.
"""

from __future__ import annotations

import pytest

from repro.channel.channel import ChannelSimulator
from repro.csi.collector import PacketCollector
from repro.experiments.runner import EvaluationConfig, run_evaluation
from repro.experiments.scenarios import evaluation_cases


@pytest.mark.parametrize("backend", ["exact", "fast"])
def test_campaign_five_cases_single_process(benchmark, backend):
    """Wall-clock of the default five-case campaign, single process.

    Parametrized over the numeric backends: ``[exact]`` tracks the
    bit-parity path, ``[fast]`` the SIMD path whose headline claim is a
    >=2x median speedup on exactly this campaign — both medians are gated
    in ``baselines.json``, and ``check_regression.py`` prints the
    fast-vs-exact speedup table from the pair.
    """
    result = benchmark.pedantic(
        lambda: run_evaluation(EvaluationConfig(seed=2015, backend=backend)),
        rounds=1,
        iterations=1,
    )
    headline = result.headline()
    print("\n=== Campaign perf: headline sanity on the timed run ===")
    for scheme, stats in headline.items():
        print(
            f"{scheme:12s} TPR={stats['true_positive_rate']:.3f} "
            f"FPR={stats['false_positive_rate']:.3f}"
        )
    # The timed campaign is the real one: its numbers must stay sane.
    assert headline["combined"]["true_positive_rate"] > 0.85
    assert headline["combined"]["false_positive_rate"] < 0.1


def test_window_cached_collect_throughput(benchmark):
    """Raw collector throughput: one 150-packet static window on case-1."""
    _, link = evaluation_cases()[0]
    simulator = ChannelSimulator(link, max_bounces=2)
    collector = PacketCollector(simulator, seed=7)
    trace = benchmark.pedantic(
        lambda: collector.collect(None, num_packets=150),
        rounds=3,
        iterations=1,
        warmup_rounds=1,
    )
    assert trace.num_packets == 150
