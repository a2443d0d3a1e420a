"""Perf benchmark: the whole-case array program.

The window-cached campaign still paid one ``clean_cfr_batch`` call, one
impairment plan and one sanitisation pass *per window* — 275 synthesis calls
and 825 sanitise calls across the five default cases.  The case program
plans every window of a case up front, synthesises all scenes in one batch,
impairs every packet in one acquisition call and sanitises each window once
for all three schemes.  These benchmarks track the per-case wall-clock of
that path (the campaign gate in ``test_bench_perf_campaign.py`` covers the
five-case total) and the batched collector's multi-window throughput.
"""

from __future__ import annotations

import numpy as np

from repro.channel.channel import ChannelSimulator
from repro.csi.collector import PacketCollector
from repro.experiments.runner import EvaluationConfig, run_case
from repro.experiments.scenarios import evaluation_cases


def test_case_program_single_case(benchmark):
    """Wall-clock of one default-config case through the array program."""
    config = EvaluationConfig(seed=2015)
    _, link = evaluation_cases()[0]
    windows = benchmark.pedantic(
        lambda: run_case(link, config, case_seed=2015),
        rounds=3,
        iterations=1,
        warmup_rounds=1,
    )
    # 3x3 grid x 3 bursts, positives + the same number of empties, 3 schemes.
    assert len(windows) == 2 * 9 * 3 * len(config.schemes)


def test_collect_batch_55_windows(benchmark):
    """Batched collector throughput: a case-shaped 55-window capture."""
    _, link = evaluation_cases()[0]
    simulator = ChannelSimulator(link, max_bounces=2)
    collector = PacketCollector(simulator, seed=7)
    cleans = np.repeat(simulator.clean_cfr_batch([None]), 55, axis=0)
    counts = [150] + [25] * 54  # calibration + 54 monitoring windows

    traces = benchmark.pedantic(
        lambda: collector.collect_batch(cleans, counts),
        rounds=3,
        iterations=1,
        warmup_rounds=1,
    )
    assert [trace.num_packets for trace in traces] == counts
