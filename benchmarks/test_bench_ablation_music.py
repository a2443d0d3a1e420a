"""Ablation — plain MUSIC vs spatially-smoothed MUSIC (Section IV-B1).

The paper chooses plain MUSIC because forward smoothing relegates the three
antennas to an effective two-element array that can only resolve a single
path.  This benchmark reproduces that trade-off on the corner-link scenario:
plain MUSIC resolves two directions, smoothed MUSIC only one.
"""

from __future__ import annotations

import numpy as np

from repro.aoa import MusicEstimator, SmoothedMusicEstimator
from repro.channel.channel import ChannelSimulator
from repro.channel.noise import ImpairmentModel
from repro.csi.collector import PacketCollector
from repro.experiments.scenarios import corner_link_scenario


def test_ablation_plain_vs_smoothed_music(benchmark):
    scenario = corner_link_scenario()
    link = scenario.link()
    simulator = ChannelSimulator(link, max_bounces=1)
    collector = PacketCollector(
        simulator, impairments=ImpairmentModel(snr_db=30.0), seed=2016
    )
    trace = collector.collect_empty(num_packets=300)
    assert link.array is not None

    def run_both():
        plain = MusicEstimator(array=link.array, num_sources=2)
        smoothed = SmoothedMusicEstimator(array=link.array)
        return (
            plain.pseudospectrum(trace.csi).peaks(max_peaks=3),
            smoothed.pseudospectrum(trace.csi).peaks(max_peaks=3),
            smoothed.max_resolvable_paths(),
        )

    plain_peaks, smoothed_peaks, resolvable = benchmark.pedantic(
        run_both, rounds=1, iterations=1
    )
    true_angles = [np.degrees(p.aoa_rad) for p in simulator.static_paths()]
    print("\n=== Ablation: plain vs smoothed MUSIC (corner link) ===")
    print(f"  true path angles (deg): {[round(a, 1) for a in true_angles]}")
    print(f"  plain MUSIC peaks     : {[round(a, 1) for a in plain_peaks]}")
    print(f"  smoothed MUSIC peaks  : {[round(a, 1) for a in smoothed_peaks]}")
    print(f"  smoothed MUSIC max resolvable paths: {resolvable}")
    # Plain MUSIC can expose at least two directions; smoothing with three
    # antennas can only claim one.
    assert len(plain_peaks) >= 2
    assert resolvable == 1
    # Both find the LOS direction (0 deg) among their peaks.
    assert min(abs(a) for a in plain_peaks) < 10.0
    assert min(abs(a) for a in smoothed_peaks) < 10.0
