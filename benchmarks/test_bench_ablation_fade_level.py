"""Ablation — multipath factor vs the fade-level metric (related work [12]).

The paper argues its multipath factor (a) needs no propagation formula and
(b) is available per subcarrier from a single packet, whereas the fade level
is a single per-link number that depends on a distance-based prediction.
This benchmark quantifies the practical consequence on identical simulated
data: the per-subcarrier multipath factor ranks subcarriers by their
sensitivity to human presence, which a single per-link fade level cannot do.
"""

from __future__ import annotations

import numpy as np
from scipy import stats

from repro.channel.channel import ChannelSimulator
from repro.channel.human import HumanBody
from repro.channel.noise import ImpairmentModel
from repro.core.fade_level import fade_level_db
from repro.core.multipath_factor import multipath_factor_batch
from repro.csi.collector import PacketCollector
from repro.csi.rssi import trace_rss_change_db
from repro.experiments.scenarios import classroom_scenario
from repro.experiments.workloads import static_location_set


#: Collector seeds the per-subcarrier fraction is averaged over.  On a
#: single seed's 60 locations the fraction ranges from ~0.35 to ~1.0, so
#: one seed can land on either side of the bound; the 20-seed mean clears it
#: by ~0.08.
COLLECTOR_SEEDS = range(2016, 2036)


def test_ablation_multipath_factor_vs_fade_level(benchmark):
    scenario = classroom_scenario()
    link = scenario.link()
    simulator = ChannelSimulator(link, max_bounces=2)
    impairments = ImpairmentModel(snr_db=30.0)
    locations = static_location_set(link, count=60, seed=7)

    def run(collector_seed):
        collector = PacketCollector(simulator, impairments=impairments, seed=collector_seed)
        baseline = collector.collect_empty(num_packets=80)
        fade = fade_level_db(baseline, link.distance())
        change_rows = []
        factor_rows = []
        for position in locations:
            trace = collector.collect(HumanBody(position=position), num_packets=15)
            change_rows.append(trace_rss_change_db(trace, baseline).mean(axis=0)[0])
            factor_rows.append(multipath_factor_batch(trace.mean_csi())[0])
        changes = np.asarray(change_rows)
        factors = np.asarray(factor_rows)
        correlations = []
        for k in range(changes.shape[1]):
            rho = stats.spearmanr(factors[:, k], changes[:, k]).statistic
            if np.isfinite(rho):
                correlations.append(rho)
        return np.asarray(correlations), fade

    correlations, fade = benchmark.pedantic(
        run, args=(COLLECTOR_SEEDS[0],), rounds=1, iterations=1
    )
    fractions = [np.mean(correlations < 0)]
    fractions += [np.mean(run(seed)[0] < 0) for seed in COLLECTOR_SEEDS[1:]]
    print("\n=== Ablation: per-subcarrier multipath factor vs per-link fade level ===")
    print(f"  link fade level (single number for the whole link): {fade:.1f} dB")
    print(
        "  per-subcarrier Spearman correlation between multipath factor and "
        f"RSS change across locations: median {np.median(correlations):.2f} "
        f"(negative, i.e. monotone-decreasing, on {fractions[0]:.0%} of "
        f"subcarriers; {np.mean(fractions):.0%} on average over "
        f"{len(fractions)} collector seeds)"
    )
    # The multipath factor carries per-subcarrier sensitivity information: the
    # Fig. 3 monotone-decreasing relationship holds on the majority of
    # subcarriers.  The fade level, being one number per link, cannot provide
    # any per-subcarrier ranking (nothing to assert beyond it existing).
    assert np.mean(fractions) > 0.6
    assert np.isfinite(fade)
