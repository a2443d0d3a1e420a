"""Fig. 9 — detection rate vs distance to the receiver (detection range).

Paper reference: the baseline degrades sharply for distant humans (below
60 % at 5 m), while the weighted schemes stay above 90 % even at 5 m,
yielding roughly a 1x detection-range gain at a 90 % minimum detection rate.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.experiments.figures import fig9_range
from repro.experiments.metrics import range_gain
from repro.experiments.runner import run_evaluation

#: Campaign seeds the detection-rate curve is averaged over.  A distance bin
#: holds 15-42 occupied windows per campaign, so one seed's rates swing by
#: several points and the range gain read off them by whole bins (at seeds
#: 2015-2034 it is below 0.5 on about half); the averaged curve reads +1.0.
CAMPAIGN_SEEDS = range(2015, 2025)


def test_fig9_detection_range(benchmark, campaign, campaign_config, rates_table):
    data = benchmark.pedantic(lambda: fig9_range(campaign), rounds=1, iterations=1)
    rates_table("Fig. 9: detection rate vs distance to the receiver", data)
    curves = [data] + [
        fig9_range(run_evaluation(replace(campaign_config, seed=seed)))
        for seed in CAMPAIGN_SEEDS[1:]
    ]
    mean = {
        scheme: {label: float(np.mean([c[scheme][label] for c in curves])) for label in rates}
        for scheme, rates in data.items()
    }
    rates_table(f"Fig. 9 averaged over {len(curves)} campaign seeds", mean)
    gain_combined = range_gain(mean["baseline"], mean["combined"], minimum_rate=0.9)
    gain_subcarrier = range_gain(mean["baseline"], mean["subcarrier"], minimum_rate=0.9)
    print(f"\n  range gain at >=90% detection: subcarrier {gain_subcarrier:+.2f}x, "
          f"combined {gain_combined:+.2f}x (paper: ~+1x)")
    # The baseline fails to sustain 90 % detection over the full distance
    # range while the combined scheme does, i.e. a positive range gain.
    assert min(mean["baseline"].values()) < 0.9
    assert gain_combined >= 0.5
    # The combined scheme keeps a high detection rate in the farthest bin.
    farthest = sorted(mean["combined"].keys())[-1]
    assert mean["combined"][farthest] >= 0.85
