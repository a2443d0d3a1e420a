"""Fig. 9 — detection rate vs distance to the receiver (detection range).

Paper reference: the baseline degrades sharply for distant humans (below
60 % at 5 m), while the weighted schemes stay above 90 % even at 5 m,
yielding roughly a 1x detection-range gain at a 90 % minimum detection rate.
"""

from __future__ import annotations

from repro.experiments.figures import fig9_range
from repro.experiments.metrics import range_gain


def test_fig9_detection_range(
    benchmark, campaign, campaigns, mean_over_campaigns, rates_table
):
    data = benchmark.pedantic(lambda: fig9_range(campaign), rounds=1, iterations=1)
    rates_table("Fig. 9: detection rate vs distance to the receiver", data)
    # The range gain is read off the curve by whole bins (at seeds 2015-2034
    # a single seed's reads below 0.5 on about half); the averaged curve
    # reads +1.0.
    mean = mean_over_campaigns(fig9_range)
    rates_table(f"Fig. 9 averaged over {len(campaigns)} campaign seeds", mean)
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
