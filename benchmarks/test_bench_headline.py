"""Headline numbers — the abstract's 92.0 % detection at 4.5 % false positives.

Paper reference (abstract / Section V-B1): baseline ~70 % balanced accuracy at
~30 % FP; subcarrier weighting 88.2 % / 13.0 %; subcarrier + path weighting
92.0 % / 4.5 %, i.e. roughly a 30 % detection-rate improvement and a ~1x
range gain over the baseline.  The reproduction tracks the ordering and the
direction/magnitude of the gaps (see EXPERIMENTS.md for the recorded values).
"""

from __future__ import annotations

from repro.experiments.figures import headline_numbers


def balanced_accuracy(stats):
    return (stats["true_positive_rate"] + 1 - stats["false_positive_rate"]) / 2


def test_headline_numbers(benchmark, campaign, campaigns, mean_over_campaigns):
    data = benchmark.pedantic(lambda: headline_numbers(campaign), rounds=1, iterations=1)
    mean = mean_over_campaigns(headline_numbers)
    for title, summary in (
        ("Headline: balanced operating point per scheme", data),
        (f"Headline averaged over {len(campaigns)} campaign seeds", mean),
    ):
        print(f"\n=== {title} ===")
        print("scheme        TPR     FPR     AUC   balanced-accuracy")
        for scheme, stats in summary.items():
            print(
                f"{scheme:12s} {stats['true_positive_rate']:6.3f} "
                f"{stats['false_positive_rate']:7.3f} {stats['auc']:7.3f} "
                f"{balanced_accuracy(stats):10.3f}"
            )
    accuracy = {scheme: balanced_accuracy(stats) for scheme, stats in mean.items()}
    # Ordering of the paper's headline result, on the seed mean: a single
    # seed's "subcarrier beats baseline" fails on 3 of seeds 2015-2034 and
    # "combined within 0.02 of subcarrier" on 1.
    assert accuracy["combined"] > accuracy["baseline"]
    assert accuracy["subcarrier"] > accuracy["baseline"]
    assert accuracy["combined"] >= accuracy["subcarrier"] - 0.02
    # The combined scheme operates at a high detection rate with the lowest FP.
    assert mean["combined"]["true_positive_rate"] > 0.85
    assert mean["combined"]["false_positive_rate"] < 0.1
