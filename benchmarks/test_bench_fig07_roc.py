"""Fig. 7 — overall detection performance (ROC curves of the three schemes).

Paper reference: the baseline reaches about 70 % balanced detection accuracy
with a 30 % false positive rate; subcarrier weighting boosts it to 88.2 % /
13.0 %; adding path weighting reaches 92.0 % / 4.5 %.  The reproduction
tracks the *ordering* (baseline clearly worst, the combined scheme best with
the lowest false positive rate); absolute numbers differ because the
substrate is a simulator (see EXPERIMENTS.md).
"""

from __future__ import annotations

from repro.experiments.figures import fig7_roc


def test_fig7_roc_curves(benchmark, campaign, campaigns, mean_over_campaigns):
    data = benchmark.pedantic(lambda: fig7_roc(campaign), rounds=1, iterations=1)
    mean = mean_over_campaigns(fig7_roc)
    for title, summary in (
        ("Fig. 7: ROC summary (balanced operating point)", data),
        (f"Fig. 7 averaged over {len(campaigns)} campaign seeds", mean),
    ):
        print(f"\n=== {title} ===")
        print("scheme        TPR     FPR     AUC")
        for scheme, series in summary.items():
            print(
                f"{scheme:12s} {series['balanced_tpr']:6.3f} {series['balanced_fpr']:7.3f} "
                f"{series['auc']:7.3f}"
            )
    baseline = mean["baseline"]
    subcarrier = mean["subcarrier"]
    combined = mean["combined"]

    def balanced_accuracy(series):
        return (series["balanced_tpr"] + 1.0 - series["balanced_fpr"]) / 2.0

    # Shape of the paper's result: both weighting schemes beat the baseline,
    # and the combined scheme achieves the lowest false positive rate.  On the
    # seed mean: a single seed's "subcarrier beats baseline" fails on 3 of
    # seeds 2015-2034.
    assert balanced_accuracy(subcarrier) > balanced_accuracy(baseline)
    assert balanced_accuracy(combined) > balanced_accuracy(baseline)
    assert combined["balanced_fpr"] <= subcarrier["balanced_fpr"] + 0.02
    assert combined["balanced_tpr"] > 0.85
