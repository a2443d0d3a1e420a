"""Ablations on the weighting design choices of the combined scheme (the
module docstring of :mod:`repro.aoa.bartlett` gives the reasoning for its
Bartlett spectrum over MUSIC).

* Stability ratio: Eq. 15 weights (temporal mean x stability ratio) vs the
  plain per-packet Eq. 12 weighting averaged over the window.
* Angular gate: the +-60 degree gate of Eq. 17 vs a fully open gate.
"""

from __future__ import annotations

import dataclasses


from repro.core.thresholds import roc_curve
from repro.experiments.runner import EvaluationConfig, run_case, run_evaluation
from repro.experiments.scenarios import evaluation_cases


def _balanced_accuracy(result, scheme: str) -> float:
    _, tpr, fpr = result.balanced_operating_point(scheme)
    return (tpr + 1.0 - fpr) / 2.0


def test_ablation_stability_ratio(benchmark):
    """Eq. 15's stability ratio should not hurt (and typically helps) accuracy."""
    cases = evaluation_cases()[:3]
    base_config = EvaluationConfig(windows_per_location=2, seed=99)

    def run_both():
        with_ratio = run_evaluation(base_config, cases=cases)
        without_ratio = run_evaluation(
            dataclasses.replace(base_config, use_stability_ratio=False), cases=cases
        )
        return with_ratio, without_ratio

    with_ratio, without_ratio = benchmark.pedantic(run_both, rounds=1, iterations=1)
    acc_with = _balanced_accuracy(with_ratio, "subcarrier")
    acc_without = _balanced_accuracy(without_ratio, "subcarrier")
    print("\n=== Ablation: subcarrier weighting variants (3 cases) ===")
    print(f"  Eq. 15 (mean x stability ratio): balanced accuracy {acc_with:.3f}")
    print(f"  Eq. 12 (per-packet mean only)  : balanced accuracy {acc_without:.3f}")
    assert acc_with >= acc_without - 0.05


def test_ablation_angular_gate(benchmark, campaign_config):
    """The +-60 degree gate vs an open gate for the path weighting."""
    _, link = evaluation_cases()[0]

    def run_both():
        gated = run_case(link, campaign_config, case_seed=17)
        open_config = dataclasses.replace(
            campaign_config, theta_min_deg=-89.9, theta_max_deg=89.9
        )
        open_gate = run_case(link, open_config, case_seed=17)
        return gated, open_gate

    gated, open_gate = benchmark.pedantic(run_both, rounds=1, iterations=1)

    def auc(windows):
        pos = [w.score for w in windows if w.scheme == "combined" and w.occupied]
        neg = [w.score for w in windows if w.scheme == "combined" and not w.occupied]
        return roc_curve(pos, neg).auc()

    auc_gated, auc_open = auc(gated), auc(open_gate)
    print("\n=== Ablation: path-weighting angular gate (case 1) ===")
    print(f"  gate +-60 deg : combined AUC {auc_gated:.3f}")
    print(f"  gate +-90 deg : combined AUC {auc_open:.3f}")
    # The gate guards against unreliable large-angle estimates; it must not
    # collapse performance relative to the open gate.
    assert auc_gated >= auc_open - 0.1
