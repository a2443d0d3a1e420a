"""Shared fixtures for the benchmark harness.

The evaluation-campaign figures (Fig. 7, 8, 9, 11 and the headline numbers)
all consume the same five-case campaign, so it is run once per benchmark
session and shared.  Each benchmark prints the data series it regenerates so
the numbers can be compared side-by-side with the paper (see EXPERIMENTS.md).
Their statistical claims (one scheme beats another) are asserted on the mean
over ``campaigns``, ten campaign seeds also run once per session.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.experiments.runner import EvaluationConfig, run_evaluation


def print_rates_table(title: str, per_scheme: dict[str, dict[str, float]]) -> None:
    """Print a {scheme: {bin: rate}} table with one row per scheme."""
    print(f"\n=== {title} ===")
    bins: list[str] = []
    for rates in per_scheme.values():
        for key in rates:
            if key not in bins:
                bins.append(key)
    header = "scheme".ljust(12) + "".join(str(b).rjust(12) for b in bins)
    print(header)
    for scheme, rates in per_scheme.items():
        row = scheme.ljust(12) + "".join(
            f"{rates.get(b, float('nan')):12.3f}" for b in bins
        )
        print(row)


@pytest.fixture(scope="session")
def rates_table():
    """Expose the table printer to benchmarks as a fixture."""
    return print_rates_table


@pytest.fixture(scope="session")
def campaign_config() -> EvaluationConfig:
    """The full-campaign configuration used by the evaluation benchmarks."""
    return EvaluationConfig(seed=2015)


@pytest.fixture(scope="session")
def campaign(campaign_config):
    """The five-case evaluation campaign, run once per benchmark session."""
    return run_evaluation(campaign_config)


#: How many consecutive campaign seeds, starting at ``campaign_config.seed``,
#: the statistical assertions average over.  A distance or angle bin holds
#: 15-42 occupied windows per campaign, so one seed's rates swing by several
#: points: over seeds 2015-2034 "subcarrier beats baseline" fails on 3 seeds
#: and the Fig. 11 large-angle comparison on 2, while every mean holds.
CAMPAIGN_SEEDS = 10


@pytest.fixture(scope="session")
def campaigns(campaign, campaign_config):
    """The campaign for CAMPAIGN_SEEDS consecutive seeds, ``campaign`` first."""
    return [campaign] + [
        run_evaluation(replace(campaign_config, seed=campaign_config.seed + offset))
        for offset in range(1, CAMPAIGN_SEEDS)
    ]


@pytest.fixture(scope="session")
def mean_over_campaigns(campaigns):
    """Average a ``{scheme: {key: value}}`` summary over ``campaigns``.

    Call it with the summary function, e.g. ``mean_over_campaigns(fig9_range)``.
    Scalar entries are averaged (array entries such as ROC curves are
    dropped); every campaign's summary must have the first one's keys.
    """

    def mean(summary):
        per_campaign = [summary(result) for result in campaigns]
        return {
            scheme: {
                key: float(np.mean([entry[scheme][key] for entry in per_campaign]))
                for key, value in values.items()
                if np.ndim(value) == 0
            }
            for scheme, values in per_campaign[0].items()
        }

    return mean
