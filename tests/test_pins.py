"""Every byte pin of ``pins.py``, asserted once.

The campaign pins (scores of every window, and the seed-2015 headline) and
the combined fleet's event digests run under the default configuration.
They are platform-sensitive by design (libm/LAPACK/FFT bit patterns of the
reference container), so a CI job on another NumPy build skips this one
module; the relative parity suites still run there.
"""

from __future__ import annotations

import pytest

from repro.api import PipelineConfig
from repro.experiments.runner import EvaluationConfig, run_evaluation
from repro.experiments.scenarios import evaluation_cases
from repro.fleet import FleetConfig, run_fleet
from tests.pins import (
    COMBINED_FLEET_EVENT_SHA256,
    FULL_CAMPAIGN_HEADLINE,
    FULL_CAMPAIGN_SHA256,
    TINY_CAMPAIGN_SHA256,
    TWO_CASE_DEFAULT_CAMPAIGN_SHA256,
    pinned_headline,
    scores_sha256,
)


class TestCampaignPins:
    """sha256 over all window scores of three campaigns."""

    def test_tiny_campaign_scores_unchanged(self):
        config = EvaluationConfig(
            seed=11,
            grid_rows=1,
            grid_cols=2,
            windows_per_location=1,
            window_packets=8,
            calibration_packets=30,
            max_bounces=1,
            schemes=("baseline", "subcarrier", "combined"),
        )
        result = run_evaluation(config, cases=evaluation_cases()[:2])
        assert scores_sha256(result) == TINY_CAMPAIGN_SHA256

    def test_two_case_default_campaign_scores_unchanged(self):
        result = run_evaluation(EvaluationConfig(seed=2015), cases=evaluation_cases()[:2])
        assert scores_sha256(result) == TWO_CASE_DEFAULT_CAMPAIGN_SHA256

    def test_full_campaign_scores_and_headline_unchanged(self):
        result = run_evaluation(EvaluationConfig(seed=2015))
        assert scores_sha256(result) == FULL_CAMPAIGN_SHA256
        assert pinned_headline(result) == FULL_CAMPAIGN_HEADLINE


@pytest.mark.parametrize("backend", ["exact", "fast"])
def test_combined_fleet_event_digest_pinned(backend):
    config = FleetConfig(
        links=40,
        duration_s=4.0,
        seed=11,
        batch_windows=64,
        pool_packets=40,
        backend=backend,
        pipeline=PipelineConfig(detector="combined", window_packets=10, calibration_packets=30),
    )
    assert run_fleet(config).event_digest() == COMBINED_FLEET_EVENT_SHA256[backend]
