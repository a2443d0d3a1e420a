"""Bit-identity of the process-parallel campaign against the sequential one.

The process-parallel campaign of :func:`run_evaluation` is a pure
optimisation: for any seed it must produce byte-identical results to the
sequential campaign, whatever the worker count.
"""

from __future__ import annotations

import pytest

from repro.experiments.runner import EvaluationConfig, run_evaluation
from repro.experiments.scenarios import evaluation_cases


# --------------------------------------------------------------------------- #
# parallel campaign parity
# --------------------------------------------------------------------------- #
def _tiny_config(**overrides) -> EvaluationConfig:
    """A minimal campaign that still produces positives and negatives."""
    defaults = dict(
        seed=11,
        grid_rows=1,
        grid_cols=2,
        windows_per_location=1,
        window_packets=8,
        calibration_packets=30,
        max_bounces=1,
        schemes=("baseline", "subcarrier"),
    )
    defaults.update(overrides)
    return EvaluationConfig(**defaults)


class TestParallelCampaignParity:
    def test_workers_do_not_change_the_result(self):
        cases = evaluation_cases()[:2]
        sequential = run_evaluation(_tiny_config(), cases=cases)
        parallel = run_evaluation(_tiny_config(max_workers=4), cases=cases)
        assert len(sequential.windows) == len(parallel.windows)
        for seq_window, par_window in zip(sequential.windows, parallel.windows):
            assert seq_window == par_window  # dataclass equality: exact floats
        assert sequential.headline() == parallel.headline()

    def test_explicit_parallel_flag_and_override(self):
        cases = evaluation_cases()[:1]
        sequential = run_evaluation(_tiny_config(), cases=cases, parallel=False)
        forced = run_evaluation(
            _tiny_config(), cases=cases, parallel=True, max_workers=2
        )
        assert sequential.windows == forced.windows

    def test_invalid_worker_counts_rejected(self):
        with pytest.raises(ValueError):
            EvaluationConfig(max_workers=0)
        with pytest.raises(ValueError):
            run_evaluation(_tiny_config(), cases=evaluation_cases()[:1], max_workers=0)

    def test_max_workers_round_trips_through_dict(self):
        config = _tiny_config(max_workers=3)
        assert EvaluationConfig.from_dict(config.to_dict()) == config


class TestCliWorkers:
    def test_workers_flag_sets_max_workers(self):
        from repro.cli import _build_config, build_parser

        args = build_parser().parse_args(["--workers", "4", "headline"])
        assert _build_config(args).max_workers == 4

    def test_workers_default_leaves_config_untouched(self):
        from repro.cli import _build_config, build_parser

        args = build_parser().parse_args(["headline"])
        assert _build_config(args).max_workers == 1
