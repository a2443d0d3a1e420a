"""Integration tests for the evaluation runner (scaled-down campaigns)."""

from __future__ import annotations

import dataclasses
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.experiments.runner import (
    SCHEMES,
    EvaluationConfig,
    EvaluationResult,
    ScoredWindow,
    build_detectors,
    run_case,
    run_evaluation,
)
from repro.experiments.scenarios import evaluation_cases


@pytest.fixture(scope="module")
def small_config() -> EvaluationConfig:
    """A heavily scaled-down campaign so integration tests stay fast."""
    return EvaluationConfig(
        calibration_packets=60,
        window_packets=12,
        windows_per_location=1,
        grid_rows=2,
        grid_cols=2,
        seed=7,
    )


@pytest.fixture(scope="module")
def single_case_windows(small_config) -> list[ScoredWindow]:
    _, link = evaluation_cases()[0]
    return run_case(link, small_config, case_seed=11)


@pytest.fixture(scope="module")
def two_case_result(small_config) -> EvaluationResult:
    cases = evaluation_cases()[:2]
    return run_evaluation(small_config, cases=cases)


class TestBuildDetectors:
    def test_all_schemes_built(self, small_config):
        _, link = evaluation_cases()[0]
        detectors = build_detectors(link, small_config)
        assert set(detectors) == set(SCHEMES)

    def test_subset_of_schemes(self):
        _, link = evaluation_cases()[0]
        config = EvaluationConfig(schemes=("baseline",))
        assert set(build_detectors(link, config)) == {"baseline"}

    def test_unknown_scheme_rejected(self):
        _, link = evaluation_cases()[0]
        config = EvaluationConfig(schemes=("baseline", "nonsense"))
        with pytest.raises(ValueError):
            build_detectors(link, config)

    def test_music_spectrum_option(self, small_config):
        _, link = evaluation_cases()[0]
        config = dataclasses.replace(small_config, use_music_spectrum=True)
        detectors = build_detectors(link, config)
        from repro.aoa.music import MusicEstimator

        assert isinstance(detectors["combined"].spectrum_estimator, MusicEstimator)


class TestRunCase:
    def test_window_counts_balanced(self, single_case_windows, small_config):
        grid_size = small_config.grid_rows * small_config.grid_cols
        expected_per_scheme = 2 * grid_size * small_config.windows_per_location
        for scheme in SCHEMES:
            windows = [w for w in single_case_windows if w.scheme == scheme]
            assert len(windows) == expected_per_scheme
            assert sum(w.occupied for w in windows) == expected_per_scheme // 2

    def test_positive_windows_carry_geometry(self, single_case_windows):
        for window in single_case_windows:
            if window.occupied:
                assert window.distance_to_rx_m is not None and window.distance_to_rx_m > 0
                assert window.angle_deg is not None
                assert window.location_index is not None
            else:
                assert window.distance_to_rx_m is None

    def test_scores_finite_and_nonnegative(self, single_case_windows):
        for window in single_case_windows:
            assert np.isfinite(window.score) and window.score >= 0.0

    def test_deterministic_given_seed(self, small_config):
        _, link = evaluation_cases()[0]
        a = run_case(link, small_config, case_seed=5)
        b = run_case(link, small_config, case_seed=5)
        assert [w.score for w in a] == pytest.approx([w.score for w in b])

    def test_occupied_windows_score_higher_on_average(self, single_case_windows):
        for scheme in SCHEMES:
            pos = [w.score for w in single_case_windows if w.scheme == scheme and w.occupied]
            neg = [w.score for w in single_case_windows if w.scheme == scheme and not w.occupied]
            assert np.median(pos) > np.median(neg)


class TestEvaluationResult:
    def test_headline_contains_all_schemes(self, two_case_result):
        headline = two_case_result.headline()
        assert set(headline) == set(SCHEMES)
        for stats in headline.values():
            assert 0.0 <= stats["true_positive_rate"] <= 1.0
            assert 0.0 <= stats["false_positive_rate"] <= 1.0
            assert 0.0 <= stats["auc"] <= 1.0

    def test_balanced_point_beats_chance(self, two_case_result):
        for scheme in SCHEMES:
            _, tpr, fpr = two_case_result.balanced_operating_point(scheme)
            assert tpr > fpr

    def test_rates_by_case_covers_both_cases(self, two_case_result):
        rates = two_case_result.rates_by_case("baseline")
        assert set(rates) == {"case-1", "case-2"}

    def test_rates_by_distance_and_angle(self, two_case_result):
        by_distance = two_case_result.rates_by_distance("combined")
        by_angle = two_case_result.rates_by_angle("combined")
        assert all(0.0 <= v <= 1.0 for v in by_distance.values())
        assert all(0.0 <= v <= 1.0 for v in by_angle.values())

    def test_unknown_scheme_raises(self, two_case_result):
        with pytest.raises(ValueError):
            two_case_result.positive_scores("nonsense")

    def test_run_evaluation_requires_cases(self, small_config):
        with pytest.raises(ValueError):
            run_evaluation(small_config, cases=[])


class TestEvaluationConfigDict:
    """EvaluationConfig.from_dict rejects typos in the PipelineConfig style."""

    def test_unknown_keys_rejected_with_one_line_error(self):
        with pytest.raises(ValueError) as excinfo:
            EvaluationConfig.from_dict({"window_packets": 25, "windw_packets": 10})
        message = str(excinfo.value)
        assert message.startswith("unknown EvaluationConfig keys: ['windw_packets']")
        assert "known keys:" in message
        assert "\n" not in message  # one line, like PipelineConfig

    def test_multiple_unknown_keys_listed_sorted(self):
        with pytest.raises(ValueError, match=r"\['a_typo', 'z_typo'\]"):
            EvaluationConfig.from_dict({"z_typo": 1, "a_typo": 2})

    def test_round_trip_with_scheme_list_coercion(self):
        config = EvaluationConfig(schemes=("baseline",), seed=3)
        data = config.to_dict()
        assert data["schemes"] == ["baseline"]  # JSON-friendly list
        assert EvaluationConfig.from_dict(data) == config

    def test_cli_config_file_with_unknown_key_exits_2(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "campaign.json"
        path.write_text('{"window_packets": 8, "windw_packets": 10}')
        assert main(["--config", str(path), "headline"]) == 2
        assert "unknown EvaluationConfig keys" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "changes",
        [
            {"packet_rate_hz": float("nan")},
            {"use_stability_ratio": "no"},
            {"theta_max_deg": float("inf")},
            {"theta_min_deg": 60.0, "theta_max_deg": -60.0},
        ],
    )
    def test_forwarded_pipeline_knobs_checked_at_construction(self, changes):
        """The knobs every scheme's pipeline is built from fail when the
        campaign config is built, not when the first case runs."""
        with pytest.raises(ValueError) as excinfo:
            EvaluationConfig(**changes)
        assert "\n" not in str(excinfo.value)

    @pytest.mark.parametrize(
        "changes",
        [
            {"max_workers": 2.5},
            {"max_workers": True},
            {"snr_db": "32"},
            {"snr_db": float("nan")},
            {"snr_db": True},
            {"max_bounces": -1},
            {"max_bounces": 2.5},
            {"max_bounces": True},
            {"background_max_people": -1},
            {"background_max_people": 2.5},
            {"gain_drift_std_db": -1},
            {"gain_drift_std_db": float("nan")},
            {"human_reflection": -1},
            {"human_min_attenuation": 2},
            {"clutter_reflection": float("nan")},
            {"grid_lateral_extent_m": float("nan")},
            {"grid_along_fraction": float("nan")},
            {"use_music_spectrum": "no"},
        ],
    )
    def test_unrunnable_values_rejected_at_construction(self, changes):
        """Values that would crash a campaign mid-run, or run a campaign
        other than the one written down, fail when the config is built."""
        with pytest.raises(ValueError) as excinfo:
            EvaluationConfig.from_dict(changes)
        assert "\n" not in str(excinfo.value)

    @pytest.mark.parametrize("workers", [2.5, True])
    def test_worker_override_checked(self, workers):
        with pytest.raises(ValueError, match="max_workers must be an integer"):
            run_evaluation(
                EvaluationConfig(), cases=evaluation_cases()[:1], max_workers=workers
            )

    @pytest.mark.parametrize(
        "text, message",
        [
            (
                '{"schemes": ["baseline", "nope"]}',
                "error: unknown detector 'nope'; registered detectors: "
                "['baseline', 'subcarrier', 'combined']",
            ),
            ('{"max_workers": 2.5}', "error: max_workers must be an integer, got 2.5"),
            (
                '{"clutter_reflection": NaN}',
                "error: clutter_reflection must be a finite number, got nan",
            ),
        ],
    )
    def test_cli_unrunnable_campaign_config_exits_2(self, tmp_path, capsys, text, message):
        from repro.cli import main

        path = tmp_path / "campaign.json"
        path.write_text(text)
        assert main(["--config", str(path), "headline"]) == 2
        captured = capsys.readouterr()
        assert captured.err == message + "\n"
        assert captured.out == ""


def figure_helper_outputs() -> dict:
    """Outputs of the two figure-only helpers that load SciPy on first use.

    Self-contained, imports included: its source also runs in the fresh
    interpreter of :data:`COLD_START`.
    """
    import dataclasses

    import numpy as np

    from repro.aoa.music import PseudoSpectrum
    from repro.core.fitting import fit_log_curve

    angles = np.linspace(-90.0, 90.0, 181)
    values = 0.01 + np.exp(-0.5 * ((angles - 20.0) / 4.0) ** 2)
    values += 0.6 * np.exp(-0.5 * ((angles + 40.0) / 4.0) ** 2)
    mu = np.linspace(0.2, 4.0, 25)
    delta_s = -6.0 * np.log10(mu) + 0.3 * np.sin(np.arange(25.0))
    return {
        "peaks": PseudoSpectrum(angles, values).peaks(),
        "fit": dataclasses.asdict(fit_log_curve(mu, delta_s)),
    }


#: A fresh interpreter that runs the detection stack (CLI, fleet and sweep
#: modules; the default campaign under both backends; a small combined fleet),
#: records whether SciPy got loaded, then calls the figure-only helpers.
COLD_START = f"""
import json
import sys

import repro.cli, repro.fleet, repro.sweep
from repro.api import PipelineConfig
from repro.experiments.runner import EvaluationConfig, run_evaluation
from repro.fleet import FleetConfig, run_fleet

for backend in ("exact", "fast"):
    run_evaluation(EvaluationConfig(backend=backend))
pipeline = PipelineConfig(detector="combined", window_packets=10, calibration_packets=30)
run_fleet(FleetConfig(links=6, duration_s=3.0, seed=11, pool_packets=20, pipeline=pipeline))
detection = sorted(name for name in sys.modules if name.split(".")[0] == "scipy")

{inspect.getsource(figure_helper_outputs)}
helpers = figure_helper_outputs()
print(json.dumps({{"detection": detection, "helpers": helpers, "after": "scipy" in sys.modules}}))
"""


class TestColdStart:
    def test_detection_path_never_loads_scipy(self):
        src = str(Path(__file__).resolve().parent.parent / "src")
        paths = [src, os.environ.get("PYTHONPATH", "")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
        child = subprocess.run(
            [sys.executable, "-c", COLD_START],
            env=env,
            capture_output=True,
            text=True,
            timeout=600,
        )
        assert child.returncode == 0, child.stderr
        report = json.loads(child.stdout.splitlines()[-1])
        assert report["detection"] == []
        # The helpers still load SciPy themselves and give the in-process results.
        assert report["after"]
        assert report["helpers"] == figure_helper_outputs()
