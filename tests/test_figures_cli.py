"""Tests for the figure generators and the command-line interface.

The figure generators are exercised with heavily scaled-down workloads: the
goal here is to validate structure, determinism and the qualitative shape of
each figure's data, not to reproduce the paper's statistics (that is what the
benchmarks do).
"""

from __future__ import annotations

import json
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.experiments import figures
from repro.experiments.runner import EvaluationConfig, run_evaluation
from repro.experiments.scenarios import evaluation_cases


@pytest.fixture(scope="module")
def tiny_campaign():
    config = EvaluationConfig(
        calibration_packets=60,
        window_packets=12,
        windows_per_location=1,
        grid_rows=2,
        grid_cols=2,
        seed=3,
    )
    return run_evaluation(config, cases=evaluation_cases()[:2])


class TestCharacterizationFigures:
    def test_fig2a_structure(self):
        data = figures.fig2a_rss_change_cdf(num_locations=20, packets_per_location=6, seed=1)
        assert np.all(np.diff(data["cdf"]) >= 0)
        assert data["rss_change_db"].shape == data["cdf"].shape
        assert 0.0 < data["fraction_rss_rise"] < 1.0

    def test_fig2b_structure(self):
        data = figures.fig2b_walk_rss_change(num_packets=60, seed=1)
        assert data["rss_change_db"].shape == (60, 30)
        assert data["subcarrier_15"].shape == (60,)
        # Walking across the link must produce a visible swing somewhere.
        assert np.ptp(data["rss_change_db"]) > 2.0

    def test_fig3_monotone_trend(self):
        data = figures.fig3_multipath_factor(num_locations=60, packets_per_location=6, seed=1)
        assert data["fitted_subcarriers"] > 0
        fraction = data["monotone_decreasing_subcarriers"] / data["fitted_subcarriers"]
        assert fraction > 0.6
        assert data["example_fit"].slope < 0

    def test_fig4_structure(self):
        data = figures.fig4_temporal_stability(num_packets=80, seed=1)
        assert set(data) == {"location-a", "location-b"}
        for stats in data.values():
            assert stats["factor_mean"].shape == (30,)
            assert stats["argmax_subcarrier_distribution"].sum() == pytest.approx(1.0)
            assert stats["distinct_argmax_subcarriers"] >= 1

    def test_fig5_structure(self):
        data = figures.fig5_aoa(num_packets=60, num_angle_positions=8, seed=1)
        assert data["pseudospectrum"].max() == pytest.approx(1.0)
        assert len(data["pseudospectrum_peaks_deg"]) >= 1
        # The strongest peak should sit near a true propagation path.
        strongest = data["pseudospectrum_peaks_deg"][0]
        assert np.min(np.abs(data["true_path_angles_deg"] - strongest)) < 10.0
        assert data["mean_abs_rss_change_db"].shape == (8,)

    def test_fig10_structure_and_averaging_gain(self):
        data = figures.fig10_angle_errors(num_trials=15, packets_per_trial=10, seed=1)
        assert data["single_packet_cdf"][-1] == pytest.approx(1.0)
        assert data["median_averaged_deg"] <= data["median_single_deg"] + 1.0


class TestCampaignFigures:
    def test_fig7_roc_structure(self, tiny_campaign):
        data = figures.fig7_roc(tiny_campaign)
        for scheme, series in data.items():
            assert 0.0 <= series["auc"] <= 1.0
            assert series["true_positive_rates"].shape == series["false_positive_rates"].shape

    def test_fig8_and_fig9_and_fig11(self, tiny_campaign):
        assert set(figures.fig8_cases(tiny_campaign)) == set(tiny_campaign.config.schemes)
        for rates in figures.fig9_range(tiny_campaign).values():
            assert all(0.0 <= v <= 1.0 for v in rates.values())
        for rates in figures.fig11_angles(tiny_campaign).values():
            assert all(0.0 <= v <= 1.0 for v in rates.values())

    def test_headline_numbers(self, tiny_campaign):
        headline = figures.headline_numbers(tiny_campaign)
        assert set(headline) == set(tiny_campaign.config.schemes)

    def test_fig12_structure(self):
        data = figures.fig12_packet_sweep(
            packet_counts=(3, 8),
            seed=1,
            config=EvaluationConfig(
                calibration_packets=60, grid_rows=2, grid_cols=2, seed=1, snr_db=15.0
            ),
        )
        assert data["packet_counts"].tolist() == [3, 8]
        for rates in data["detection_rates"].values():
            assert rates.shape == (2,)
        assert np.allclose(data["seconds_at_50pps"], [0.06, 0.16])

    def test_fig12_rejects_tiny_windows(self):
        with pytest.raises(ValueError):
            figures.fig12_packet_sweep(packet_counts=(1,))


class TestCli:
    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_readme_commands_parse(self):
        """Every ``python -m repro`` line of the README's bash blocks is a
        command the parser accepts (parsed, not run)."""
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        commands = [
            shlex.split(line, comments=True)
            for block in re.findall(r"```bash\n(.*?)```", readme, flags=re.S)
            for line in block.replace("\\\n", " ").splitlines()
            if "python -m repro" in line
        ]
        assert len(commands) >= 20
        for words in commands:
            try:
                build_parser().parse_args(words[words.index("-m") + 2 :])
            except SystemExit:
                pytest.fail(f"README command does not parse: {shlex.join(words)}")

    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        assert "fig7" in output and "fig2a" in output

    def test_unknown_figure_returns_error(self, capsys):
        assert main(["figure", "fig99"]) == 2
        assert "unknown figure" in capsys.readouterr().err

    def test_figure_command_emits_json(self, capsys):
        assert main(["--seed", "1", "figure", "fig10"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "median_single_deg" in payload


class TestPostfixFlags:
    """Global campaign flags are accepted after the subcommand too."""

    def test_figure_seed_after_subcommand(self, capsys):
        assert main(["figure", "fig10", "--seed", "1"]) == 0
        postfix = capsys.readouterr().out
        assert main(["--seed", "1", "figure", "fig10"]) == 0
        prefix = capsys.readouterr().out
        assert postfix == prefix  # same seeded figure either way

    def test_postfix_does_not_clobber_prefix_value(self):
        from repro.cli import _build_config, build_parser

        args = build_parser().parse_args(["--seed", "9", "headline"])
        assert _build_config(args).seed == 9
        args = build_parser().parse_args(["headline", "--seed", "9"])
        assert _build_config(args).seed == 9
        args = build_parser().parse_args(["--seed", "9", "headline", "--workers", "2"])
        config = _build_config(args)
        assert config.seed == 9 and config.max_workers == 2
