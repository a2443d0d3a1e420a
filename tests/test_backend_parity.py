"""Backend parity suite: the dual-mode numeric backend contract.

``exact`` must stay byte-identical to the pinned campaign — the campaign
sha256 pins (``pins.py``) must hold with the backend selected explicitly,
and the fleet event digest must match the default-config stream.  ``fast``
promises tolerance parity only: bounded per-window score deltas with
*identical* ROC operating points and headline numbers.  Registry semantics, the config plumbing of the
``backend`` field and the CLI ``--backend`` flag are covered here too.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.api import PipelineConfig
from repro.backend import (
    DEFAULT_REGISTRY,
    active_backend,
    available_backends,
    register_backend,
    resolve_backend,
    use_backend,
)
from repro.backend.fast import FastBackend
from repro.cli import main
from repro.experiments.runner import EvaluationConfig, run_evaluation
from repro.experiments.scenarios import evaluation_cases
from repro.fleet import FleetConfig, run_fleet
from repro.sweep import SweepRunner, SweepSpec, SweepStore
from tests.pins import (
    FULL_CAMPAIGN_HEADLINE,
    FULL_CAMPAIGN_SHA256,
    TINY_CAMPAIGN_SHA256,
    TWO_CASE_DEFAULT_CAMPAIGN_SHA256,
    pinned_headline,
    scores_sha256,
)

SCHEMES = ("baseline", "subcarrier", "combined")

#: Relative per-window score tolerance of the fast backend.  Measured max
#: across the five-case campaign is ~2.9e-14; the bound leaves a decade of
#: headroom without ever excusing a macroscopic divergence.
FAST_RELATIVE_TOLERANCE = 1e-12


def tiny_config(**overrides) -> EvaluationConfig:
    defaults = dict(
        seed=11,
        grid_rows=1,
        grid_cols=2,
        windows_per_location=1,
        window_packets=8,
        calibration_packets=30,
        max_bounces=1,
        schemes=SCHEMES,
    )
    defaults.update(overrides)
    return EvaluationConfig(**defaults)


def small_fleet(**changes) -> FleetConfig:
    settings = {
        "links": 4,
        "duration_s": 2.0,
        "seed": 11,
        "batch_windows": 8,
        "pool_packets": 20,
        "pipeline": PipelineConfig(
            detector="baseline", window_packets=10, calibration_packets=30
        ),
    }
    settings.update(changes)
    return FleetConfig(**settings)


@pytest.fixture(scope="module")
def exact_result():
    return run_evaluation(EvaluationConfig(seed=2015, backend="exact"))


@pytest.fixture(scope="module")
def fast_result():
    return run_evaluation(EvaluationConfig(seed=2015, backend="fast"))


# --------------------------------------------------------------------------- #
# exact mode: byte parity with the pinned campaign
# --------------------------------------------------------------------------- #
class TestExactPins:
    """Campaign pins under an explicitly selected exact backend.

    The pins are the ones ``test_scene_parity.py`` and
    ``test_multipath_batch_parity.py`` hold under the default configuration;
    holding them with ``backend="exact"`` spelled out proves the seam (config
    field, activation wrapper, kernel indirection) does not move a single
    campaign float.  Platform-sensitive by design, like those suites.
    """

    def test_tiny_campaign_pin(self):
        result = run_evaluation(
            tiny_config(backend="exact"), cases=evaluation_cases()[:2]
        )
        assert scores_sha256(result) == TINY_CAMPAIGN_SHA256

    def test_two_case_default_campaign_pin(self):
        result = run_evaluation(
            EvaluationConfig(seed=2015, backend="exact"), cases=evaluation_cases()[:2]
        )
        assert scores_sha256(result) == TWO_CASE_DEFAULT_CAMPAIGN_SHA256

    def test_full_campaign_pin_and_headline(self, exact_result):
        assert scores_sha256(exact_result) == FULL_CAMPAIGN_SHA256
        assert pinned_headline(exact_result) == FULL_CAMPAIGN_HEADLINE

    def test_fleet_exact_digest_matches_default_config(self):
        explicit = run_fleet(small_fleet(backend="exact"))
        default = run_fleet(small_fleet())
        assert explicit.event_digest() == default.event_digest()


# --------------------------------------------------------------------------- #
# fast mode: tolerance parity
# --------------------------------------------------------------------------- #
class TestFastToleranceParity:
    def test_window_metadata_identical(self, exact_result, fast_result):
        assert len(exact_result.windows) == len(fast_result.windows)
        for exact, fast in zip(exact_result.windows, fast_result.windows):
            assert (exact.scheme, exact.case, exact.occupied) == (
                fast.scheme,
                fast.case,
                fast.occupied,
            )

    def test_per_window_score_deltas_bounded(self, exact_result, fast_result):
        exact = np.array([w.score for w in exact_result.windows])
        fast = np.array([w.score for w in fast_result.windows])
        relative = np.abs(fast - exact) / np.maximum(np.abs(exact), 1e-300)
        assert float(relative.max()) < FAST_RELATIVE_TOLERANCE
        # The deltas are real: fast is a different float program, not a
        # silent fallback onto the exact kernels.
        assert fast_result.config.backend == "fast"

    def test_operating_points_identical(self, exact_result, fast_result):
        # Rates only: the balanced *threshold* is a midpoint of float scores
        # and may shift in its trailing bits with the scores themselves.
        for scheme in SCHEMES:
            _, exact_tpr, exact_fpr = exact_result.balanced_operating_point(scheme)
            _, fast_tpr, fast_fpr = fast_result.balanced_operating_point(scheme)
            assert (fast_tpr, fast_fpr) == (exact_tpr, exact_fpr)
            assert fast_result.rates_at_balanced_threshold(
                scheme
            ) == exact_result.rates_at_balanced_threshold(scheme)

    def test_headline_numbers_identical(self, exact_result, fast_result):
        # Every rate and AUC; the balanced threshold is a score midpoint and
        # may move in its trailing bits (see above).
        exact, fast = exact_result.headline(), fast_result.headline()
        for scheme in SCHEMES:
            for key in ("true_positive_rate", "false_positive_rate", "auc"):
                assert fast[scheme][key] == exact[scheme][key]

    def test_fleet_fast_digest_deterministic_and_workers_invariant(self):
        config = small_fleet(backend="fast")
        first = run_fleet(config)
        second = run_fleet(config, max_workers=2)
        assert second.workers == 2
        assert first.event_digest() == second.event_digest()
        assert first.event_digest() == run_fleet(config).event_digest()


# --------------------------------------------------------------------------- #
# registry semantics
# --------------------------------------------------------------------------- #
class TestBackendRegistry:
    """Backend-specific registry behaviour; the shared semantics are tested
    once on :class:`repro.utils.registry.Registry` (test_utils)."""

    def test_builtins_registered(self):
        assert set(available_backends()) >= {"exact", "fast"}
        assert "exact" in DEFAULT_REGISTRY and "fast" in DEFAULT_REGISTRY

    def test_default_active_backend_is_exact(self):
        assert active_backend().name == "exact"

    def test_instances_are_cached_and_shared(self):
        assert resolve_backend("fast") is resolve_backend("fast")
        assert resolve_backend("exact") is DEFAULT_REGISTRY.get("exact")

    def test_plugin_backend_registers_one_shared_instance(self):
        @register_backend("toy")
        class ToyBackend(FastBackend):
            name = "toy"

        try:
            backend = resolve_backend("toy")
            assert isinstance(backend, ToyBackend)
            assert DEFAULT_REGISTRY.get("toy") is backend
            with use_backend("toy") as active:
                assert active is backend and active_backend() is backend
        finally:
            DEFAULT_REGISTRY.unregister("toy")
        # A class lacking the protocol's kernels is not a backend.
        with pytest.raises(TypeError, match="backend must be an instance of NumericBackend"):
            register_backend("half")(type("Half", (), {"name": "half"}))
        assert "half" not in DEFAULT_REGISTRY

    def test_resolve_passes_instances_through(self):
        instance = resolve_backend("fast")
        assert resolve_backend(instance) is instance

    def test_unknown_backend_error_names_the_registry(self):
        with pytest.raises(ValueError) as excinfo:
            resolve_backend("nope")
        assert str(excinfo.value) == (
            "unknown backend 'nope'; registered backends: ['exact', 'fast']"
        )

    def test_use_backend_activates_and_restores(self):
        before = active_backend()
        with use_backend("fast") as backend:
            assert backend.name == "fast"
            assert active_backend() is backend
            with use_backend("exact"):
                assert active_backend().name == "exact"
            assert active_backend() is backend
        assert active_backend() is before

    def test_use_backend_restores_on_error(self):
        before = active_backend()
        with pytest.raises(RuntimeError):
            with use_backend("fast"):
                raise RuntimeError("boom")
        assert active_backend() is before


# --------------------------------------------------------------------------- #
# config plumbing and sweep-store bytes
# --------------------------------------------------------------------------- #
class TestBackendConfigField:
    def test_evaluation_config_round_trip_and_bridge(self):
        config = EvaluationConfig(backend="fast")
        assert EvaluationConfig.from_dict(config.to_dict()) == config
        assert config.pipeline_config("baseline").backend == "fast"

    def test_pipeline_config_round_trip(self):
        config = PipelineConfig(backend="fast")
        assert PipelineConfig.from_json(config.to_json()) == config

    def test_fleet_config_round_trip(self):
        config = FleetConfig(backend="fast")
        assert FleetConfig.from_json(config.to_json()) == config

    def test_sweep_spec_round_trip_and_expansion(self):
        spec = SweepSpec(
            axes=[{"field": "seed", "values": [1, 2]}], backend="fast"
        )
        reloaded = SweepSpec.from_json(spec.to_json())
        assert reloaded.backend == "fast"
        assert all(point.config.backend == "fast" for point in reloaded.expand())

    def test_sweep_backend_axis_wins_over_spec_backend(self):
        spec = SweepSpec(
            axes=[{"field": "backend", "values": ["exact", "fast"]}],
            backend="fast",
        )
        assert [p.config.backend for p in spec.expand()] == ["exact", "fast"]

    def test_sweep_spec_none_backend_keeps_base(self):
        spec = SweepSpec(
            axes=[{"field": "seed", "values": [1]}],
            base=EvaluationConfig(backend="fast"),
        )
        assert spec.expand()[0].config.backend == "fast"

    @pytest.mark.parametrize("bad", ["", 3])
    def test_configs_reject_bad_backend(self, bad):
        for build in (
            lambda: EvaluationConfig(backend=bad),
            lambda: PipelineConfig(backend=bad),
            lambda: FleetConfig(backend=bad),
            lambda: SweepSpec(
                axes=[{"field": "seed", "values": [1]}], backend=bad
            ),
        ):
            with pytest.raises(ValueError, match="backend"):
                build()

    def test_backend_distinguishes_point_ids(self):
        spec = SweepSpec(axes=[{"field": "backend", "values": ["exact", "fast"]}])
        ids = [p.point_id for p in spec.expand()]
        assert len(set(ids)) == 2


class TestSweepStoreBytesPerBackend:
    def _spec(self) -> SweepSpec:
        return SweepSpec(
            name="backend-parity",
            axes=[{"field": "backend", "values": ["exact", "fast"]}],
            base=tiny_config(
                grid_cols=1, schemes=("baseline", "subcarrier"), calibration_packets=20
            ),
            cases=("case-1",),
        )

    def test_store_bytes_stable_per_backend(self, tmp_path):
        stores = []
        for name in ("a.jsonl", "b.jsonl"):
            store = SweepStore(tmp_path / name)
            SweepRunner(spec=self._spec(), store=store).run()
            stores.append((tmp_path / name).read_bytes())
        assert stores[0] == stores[1]
        records = [json.loads(line) for line in stores[0].splitlines()]
        assert [r["result"]["config"]["backend"] for r in records] == [
            "exact",
            "fast",
        ]
        # Tolerance, not byte, parity: the two backends' stored scores differ.
        assert (
            records[0]["result"]["windows"] != records[1]["result"]["windows"]
        )


# --------------------------------------------------------------------------- #
# CLI flag
# --------------------------------------------------------------------------- #
class TestCliBackendFlag:
    def test_unknown_backend_exits_2(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(
            SweepSpec(axes=[{"field": "seed", "values": [1]}]).to_json()
        )
        for argv in (
            ["figure", "fig3", "--backend", "nope"],
            ["pipeline", "--backend", "nope", "--windows", "1"],
            ["fleet", "run", "--links", "1", "--backend", "nope"],
            [
                "sweep",
                "run",
                "--spec",
                str(spec_path),
                "--store",
                str(tmp_path / "store.jsonl"),
                "--backend",
                "nope",
            ],
        ):
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert "unknown backend 'nope'" in captured.err

    def test_figure_accepts_fast_backend(self, capsys):
        assert main(["figure", "fig3", "--backend", "fast"]) == 0
        json.loads(capsys.readouterr().out)
