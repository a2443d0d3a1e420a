"""Backend parity suite: the dual-mode numeric backend contract.

``exact`` is the default: a campaign and a fleet run with
``backend="exact"`` spelled out must give the default run's bytes, so the
seam (config field, activation wrapper, kernel indirection) moves nothing;
the pins themselves are asserted in ``test_pins.py``.  ``fast`` promises
tolerance parity only: bounded per-window score deltas with *identical* ROC
operating points and headline numbers.  The backend table, the config
plumbing of the ``backend`` field and the CLI ``--backend`` flag are covered
here too.
"""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from repro.api import PipelineConfig
from repro.api.monitor import score_windows
from repro.backend import BACKENDS, NumericBackend, active_backend, check_backend, use_backend
from repro.channel import ChannelSimulator, HumanBody, Link, Point, Room
from repro.cli import main
from repro.csi import CSITrace, PacketCollector
from repro.experiments.runner import EvaluationConfig, build_detectors, run_evaluation
from repro.experiments.scenarios import evaluation_cases
from repro.fleet import FleetConfig, run_fleet
from repro.sweep import SweepRunner, SweepSpec, SweepStore
from tests.pins import scores_sha256

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
# exact mode: the explicit backend gives the default run's bytes
# --------------------------------------------------------------------------- #
class TestExactSeam:
    """Runs under an explicitly selected exact backend against the default.

    Comparing two runs instead of a pin holds the seam to the bit on any
    platform.
    """

    def test_campaign_exact_scores_match_default_config(self):
        cases = evaluation_cases()[:2]
        explicit = run_evaluation(tiny_config(backend="exact"), cases=cases)
        default = run_evaluation(tiny_config(), cases=cases)
        assert scores_sha256(explicit) == scores_sha256(default)

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
        second = run_fleet(config.replace(max_workers=2))
        assert second.workers == 2
        assert first.event_digest() == second.event_digest()
        assert first.event_digest() == run_fleet(config).event_digest()


# --------------------------------------------------------------------------- #
# overflowing squares: inf on both backends, never an OverflowError
# --------------------------------------------------------------------------- #
class TestOverflowingSquares:
    """Squares are multiplies, so an overflow is inf under both backends.

    ``exact`` used to square through libm ``pow``, which raises
    ``OverflowError`` where ``fast`` gave inf.
    """

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_huge_window_keeps_its_neighbours_scores(self, scheme):
        _, link = evaluation_cases()[0]
        patterns = {}
        for backend in ("exact", "fast"):
            with use_backend(backend):
                collector = PacketCollector(ChannelSimulator(link), seed=2)
                calibration = collector.collect(None, num_packets=30)
                good = collector.collect(None, num_packets=10)
                detector = build_detectors(link, EvaluationConfig(schemes=(scheme,)))[scheme]
                detector.calibrate(calibration)
                huge = CSITrace(csi=good.csi * 1e200, timestamps=good.timestamps)
                with np.errstate(over="ignore", invalid="ignore"):
                    scores = score_windows([(detector, good), (detector, huge), (detector, good)])
                alone = score_windows([(detector, good)])[0]
            assert scores[0] == scores[2] == alone, backend
            patterns[backend] = (math.isinf(scores[1]), math.isnan(scores[1]))
        assert patterns["exact"] == patterns["fast"]

    def test_far_body_scene_synthesises_on_both_backends(self):
        room = Room.rectangular(6.0, 8.0, material="concrete")
        link = Link(room=room, tx=Point(1.0, 2.0), rx=Point(5.0, 6.0), name="far")
        scene = [HumanBody(position=Point(3.0, 4.0)), HumanBody(position=Point(1e160, 2.0))]
        finite = {}
        for backend in ("exact", "fast"):
            with use_backend(backend), np.errstate(over="ignore", invalid="ignore"):
                finite[backend] = np.isfinite(ChannelSimulator(link).clean_cfr_batch([scene]))
        assert np.array_equal(finite["exact"], finite["fast"])

    @pytest.mark.parametrize("backend", ["exact", "fast"])
    def test_far_body_adds_nothing_to_a_finite_cfr(self, backend):
        """A body at x = 1e160 next to one at (3, 4): its reflection legs
        square to inf, yet the CFR is finite and equals the near body's
        alone (the far body reflects with zero gain and shadows nothing)."""
        room = Room.rectangular(6.0, 8.0, material="concrete")
        link = Link(room=room, tx=Point(1.0, 2.0), rx=Point(5.0, 6.0), name="far")
        near = HumanBody(position=Point(3.0, 4.0))
        far = HumanBody(position=Point(1e160, 2.0))
        with use_backend(backend), np.errstate(over="ignore", invalid="ignore"):
            simulator = ChannelSimulator(link)
            both, alone = simulator.clean_cfr_batch([[near, far], [near]])
        assert np.all(np.isfinite(both))
        assert np.array_equal(both, alone)


# --------------------------------------------------------------------------- #
# the backend table
# --------------------------------------------------------------------------- #
class TestBackendTable:
    def test_table_holds_one_shared_instance_per_backend(self):
        assert list(BACKENDS) == ["exact", "fast"]
        for name, backend in BACKENDS.items():
            assert isinstance(backend, NumericBackend) and backend.name == name
            with use_backend(name) as active:
                assert active is backend and active_backend() is backend

    def test_default_active_backend_is_exact(self):
        assert active_backend().name == "exact"

    def test_check_backend_returns_the_name(self):
        assert [check_backend(name) for name in BACKENDS] == ["exact", "fast"]

    def test_use_backend_takes_a_name_only(self):
        """An instance is not a name, even the table's own."""
        with pytest.raises(ValueError) as excinfo:
            with use_backend(BACKENDS["fast"]):
                pass
        message = str(excinfo.value)
        assert message.startswith("unknown backend <")
        assert message.endswith("; registered backends: ['exact', 'fast']")
        assert "\n" not in message
        assert active_backend().name == "exact"

    def test_unknown_backend_error_names_the_backends(self):
        message = "unknown backend 'nope'; registered backends: ['exact', 'fast']"
        with pytest.raises(ValueError) as excinfo:
            check_backend("nope")
        assert str(excinfo.value) == message
        with pytest.raises(ValueError) as excinfo:
            with use_backend("nope"):
                pass
        assert str(excinfo.value) == message
        assert active_backend().name == "exact"

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
            axes=[{"field": "seed", "values": [1, 2]}],
            base=EvaluationConfig(backend="fast"),
        )
        reloaded = SweepSpec.from_json(spec.to_json())
        assert reloaded.base.backend == "fast"
        assert all(point.config.backend == "fast" for point in reloaded.expand())

    def test_sweep_backend_axis_wins_over_base_backend(self):
        spec = SweepSpec(
            axes=[{"field": "backend", "values": ["exact", "fast"]}],
            base=EvaluationConfig(backend="fast"),
        )
        assert [p.config.backend for p in spec.expand()] == ["exact", "fast"]

    def test_sweep_spec_has_no_second_backend_knob(self):
        with pytest.raises(ValueError, match="unknown SweepSpec keys: \\['backend'\\]"):
            SweepSpec.from_dict(
                {"axes": [{"field": "seed", "values": [1]}], "backend": "fast"}
            )

    @pytest.mark.parametrize("bad", ["", 3, "fsat"])
    def test_configs_reject_bad_backend(self, bad):
        """A mistyped name fails when the config is built, not in a run."""
        for build in (
            lambda: EvaluationConfig(backend=bad),
            lambda: PipelineConfig(backend=bad),
            lambda: FleetConfig(backend=bad),
        ):
            with pytest.raises(ValueError) as excinfo:
                build()
            assert str(excinfo.value) == (
                f"unknown backend {bad!r}; registered backends: ['exact', 'fast']"
            )

    @pytest.mark.parametrize("name", list(BACKENDS))
    def test_configs_accept_every_backend(self, name):
        configs = (
            EvaluationConfig(backend=name),
            PipelineConfig(backend=name),
            FleetConfig(backend=name),
        )
        assert [config.backend for config in configs] == [name] * 3

    def test_config_files_reject_bad_backend(self):
        """A mistyped name in a file, a fleet's nested pipeline included,
        fails as the file is read."""
        for load in (
            lambda: EvaluationConfig.from_dict({"backend": "fsat"}),
            lambda: PipelineConfig.from_json('{"backend": "fsat"}'),
            lambda: FleetConfig.from_dict({"pipeline": {"backend": "fsat"}}),
        ):
            with pytest.raises(ValueError) as excinfo:
                load()
            assert str(excinfo.value) == (
                "unknown backend 'fsat'; registered backends: ['exact', 'fast']"
            )

    def test_bad_backend_axis_fails_validation_before_the_store(self, tmp_path):
        spec = SweepSpec(axes=[{"field": "backend", "values": ["exact", "nope"]}])
        store = SweepStore(tmp_path / "store.jsonl")
        with pytest.raises(ValueError) as excinfo:
            SweepRunner(spec, store).validate()
        assert str(excinfo.value) == (
            "unknown backend 'nope'; registered backends: ['exact', 'fast']"
        )
        assert not store.path.exists()

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
        """A flag, a ``--config`` file, a sweep's base config or its backend
        axis naming no backend: one error line, exit 2, no store written."""
        spec = tmp_path / "spec.json"
        spec.write_text(SweepSpec(axes=[{"field": "seed", "values": [1]}]).to_json())
        bad_config = tmp_path / "bad.json"
        bad_config.write_text('{"backend": "nope"}')
        bad_specs = []
        for name, payload in (
            ("base", {"base": {"backend": "nope"}, "axes": [{"field": "seed", "values": [1]}]}),
            ("axis", {"axes": [{"field": "backend", "values": ["exact", "nope"]}]}),
        ):
            bad_specs.append(tmp_path / f"{name}.json")
            bad_specs[-1].write_text(json.dumps({**payload, "cases": ["case-1"]}))
        store = tmp_path / "store.jsonl"
        sweep = ["sweep", "run", "--store", str(store), "--spec"]
        for argv in (
            ["figure", "fig3", "--backend", "nope"],
            ["--config", str(bad_config), "figure", "fig3"],
            ["pipeline", "--backend", "nope", "--windows", "1"],
            ["--config", str(bad_config), "pipeline", "--windows", "1"],
            ["fleet", "run", "--links", "1", "--backend", "nope"],
            [*sweep, str(spec), "--backend", "nope"],
            *([*sweep, str(path)] for path in bad_specs),
        ):
            assert main(argv) == 2
            assert capsys.readouterr().err == (
                "error: unknown backend 'nope'; registered backends: ['exact', 'fast']\n"
            )
        assert not store.exists()

    def test_figure_accepts_fast_backend(self, capsys):
        assert main(["figure", "fig3", "--backend", "fast"]) == 0
        json.loads(capsys.readouterr().out)
