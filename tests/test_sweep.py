"""Tests for repro.sweep: spec expansion, store durability, deterministic
execution (workers-invariant bytes, resume-after-interrupt) and analysis."""

from __future__ import annotations

import json
import multiprocessing

import pytest

import repro.sweep.runner as sweep_runner
from repro.experiments.runner import (
    EvaluationConfig,
    EvaluationResult,
    ScoredWindow,
    run_evaluation,
)
from repro.sweep import (
    SweepAxis,
    SweepRecord,
    SweepSpec,
    SweepStore,
    run_sweep,
)
from repro.sweep.analysis import best_point, headline_table, operating_points, pivot


def _failing_point_case(link, config, case_seed):
    """Module-level (picklable) work unit that fails for one seed."""
    if config.seed == 2:
        raise RuntimeError("boom")
    from repro.experiments.runner import run_case

    return run_case(link, config, case_seed=case_seed)


def _long_tailed_point_case(link, config, case_seed):
    """Module-level (picklable) unit where the grid's first point is slowest.

    In the pool every other point finishes while the first is still
    running, so results complete out of order and must still be stored in
    point order.
    """
    import time

    if config.seed == 901:
        time.sleep(0.5)
    from repro.experiments.runner import run_case

    return run_case(link, config, case_seed=case_seed)


def tiny_base(**overrides) -> EvaluationConfig:
    """A minimal campaign config that still yields positives and negatives."""
    defaults = dict(
        calibration_packets=20,
        window_packets=6,
        windows_per_location=1,
        grid_rows=1,
        grid_cols=1,
        max_bounces=1,
        schemes=("baseline", "subcarrier"),
    )
    defaults.update(overrides)
    return EvaluationConfig(**defaults)


@pytest.fixture(scope="module")
def acceptance_spec() -> SweepSpec:
    """The acceptance grid: 3 seeds x 2 window sizes x 2 weighting policies."""
    return SweepSpec(
        name="acceptance",
        base=tiny_base(),
        axes=(
            SweepAxis("seed", (2015, 2016, 2017)),
            SweepAxis("window_packets", (6, 8)),
            SweepAxis("use_stability_ratio", (True, False)),
        ),
        cases=("case-1",),
    )


@pytest.fixture(scope="module")
def sequential_store_bytes(acceptance_spec, tmp_path_factory) -> bytes:
    """The acceptance sweep run once with max_workers=1; reused by many tests."""
    path = tmp_path_factory.mktemp("sweep") / "sequential.jsonl"
    run_sweep(acceptance_spec, path, max_workers=1)
    return path.read_bytes()


# --------------------------------------------------------------------------- #
# spec
# --------------------------------------------------------------------------- #
class TestSweepAxis:
    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown sweep axis field"):
            SweepAxis("not_a_knob", (1, 2))

    def test_empty_values_rejected(self):
        with pytest.raises(ValueError, match="at least one value"):
            SweepAxis("seed", ())

    def test_round_trip(self):
        axis = SweepAxis("schemes", (("baseline",), ("baseline", "subcarrier")))
        rebuilt = SweepAxis.from_dict(axis.to_dict())
        assert rebuilt.field == "schemes"
        assert json.dumps(axis.to_dict())  # JSON-serialisable

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown SweepAxis keys"):
            SweepAxis.from_dict({"field": "seed", "values": [1], "oops": 2})


class TestSweepSpec:
    def test_dict_and_json_round_trip(self, acceptance_spec):
        assert SweepSpec.from_dict(acceptance_spec.to_dict()) == acceptance_spec
        assert SweepSpec.from_json(acceptance_spec.to_json()) == acceptance_spec

    def test_file_round_trip(self, acceptance_spec, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(acceptance_spec.to_json())
        assert SweepSpec.from_file(path) == acceptance_spec

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown SweepSpec keys"):
            SweepSpec.from_dict({"axes": [{"field": "seed", "values": [1]}], "x": 1})

    def test_base_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown EvaluationConfig keys"):
            SweepSpec.from_dict(
                {"axes": [{"field": "seed", "values": [1]}], "base": {"typo": 1}}
            )

    def test_at_least_one_axis_required(self):
        with pytest.raises(ValueError, match="at least one axis"):
            SweepSpec(axes=())
        with pytest.raises(ValueError, match="at least one axis"):
            SweepSpec.from_dict({"name": "x"})

    def test_duplicate_axes_rejected(self):
        with pytest.raises(ValueError, match="duplicate sweep axes"):
            SweepSpec(axes=(SweepAxis("seed", (1,)), SweepAxis("seed", (2,))))

    def test_base_type_checked(self):
        with pytest.raises(ValueError, match="base must be an EvaluationConfig"):
            SweepSpec(axes=(SweepAxis("seed", (1,)),), base=42)

    def test_mapping_base_coerced(self):
        spec = SweepSpec(
            axes=(SweepAxis("seed", (1,)),), base={"window_packets": 9}
        )
        assert spec.base == EvaluationConfig(window_packets=9)

    def test_num_points(self, acceptance_spec):
        assert acceptance_spec.num_points == 12

    def test_unknown_case_rejected(self):
        spec = SweepSpec(axes=(SweepAxis("seed", (1,)),), cases=("case-99",))
        with pytest.raises(ValueError, match="unknown evaluation cases"):
            spec.evaluation_cases()

    def test_cases_keep_paper_order(self):
        spec = SweepSpec(axes=(SweepAxis("seed", (1,)),), cases=("case-3", "case-1"))
        names = [link.name for _, link in spec.evaluation_cases()]
        assert names == ["case-1", "case-3"]


class TestExpansion:
    def test_row_major_order_and_stability(self, acceptance_spec):
        first = acceptance_spec.expand()
        second = acceptance_spec.expand()
        assert [p.point_id for p in first] == [p.point_id for p in second]
        assert [p.index for p in first] == list(range(12))
        # Last axis varies fastest.
        assert first[0].overrides == {
            "seed": 2015, "window_packets": 6, "use_stability_ratio": True,
        }
        assert first[1].overrides == {
            "seed": 2015, "window_packets": 6, "use_stability_ratio": False,
        }
        assert first[-1].overrides == {
            "seed": 2017, "window_packets": 8, "use_stability_ratio": False,
        }

    def test_overrides_applied_to_config(self, acceptance_spec):
        point = acceptance_spec.expand()[3]
        assert point.config.seed == 2015
        assert point.config.window_packets == 8
        assert point.config.use_stability_ratio is False
        # Base knobs survive.
        assert point.config.calibration_packets == 20

    def test_point_id_tracks_config_content(self):
        spec_a = SweepSpec(axes=(SweepAxis("seed", (1,)),), base=tiny_base())
        spec_b = SweepSpec(
            axes=(SweepAxis("seed", (1,)),), base=tiny_base(snr_db=20.0)
        )
        id_a = spec_a.expand()[0].point_id
        id_b = spec_b.expand()[0].point_id
        assert id_a != id_b
        assert id_a.startswith("000-") and id_b.startswith("000-")

    def test_schemes_axis_coerced_to_tuple(self):
        spec = SweepSpec(
            axes=(SweepAxis("schemes", (["baseline"], ["baseline", "subcarrier"])),),
            base=tiny_base(),
        )
        points = spec.expand()
        assert points[0].config.schemes == ("baseline",)
        assert points[1].config.schemes == ("baseline", "subcarrier")


# --------------------------------------------------------------------------- #
# serialisation round trips
# --------------------------------------------------------------------------- #
class TestResultRoundTrip:
    def _result(self) -> EvaluationResult:
        windows = [
            ScoredWindow(
                scheme="baseline", case="case-1", occupied=True,
                score=0.1234567890123456789, distance_to_rx_m=1.5,
                angle_deg=-12.5, location_index=0, window_packets=6,
            ),
            ScoredWindow(
                scheme="baseline", case="case-1", occupied=False, score=3e-17,
            ),
        ]
        return EvaluationResult(windows=windows, config=tiny_base())

    def test_exact_round_trip_through_json(self):
        result = self._result()
        rebuilt = EvaluationResult.from_dict(json.loads(json.dumps(result.to_dict())))
        assert rebuilt.windows == result.windows  # dataclass equality: exact floats
        assert rebuilt.config == result.config

    def test_unknown_keys_rejected(self):
        result = self._result()
        data = result.to_dict()
        data["extra"] = 1
        with pytest.raises(ValueError, match="unknown EvaluationResult keys"):
            EvaluationResult.from_dict(data)
        window = result.windows[0].to_dict()
        window["typo"] = 1
        with pytest.raises(ValueError, match="unknown ScoredWindow keys"):
            ScoredWindow.from_dict(window)


# --------------------------------------------------------------------------- #
# store
# --------------------------------------------------------------------------- #
class TestSweepStore:
    def test_reload_matches_run_records(self, acceptance_spec, tmp_path):
        path = tmp_path / "store.jsonl"
        outcome = run_sweep(acceptance_spec, path, max_workers=1)
        reloaded = SweepStore(path).records()
        assert [r.point_id for r in reloaded] == [r.point_id for r in outcome.records]
        for fresh, stored in zip(outcome.records, reloaded):
            assert stored.result.windows == fresh.result.windows
            assert stored.result.config == fresh.result.config
            assert stored.overrides == fresh.overrides

    def test_missing_file_is_empty(self, tmp_path):
        store = SweepStore(tmp_path / "nope.jsonl")
        assert store.records() == []
        assert store.completed_ids() == set()
        assert len(store) == 0

    def test_torn_trailing_line_ignored_and_recovered(
        self, sequential_store_bytes, tmp_path
    ):
        lines = sequential_store_bytes.decode().splitlines()
        path = tmp_path / "torn.jsonl"
        path.write_text("\n".join(lines[:2]) + "\n" + lines[2][:40])
        store = SweepStore(path)
        assert len(store.records()) == 2  # torn tail tolerated on read
        recovered = store.recover()
        assert len(recovered) == 2
        assert path.read_bytes() == ("\n".join(lines[:2]) + "\n").encode()

    def test_corrupt_middle_line_raises(self, sequential_store_bytes, tmp_path):
        lines = sequential_store_bytes.decode().splitlines()
        path = tmp_path / "corrupt.jsonl"
        path.write_text(lines[0] + "\n{broken\n" + lines[1] + "\n")
        with pytest.raises(ValueError, match="corrupt sweep store"):
            SweepStore(path).records()

    def test_complete_but_invalid_final_line_raises(
        self, sequential_store_bytes, tmp_path
    ):
        lines = sequential_store_bytes.decode().splitlines()
        path = tmp_path / "invalid-final.jsonl"
        path.write_text(lines[0] + "\n{broken\n")  # newline-terminated: not torn
        with pytest.raises(ValueError, match="corrupt sweep store"):
            SweepStore(path).records()

    def test_record_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown SweepRecord keys"):
            SweepRecord.from_dict({"point_id": "x", "index": 0, "overrides": {},
                                   "result": {}, "oops": 1})


# --------------------------------------------------------------------------- #
# runner determinism (the acceptance criteria)
# --------------------------------------------------------------------------- #
class TestSweepRunner:
    def test_store_bytes_identical_for_any_worker_count(
        self, acceptance_spec, sequential_store_bytes, tmp_path
    ):
        path = tmp_path / "parallel.jsonl"
        run_sweep(acceptance_spec, path, max_workers=4)
        assert path.read_bytes() == sequential_store_bytes

    def test_failing_progress_callback_never_duplicates_records(self, tmp_path):
        # A callback raising *after* its point's record hit the store must
        # not cause the failure drain to replay the point: every point id
        # appears at most once and the callback's error propagates.
        spec = SweepSpec(
            name="cb-fail",
            base=tiny_base(),
            axes=(SweepAxis("seed", (11, 12, 13)),),
            cases=("case-1",),
        )
        calls = []

        def progress(record):
            calls.append(record.point_id)
            if len(calls) == 1:
                raise RuntimeError("callback boom")

        path = tmp_path / "cb.jsonl"
        with pytest.raises(RuntimeError, match="callback boom"):
            run_sweep(spec, path, max_workers=2, progress=progress)
        point_ids = [
            json.loads(line)["point_id"]
            for line in path.read_text().splitlines()
        ]
        assert len(point_ids) == len(set(point_ids)), "duplicate store records"
        expected_order = [p.point_id for p in spec.expand()]
        assert point_ids == expected_order[: len(point_ids)]

    @staticmethod
    def _sweep_with_failing_callback(tmp_path):
        """A 6-point pooled sweep whose progress callback raises on its first
        point; returns the callback's calls and the store's point ids."""
        spec = SweepSpec(
            name="cb-stop",
            base=tiny_base(),
            axes=(SweepAxis("seed", (21, 22, 23, 24, 25, 26)),),
            cases=("case-1",),
        )
        calls = []

        def progress(record):
            calls.append(record.point_id)
            if len(calls) == 1:
                raise RuntimeError("callback boom")

        path = tmp_path / "cb.jsonl"
        with pytest.raises(RuntimeError, match="callback boom") as excinfo:
            run_sweep(spec, path, max_workers=2, progress=progress)
        # excinfo keeps the traceback, and so the run's frame, alive: its
        # workers must be gone already, not reaped when the frame is freed.
        alive = multiprocessing.active_children()
        del excinfo
        stored = [record.point_id for record in SweepStore(path).records()]
        return spec, calls, stored, alive

    def test_failing_progress_callback_appends_nothing_after_its_error(self, tmp_path):
        # Regression: the as-completed collector's failure drain appended the
        # next finished point and called the callback again.
        spec, calls, stored, _ = self._sweep_with_failing_callback(tmp_path)
        first = spec.expand()[0].point_id
        assert calls == [first]
        assert stored == [first]

    def test_no_worker_alive_when_a_progress_error_propagates(self, tmp_path):
        # Regression: the drain's shutdown(wait=False) dropped the pool's
        # manager thread, so both workers outlived run_sweep's raise.
        _, _, _, alive = self._sweep_with_failing_callback(tmp_path)
        assert alive == []

    def test_long_tailed_grid_store_bytes_identical(self, tmp_path, monkeypatch):
        # The slowest point leads the grid, so every later point completes
        # out of order; the store bytes still match the sequential run.
        spec = SweepSpec(
            name="long-tail",
            base=tiny_base(),
            axes=(SweepAxis("seed", (901, 902, 903, 904, 905)),),
            cases=("case-1",),
        )
        monkeypatch.setattr(sweep_runner, "_run_point_case", _long_tailed_point_case)
        sequential = tmp_path / "sequential.jsonl"
        run_sweep(spec, sequential, max_workers=1)
        parallel = tmp_path / "parallel.jsonl"
        result = run_sweep(spec, parallel, max_workers=4)
        assert parallel.read_bytes() == sequential.read_bytes()
        # Records and executed order stay in point order as well.
        assert result.executed == tuple(p.point_id for p in spec.expand())

    def test_resume_executes_only_remaining_points(
        self, acceptance_spec, sequential_store_bytes, tmp_path, monkeypatch
    ):
        # Simulate a kill after 3 completed points plus a torn partial write.
        lines = sequential_store_bytes.decode().splitlines()
        path = tmp_path / "interrupted.jsonl"
        path.write_text("\n".join(lines[:3]) + "\n" + lines[3][:55])

        calls: list[int] = []
        real = sweep_runner._run_point_case

        def counting(link, config, case_seed):
            calls.append(case_seed)
            return real(link, config, case_seed)

        monkeypatch.setattr(sweep_runner, "_run_point_case", counting)
        outcome = run_sweep(acceptance_spec, path, max_workers=1, resume=True)

        num_cases = len(acceptance_spec.evaluation_cases())
        assert len(outcome.skipped) == 3
        assert len(outcome.executed) == acceptance_spec.num_points - 3
        assert len(calls) == (acceptance_spec.num_points - 3) * num_cases
        # The resumed store is byte-identical to the uninterrupted run.
        assert path.read_bytes() == sequential_store_bytes

    def test_resume_with_nothing_pending_executes_nothing(
        self, acceptance_spec, sequential_store_bytes, tmp_path, monkeypatch
    ):
        path = tmp_path / "complete.jsonl"
        path.write_bytes(sequential_store_bytes)
        monkeypatch.setattr(
            sweep_runner, "_run_point_case",
            lambda *a, **k: pytest.fail("recomputed a finished point"),
        )
        outcome = run_sweep(acceptance_spec, path, max_workers=1, resume=True)
        assert outcome.executed == ()
        assert len(outcome.skipped) == acceptance_spec.num_points
        assert path.read_bytes() == sequential_store_bytes

    def test_point_matches_standalone_run_evaluation(self, acceptance_spec, tmp_path):
        subset = SweepSpec(
            name="one", base=acceptance_spec.base,
            axes=(SweepAxis("seed", (2016,)), SweepAxis("window_packets", (8,))),
            cases=acceptance_spec.cases,
        )
        outcome = run_sweep(subset, tmp_path / "one.jsonl", max_workers=1)
        record = outcome.records[0]
        standalone = run_evaluation(
            record.config, cases=subset.evaluation_cases()
        )
        assert standalone.windows == record.result.windows
        assert standalone.headline() == record.result.headline()

    def test_non_resume_on_non_empty_store_rejected(
        self, acceptance_spec, sequential_store_bytes, tmp_path
    ):
        path = tmp_path / "existing.jsonl"
        path.write_bytes(sequential_store_bytes)
        with pytest.raises(ValueError, match="already contains records"):
            run_sweep(acceptance_spec, path, max_workers=1)

    def test_resume_rejects_foreign_store(self, acceptance_spec, tmp_path):
        other = SweepSpec(
            name="other", base=tiny_base(snr_db=20.0),
            axes=(SweepAxis("seed", (1,)),), cases=("case-1",),
        )
        path = tmp_path / "foreign.jsonl"
        run_sweep(other, path, max_workers=1)
        with pytest.raises(ValueError, match="different\\s+sweep"):
            run_sweep(acceptance_spec, path, max_workers=1, resume=True)

    def test_unknown_scheme_raises_before_any_point_runs(self, tmp_path, monkeypatch):
        calls = []
        real = sweep_runner._run_point_case

        def counting(link, config, case_seed):
            calls.append(config.schemes)
            return real(link, config, case_seed)

        monkeypatch.setattr(sweep_runner, "_run_point_case", counting)
        spec = SweepSpec(
            name="probe",
            base=tiny_base(),
            axes=(SweepAxis("schemes", (("baseline",), ("nope",))),),
            cases=("case-1",),
        )
        store = tmp_path / "store.jsonl"
        with pytest.raises(ValueError, match="unknown detector 'nope'"):
            run_sweep(spec, store)
        assert calls == []
        assert SweepStore(store).records() == []

    @pytest.mark.parametrize(
        "workers, message",
        [
            (0, "max_workers must be >= 1, got 0"),
            (2.5, "max_workers must be an integer, got 2.5"),
            (True, "max_workers must be an integer, got True"),
        ],
        ids=["zero", "fraction", "bool"],
    )
    def test_invalid_worker_count_rejected(
        self, acceptance_spec, tmp_path, monkeypatch, workers, message
    ):
        # A fraction used to pass and die mid-run in the pool; True ran
        # in-process as 1.
        monkeypatch.setattr(
            sweep_runner, "_run_point_case",
            lambda *a, **k: pytest.fail("a unit ran before validation"),
        )
        with pytest.raises(ValueError) as excinfo:
            run_sweep(acceptance_spec, tmp_path / "x.jsonl", max_workers=workers)
        assert str(excinfo.value) == message

    def test_progress_callback_sees_every_point(self, tmp_path):
        spec = SweepSpec(
            name="progress", base=tiny_base(),
            axes=(SweepAxis("seed", (1, 2)),), cases=("case-1",),
        )
        seen: list[str] = []
        run_sweep(
            spec, tmp_path / "p.jsonl", max_workers=1,
            progress=lambda record: seen.append(record.point_id),
        )
        assert seen == [p.point_id for p in spec.expand()]


# --------------------------------------------------------------------------- #
# analysis
# --------------------------------------------------------------------------- #
class TestAnalysis:
    @pytest.fixture(scope="class")
    def records(self, acceptance_spec, sequential_store_bytes, tmp_path_factory):
        path = tmp_path_factory.mktemp("analysis") / "store.jsonl"
        path.write_bytes(sequential_store_bytes)
        return SweepStore(path).records()

    def test_pivot_groups_and_averages(self, records):
        table = pivot(records, "window_packets", metric="auc", scheme="subcarrier")
        assert set(table) == {"6", "8"}
        for entry in table.values():
            assert entry["n"] == 6  # 3 seeds x 2 policies
            values = list(entry["points"].values())
            assert entry["mean"] == pytest.approx(sum(values) / len(values))

    def test_pivot_unknown_axis_and_metric_rejected(self, records):
        with pytest.raises(ValueError, match="not an override"):
            pivot(records, "snr_db")
        with pytest.raises(ValueError, match="unknown metric"):
            pivot(records, "seed", metric="accuracy")
        with pytest.raises(ValueError, match="at least one record"):
            pivot([], "seed")

    def test_pivot_unknown_scheme_rejected(self, records):
        with pytest.raises(ValueError, match="scheme 'combined' not in record"):
            pivot(records, "seed", scheme="combined")

    def test_headline_table_row_per_point_and_scheme(self, records):
        rows = headline_table(records)
        assert len(rows) == len(records) * 2  # baseline + subcarrier
        assert {"point_id", "scheme", "seed", "window_packets",
                "true_positive_rate", "false_positive_rate", "auc",
                "threshold"} <= set(rows[0])

    def test_operating_points(self, records):
        rows = operating_points(records, scheme="baseline")
        assert len(rows) == len(records)
        assert all(0.0 <= row["false_positive_rate"] <= 1.0 for row in rows)

    def test_best_point(self, records):
        best = best_point(records, metric="auc", scheme="subcarrier")
        aucs = [r.result.headline()["subcarrier"]["auc"] for r in records]
        assert best["value"] == max(aucs)
        worst = best_point(records, metric="auc", scheme="subcarrier", maximize=False)
        assert worst["value"] == min(aucs)


# --------------------------------------------------------------------------- #
# CLI + api surface
# --------------------------------------------------------------------------- #
class TestSweepCli:
    def _spec_file(self, tmp_path, spec) -> str:
        path = tmp_path / "spec.json"
        path.write_text(spec.to_json())
        return str(path)

    @pytest.fixture()
    def small_spec(self) -> SweepSpec:
        return SweepSpec(
            name="cli", base=tiny_base(),
            axes=(SweepAxis("seed", (1, 2)),), cases=("case-1",),
        )

    def test_run_status_report(self, tmp_path, capsys, small_spec):
        from repro.cli import main

        spec_path = self._spec_file(tmp_path, small_spec)
        store_path = str(tmp_path / "store.jsonl")
        assert main(["sweep", "run", "--spec", spec_path, "--store", store_path]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["points"] == 2 and len(payload["executed"]) == 2

        assert main(["sweep", "status", "--spec", spec_path, "--store", store_path]) == 0
        status = json.loads(capsys.readouterr().out)
        assert status["completed"] == 2 and status["pending_ids"] == []

        assert main(["sweep", "report", "--store", store_path, "--axis", "seed",
                     "--scheme", "baseline"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert set(report) == {"1", "2"}

        assert main(["sweep", "report", "--store", store_path,
                     "--scheme", "baseline"]) == 0
        full = json.loads(capsys.readouterr().out)
        assert "headline" in full and "operating_points" in full

    def test_run_without_resume_on_existing_store_exits_2(
        self, tmp_path, capsys, small_spec
    ):
        from repro.cli import main

        spec_path = self._spec_file(tmp_path, small_spec)
        store_path = str(tmp_path / "store.jsonl")
        assert main(["sweep", "run", "--spec", spec_path, "--store", store_path]) == 0
        capsys.readouterr()
        assert main(["sweep", "run", "--spec", spec_path, "--store", store_path]) == 2
        assert "error:" in capsys.readouterr().err
        # --resume succeeds and executes nothing new.
        assert main(["sweep", "run", "--spec", spec_path, "--store", store_path,
                     "--resume"]) == 0
        assert json.loads(capsys.readouterr().out)["executed"] == []

    def test_bad_spec_exits_2(self, tmp_path, capsys):
        from repro.cli import main

        bad = tmp_path / "bad.json"
        bad.write_text('{"axes": [{"field": "seed", "values": [1]}], "oops": 1}')
        assert main(["sweep", "run", "--spec", str(bad),
                     "--store", str(tmp_path / "s.jsonl")]) == 2
        assert "unknown SweepSpec keys" in capsys.readouterr().err

    def test_report_on_missing_store_exits_2(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["sweep", "report", "--store", str(tmp_path / "no.jsonl")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_status_and_report_read_a_store_without_its_plugin(self, tmp_path, capsys):
        """Only ``sweep run`` looks scheme names up: a stored sweep of a
        plugin scheme still loads after the plugin is gone."""
        from repro.api import DEFAULT_REGISTRY, register_detector
        from repro.cli import main
        from repro.core.detector import BaselineDetector

        spec = SweepSpec(
            name="plugin", base=tiny_base(schemes=("stored-plugin",)),
            axes=(SweepAxis("seed", (1,)),), cases=("case-1",),
        )
        spec_path = self._spec_file(tmp_path, spec)
        store_path = str(tmp_path / "store.jsonl")
        register_detector("stored-plugin")(
            lambda config, link: BaselineDetector(sanitize=config.sanitize)
        )
        try:
            assert main(["sweep", "run", "--spec", spec_path, "--store", store_path]) == 0
        finally:
            DEFAULT_REGISTRY.unregister("stored-plugin")
        capsys.readouterr()
        assert main(["sweep", "status", "--spec", spec_path, "--store", store_path]) == 0
        assert json.loads(capsys.readouterr().out)["completed"] == 1
        assert main(["sweep", "report", "--store", store_path,
                     "--scheme", "stored-plugin"]) == 0
        assert "headline" in json.loads(capsys.readouterr().out)

    @pytest.mark.parametrize(
        "base, axes",
        [
            ({"schemes": ["baseline", "nope"]}, [{"field": "seed", "values": [1]}]),
            ({}, [{"field": "schemes", "values": [["baseline"], ["nope"]]}]),
        ],
        ids=["base-config", "schemes-axis"],
    )
    def test_unknown_scheme_exits_2_before_any_point(self, tmp_path, capsys, base, axes):
        from repro.cli import main

        spec = tmp_path / "spec.json"
        spec.write_text(
            json.dumps({"name": "probe", "base": base, "axes": axes, "cases": ["case-1"]})
        )
        store = tmp_path / "store.jsonl"
        assert main(["sweep", "run", "--spec", str(spec), "--store", str(store)]) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            "error: unknown detector 'nope'; registered detectors: "
            "['baseline', 'subcarrier', 'combined']\n"
        )
        assert captured.out == ""
        assert SweepStore(store).records() == []

    @pytest.mark.parametrize(
        "base, axes",
        [
            ({"backend": "nope"}, [{"field": "seed", "values": [1]}]),
            ({}, [{"field": "backend", "values": ["exact", "nope"]}]),
        ],
        ids=["base-config", "backend-axis"],
    )
    def test_unknown_backend_exits_2_before_any_point(self, tmp_path, capsys, base, axes):
        # Both used to start the sweep and die with a traceback; the axis
        # spec stored its "exact" point first.
        from repro.cli import main

        spec = tmp_path / "spec.json"
        spec.write_text(
            json.dumps({"name": "probe", "base": {**tiny_base().to_dict(), **base},
                        "axes": axes, "cases": ["case-1"]})
        )
        store = tmp_path / "store.jsonl"
        assert main(["sweep", "run", "--spec", str(spec), "--store", str(store)]) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            "error: unknown backend 'nope'; registered backends: ['exact', 'fast']\n"
        )
        assert captured.out == ""
        assert not store.exists()

    def test_backend_flag_sets_the_base_config_backend(self, tmp_path, capsys):
        from repro.cli import main

        def spec_file(name: str, base: EvaluationConfig) -> str:
            path = tmp_path / f"{name}.json"
            path.write_text(
                SweepSpec(
                    name="flag", base=base, axes=(SweepAxis("seed", (1,)),),
                    cases=("case-1",),
                ).to_json()
            )
            return str(path)

        flagged = tmp_path / "flag.jsonl"
        in_base = tmp_path / "base.jsonl"
        assert main(["sweep", "run", "--spec", spec_file("exact", tiny_base()),
                     "--store", str(flagged), "--backend", "fast"]) == 0
        assert main(["sweep", "run", "--spec", spec_file("fast", tiny_base(backend="fast")),
                     "--store", str(in_base)]) == 0
        capsys.readouterr()
        assert flagged.read_bytes() == in_base.read_bytes()
        assert json.loads(flagged.read_bytes())["result"]["config"]["backend"] == "fast"


class TestApiSurface:
    def test_sweep_names_reachable_through_repro_api(self):
        import repro.api as api

        assert api.SweepSpec is SweepSpec
        assert api.SweepStore is SweepStore
        assert api.run_sweep is run_sweep
        with pytest.raises(AttributeError):
            api.not_a_real_name


class TestReviewRegressions:
    """Fixes from code review: digest coverage, missing-key errors, status."""

    def test_point_id_tracks_case_subset(self):
        axes = (SweepAxis("seed", (1,)),)
        one_case = SweepSpec(axes=axes, base=tiny_base(), cases=("case-1",))
        all_cases = SweepSpec(axes=axes, base=tiny_base())
        two_cases = SweepSpec(axes=axes, base=tiny_base(), cases=("case-1", "case-2"))
        ids = {
            one_case.expand()[0].point_id,
            all_cases.expand()[0].point_id,
            two_cases.expand()[0].point_id,
        }
        assert len(ids) == 3  # resume can never mix case subsets

    def test_resume_rejects_store_from_different_case_subset(self, tmp_path):
        axes = (SweepAxis("seed", (1,)),)
        path = tmp_path / "subset.jsonl"
        run_sweep(SweepSpec(axes=axes, base=tiny_base(), cases=("case-1",)), path)
        wider = SweepSpec(axes=axes, base=tiny_base(), cases=("case-1", "case-2"))
        with pytest.raises(ValueError, match="different\\s+sweep"):
            run_sweep(wider, path, resume=True)

    def test_missing_required_keys_raise_value_error(self):
        with pytest.raises(ValueError, match="missing ScoredWindow keys"):
            ScoredWindow.from_dict({"scheme": "baseline"})
        with pytest.raises(ValueError, match="missing EvaluationResult keys"):
            EvaluationResult.from_dict({"config": tiny_base().to_dict()})
        with pytest.raises(ValueError, match="missing SweepRecord keys"):
            SweepRecord.from_dict({"point_id": "x"})
        with pytest.raises(ValueError, match="missing SweepAxis keys"):
            SweepAxis.from_dict({"field": "seed"})

    def test_status_reports_foreign_records(self, tmp_path, capsys):
        from repro.cli import main

        foreign_spec = SweepSpec(
            name="foreign", base=tiny_base(snr_db=20.0),
            axes=(SweepAxis("seed", (1,)),), cases=("case-1",),
        )
        store_path = str(tmp_path / "store.jsonl")
        run_sweep(foreign_spec, store_path)
        other = SweepSpec(
            name="mine", base=tiny_base(),
            axes=(SweepAxis("seed", (1, 2)),), cases=("case-1",),
        )
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(other.to_json())
        assert main(["sweep", "status", "--spec", str(spec_path),
                     "--store", store_path]) == 0
        status = json.loads(capsys.readouterr().out)
        assert len(status["foreign_ids"]) == 1
        assert len(status["pending_ids"]) == 2


class TestSecondReviewRegressions:
    """Second review pass: newline-less torn writes, digest scope, messages."""

    def test_recover_restores_lost_trailing_newline(
        self, acceptance_spec, sequential_store_bytes, tmp_path
    ):
        # A mid-write kill can persist a complete final record but lose its
        # trailing newline; resume must not glue the next record onto it.
        lines = sequential_store_bytes.decode().splitlines()
        path = tmp_path / "no-newline.jsonl"
        path.write_text("\n".join(lines[:3]))  # 3 records, no trailing newline
        store = SweepStore(path)
        assert len(store.recover()) == 3
        assert path.read_bytes().endswith(b"\n")
        outcome = run_sweep(acceptance_spec, path, max_workers=1, resume=True)
        assert len(outcome.skipped) == 3
        assert path.read_bytes() == sequential_store_bytes
        assert len(SweepStore(path).records()) == acceptance_spec.num_points

    def test_point_id_ignores_max_workers(self):
        axes = (SweepAxis("seed", (1,)),)
        one = SweepSpec(axes=axes, base=tiny_base(max_workers=1), cases=("case-1",))
        four = SweepSpec(axes=axes, base=tiny_base(max_workers=4), cases=("case-1",))
        # Results are bit-identical for any worker count, so a worker-count
        # edit must keep a resumable store valid.
        assert one.expand()[0].point_id == four.expand()[0].point_id

    def test_missing_key_error_lists_required_schema(self):
        with pytest.raises(ValueError) as excinfo:
            ScoredWindow.from_dict({"scheme": "baseline"})
        message = str(excinfo.value)
        assert "required keys: ['case', 'occupied', 'scheme', 'score']" in message

    def test_global_workers_flag_reaches_sweep_run(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["--workers", "8", "sweep", "run", "--spec", "s.json", "--store", "s.jsonl"]
        )
        assert args.workers == 8  # not clobbered by the subparser default
        args = build_parser().parse_args(
            ["sweep", "run", "--spec", "s.json", "--store", "s.jsonl",
             "--workers", "3"]
        )
        assert args.workers == 3
        args = build_parser().parse_args(
            ["sweep", "run", "--spec", "s.json", "--store", "s.jsonl"]
        )
        assert getattr(args, "workers", None) is None

    def test_axis_string_or_scalar_values_rejected(self):
        with pytest.raises(ValueError, match="got the string"):
            SweepAxis("seed", "2015")
        with pytest.raises(ValueError, match="must be a list of values"):
            SweepAxis("seed", 2015)
        with pytest.raises(ValueError, match="got the string"):
            SweepAxis.from_dict({"field": "seed", "values": "2015"})

    def test_wrong_typed_spec_payloads_raise_value_error(self):
        with pytest.raises(ValueError, match="axes must be a list"):
            SweepSpec.from_dict({"axes": 5})
        with pytest.raises(ValueError, match="a sweep axis must be a mapping"):
            SweepSpec.from_dict({"axes": [5]})
        with pytest.raises(ValueError, match="base must be an EvaluationConfig"):
            SweepSpec.from_dict({"axes": [{"field": "seed", "values": [1]}], "base": 5})
        with pytest.raises(ValueError, match="cases must be a list"):
            SweepSpec.from_dict(
                {"axes": [{"field": "seed", "values": [1]}], "cases": "case-1"}
            )
        with pytest.raises(ValueError, match="cases must be a list"):
            SweepSpec.from_dict(
                {"axes": [{"field": "seed", "values": [1]}], "cases": 5}
            )

    def test_wrong_typed_spec_file_exits_2(self, tmp_path, capsys):
        from repro.cli import main

        bad = tmp_path / "bad.json"
        bad.write_text('{"axes": [5]}')
        assert main(["sweep", "run", "--spec", str(bad),
                     "--store", str(tmp_path / "s.jsonl")]) == 2
        assert "a sweep axis must be a mapping" in capsys.readouterr().err

    def test_max_workers_not_sweepable(self):
        from repro.sweep import SWEEPABLE_FIELDS

        assert "max_workers" not in SWEEPABLE_FIELDS
        with pytest.raises(ValueError, match="unknown sweep axis field"):
            SweepAxis("max_workers", (1, 4))

    def test_failing_point_surfaces_promptly_in_pool(self, tmp_path, monkeypatch):
        spec = SweepSpec(
            name="failing", base=tiny_base(),
            axes=(SweepAxis("seed", (1, 2, 3, 4)),), cases=("case-1",),
        )
        monkeypatch.setattr(sweep_runner, "_run_point_case", _failing_point_case)
        with pytest.raises(RuntimeError, match="boom"):
            run_sweep(spec, tmp_path / "f.jsonl", max_workers=2)
        # The point completed before the failure is persisted; nothing after.
        assert len(SweepStore(tmp_path / "f.jsonl").records()) == 1

    def test_degenerate_campaign_knobs_rejected_at_spec_time(self):
        with pytest.raises(ValueError, match="windows_per_location must be >= 1"):
            EvaluationConfig(windows_per_location=0)
        with pytest.raises(ValueError, match="grid_rows must be >= 1"):
            EvaluationConfig(grid_rows=0)
        with pytest.raises(ValueError, match="calibration_packets must be >= 2"):
            EvaluationConfig(calibration_packets=1)
        spec = SweepSpec(
            axes=(SweepAxis("windows_per_location", (0,)),), base=tiny_base()
        )
        with pytest.raises(ValueError, match="windows_per_location must be >= 1"):
            spec.expand()

    def test_runtime_failure_keeps_its_traceback_in_cli(
        self, tmp_path, monkeypatch
    ):
        from repro.cli import main

        spec = SweepSpec(
            name="runtime-fail", base=tiny_base(),
            axes=(SweepAxis("seed", (2,)),), cases=("case-1",),
        )
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(spec.to_json())
        monkeypatch.setattr(sweep_runner, "_run_point_case", _failing_point_case)
        # A failure inside the experiment layer is NOT a config mistake: it
        # must propagate with its traceback, not exit 2.
        with pytest.raises(RuntimeError, match="boom"):
            main(["sweep", "run", "--spec", str(spec_path),
                  "--store", str(tmp_path / "s.jsonl")])

    def test_store_parse_cache_tracks_file_changes(
        self, acceptance_spec, sequential_store_bytes, tmp_path
    ):
        lines = sequential_store_bytes.decode().splitlines()
        path = tmp_path / "cache.jsonl"
        path.write_text("\n".join(lines[:2]) + "\n")
        store = SweepStore(path)
        assert len(store.point_ids()) == 2
        assert store.point_ids() is store.point_ids() or True  # cached parse
        path.write_text("\n".join(lines[:3]) + "\n")
        assert len(store.point_ids()) == 3  # cache invalidated by file change

    def test_string_axis_seed_rejected_at_validation(self, tmp_path, capsys):
        from repro.cli import main

        spec_dict = {
            "name": "typed",
            "base": tiny_base().to_dict(),
            "axes": [{"field": "seed", "values": ["2015"]}],
            "cases": ["case-1"],
        }
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec_dict))
        assert main(["sweep", "run", "--spec", str(path),
                     "--store", str(tmp_path / "s.jsonl")]) == 2
        assert "seed must be an integer" in capsys.readouterr().err

    def test_record_bytes_invariant_under_base_max_workers_edit(self, tmp_path):
        axes = (SweepAxis("seed", (1,)),)
        store_a = tmp_path / "a.jsonl"
        store_b = tmp_path / "b.jsonl"
        run_sweep(SweepSpec(axes=axes, base=tiny_base(max_workers=1),
                            cases=("case-1",)), store_a)
        run_sweep(SweepSpec(axes=axes, base=tiny_base(max_workers=4),
                            cases=("case-1",)), store_b)
        assert store_a.read_bytes() == store_b.read_bytes()

    def test_flat_string_schemes_value_rejected_early(self):
        with pytest.raises(ValueError, match="got the string 'baseline'"):
            EvaluationConfig.from_dict({"schemes": "baseline"})
        with pytest.raises(ValueError, match="got the string 'baseline'"):
            EvaluationConfig(schemes="baseline")
        spec = SweepSpec(
            axes=(SweepAxis("schemes", ("baseline", "subcarrier")),),
            base=tiny_base(),
        )
        # Each axis value is a flat string: expansion must fail with the
        # config-style error, not mangle into character tuples.
        with pytest.raises(ValueError, match="got the string"):
            spec.expand()
