"""Tests for repro.obs: clocks, metrics, spans, exporters, and the parity
contract that observability never moves a score, event or digest.

The load-bearing contracts:

* :class:`~repro.obs.clock.ManualClock` makes every timing number exact —
  span durations, histogram contents and the fleet's latency stats are
  assertable values, not wall-clock noise;
* merging worker snapshots in shard order reproduces the single-process
  registry for any worker count;
* the campaign score sha256 and the fleet event digest are byte-identical
  with observability enabled and disabled (the instrumentation only *reads*
  clocks — it never touches RNG streams or data paths);
* the disabled path is a shared no-op: one span object for the whole
  process, nothing allocated per call.
"""

from __future__ import annotations

import json

import pytest

from repro import obs
from repro.obs import (
    DEFAULT_LATENCY_BOUNDS_S,
    Clock,
    Counter,
    Gauge,
    Histogram,
    HistogramSnapshot,
    ManualClock,
    MetricsRegistry,
    MonotonicClock,
    ObsSnapshot,
    Recorder,
)
from repro.obs.trace import NULL_RECORDER


# --------------------------------------------------------------------------- #
# clocks
# --------------------------------------------------------------------------- #
class TestClocks:
    def test_manual_clock_advances_only_on_request(self):
        clock = ManualClock(start=5.0)
        assert clock.now() == 5.0
        assert clock.now() == 5.0
        assert clock.advance(1.5) == 6.5
        assert clock.now() == 6.5

    def test_manual_clock_rejects_negative_advance(self):
        with pytest.raises(ValueError, match="backwards"):
            ManualClock().advance(-0.1)

    def test_monotonic_clock_is_monotone(self):
        clock = MonotonicClock()
        a = clock.now()
        b = clock.now()
        assert b >= a

    def test_both_satisfy_the_protocol(self):
        assert isinstance(ManualClock(), Clock)
        assert isinstance(MonotonicClock(), Clock)


# --------------------------------------------------------------------------- #
# metrics primitives
# --------------------------------------------------------------------------- #
class TestCounterAndGauge:
    def test_counter_accumulates(self):
        counter = Counter("c")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError, match="cannot decrease"):
            Counter("c").inc(-1)

    def test_gauge_last_write_wins(self):
        gauge = Gauge("g")
        gauge.set(3.0)
        gauge.set(1.5)
        assert gauge.value == 1.5


class TestHistogram:
    def test_bucket_placement_le_semantics(self):
        # bisect_left gives Prometheus `le` buckets: value <= bound lands in
        # that bound's bucket, values above every bound overflow.
        histogram = Histogram("h", bounds=(1.0, 2.0, 4.0))
        for value in (0.5, 1.0, 1.5, 2.0, 3.0, 100.0):
            histogram.observe(value)
        assert histogram.counts == [2, 2, 1, 1]
        assert histogram.count == 6
        assert histogram.min == 0.5
        assert histogram.max == 100.0

    def test_bounds_must_be_strictly_increasing(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            Histogram("h", bounds=(1.0, 1.0))
        with pytest.raises(ValueError, match="at least one"):
            Histogram("h", bounds=())

    def test_default_bounds_are_fixed_log_spaced_constants(self):
        bounds = DEFAULT_LATENCY_BOUNDS_S
        assert bounds[0] == pytest.approx(1e-6)
        assert bounds[-1] == pytest.approx(100.0)
        ratios = {
            round(b2 / b1, 9) for b1, b2 in zip(bounds, bounds[1:])
        }
        assert len(ratios) == 1  # uniform in log space

    def test_percentile_clamps_to_observed_range(self):
        histogram = Histogram("h", bounds=(1.0, 10.0, 100.0))
        histogram.observe(3.0)
        histogram.observe(5.0)
        snapshot = histogram.snapshot()
        # Rank bucket upper bound is 10.0; clamped to the observed max.
        assert snapshot.percentile(99) == 5.0
        assert snapshot.percentile(50) == 5.0  # lower-bound clamp via min/max
        assert snapshot.percentile(0) >= snapshot.min

    def test_percentile_of_empty_histogram_is_zero(self):
        assert Histogram("h").snapshot().percentile(99) == 0.0

    def test_percentile_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="percentile"):
            Histogram("h").snapshot().percentile(101)

    def test_snapshot_round_trips_through_dict(self):
        histogram = Histogram("h", bounds=(1.0, 2.0))
        histogram.observe(1.5)
        snapshot = histogram.snapshot()
        assert HistogramSnapshot.from_dict(snapshot.to_dict()) == snapshot


class TestRegistryMerge:
    def test_get_or_create_returns_same_instrument(self):
        registry = MetricsRegistry()
        assert registry.counter("c") is registry.counter("c")
        assert registry.histogram("h") is registry.histogram("h")

    def test_histogram_bounds_conflict_is_an_error(self):
        registry = MetricsRegistry()
        registry.histogram("h", bounds=(1.0, 2.0))
        with pytest.raises(ValueError, match="different bucket bounds"):
            registry.histogram("h", bounds=(1.0, 3.0))

    def test_sharded_merge_equals_single_registry(self):
        # Split one observation stream over two shards; merging the shard
        # snapshots in order must reproduce the unsharded registry exactly.
        observations = [0.001, 0.01, 0.25, 3.0, 0.0001, 0.02]
        single = MetricsRegistry()
        for value in observations:
            single.counter("n").inc()
            single.histogram("lat").observe(value)
        single.gauge("last").set(observations[-1])

        merged = MetricsRegistry()
        for shard_values in (observations[:3], observations[3:]):
            shard = MetricsRegistry()
            for value in shard_values:
                shard.counter("n").inc()
                shard.histogram("lat").observe(value)
            shard.gauge("last").set(shard_values[-1])
            merged.merge(shard.snapshot())

        assert merged.snapshot().to_dict() == single.snapshot().to_dict()

    def test_merge_order_is_deterministic_for_gauges(self):
        first = MetricsRegistry()
        first.gauge("g").set(1.0)
        second = MetricsRegistry()
        second.gauge("g").set(2.0)
        target = MetricsRegistry()
        target.merge(first.snapshot())
        target.merge(second.snapshot())
        assert target.gauge("g").value == 2.0  # last write wins, in order


# --------------------------------------------------------------------------- #
# spans and recorders
# --------------------------------------------------------------------------- #
class TestRecorder:
    def test_span_durations_are_exact_under_manual_clock(self):
        clock = ManualClock()
        recorder = Recorder(clock=clock)
        with recorder.span("outer"):
            clock.advance(0.5)
            with recorder.span("inner"):
                clock.advance(0.25)
        spans = {span.name: span for span in recorder.spans}
        assert spans["inner"].duration_s == 0.25
        assert spans["outer"].duration_s == 0.75
        assert spans["inner"].path == "outer/inner"
        assert spans["outer"].path == "outer"
        # Durations also landed in the per-stage histograms.
        assert recorder.metrics.histogram("inner").sum == 0.25

    def test_span_stack_unwinds_on_error(self):
        clock = ManualClock()
        recorder = Recorder(clock=clock)
        with pytest.raises(RuntimeError):
            with recorder.span("failing"):
                raise RuntimeError("boom")
        with recorder.span("after"):
            pass
        paths = [span.path for span in recorder.spans]
        assert paths == ["failing", "after"]  # "after" is not nested

    def test_ring_buffer_is_bounded(self):
        recorder = Recorder(clock=ManualClock(), max_spans=3)
        for index in range(5):
            with recorder.span(f"s{index}"):
                pass
        assert [span.name for span in recorder.spans] == ["s2", "s3", "s4"]
        # The histograms keep aggregating past the eviction horizon.
        assert recorder.metrics.histogram("s0").count == 1

    def test_span_attrs_are_recorded_sorted(self):
        recorder = Recorder(clock=ManualClock())
        with recorder.span("s", b=2, a=1):
            pass
        (span,) = recorder.spans
        assert span.attrs == (("a", 1), ("b", 2))

    def test_snapshot_round_trips_through_dict(self):
        clock = ManualClock()
        recorder = Recorder(clock=clock)
        with recorder.span("stage", case="x"):
            clock.advance(0.1)
        recorder.count("n", 3)
        recorder.gauge("g", 1.5)
        snapshot = recorder.snapshot()
        assert ObsSnapshot.from_dict(snapshot.to_dict()) == snapshot


class TestModuleSeam:
    def test_default_recorder_is_the_shared_noop(self):
        assert obs.get_recorder() is NULL_RECORDER
        assert not obs.enabled()

    def test_null_span_is_one_shared_object(self):
        # Zero allocations on the disabled path: every span() call hands
        # back the same do-nothing context manager.
        assert obs.span("a") is obs.span("b")
        obs.count("never", 5)
        obs.observe("never", 1.0)
        obs.gauge("never", 1.0)
        assert obs.get_recorder().snapshot() == ObsSnapshot.empty()

    def test_recording_installs_and_restores(self):
        with obs.recording() as recorder:
            assert obs.get_recorder() is recorder
            assert obs.enabled()
            assert obs.active_clock() is recorder.clock
        assert obs.get_recorder() is NULL_RECORDER
        assert isinstance(obs.active_clock(), MonotonicClock)

    def test_recording_restores_on_error(self):
        with pytest.raises(RuntimeError):
            with obs.recording():
                raise RuntimeError("boom")
        assert obs.get_recorder() is NULL_RECORDER

    def test_shard_recording_disabled_yields_none(self):
        with obs.shard_recording(False) as recorder:
            assert recorder is None
            assert not obs.enabled()

    def test_shard_recording_inherits_an_enabled_clock(self):
        clock = ManualClock()
        with obs.recording(Recorder(clock=clock)):
            with obs.shard_recording(True) as shard:
                assert shard is not None
                assert shard.clock is clock
                with obs.span("stage"):
                    clock.advance(0.5)
                snapshot = shard.snapshot()
        assert snapshot.spans[0].duration_s == 0.5

    def test_shard_recording_inherits_the_span_capacity(self):
        # Regression: shard recorders used the default 4,096-span ring, so a
        # large traced shard silently evicted its oldest spans.
        spans = 5000
        with obs.recording(Recorder(clock=ManualClock(), max_spans=None)) as recorder:
            with obs.shard_recording(True) as shard:
                assert shard is not None
                for _ in range(spans):
                    with obs.span("collect.impair"):
                        pass
                snapshot = shard.snapshot()
            obs.merge(snapshot)
        assert len(snapshot.spans) == spans
        assert len(recorder.spans) == spans
        with obs.recording(Recorder(max_spans=3)):
            with obs.shard_recording(True) as shard:
                assert shard is not None and shard.spans.maxlen == 3


# --------------------------------------------------------------------------- #
# exporters
# --------------------------------------------------------------------------- #
def _sample_snapshot() -> ObsSnapshot:
    clock = ManualClock()
    recorder = Recorder(clock=clock)
    with recorder.span("collect.synthesize"):
        clock.advance(0.010)
    with recorder.span("collect.synthesize"):
        clock.advance(0.020)
    recorder.count("collect.packets", 50)
    recorder.gauge("fleet.setup_s", 4.5)
    recorder.gauge("fleet.schedule_s", 1.5)
    return recorder.snapshot()


class TestExport:
    def test_jsonl_round_trip(self, tmp_path):
        snapshot = _sample_snapshot()
        path = tmp_path / "metrics.jsonl"
        lines = obs.write_jsonl(snapshot, path)
        assert lines == path.read_text().count("\n")
        loaded = obs.load_jsonl(path)
        assert loaded == snapshot

    def test_jsonl_first_line_is_versioned_meta(self, tmp_path):
        path = tmp_path / "metrics.jsonl"
        obs.write_jsonl(_sample_snapshot(), path)
        meta = json.loads(path.read_text().splitlines()[0])
        assert meta == {"kind": "meta", "version": 1}

    def test_malformed_line_error_names_file_and_line(self, tmp_path):
        path = tmp_path / "metrics.jsonl"
        path.write_text('{"kind": "meta", "version": 1}\nnot json\n')
        with pytest.raises(ValueError, match=r"metrics\.jsonl:2"):
            obs.load_jsonl(path)

    def test_unknown_kind_is_an_error(self, tmp_path):
        path = tmp_path / "metrics.jsonl"
        path.write_text('{"kind": "mystery"}\n')
        with pytest.raises(ValueError, match="unknown record kind"):
            obs.load_jsonl(path)

    def test_unsupported_version_is_an_error(self, tmp_path):
        path = tmp_path / "metrics.jsonl"
        path.write_text('{"kind": "meta", "version": 99}\n')
        with pytest.raises(ValueError, match="unsupported metrics version"):
            obs.load_jsonl(path)

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            obs.load_jsonl(tmp_path / "absent.jsonl")

    def test_prometheus_buckets_are_cumulative(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("lat", bounds=(1.0, 2.0))
        for value in (0.5, 1.5, 5.0):
            histogram.observe(value)
        report = obs.prometheus_report(
            ObsSnapshot(metrics=registry.snapshot(), spans=())
        )
        assert 'repro_lat_bucket{le="1.0"} 1' in report
        assert 'repro_lat_bucket{le="2.0"} 2' in report
        assert 'repro_lat_bucket{le="+Inf"} 3' in report
        assert "repro_lat_count 3" in report

    def test_prometheus_sanitizes_names(self):
        registry = MetricsRegistry()
        registry.counter("collect.packets").inc()
        report = obs.prometheus_report(
            ObsSnapshot(metrics=registry.snapshot(), spans=())
        )
        assert "repro_collect_packets 1" in report

    def test_markdown_report_has_stage_table_and_time_split(self):
        report = obs.markdown_report(_sample_snapshot())
        assert "| Stage | Count | p50 | p99 | Total |" in report
        assert "`collect.synthesize` | 2" in report
        assert "Time split: setup 4.500 s vs scheduling 1.500 s" in report
        assert "(75.0% setup)" in report

    def test_text_report_lists_scalars(self):
        report = obs.text_report(_sample_snapshot())
        assert "collect.packets = 50" in report
        assert "collect.synthesize" in report

    def test_reporters_registry_matches_cli_choices(self):
        assert set(obs.REPORTERS) == {"text", "markdown", "prometheus"}


# --------------------------------------------------------------------------- #
# instrumented layers: determinism under a manual clock
# --------------------------------------------------------------------------- #
class TestFleetUnderManualClock:
    def test_fleet_timings_are_exact_with_a_frozen_clock(self):
        from repro.api import PipelineConfig
        from repro.fleet import FleetConfig, run_fleet

        config = FleetConfig(
            links=4,
            duration_s=2.0,
            seed=11,
            batch_windows=4,
            pool_packets=20,
            pipeline=PipelineConfig(
                detector="baseline", window_packets=10, calibration_packets=30
            ),
        )
        with obs.recording(Recorder(clock=ManualClock())) as recorder:
            report = run_fleet(config)
        # Time never advanced, so every measurement is exactly zero...
        assert report.wall_s == 0.0
        assert report.setup_s == 0.0
        assert report.elapsed_s == 0.0
        assert report.latency_p50_s == 0.0
        assert report.latency_p99_s == 0.0
        # ...and the structural metrics are exact counts.
        snapshot = recorder.snapshot()
        assert snapshot.metrics.counters["fleet.arrivals"] == report.arrivals
        assert snapshot.metrics.counters["fleet.windows"] == report.windows_scored
        latency = snapshot.metrics.histograms["fleet.latency_s"]
        assert latency.count == len(report.events)
        assert latency.sum == 0.0

    def test_empty_schedule_under_the_recorder_clock(self):
        from repro.fleet import FleetScheduler

        with obs.recording(Recorder(clock=ManualClock())):
            events, stats = FleetScheduler(batch_windows=2).run([])
        assert events == []
        assert stats.elapsed_s == 0.0
        assert stats.latencies_s == ()


class TestSweepSeamUnderObs:
    def test_timed_point_case_preserves_the_monkeypatch_seam(self, monkeypatch):
        from repro.sweep import runner as sweep_runner

        calls = []

        def fake(link, config, case_seed):
            calls.append(case_seed)
            return []

        monkeypatch.setattr(sweep_runner, "_run_point_case", fake)
        clock = ManualClock()
        with obs.recording(Recorder(clock=clock)):
            windows, snapshot = sweep_runner._timed_point_case(
                None, None, 42, True
            )
        assert calls == [42]
        assert windows == []
        assert snapshot is not None
        assert snapshot.metrics.histograms["sweep.case"].count == 1

    def test_disabled_unit_ships_no_snapshot(self, monkeypatch):
        from repro.sweep import runner as sweep_runner

        monkeypatch.setattr(
            sweep_runner, "_run_point_case", lambda *args: ["w"]
        )
        windows, snapshot = sweep_runner._timed_point_case(None, None, 7)
        assert windows == ["w"]
        assert snapshot is None


# --------------------------------------------------------------------------- #
# parity: observability on vs off is byte-identical
# --------------------------------------------------------------------------- #
class TestOnOffParity:
    def test_campaign_scores_identical_with_obs_enabled(self):
        from tests.pins import scores_sha256

        from repro.experiments.runner import EvaluationConfig, run_evaluation
        from repro.experiments.scenarios import evaluation_cases

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
        cases = evaluation_cases()[:2]
        baseline = scores_sha256(run_evaluation(config, cases=cases))
        with obs.recording() as recorder:
            instrumented = scores_sha256(run_evaluation(config, cases=cases))
        assert instrumented == baseline
        # The run actually recorded something — this was not a no-op pass.
        snapshot = recorder.snapshot()
        assert snapshot.metrics.counters["collect.packets"] > 0
        assert snapshot.metrics.histograms["eval.case"].count == len(cases)
        # The case program's phases are visible: one planning pass and one
        # whole-case synthesis batch per case.
        assert snapshot.metrics.histograms["collect.plan"].count == len(cases)
        assert snapshot.metrics.histograms["collect.batch_synthesize"].count == len(cases)
        # Scoring is attributed: one score.batch per case (every scheme's
        # windows in one call), one kernel span per scheme inside it.
        for name in ("score.batch", "score.baseline", "score.subcarrier", "score.combined"):
            assert snapshot.metrics.histograms[name].count == len(cases)

    @staticmethod
    def _fleet_obs_parity(detector: str):
        from repro.api import PipelineConfig
        from repro.fleet import FleetConfig, run_fleet

        config = FleetConfig(
            links=6,
            duration_s=3.0,
            seed=11,
            batch_windows=4,
            pool_packets=20,
            pipeline=PipelineConfig(
                detector=detector, window_packets=10, calibration_packets=30
            ),
        )
        baseline = run_fleet(config).event_digest()
        with obs.recording():
            enabled_1 = run_fleet(config).event_digest()
        with obs.recording() as recorder:
            enabled_2 = run_fleet(config, max_workers=2).event_digest()
        assert enabled_1 == baseline
        # Sharded workers return snapshots; the merged metrics cover both
        # shards and the event stream still matches byte for byte.
        assert enabled_2 == baseline
        snapshot = recorder.snapshot()
        assert snapshot.metrics.histograms["fleet.shard_setup"].count == 2
        # Each shard synthesises its geometries' cleans in one batch and
        # plans each of its links.
        assert snapshot.metrics.histograms["collect.batch_synthesize"].count == 2
        assert snapshot.metrics.histograms["collect.plan"].count == config.links
        return snapshot

    def test_fleet_event_digest_identical_with_obs_enabled(self):
        self._fleet_obs_parity("baseline")

    def test_combined_fleet_event_digest_identical_with_obs_enabled(self):
        snapshot = self._fleet_obs_parity("combined")
        histograms = snapshot.metrics.histograms
        # Each of the two shards calibrates in one pass: one sanitisation of
        # every calibration trace, whose slices feed one score.batch replay.
        # Every scheduled flush is another score.batch with one sanitisation.
        setup = [s.name for s in snapshot.spans if s.path.startswith("fleet.shard_setup/")]
        assert setup.count("score.batch") == 2
        assert setup.count("collect.sanitize") == 2
        assert histograms["collect.sanitize"].count == histograms["score.batch"].count
        assert histograms["score.combined"].count >= histograms["score.batch"].count

    def test_sweep_store_bytes_identical_with_obs_enabled(self, tmp_path):
        from repro.experiments.runner import EvaluationConfig
        from repro.sweep import SweepAxis, SweepSpec, run_sweep

        base = EvaluationConfig(
            calibration_packets=20,
            window_packets=6,
            windows_per_location=1,
            grid_rows=1,
            grid_cols=1,
            max_bounces=1,
            schemes=("baseline",),
        )
        spec = SweepSpec(
            name="obs-parity",
            base=base,
            axes=(SweepAxis("seed", (2015, 2016)),),
            cases=("case-1",),
        )
        plain = tmp_path / "plain.jsonl"
        run_sweep(spec, plain, max_workers=1)
        recorded = tmp_path / "recorded.jsonl"
        with obs.recording() as recorder:
            run_sweep(spec, recorded, max_workers=1)
        assert recorded.read_bytes() == plain.read_bytes()
        snapshot = recorder.snapshot()
        assert snapshot.metrics.counters["sweep.points"] == 2
        assert snapshot.metrics.histograms["sweep.case"].count == 2
        assert snapshot.metrics.histograms["sweep.point_s"].count == 2


class TestCalibrateSpan:
    def test_campaign_calibrates_once_per_case(self):
        from repro.experiments.runner import EvaluationConfig, run_evaluation
        from repro.experiments.scenarios import evaluation_cases

        config = EvaluationConfig(
            seed=11,
            grid_rows=1,
            grid_cols=1,
            windows_per_location=1,
            window_packets=8,
            calibration_packets=30,
            max_bounces=1,
        )
        cases = evaluation_cases()[:2]
        with obs.recording() as recorder:
            run_evaluation(config, cases=cases)
        spans = recorder.snapshot().spans
        calibrate = [s.path for s in spans if s.name == "calibrate"]
        assert calibrate == ["eval.campaign/eval.case/calibrate"] * len(cases)
        # Every scheme calibrates from one shared sanitisation of the trace.
        inside = [s.name for s in spans if s.path.startswith(calibrate[0] + "/")]
        assert inside == ["collect.sanitize"] * len(cases)

    def test_single_shard_fleet_calibrates_in_one_span(self):
        from repro.api import PipelineConfig
        from repro.fleet import FleetConfig, run_fleet

        config = FleetConfig(
            links=6,
            duration_s=3.0,
            seed=11,
            pool_packets=20,
            pipeline=PipelineConfig(
                detector="combined", window_packets=10, calibration_packets=30
            ),
        )
        with obs.recording() as recorder:
            run_fleet(config)
        spans = recorder.snapshot().spans
        calibrate = [s.path for s in spans if s.name == "calibrate"]
        assert calibrate == ["fleet.shard_setup/calibrate"]
        # The shard-wide sanitisation and the threshold replay sit under it.
        children = [s.name for s in spans if s.path.rpartition("/")[0] == calibrate[0]]
        assert sorted(children) == ["collect.sanitize", "score.batch"]


# --------------------------------------------------------------------------- #
# CLI
# --------------------------------------------------------------------------- #
class TestObsCli:
    def test_fleet_run_obs_out_then_report(self, tmp_path, capsys):
        from repro.cli import main

        metrics = tmp_path / "fleet-obs.jsonl"
        code = main(
            [
                "fleet",
                "run",
                "--links",
                "4",
                "--duration",
                "2",
                "--obs-out",
                str(metrics),
            ]
        )
        assert code == 0
        assert metrics.exists()
        captured = capsys.readouterr()
        assert "wrote" in captured.err
        report = json.loads(captured.out)
        assert report["links"] == 4

        code = main(["obs", "report", "--metrics", str(metrics)])
        assert code == 0
        out = capsys.readouterr().out
        assert "fleet.shard_setup" in out
        assert "Time split: setup" in out

        code = main(
            ["obs", "report", "--metrics", str(metrics), "--format", "markdown"]
        )
        assert code == 0
        assert "| Stage | Count | p50 | p99 | Total |" in capsys.readouterr().out

    def test_obs_flag_defaults_are_off(self, tmp_path, capsys, monkeypatch):
        from repro.cli import main

        monkeypatch.chdir(tmp_path)
        code = main(["fleet", "run", "--links", "2", "--duration", "1"])
        assert code == 0
        assert not (tmp_path / "fleet-obs.jsonl").exists()
        assert obs.get_recorder() is NULL_RECORDER

    def test_obs_report_missing_file_is_a_config_error(self, capsys):
        from repro.cli import main

        code = main(["obs", "report", "--metrics", "no-such-file.jsonl"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_obs_report_malformed_line_is_a_config_error(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "bad.jsonl"
        path.write_text('{"kind": "meta", "version": 1}\n{oops\n')
        code = main(["obs", "report", "--metrics", str(path)])
        assert code == 2
        err = capsys.readouterr().err
        assert "bad.jsonl:2" in err

    def test_sweep_run_obs_writes_metrics(self, tmp_path, capsys, monkeypatch):
        import repro.sweep.runner as sweep_runner
        from repro.cli import main

        spec = {
            "name": "cli-obs",
            "base": {
                "calibration_packets": 20,
                "window_packets": 6,
                "windows_per_location": 1,
                "grid_rows": 1,
                "grid_cols": 1,
                "max_bounces": 1,
                "schemes": ["baseline"],
            },
            "axes": [{"field": "seed", "values": [2015]}],
            "cases": ["case-1"],
        }
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        metrics = tmp_path / "sweep-obs.jsonl"
        code = main(
            [
                "sweep",
                "run",
                "--spec",
                str(spec_path),
                "--store",
                str(tmp_path / "store.jsonl"),
                "--obs-out",
                str(metrics),
            ]
        )
        assert code == 0
        snapshot = obs.load_jsonl(metrics)
        assert snapshot.metrics.counters["sweep.points"] == 1
