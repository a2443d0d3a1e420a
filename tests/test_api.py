"""Tests for the ``repro.api`` pipeline subsystem.

Covers the detector registry, the declarative pipeline config, the streaming
session (window semantics and bit-identical parity with batch scoring) and
the multi-link monitor (vectorized scoring equivalence).
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.api import (
    DEFAULT_REGISTRY,
    MultiLinkMonitor,
    PipelineConfig,
    StreamingSession,
    available_detectors,
    register_detector,
)
from repro.channel import ChannelSimulator, HumanBody, Link, Point, Room
from repro.core.detector import BaselineDetector, DetectionResult
from repro.csi import CSIFrame, CSITrace, PacketCollector
from repro.experiments.scenarios import evaluation_cases
from repro.utils.rng import ensure_rng

SCHEMES = ("baseline", "subcarrier", "combined")


@pytest.fixture(scope="module")
def link() -> Link:
    room = Room.rectangular(8.0, 6.0, name="api-room")
    return Link(room=room, tx=Point(2.0, 3.0), rx=Point(6.0, 3.0), name="api-link")


@pytest.fixture(scope="module")
def collector(link) -> PacketCollector:
    return PacketCollector(ChannelSimulator(link, seed=1), seed=2)


@pytest.fixture(scope="module")
def calibration(collector):
    return collector.collect_empty(num_packets=30)


@pytest.fixture(scope="module")
def occupied_window(collector):
    return collector.collect(HumanBody(position=Point(4.0, 3.0)), num_packets=6)


# --------------------------------------------------------------------------- #
# registry
# --------------------------------------------------------------------------- #
class TestRegistry:
    """Detector-specific registry behaviour; the shared semantics are
    tested once on :class:`repro.utils.registry.Registry` (test_utils)."""

    def test_builtins_registered(self):
        assert set(SCHEMES) <= set(available_detectors())
        for name in SCHEMES:
            assert name in DEFAULT_REGISTRY

    def test_decorator_registration_and_create(self, link):
        """A registered factory receives the pipeline config and the link."""
        received = []

        @register_detector("custom")
        def build_custom(config, link):
            received.append((config, link))
            return BaselineDetector(sanitize=config.sanitize)

        try:
            config = PipelineConfig(detector="custom", sanitize=False)
            detector = config.build_detector(link)
            assert isinstance(detector, BaselineDetector)
            assert received == [(config, link)]
        finally:
            DEFAULT_REGISTRY.unregister("custom")

    def test_unknown_name_lists_known(self):
        with pytest.raises(ValueError) as excinfo:
            PipelineConfig(detector="nosuch").build_detector()
        assert str(excinfo.value) == (
            "unknown detector 'nosuch'; registered detectors: "
            "['baseline', 'subcarrier', 'combined']"
        )

    def test_combined_requires_link(self):
        with pytest.raises(ValueError, match="receive array"):
            PipelineConfig(detector="combined").build_detector()

    def test_plugin_usable_by_campaign_runner(self, link):
        """A registered scheme is picked up by EvaluationConfig.schemes."""
        from repro.experiments.runner import EvaluationConfig, build_detectors

        @register_detector("test-plugin")
        def build_plugin(config, link):
            return BaselineDetector(sanitize=config.sanitize)

        try:
            config = EvaluationConfig(schemes=("baseline", "test-plugin"))
            detectors = build_detectors(link, config)
            assert set(detectors) == {"baseline", "test-plugin"}
        finally:
            DEFAULT_REGISTRY.unregister("test-plugin")


# --------------------------------------------------------------------------- #
# config
# --------------------------------------------------------------------------- #
class TestPipelineConfig:
    def test_dict_round_trip(self):
        config = PipelineConfig(
            detector="subcarrier",
            window_packets=10,
            window_stride=2,
            threshold=1.25,
            threshold_policy="fixed",
            spectrum="music",
            seed=7,
        )
        assert PipelineConfig.from_dict(config.to_dict()) == config

    def test_json_round_trip(self):
        config = PipelineConfig(detector="baseline", loss_probability=0.05)
        assert PipelineConfig.from_json(config.to_json()) == config

    def test_from_file(self, tmp_path):
        path = tmp_path / "pipeline.json"
        path.write_text('{"detector": "baseline", "window_packets": 8}')
        config = PipelineConfig.from_file(path)
        assert config.detector == "baseline" and config.window_packets == 8

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown PipelineConfig keys"):
            PipelineConfig.from_dict({"detector": "baseline", "bogus": 1})

    @pytest.mark.parametrize(
        "changes",
        [
            {"detector": ""},
            {"spectrum": "esprit"},
            {"window_packets": 0},
            {"window_stride": 0},
            {"calibration_packets": 1},
            {"threshold_policy": "magic"},
            {"threshold_policy": "fixed"},  # fixed without a threshold
            {"threshold_margin": 0.0},
            {"theta_min_deg": 60.0, "theta_max_deg": -60.0},
            {"packet_rate_hz": 0.0},
            {"loss_probability": 1.5},
        ],
    )
    def test_invalid_values_rejected(self, changes):
        with pytest.raises(ValueError):
            PipelineConfig(**changes)

    @pytest.mark.parametrize(
        "changes",
        [
            {"window_packets": 2.5},
            {"window_packets": True},
            {"window_stride": 2.5},
            {"calibration_packets": 30.5},
            {"seed": 2.5},
            {"seed": False},
            {"threshold": True},
            {"threshold_policy": "fixed", "threshold": float("nan")},
            {"threshold_margin": float("nan")},
            {"packet_rate_hz": float("nan")},
            {"packet_rate_hz": float("inf")},
            {"theta_min_deg": "-60"},
            {"theta_max_deg": float("inf")},
            {"sanitize": "no"},
            {"use_stability_ratio": 1},
        ],
    )
    def test_mistyped_and_non_finite_values_rejected(self, changes):
        """Sizes are integers, real knobs finite numbers and flags bools: a
        fraction, a boolean size, a NaN or a "no" flag fails here, in one
        line, instead of crashing mid-run or silently running another
        pipeline."""
        (name,) = changes.keys() - {"threshold_policy"}
        with pytest.raises(ValueError, match=name) as excinfo:
            PipelineConfig(**changes)
        assert "\n" not in str(excinfo.value)

    def test_replace_validates(self):
        config = PipelineConfig()
        assert config.replace(window_packets=5).window_packets == 5
        with pytest.raises(ValueError):
            config.replace(window_packets=0)

    def test_build_detector_types(self, link):
        from repro.core.detector import (
            SubcarrierPathWeightingDetector,
            SubcarrierWeightingDetector,
        )

        assert isinstance(
            PipelineConfig(detector="baseline").build_detector(link), BaselineDetector
        )
        assert isinstance(
            PipelineConfig(detector="subcarrier").build_detector(link),
            SubcarrierWeightingDetector,
        )
        combined = PipelineConfig(detector="combined").build_detector(link)
        assert isinstance(combined, SubcarrierPathWeightingDetector)

    def test_spectrum_choice(self, link):
        from repro.aoa.bartlett import BartlettEstimator
        from repro.aoa.music import MusicEstimator

        bartlett = PipelineConfig(detector="combined").build_detector(link)
        music = PipelineConfig(detector="combined", spectrum="music").build_detector(link)
        assert isinstance(bartlett.spectrum_estimator, BartlettEstimator)
        assert isinstance(music.spectrum_estimator, MusicEstimator)

    def test_collector_settings_applied(self, link):
        config = PipelineConfig(packet_rate_hz=100.0, loss_probability=0.1, seed=3)
        built = config.collector(ChannelSimulator(link, seed=1))
        assert built.packet_rate_hz == 100.0
        assert built.loss_probability == 0.1


# --------------------------------------------------------------------------- #
# streaming session
# --------------------------------------------------------------------------- #
class TestStreamingSession:
    def _session(self, link, calibration, **changes):
        config = PipelineConfig(
            detector="baseline", window_packets=6, calibration_packets=30
        ).replace(**changes)
        session = config.session(link)
        session.calibrate(calibration)
        return session

    def test_no_event_before_first_window(self, link, collector, calibration):
        session = self._session(link, calibration)
        trace = collector.collect_empty(num_packets=5)
        assert session.push_trace(trace) == []
        assert session.packets_seen == 5

    def test_event_exactly_at_window_boundary(self, link, collector, calibration):
        session = self._session(link, calibration)
        trace = collector.collect_empty(num_packets=6)
        for i, frame in enumerate(trace):
            event = session.push(frame)
            if i < 5:
                assert event is None
            else:
                assert event is not None
                assert event.window_packets == 6
                assert event.packets_seen == 6
                assert event.index == 0

    def test_tumbling_windows_by_default(self, link, collector, calibration):
        session = self._session(link, calibration)
        trace = collector.collect_empty(num_packets=20)
        events = session.push_trace(trace)
        # 20 packets, window 6, stride 6 -> windows end at packets 6, 12, 18.
        assert [e.packets_seen for e in events] == [6, 12, 18]
        assert [e.index for e in events] == [0, 1, 2]

    def test_stride_controls_window_cadence(self, link, collector, calibration):
        session = self._session(link, calibration, window_stride=2)
        trace = collector.collect_empty(num_packets=11)
        events = session.push_trace(trace)
        assert [e.packets_seen for e in events] == [6, 8, 10]

    def test_fully_sliding_window(self, link, collector, calibration):
        session = self._session(link, calibration, window_stride=1)
        trace = collector.collect_empty(num_packets=9)
        events = session.push_trace(trace)
        assert [e.packets_seen for e in events] == [6, 7, 8, 9]

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_streaming_score_bit_identical_to_batch(
        self, scheme, link, collector, calibration, occupied_window
    ):
        config = PipelineConfig(
            detector=scheme, window_packets=6, calibration_packets=30
        )
        batch = config.build_detector(link)
        batch.calibrate(calibration)
        expected = batch.score(occupied_window)

        session = config.session(link)
        session.calibrate(calibration)
        (event,) = session.push_trace(occupied_window)
        assert event.score == expected  # bit-identical, not approx

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_sliding_windows_bit_identical_to_batch_slices(
        self, scheme, link, collector, calibration
    ):
        config = PipelineConfig(
            detector=scheme, window_packets=6, window_stride=1, calibration_packets=30
        )
        batch = config.build_detector(link)
        batch.calibrate(calibration)
        session = config.session(link)
        session.calibrate(calibration)

        trace = collector.collect(HumanBody(position=Point(4.2, 3.5)), num_packets=10)
        events = session.push_trace(trace)
        assert len(events) == 5
        for offset, event in enumerate(events):
            assert event.score == batch.score(trace[offset : offset + 6])

    def test_calibration_threshold_policy(self, link, calibration):
        session = self._session(link, calibration)  # default "calibration" policy
        assert session.threshold is not None and session.threshold > 0
        # Threshold = max empty-window score * margin, so replaying the
        # calibration trace itself must not fire any detection.
        events = session.push_trace(calibration)
        assert events and all(e.detected is False for e in events)

    def test_calibration_policy_needs_a_full_window(self, link, collector):
        config = PipelineConfig(
            detector="baseline", window_packets=25, calibration_packets=10
        )
        session = config.session(link)
        with pytest.raises(ValueError, match="at least one full window"):
            session.calibrate(collector.collect_empty(num_packets=10))

    def test_fixed_threshold_policy(self, link, calibration, occupied_window):
        session = self._session(
            link, calibration, threshold=1e9, threshold_policy="fixed"
        )
        (event,) = session.push_trace(occupied_window)
        assert event.threshold == 1e9 and event.detected is False

    def test_push_requires_calibration(self, link, collector):
        config = PipelineConfig(detector="baseline", window_packets=6)
        session = config.session(link)
        frame = collector.collect_empty(num_packets=1).frame(0)
        with pytest.raises(RuntimeError, match="calibrated"):
            session.push(frame)

    def test_push_rejects_non_frames(self, link, calibration):
        session = self._session(link, calibration)
        with pytest.raises(TypeError):
            session.push(np.zeros((3, 30)))

    def test_reset_keeps_calibration(self, link, collector, calibration):
        session = self._session(link, calibration)
        session.push_trace(collector.collect_empty(num_packets=7))
        threshold = session.threshold
        session.reset()
        assert session.packets_seen == 0 and session.events == ()
        assert session.threshold == threshold
        events = session.push_trace(collector.collect_empty(num_packets=6))
        assert len(events) == 1  # still calibrated, windows restart cleanly

    def test_event_to_dict_is_json_serialisable(self, link, calibration, occupied_window):
        session = self._session(link, calibration)
        (event,) = session.push_trace(occupied_window)
        payload = json.loads(json.dumps(event.to_dict()))
        assert payload["link"] == "api-link"
        assert payload["score"] == event.score
        assert payload["detected"] is True
        assert set(payload) == {
            "link",
            "index",
            "timestamp",
            "score",
            "threshold",
            "detected",
            "window_packets",
            "packets_seen",
        }

    def test_event_history_is_bounded(self, link, collector, calibration):
        config = PipelineConfig(
            detector="baseline", window_packets=6, window_stride=1, calibration_packets=30
        )
        session = StreamingSession(
            config.build_detector(link),
            window_packets=6,
            window_stride=1,
            event_history=3,
        )
        session.calibrate(calibration)
        trace = collector.collect_empty(num_packets=12)
        events = session.push_trace(trace)
        assert len(events) == 7  # all events are returned to the caller...
        assert len(session.events) == 3  # ...but only the newest are retained
        assert session.events_emitted == 7
        assert [e.index for e in session.events] == [4, 5, 6]  # numbering intact

    def test_advance_defers_scoring_until_emit(self, link, collector, calibration):
        """advance + score + emit(..., completion count) == push."""
        reference = self._session(link, calibration)
        session = self._session(link, calibration)
        trace = collector.collect_empty(num_packets=6)
        expected = reference.push_trace(trace)

        completed = [session.advance(frame) for frame in trace]
        assert completed[:5] == [None] * 5
        window = completed[5]
        assert window is not None and window.num_packets == 6
        event = session.emit(window, float(session.detector.score(window)), 6)
        assert [event] == expected

    def test_deferred_emit_keeps_completion_packets_seen(
        self, link, collector, calibration
    ):
        """emit stamps the packet count it is given, not the current one.

        A caller that keeps consuming frames between a window completing
        and its deferred scoring passes the completion count; the emitted
        event must still match what inline ``push`` would have produced.
        """
        reference = self._session(link, calibration)
        session = self._session(link, calibration)
        trace = collector.collect_empty(num_packets=18)
        expected = reference.push_trace(trace)

        ready = []  # advance everything before scoring anything
        for frame in trace:
            window = session.advance(frame)
            if window is not None:
                ready.append((window, session.packets_seen))
        assert session.packets_seen == 18
        events = [
            session.emit(window, float(session.detector.score(window)), seen)
            for window, seen in ready
        ]
        assert [e.packets_seen for e in events] == [6, 12, 18]
        assert events == expected

    def test_window_starts_match_advance(self):
        """The array form of the window rule completes the windows advance
        does, for every window size, stride and packet count."""
        frame = CSIFrame(csi=np.ones((1, 30), dtype=complex))
        for size in range(1, 13):
            for stride in range(1, 16):
                session = StreamingSession(
                    object(), window_packets=size, window_stride=stride
                )
                completions = [
                    count for count in range(1, 41) if session.advance(frame) is not None
                ]
                for num_packets in range(41):
                    starts = session.window_starts(num_packets)
                    assert (starts + size).tolist() == [
                        count for count in completions if count <= num_packets
                    ], (size, stride, num_packets)

    def test_invalid_session_parameters(self, link):
        detector = BaselineDetector()
        with pytest.raises(ValueError):
            StreamingSession(detector, window_packets=0)
        with pytest.raises(ValueError):
            StreamingSession(detector, window_stride=0)
        with pytest.raises(ValueError):
            StreamingSession(detector, threshold_policy="magic")
        with pytest.raises(ValueError):
            StreamingSession(detector, threshold_policy="fixed")


# --------------------------------------------------------------------------- #
# multi-link monitor
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def multi_links():
    return [link for _, link in evaluation_cases()[:3]]


def _per_link_data(links, *, num_packets=12, seed=100):
    calibrations = {}
    windows = {}
    for i, link in enumerate(links):
        collector = PacketCollector(
            ChannelSimulator(link, seed=seed + i), seed=seed + 50 + i
        )
        calibrations[link.name] = collector.collect_empty(num_packets=24)
        windows[link.name] = collector.collect(
            HumanBody(position=link.midpoint()), num_packets=num_packets
        )
    return calibrations, windows


class TestMultiLinkMonitor:
    def test_from_config_builds_one_session_per_link(self, multi_links):
        config = PipelineConfig(detector="baseline", window_packets=6)
        monitor = MultiLinkMonitor.from_config(config, multi_links)
        assert monitor.links == tuple(link.name for link in multi_links)
        for name, session in monitor.sessions.items():
            assert session.link_name == name

    def test_vectorized_scores_match_sequential(self, multi_links):
        """The one-pass baseline batch is bit-identical to per-link scoring."""
        config = PipelineConfig(detector="baseline", window_packets=6, calibration_packets=24)
        calibrations, windows = _per_link_data(multi_links)

        monitor = MultiLinkMonitor.from_config(config, multi_links)
        monitor.calibrate(calibrations)
        events = monitor.push_traces(windows)
        # 12 packets, window 6 tumbling -> 2 windows per link, 3 links.
        assert len(events) == 6

        for link in multi_links:
            session = config.session(link)
            session.calibrate(calibrations[link.name])
            expected = session.push_trace(windows[link.name])
            got = [e for e in events if e.link == link.name]
            assert [e.score for e in got] == [e.score for e in expected]
            assert [e.detected for e in got] == [e.detected for e in expected]

    def test_list_subcarrier_grids_batch_cleanly(self, multi_links):
        """Frame/trace validation accepts list grids; batch scoring must too."""
        config = PipelineConfig(
            detector="baseline", window_packets=6, calibration_packets=24
        )
        calibrations, windows = _per_link_data(multi_links)
        as_list = {
            name: CSITrace(
                csi=trace.csi,
                timestamps=trace.timestamps,
                subcarrier_indices=list(trace.subcarrier_indices),
                label=trace.label,
            )
            for name, trace in windows.items()
        }
        monitor = MultiLinkMonitor.from_config(config, multi_links)
        monitor.calibrate(calibrations)
        reference = MultiLinkMonitor.from_config(config, multi_links)
        reference.calibrate(calibrations)
        events = monitor.push_traces(as_list)
        expected = reference.push_traces(windows)
        assert [e.score for e in events] == [e.score for e in expected]

    def test_mixed_schemes_match_sequential(self, multi_links):
        """Non-batchable detectors fall back per link inside the same step."""
        calibrations, windows = _per_link_data(multi_links)
        configs = {
            link.name: PipelineConfig(
                detector=scheme, window_packets=6, calibration_packets=24
            )
            for link, scheme in zip(multi_links, SCHEMES)
        }
        monitor = MultiLinkMonitor(
            {
                link.name: configs[link.name].session(link)
                for link in multi_links
            }
        )
        monitor.calibrate(calibrations)
        events = monitor.push_traces(windows)
        assert len(events) == 6

        for link in multi_links:
            session = configs[link.name].session(link)
            session.calibrate(calibrations[link.name])
            expected = session.push_trace(windows[link.name])
            got = [e for e in events if e.link == link.name]
            assert [e.score for e in got] == [e.score for e in expected]

    def test_missing_calibration_rejected(self, multi_links):
        config = PipelineConfig(detector="baseline", window_packets=6)
        monitor = MultiLinkMonitor.from_config(config, multi_links)
        with pytest.raises(ValueError, match="missing calibration"):
            monitor.calibrate({})

    def test_unknown_link_frames_rejected(self, multi_links):
        config = PipelineConfig(detector="baseline", window_packets=6, calibration_packets=24)
        calibrations, windows = _per_link_data(multi_links)
        monitor = MultiLinkMonitor.from_config(config, multi_links)
        monitor.calibrate(calibrations)
        frame = windows[multi_links[0].name].frame(0)
        with pytest.raises(ValueError, match="unknown links") as excinfo:
            monitor.push({"not-a-link": frame})
        # The one-line error names both the offender and the known links.
        message = str(excinfo.value)
        assert "not-a-link" in message
        assert "known links" in message
        assert multi_links[0].name in message
        assert "\n" not in message

    def test_lockstep_requires_equal_lengths(self, multi_links):
        config = PipelineConfig(detector="baseline", window_packets=6, calibration_packets=24)
        calibrations, windows = _per_link_data(multi_links)
        monitor = MultiLinkMonitor.from_config(config, multi_links)
        monitor.calibrate(calibrations)
        uneven = dict(windows)
        first = multi_links[0].name
        uneven[first] = uneven[first][0:5]
        with pytest.raises(ValueError, match="one packet count"):
            monitor.push_traces(uneven)

    def test_empty_monitor_rejected(self):
        with pytest.raises(ValueError):
            MultiLinkMonitor({})

    def test_merged_event_history(self, multi_links):
        config = PipelineConfig(detector="baseline", window_packets=6, calibration_packets=24)
        calibrations, windows = _per_link_data(multi_links)
        monitor = MultiLinkMonitor.from_config(config, multi_links)
        monitor.calibrate(calibrations)
        step_events = monitor.push_traces(windows)
        merged = monitor.events()
        assert sorted(e.score for e in merged) == sorted(e.score for e in step_events)


# --------------------------------------------------------------------------- #
# satellites: collector rng, DetectionResult.to_dict
# --------------------------------------------------------------------------- #
class TestCollectorRng:
    def test_explicit_rng_matches_equivalent_seed(self, link):
        trace_a = PacketCollector(ChannelSimulator(link, seed=9), seed=5).collect_empty(
            num_packets=4
        )
        trace_b = PacketCollector(
            ChannelSimulator(link, seed=9), rng=ensure_rng(5)
        ).collect_empty(num_packets=4)
        np.testing.assert_array_equal(trace_a.csi, trace_b.csi)

    def test_shared_rng_is_one_stream(self, link):
        """Two collectors on one generator continue the same stream."""
        rng = ensure_rng(5)
        first = PacketCollector(ChannelSimulator(link, seed=9), rng=rng).collect_empty(
            num_packets=4
        )
        second = PacketCollector(ChannelSimulator(link, seed=9), rng=rng).collect_empty(
            num_packets=4
        )
        assert not np.array_equal(first.csi, second.csi)

    def test_rng_must_be_generator(self, link):
        with pytest.raises(TypeError, match="numpy.random.Generator"):
            PacketCollector(ChannelSimulator(link, seed=9), rng=5)


class TestDetectionResultToDict:
    def test_round_trip_through_json(self, link, calibration, occupied_window):
        detector = PipelineConfig(detector="baseline").build_detector(link)
        detector.calibrate(calibration)
        result = detector.detect(occupied_window, threshold=0.001)
        payload = json.loads(json.dumps(result.to_dict()))
        assert payload == {
            "score": result.score,
            "threshold": 0.001,
            "detected": result.detected,
        }
        assert isinstance(payload["detected"], bool)


# --------------------------------------------------------------------------- #
# CLI integration
# --------------------------------------------------------------------------- #
class TestCliPipeline:
    def test_pipeline_emits_json_event_lines(self, capsys):
        from repro.cli import main

        assert (
            main(
                [
                    "--seed",
                    "4",
                    "--window-packets",
                    "8",
                    "pipeline",
                    "--detector",
                    "baseline",
                    "--windows",
                    "2",
                ]
            )
            == 0
        )
        lines = [line for line in capsys.readouterr().out.splitlines() if line.strip()]
        assert len(lines) == 2
        events = [json.loads(line) for line in lines]
        assert events[0]["occupied"] is False and events[1]["occupied"] is True
        for event in events:
            assert {"score", "threshold", "detected", "link", "occupied"} <= set(event)
            assert event["link"] == "case-1"

    def test_pipeline_config_file(self, capsys, tmp_path):
        from repro.cli import main

        path = tmp_path / "pipeline.json"
        path.write_text(
            json.dumps(
                {
                    "detector": "subcarrier",
                    "window_packets": 8,
                    "calibration_packets": 40,
                    "seed": 6,
                }
            )
        )
        assert main(["--config", str(path), "pipeline", "--windows", "2"]) == 0
        events = [
            json.loads(line)
            for line in capsys.readouterr().out.splitlines()
            if line.strip()
        ]
        assert all(e["window_packets"] == 8 for e in events)

    def test_pipeline_unknown_case(self, capsys):
        from repro.cli import main

        assert main(["pipeline", "--case", "case-99"]) == 2
        assert "unknown case" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "config",
        [
            {"window_packets": 2.5},
            {"seed": 2.5},
            {"window_stride": 2.5},
            {"window_packets": True},
            {"packet_rate_hz": float("nan")},
            {"threshold_margin": float("nan")},
            {"sanitize": "no"},
            # Gates that hold no angle of the estimator's grid.
            {"theta_min_deg": 10.2, "theta_max_deg": 10.8},
            {"theta_min_deg": -100, "theta_max_deg": -95},
        ],
    )
    def test_pipeline_config_mistakes_exit_2(self, capsys, tmp_path, config):
        from repro.cli import main

        path = tmp_path / "c.json"
        path.write_text(json.dumps(config))
        assert main(["--config", str(path), "pipeline", "--windows", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    def test_pipeline_unknown_detector_clean_error(self, capsys):
        from repro.cli import main

        assert main(["pipeline", "--detector", "nosuch", "--windows", "1"]) == 2
        err = capsys.readouterr().err
        assert "unknown detector" in err and "Traceback" not in err

    def test_malformed_config_file_clean_error(self, capsys, tmp_path):
        from repro.cli import main

        path = tmp_path / "bad.json"
        path.write_text("not json")
        assert main(["--config", str(path), "pipeline"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_non_object_config_file_clean_error(self, capsys, tmp_path):
        from repro.cli import main

        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        assert main(["--config", str(path), "headline"]) == 2
        assert "must contain a JSON object" in capsys.readouterr().err

    def test_standalone_figure_validates_config_file(self, capsys, tmp_path):
        """Standalone figures resolve --config too (seed applies, keys checked)."""
        from repro.cli import main

        path = tmp_path / "campaign.json"
        path.write_text('{"not_a_knob": true}')
        assert main(["--config", str(path), "figure", "fig10"]) == 2
        assert "unknown EvaluationConfig keys" in capsys.readouterr().err

    def test_campaign_config_file_resolution(self, tmp_path):
        """defaults < --config file < explicit CLI flags."""
        from repro.cli import _build_config, build_parser

        path = tmp_path / "campaign.json"
        path.write_text(json.dumps({"seed": 1, "window_packets": 9, "snr_db": 20.0}))
        args = build_parser().parse_args(
            ["--config", str(path), "--window-packets", "11", "headline"]
        )
        config = _build_config(args)
        assert config.seed == 1  # from file
        assert config.window_packets == 11  # flag beats file
        assert config.snr_db == 20.0  # file beats dataclass default
        assert config.windows_per_location == 3  # hard-wired fallback

    def test_campaign_config_rejects_unknown_keys(self, tmp_path):
        from repro.cli import _build_config, build_parser

        path = tmp_path / "campaign.json"
        path.write_text('{"not_a_knob": true}')
        args = build_parser().parse_args(["--config", str(path), "headline"])
        with pytest.raises(ValueError, match="unknown EvaluationConfig keys"):
            _build_config(args)

    def test_evaluation_config_dict_round_trip(self):
        from repro.experiments.runner import EvaluationConfig

        config = EvaluationConfig(seed=4, schemes=("baseline", "subcarrier"))
        assert EvaluationConfig.from_dict(config.to_dict()) == config
