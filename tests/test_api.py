"""Tests for the ``repro.api`` pipeline subsystem.

Covers the detector registry, the declarative pipeline config, the streaming
session (window semantics and bit-identical parity with batch scoring) and
cross-link batch scoring (one ``score_windows`` call and
``StreamingSession.emit`` against per-link pushes).
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import numpy as np
import pytest

from repro.api import (
    DEFAULT_REGISTRY,
    PipelineConfig,
    StreamingSession,
    available_detectors,
    register_detector,
)
from repro.api.monitor import calibrate_sessions, score_windows
from repro.channel import ChannelSimulator, HumanBody, Link, Point, Room
from repro.core.detector import BaselineDetector
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
    return PacketCollector(ChannelSimulator(link), seed=2)


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

    @pytest.mark.parametrize("name", SCHEMES)
    def test_builtin_factory_builds_a_detector(self, name, link):
        """Every built-in factory returns a :class:`repro.core.Detector` of
        its scheme that honours the config's ``sanitize``."""
        from repro.core import Detector

        for sanitize in (True, False):
            config = PipelineConfig(detector=name, sanitize=sanitize)
            detector = config.build_detector(link)
            assert isinstance(detector, Detector)
            assert detector.scheme == name
            assert detector.sanitize is sanitize

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


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_plugin() -> str:
    """The README's plugin snippet: its python block defining a Detector."""
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    (snippet,) = [block for block in blocks if "(Detector):" in block]
    return snippet


class TestPluginDetector:
    """A plugin is a :class:`repro.core.Detector` subclass, and it runs on
    every stacked path exactly as its batch of one."""

    @pytest.fixture()
    def plugin(self):
        """The scheme name the README snippet registers, unregistered after."""
        before = set(available_detectors())
        try:
            exec(compile(readme_plugin(), str(README), "exec"), {})
            (name,) = set(available_detectors()) - before
            yield name
        finally:
            for name in set(available_detectors()) - before:
                DEFAULT_REGISTRY.unregister(name)

    def test_readme_plugin_matches_its_batch_of_one(self, plugin, link):
        from repro.core import Detector
        from repro.experiments.runner import (
            EvaluationConfig,
            run_case,
            run_case_reference,
        )

        collector = PacketCollector(ChannelSimulator(link), seed=32)
        config = PipelineConfig(detector=plugin, window_packets=6)
        names = (plugin, *SCHEMES)
        detectors = [config.replace(detector=name).build_detector(link) for name in names]
        assert isinstance(detectors[0], Detector)
        calibration = collector.collect_empty(num_packets=30)
        for detector in detectors:
            detector.calibrate(calibration)
        human = HumanBody(position=Point(4.0, 3.0))
        windows = [
            collector.collect(human if n % 2 else None, num_packets=6) for n in range(4)
        ]
        # One batch mixing the plugin with the built-ins, bit for bit.
        pairs = [(detector, window) for window in windows for detector in detectors]
        assert score_windows(pairs) == [detector.score(window) for detector, window in pairs]

        # One calibration pass: every threshold as if calibrated alone.
        names = (plugin, "baseline", plugin, "combined")
        traces = [collector.collect_empty(num_packets=30) for _ in names]
        sessions = [config.replace(detector=name).session(link) for name in names]
        calibrate_sessions(list(zip(sessions, traces)))
        for name, session, trace in zip(names, sessions, traces):
            alone = config.replace(detector=name).session(link)
            alone.calibrate(trace)
            assert session.threshold == alone.threshold
            assert np.isfinite(session.threshold) and session.threshold > 0

        # The campaign: the whole-case program equals the window-by-window one.
        evaluation = EvaluationConfig(
            schemes=("baseline", plugin),
            calibration_packets=20,
            window_packets=6,
            windows_per_location=1,
            grid_rows=1,
            grid_cols=2,
            max_bounces=1,
        )
        case_link = evaluation_cases()[0][1]
        scored = run_case(case_link, evaluation, case_seed=5)
        assert {window.scheme for window in scored} == {"baseline", plugin}
        assert scored == run_case_reference(case_link, evaluation, case_seed=5)

    def test_factory_must_return_a_detector(self, link, capsys):
        from repro.cli import main

        message = (
            "detector 'not-a-detector' factory returned object, "
            "not a repro.core.Detector"
        )
        register_detector("not-a-detector")(lambda config, link: object())
        try:
            with pytest.raises(ValueError) as excinfo:
                PipelineConfig(detector="not-a-detector").build_detector(link)
            assert str(excinfo.value) == message
            assert main(["pipeline", "--detector", "not-a-detector", "--windows", "1"]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error: {message}\n"
        finally:
            DEFAULT_REGISTRY.unregister("not-a-detector")


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
            {"loss_probability": "0.1"},
            {"loss_probability": False},
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
        built = config.collector(ChannelSimulator(link))
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

    def test_fixed_threshold_decides_detection(self, link, calibration, occupied_window):
        """An event is detected exactly when its score exceeds the threshold."""
        detector = PipelineConfig(detector="baseline").build_detector(link)
        detector.calibrate(calibration)
        score = detector.score(occupied_window)
        for threshold, detected in ((score / 2.0, True), (score, False), (score * 2.0, False)):
            session = self._session(
                link, calibration, threshold=threshold, threshold_policy="fixed"
            )
            (event,) = session.push_trace(occupied_window)
            assert event.score == score
            assert event.threshold == threshold and event.detected is detected

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
        score = float(session.detector.score(window))
        event = session.emit(float(window.timestamps[-1]), score, 6)
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
            session.emit(
                float(window.timestamps[-1]), float(session.detector.score(window)), seen
            )
            for window, seen in ready
        ]
        assert [e.packets_seen for e in events] == [6, 12, 18]
        assert events == expected

    def test_window_starts_match_advance(self):
        """The array form of the window rule completes the windows advance
        does, for every window size, stride and packet count."""
        frame = CSIFrame(csi=np.ones((1, 30), dtype=complex))
        detector = BaselineDetector(sanitize=False)
        detector.calibrate(CSITrace(csi=np.ones((2, 1, 30), dtype=complex)))
        for size in range(1, 13):
            for stride in range(1, 16):
                session = StreamingSession(
                    detector, window_packets=size, window_stride=stride
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

    @pytest.mark.parametrize(
        "name, value, extra",
        [
            ("threshold_margin", float("nan"), {}),
            ("threshold_margin", float("inf"), {}),
            ("threshold_margin", True, {}),
            ("threshold", float("nan"), {"threshold_policy": "fixed"}),
            ("threshold", float("-inf"), {"threshold_policy": "fixed"}),
            ("threshold", float("nan"), {}),
            ("window_packets", True, {}),
            ("window_packets", 2.0, {}),
            ("window_stride", 1.5, {}),
            ("window_stride", False, {}),
            ("event_history", 2.5, {}),
        ],
    )
    def test_values_the_pipeline_config_rejects_are_rejected(self, name, value, extra):
        """A session built directly checks its numbers as PipelineConfig
        does: a NaN margin or threshold would calibrate and then never
        detect, and a fractional or boolean size would run silently."""
        with pytest.raises(ValueError, match=f"^{name} must be") as excinfo:
            StreamingSession(BaselineDetector(), **{name: value}, **extra)
        assert "\n" not in str(excinfo.value)

    def test_non_detector_rejected_at_construction(self):
        """A stand-in detector fails with one line when the session is built,
        not with an ``AttributeError`` at its first ``advance``."""
        with pytest.raises(TypeError) as excinfo:
            StreamingSession(object(), window_packets=2)
        assert str(excinfo.value) == "detector must be a repro.core.Detector, got object"


# --------------------------------------------------------------------------- #
# cross-link batch scoring
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def multi_links():
    return [link for _, link in evaluation_cases()[:3]]


def _per_link_data(links, *, num_packets=12, seed=100):
    calibrations = {}
    windows = {}
    for i, link in enumerate(links):
        collector = PacketCollector(
            ChannelSimulator(link), seed=seed + 50 + i
        )
        calibrations[link.name] = collector.collect_empty(num_packets=24)
        windows[link.name] = collector.collect(
            HumanBody(position=link.midpoint()), num_packets=num_packets
        )
    return calibrations, windows


def _calibrated_sessions(configs, links, calibrations):
    """One session per link, all calibrated in one :func:`calibrate_sessions` pass."""
    sessions = [config.session(link) for config, link in zip(configs, links)]
    calibrate_sessions([(s, calibrations[link.name]) for s, link in zip(sessions, links)])
    return sessions


def _batched_events(sessions, traces):
    """Stream each trace through its session, score every completed window
    of every link in one :func:`score_windows` call and emit each window's
    event with the packet count at which it completed."""
    ready = []
    for session, trace in zip(sessions, traces):
        for frame in trace:
            window = session.advance(frame)
            if window is not None:
                ready.append((session, window, session.packets_seen))
    scores = score_windows([(session.detector, window) for session, window, _ in ready])
    return [
        session.emit(float(window.timestamps[-1]), score, seen)
        for (session, window, seen), score in zip(ready, scores)
    ]


def _sequential_events(configs, links, calibrations, traces):
    """Each link on its own: a fresh session calibrated and pushed alone."""
    events = []
    for config, link, trace in zip(configs, links, traces):
        session = config.session(link)
        session.calibrate(calibrations[link.name])
        events.extend(session.push_trace(trace))
    return events


class TestScoreWindowsBatch:
    """Windows of several links scored in one batch give the events each
    link's own :meth:`~repro.api.session.StreamingSession.push` gives."""

    @pytest.mark.parametrize("schemes", [("baseline",) * 3, SCHEMES], ids=["one", "mixed"])
    def test_batched_events_match_sequential(self, multi_links, schemes):
        calibrations, windows = _per_link_data(multi_links)
        configs = [
            PipelineConfig(detector=scheme, window_packets=6, calibration_packets=24)
            for scheme in schemes
        ]
        sessions = _calibrated_sessions(configs, multi_links, calibrations)
        traces = [windows[link.name] for link in multi_links]
        events = _batched_events(sessions, traces)
        # 12 packets, window 6 tumbling -> 2 windows per link, 3 links.
        assert len(events) == 6
        expected = _sequential_events(configs, multi_links, calibrations, traces)
        assert [e.to_dict() for e in events] == [e.to_dict() for e in expected]

    def test_list_subcarrier_grids_batch_cleanly(self, multi_links):
        """Frame/trace validation accepts list grids; batch scoring must too."""
        config = PipelineConfig(detector="baseline", window_packets=6, calibration_packets=24)
        calibrations, windows = _per_link_data(multi_links)
        traces = [windows[link.name] for link in multi_links]
        as_list = [
            CSITrace(
                csi=trace.csi,
                timestamps=trace.timestamps,
                subcarrier_indices=list(trace.subcarrier_indices),
                label=trace.label,
            )
            for trace in traces
        ]
        scores = []
        for batch in (as_list, traces):
            sessions = _calibrated_sessions([config] * 3, multi_links, calibrations)
            scores.append([e.score for e in _batched_events(sessions, batch)])
        assert len(scores[0]) == 6 and scores[0] == scores[1]

    def test_windows_scored_late_keep_their_completion_counts(self, multi_links):
        """Overlapping windows collected to the end of every trace and scored
        together carry the packet count at which each one completed."""
        config = PipelineConfig(
            detector="baseline", window_packets=6, window_stride=2, calibration_packets=24
        )
        calibrations, windows = _per_link_data(multi_links)
        sessions = _calibrated_sessions([config] * 3, multi_links, calibrations)
        traces = [windows[link.name] for link in multi_links]
        events = _batched_events(sessions, traces)
        # 12 packets, window 6, stride 2 -> windows complete on 6, 8, 10, 12.
        assert [e.packets_seen for e in events] == [6, 8, 10, 12] * 3
        expected = _sequential_events([config] * 3, multi_links, calibrations, traces)
        assert [e.to_dict() for e in events] == [e.to_dict() for e in expected]

    def test_sessions_record_the_events_they_emit(self, multi_links):
        """After a batch, each session holds the history, event count and
        packet count that pushing its link alone leaves."""
        config = PipelineConfig(detector="combined", window_packets=6, calibration_packets=24)
        calibrations, windows = _per_link_data(multi_links)
        sessions = _calibrated_sessions([config] * 3, multi_links, calibrations)
        _batched_events(sessions, [windows[link.name] for link in multi_links])
        for session, link in zip(sessions, multi_links):
            alone = config.session(link)
            alone.calibrate(calibrations[link.name])
            alone.push_trace(windows[link.name])
            assert [e.to_dict() for e in session.events] == [e.to_dict() for e in alone.events]
            assert session.events_emitted == alone.events_emitted == 2
            assert session.packets_seen == alone.packets_seen == 12

    def test_fixed_threshold_sessions_skip_the_replay(self, multi_links):
        """One calibration pass over mixed threshold policies: a fixed
        threshold stays, the others are the ones calibrating alone derives."""
        calibrations, _ = _per_link_data(multi_links)
        common = dict(window_packets=6, calibration_packets=24)
        configs = [
            PipelineConfig(detector="baseline", threshold=1e9, threshold_policy="fixed", **common),
            PipelineConfig(detector="baseline", **common),
            PipelineConfig(detector="subcarrier", **common),
        ]
        sessions = _calibrated_sessions(configs, multi_links, calibrations)
        assert sessions[0].threshold == 1e9
        for config, session, link in zip(configs, sessions, multi_links):
            alone = config.session(link)
            alone.calibrate(calibrations[link.name])
            assert session.is_calibrated
            assert session.threshold == alone.threshold

    def test_empty_batches_are_no_ops(self):
        assert score_windows([]) == []
        assert calibrate_sessions([]) is None


class TestArrayReplay:
    """The ``"calibration"`` threshold replay scores the prepared
    calibration stack reshaped into whole tumbling windows."""

    def test_trailing_packets_are_dropped(self, multi_links):
        """35 calibration packets and 10-packet windows: three windows, the
        last 5 packets dropped; every threshold is the one each session
        gets alone and the one its detector's own window scores give."""
        config = PipelineConfig(detector="combined", window_packets=10, calibration_packets=35)
        traces = [
            PacketCollector(ChannelSimulator(link), seed=70 + n).collect_empty(num_packets=35)
            for n, link in enumerate(multi_links)
        ]
        sessions = [config.session(link) for link in multi_links]
        calibrate_sessions(list(zip(sessions, traces)))
        for session, link, trace in zip(sessions, multi_links, traces):
            alone = config.session(link)
            alone.calibrate(trace)
            windows = [trace[i * 10 : (i + 1) * 10] for i in range(3)]
            largest = max(alone.detector.score(window) for window in windows)
            assert session.threshold == alone.threshold == largest * config.threshold_margin

    def test_short_trace_raises_before_any_calibration(self, multi_links):
        """One trace shorter than a window fails the whole pass with the
        one-line error, and no session's detector is calibrated."""
        config = PipelineConfig(detector="baseline", window_packets=10, calibration_packets=30)
        sessions = [config.session(link) for link in multi_links]
        traces = [
            PacketCollector(ChannelSimulator(link), seed=80 + n).collect_empty(
                num_packets=9 if n == 1 else 30
            )
            for n, link in enumerate(multi_links)
        ]
        with pytest.raises(ValueError, match="has 9 packets but .* at least one full window of 10"):
            calibrate_sessions(list(zip(sessions, traces)))
        assert not any(session.is_calibrated for session in sessions)


# --------------------------------------------------------------------------- #
# satellites: collector rng
# --------------------------------------------------------------------------- #
class TestCollectorRng:
    def test_explicit_rng_matches_equivalent_seed(self, link):
        """A generator passed as ``seed`` is used as is: ``ensure_rng(5)``
        draws what ``seed=5`` draws."""
        simulator = ChannelSimulator(link)
        trace_a = PacketCollector(simulator, seed=5).collect_empty(num_packets=4)
        trace_b = PacketCollector(simulator, seed=ensure_rng(5)).collect_empty(num_packets=4)
        np.testing.assert_array_equal(trace_a.csi, trace_b.csi)

    def test_shared_rng_is_one_stream(self, link):
        """Two collectors on one generator continue the same stream."""
        simulator = ChannelSimulator(link)
        rng = ensure_rng(5)
        first = PacketCollector(simulator, seed=rng).collect_empty(num_packets=4)
        second = PacketCollector(simulator, seed=rng).collect_empty(num_packets=4)
        assert not np.array_equal(first.csi, second.csi)


# --------------------------------------------------------------------------- #
# configs take NumPy scalars
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize(
    "config_name, field, value, expected",
    [
        ("PipelineConfig", "window_packets", np.int64(10), 10),
        ("PipelineConfig", "threshold_margin", np.float32(2.0), 2.0),
        ("FleetConfig", "links", np.int64(8), 8),
        ("EvaluationConfig", "snr_db", np.float32(30.0), 30.0),
    ],
)
def test_config_stores_a_numpy_scalar_as_a_python_number(config_name, field, value, expected):
    # Each used to fail as "must be an integer" or "must be a finite number".
    from repro.experiments.runner import EvaluationConfig
    from repro.fleet import FleetConfig

    cls = {
        "PipelineConfig": PipelineConfig,
        "FleetConfig": FleetConfig,
        "EvaluationConfig": EvaluationConfig,
    }[config_name]
    config = cls(**{field: value})
    stored = getattr(config, field)
    assert stored == expected and type(stored) is type(expected)
    assert cls.from_dict(json.loads(json.dumps(config.to_dict()))) == config


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
            {"loss_probability": "0.1"},
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
