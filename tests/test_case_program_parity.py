"""Parity suite for the whole-case array program.

Every batched path introduced by the case program — multi-window collection
through one impairment plan, stacked sanitisation, shared-sanitised
scoring, the planned ``run_case`` and the geometry-shared fleet traffic
builder — must be *byte-identical* to the retained scalar reference it
replaced (for the fleet builder: the per-link full-pool oracle in
``tests/traffic_oracle.py``, whose pool the fleet's frames are a prefix of).
These tests pin that contract with exact ``==`` comparisons on floats and
arrays; any ulp of drift is a regression.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.api.config import PipelineConfig
from repro.api.monitor import (
    calibrate_sessions,
    calibrate_shared,
    prepare_stack,
    score_windows,
    score_windows_shared,
)
from repro.channel.channel import ChannelSimulator
from repro.channel.human import HumanBody
from repro.core.detector import (
    BaselineDetector,
    Detector,
    SubcarrierWeightingDetector,
)
from repro.csi.calibration import sanitize_csi_array, sanitize_trace
from repro.csi.collector import PacketCollector
from repro.csi.trace import CSITrace
from repro.experiments.runner import (
    EvaluationConfig,
    build_detectors,
    run_case,
    run_case_reference,
)
from repro.experiments.scenarios import evaluation_cases
from repro.api.session import window_starts
from repro.fleet.traffic import build_fleet_traffic
from tests.traffic_oracle import full_pool_traffic


@pytest.fixture(scope="module")
def links():
    return [link for _, link in evaluation_cases()]


def assert_traces_equal(got: CSITrace, expected: CSITrace) -> None:
    assert np.array_equal(got.csi, expected.csi)
    assert np.array_equal(got.timestamps, expected.timestamps)
    assert tuple(got.subcarrier_indices) == tuple(expected.subcarrier_indices)
    assert got.label == expected.label


# --------------------------------------------------------------------------- #
# collector: collect_batch vs sequential collect calls
# --------------------------------------------------------------------------- #
class TestCollectBatchParity:
    @pytest.mark.parametrize("loss_probability", [0.0, 0.3])
    def test_matches_sequential_collects(self, links, loss_probability):
        """One shared plan, same draws: batch == per-window collect, bitwise.

        The loss axis lives here: lost pings consume loss draws and shift
        timestamps, and the batched acquisition loop must replay the streak
        resets of separate ``collect`` calls exactly.
        """
        link = links[0]
        simulator = ChannelSimulator(link)
        human = HumanBody(position=link.midpoint())
        scenes = [None, [human], None, [human]]
        counts = [30, 7, 12, 7]
        labels = ["cal", "occ", "", "occ"]

        batched = PacketCollector(
            simulator,
            loss_probability=loss_probability,
            seed=55,
        )
        cleans = simulator.clean_cfr_batch(scenes)
        got = batched.collect_batch(cleans, counts, labels=labels)

        reference = PacketCollector(
            simulator,
            loss_probability=loss_probability,
            seed=55,
        )
        for trace, scene, count, label in zip(got, scenes, counts, labels):
            expected = reference.collect(scene, num_packets=count, label=label)
            assert_traces_equal(trace, expected)

    def test_repeated_scenes_share_candidates(self, links):
        """More packets than candidate scenes is the whole point of the plan."""
        link = links[1]
        simulator = ChannelSimulator(link)
        collector = PacketCollector(simulator, seed=8)
        cleans = simulator.clean_cfr_batch([None])
        traces = collector.collect_batch(
            np.concatenate([cleans, cleans], axis=0), [40, 40]
        )
        reference = PacketCollector(simulator, seed=8)
        for trace in traces:
            assert_traces_equal(
                trace, reference.collect(None, num_packets=40, label="")
            )

    def test_validation(self, links):
        simulator = ChannelSimulator(links[0])
        collector = PacketCollector(simulator, seed=2)
        cleans = simulator.clean_cfr_batch([None, None])
        with pytest.raises(ValueError, match="windows, antennas"):
            collector.collect_batch(cleans[0], [5])
        with pytest.raises(ValueError, match="packet counts"):
            collector.collect_batch(cleans, [5])
        with pytest.raises(ValueError, match=">= 1 packets"):
            collector.collect_batch(cleans, [5, 0])
        with pytest.raises(ValueError, match="labels"):
            collector.collect_batch(cleans, [5, 5], labels=["only-one"])


# --------------------------------------------------------------------------- #
# stacked sanitisation
# --------------------------------------------------------------------------- #
def _shift_grid(trace: CSITrace, offset: int) -> CSITrace:
    """The same CSI on a shifted subcarrier grid (a different frequency map)."""
    return CSITrace(
        csi=trace.csi,
        timestamps=trace.timestamps,
        subcarrier_indices=tuple(i + offset for i in trace.subcarrier_indices),
        label=trace.label,
    )


class TestStackSanitisation:
    def _traces(self, links, *, packets=(9, 5, 7, 9)):
        out = []
        for n, (count, link) in enumerate(zip(packets, links)):
            collector = PacketCollector(
                ChannelSimulator(link), seed=40 + n
            )
            out.append(collector.collect_empty(num_packets=count, label=f"t{n}"))
        return out

    def test_concatenated_traces_match_each_trace_alone(self, links):
        """Traces of different lengths sanitised in one pass over their
        packets give each trace's own sanitisation, bit for bit."""
        traces = self._traces(links[:4])
        cleaned = sanitize_csi_array(
            np.concatenate([trace.csi for trace in traces]), traces[0].subcarrier_indices
        )
        offsets = np.cumsum([0] + [trace.num_packets for trace in traces])
        for trace, lo, hi in zip(traces, offsets[:-1], offsets[1:]):
            assert np.array_equal(cleaned[lo:hi], sanitize_trace(trace).csi)

    def test_prepare_stack_cleans_only_the_rows_sanitising_jobs_read(self, links):
        """Rows a sanitising job reads are cleaned as if alone; a row only a
        non-sanitising job reads keeps its raw CSI in the raw view."""
        traces = self._traces(links[:3], packets=(7, 7, 7))
        raw = np.stack([trace.csi for trace in traces])
        cleaning = BaselineDetector()
        keeping = BaselineDetector(sanitize=False)
        jobs = [([cleaning, cleaning], np.array([2, 0])), ([keeping], np.array([1]))]
        views = prepare_stack(raw, traces[0].subcarrier_indices, jobs)
        assert sorted(views) == [False, True]
        assert views[False] is raw
        for row in (0, 2):
            assert np.array_equal(views[True][row], sanitize_trace(traces[row]).csi)


# --------------------------------------------------------------------------- #
# shared calibration + scoring vs standalone detectors
# --------------------------------------------------------------------------- #
class TestSharedScoring:
    def _data(self, link, *, windows=4, seed=60):
        collector = PacketCollector(ChannelSimulator(link), seed=seed + 1)
        calibration = collector.collect_empty(num_packets=40)
        human = HumanBody(position=link.midpoint())
        traces = [
            collector.collect([human] if n % 2 else None, num_packets=10)
            for n in range(windows)
        ]
        return calibration, traces

    def test_matches_standalone_detectors(self, links):
        """One sanitisation pass serves all three schemes, bit for bit."""
        link = links[0]
        config = EvaluationConfig()
        calibration, windows = self._data(link)

        shared = build_detectors(link, config)
        calibrate_shared(shared, calibration)
        scores = score_windows_shared(shared, windows)

        standalone = build_detectors(link, config)
        for name, detector in standalone.items():
            detector.calibrate(calibration)
            expected = [float(detector.score(window)) for window in windows]
            assert scores[name] == expected

    def test_mixed_grids_match_standalone(self, links):
        link = links[1]
        calibration, windows = self._data(link, seed=70)
        windows = [
            _shift_grid(window, 2) if n % 2 else window
            for n, window in enumerate(windows)
        ]
        shared = {"baseline": BaselineDetector(), "subcarrier": SubcarrierWeightingDetector()}
        calibrate_shared(shared, calibration)
        scores = score_windows_shared(shared, windows)
        for name, cls in (("baseline", BaselineDetector), ("subcarrier", SubcarrierWeightingDetector)):
            detector = cls()
            detector.calibrate(calibration)
            assert scores[name] == [float(detector.score(w)) for w in windows]

    def test_non_sanitizing_detector_sees_raw_windows(self, links):
        """In one kernel call, each detector is handed the trace as its own
        ``sanitize`` setting prepares it: raw or sanitised."""
        link = links[2]
        calibration, windows = self._data(link, seed=80)

        class Recorder(Detector):
            """Records every trace its kernels are handed, per detector."""

            scheme = "recorder"

            def __init__(self, *, sanitize=True):
                super().__init__(sanitize=sanitize)
                self.seen = []

            @classmethod
            def _calibration_state(cls, detectors, csi):
                for detector, trace in zip(detectors, csi):
                    detector.seen.append(trace)
                return super()._calibration_state(detectors, csi)

            @classmethod
            def stacked_scores(cls, detectors, csi, scratch=None):
                for detector, window in zip(detectors, csi):
                    detector.seen.append(window)
                return np.zeros(len(detectors))

        detectors = {
            "raw": Recorder(sanitize=False),
            "clean": Recorder(),
            "baseline": BaselineDetector(),
        }
        calibrate_shared(detectors, calibration)
        scores = score_windows_shared(detectors, windows)
        traces = [calibration, *windows]
        for name, prepare in (("raw", lambda trace: trace), ("clean", sanitize_trace)):
            seen = detectors[name].seen
            assert len(seen) == len(traces)
            for got, trace in zip(seen, traces):
                assert got.tobytes() == prepare(trace).csi.tobytes()
        assert scores["raw"] == scores["clean"] == [0.0] * len(windows)
        reference = BaselineDetector()
        reference.calibrate(calibration)
        assert scores["baseline"] == [float(reference.score(w)) for w in windows]


# --------------------------------------------------------------------------- #
# two-grid regression for the stacked baseline batch
# --------------------------------------------------------------------------- #
class TestMixedGridBatchScoring:
    def test_two_grid_batch_matches_sequential(self, links):
        """Links on different frequency grids batch per group, same scores.

        Regression for the mixed-grid fallback: the batch scorer used to
        drop to a per-window scalar loop whenever the sanitised windows
        spanned more than one subcarrier grid; it now groups by grid and
        batches each group.  Scores must stay identical to per-link
        sequential scoring either way.
        """
        config = PipelineConfig(
            detector="baseline", window_packets=6, calibration_packets=24
        )
        pair = links[:2]
        calibrations = {}
        windows = {}
        for n, link in enumerate(pair):
            collector = PacketCollector(
                ChannelSimulator(link), seed=95 + n
            )
            calibration = collector.collect_empty(num_packets=24)
            window = collector.collect(
                HumanBody(position=link.midpoint()), num_packets=12
            )
            if n == 1:  # second link lives on a shifted grid
                calibration = _shift_grid(calibration, 4)
                window = _shift_grid(window, 4)
            calibrations[link.name] = calibration
            windows[link.name] = window

        sessions = [config.session(link) for link in pair]
        calibrate_sessions(
            [(session, calibrations[link.name]) for session, link in zip(sessions, pair)]
        )
        ready = []
        for session, link in zip(sessions, pair):
            for frame in windows[link.name]:
                window = session.advance(frame)
                if window is not None:
                    ready.append((session, window, session.packets_seen))
        scores = score_windows([(session.detector, window) for session, window, _ in ready])
        assert len(scores) == 4

        for link in pair:
            session = config.session(link)
            session.calibrate(calibrations[link.name])
            expected = session.push_trace(windows[link.name])
            got = [
                score
                for (batched, _, _), score in zip(ready, scores)
                if batched.link_name == link.name
            ]
            assert got == [e.score for e in expected]


# --------------------------------------------------------------------------- #
# whole-case program vs the retained scalar reference
# --------------------------------------------------------------------------- #
class TestRunCaseParity:
    CONFIGS = [
        EvaluationConfig(
            calibration_packets=40,
            window_packets=10,
            windows_per_location=2,
            grid_rows=2,
            grid_cols=2,
            max_bounces=1,
        ),
        EvaluationConfig(
            calibration_packets=30,
            window_packets=8,
            windows_per_location=1,
            grid_rows=1,
            grid_cols=3,
            gain_drift_std_db=0.0,
            background_max_people=0,
            schemes=("baseline", "subcarrier"),
        ),
        EvaluationConfig(
            calibration_packets=30,
            window_packets=6,
            windows_per_location=1,
            grid_rows=2,
            grid_cols=1,
            clutter_reflection=0.0,
            use_music_spectrum=True,
            schemes=("combined",),
        ),
    ]

    @pytest.mark.parametrize("config_index", range(len(CONFIGS)))
    def test_matches_reference(self, links, config_index):
        """The array program replays the scalar campaign float for float.

        The configs sweep the scene axes (grid shapes, drift on/off,
        background on/off, clutter on/off) and the scheme axes (all three,
        pairs, the MUSIC variant alone); every ScoredWindow — score,
        metadata and ordering — must match the window-by-window reference
        exactly.
        """
        config = self.CONFIGS[config_index]
        for case_index, link in enumerate(links[:2]):
            seed = 123 + 1000 * case_index
            assert run_case(link, config, case_seed=seed) == run_case_reference(
                link, config, case_seed=seed
            )

    def test_randomized_seeds_match_reference(self, links):
        config = self.CONFIGS[0]
        rng = np.random.default_rng(2026)
        for seed in rng.integers(0, 2**31 - 1, size=3):
            link = links[int(rng.integers(0, len(links)))]
            assert run_case(link, config, case_seed=int(seed)) == run_case_reference(
                link, config, case_seed=int(seed)
            )


# --------------------------------------------------------------------------- #
# fleet: batched traffic builder
# --------------------------------------------------------------------------- #
FLEET_TRAFFIC_KW = dict(
    seed=7,
    duration_s=3.0,
    pool_packets=20,
    occupied_fraction=0.5,
    class_mix={"normal": 0.8, "busy": 0.15, "abusive": 0.05},
    class_rates_hz={"normal": 5.0, "busy": 20.0, "abusive": 60.0},
)


def assert_pool_prefix_matches(traffic, expected, pipeline, pool_packets):
    """*traffic* equals the full-pool *expected* up to the pool frames its
    windows read, which are exactly ``0 … min(pool, last window end) - 1``;
    a link that plans no window holds no calibration capture."""
    assert traffic.profile == expected.profile
    assert np.array_equal(traffic.arrivals, expected.arrivals)
    starts = window_starts(
        traffic.num_arrivals, pipeline.window_packets, pipeline.window_stride
    )
    if starts.size:
        assert_traces_equal(traffic.calibration, expected.calibration)
    else:
        assert traffic.calibration is None
    last_end = int(starts[-1]) + pipeline.window_packets if starts.size else 0
    frames = traffic.pool_csi.shape[0]
    assert frames == min(pool_packets, last_end)
    assert traffic.pool_cycle == expected.pool_cycle == pool_packets
    assert np.array_equal(traffic.pool_csi, expected.pool_csi[:frames])
    assert np.array_equal(traffic.pool_occupied, expected.pool_occupied[:frames])
    assert traffic.subcarrier_indices == expected.subcarrier_indices


class TestFleetTrafficParity:
    @pytest.mark.parametrize("occupied_fraction", [0.0, 0.5, 1.0])
    def test_matches_per_link_builder(self, links, occupied_fraction):
        """Geometry-shared cleans + prefix acquisition == per-link full pool."""
        pipeline = PipelineConfig(detector="baseline", calibration_packets=30)
        kw = dict(FLEET_TRAFFIC_KW, occupied_fraction=occupied_fraction)
        indices = list(range(8))
        geometry = [links[i % len(links)] for i in indices]
        batched = build_fleet_traffic(indices, geometry, pipeline=pipeline, **kw)
        assert any(traffic.pool_csi.shape[0] for traffic in batched)
        assert any(traffic.calibration is None for traffic in batched)
        for index, link, traffic in zip(indices, geometry, batched):
            expected = full_pool_traffic(index, link, pipeline=pipeline, **kw)
            assert_pool_prefix_matches(traffic, expected, pipeline, kw["pool_packets"])

    def test_lossy_pipeline_matches_per_link_builder(self, links):
        # A 10-packet window makes link 3's 13 arrivals read pool frames.
        pipeline = PipelineConfig(
            detector="baseline",
            calibration_packets=30,
            loss_probability=0.25,
            window_packets=10,
        )
        batched = build_fleet_traffic([3], [links[3]], pipeline=pipeline, **FLEET_TRAFFIC_KW)
        expected = full_pool_traffic(3, links[3], pipeline=pipeline, **FLEET_TRAFFIC_KW)
        assert batched[0].pool_csi.shape[0] > 0
        assert_pool_prefix_matches(
            batched[0], expected, pipeline, FLEET_TRAFFIC_KW["pool_packets"]
        )

    def test_misaligned_links_rejected(self, links):
        pipeline = PipelineConfig(detector="baseline")
        with pytest.raises(ValueError, match="links"):
            build_fleet_traffic([0, 1], [links[0]], pipeline=pipeline, **FLEET_TRAFFIC_KW)


# --------------------------------------------------------------------------- #
# observability: the plan/synthesize phases are visible
# --------------------------------------------------------------------------- #
class TestCaseProgramObs:
    def test_run_case_records_plan_and_synthesize_spans(self, links):
        config = TestRunCaseParity.CONFIGS[1]
        with obs.recording() as recorder:
            run_case(links[0], config, case_seed=9)
        histograms = recorder.snapshot().metrics.histograms
        assert histograms["collect.plan"].count == 1
        assert histograms["collect.batch_synthesize"].count == 1

    def test_fleet_traffic_records_plan_and_synthesize_spans(self, links):
        pipeline = PipelineConfig(detector="baseline", calibration_packets=30)
        indices = list(range(4))
        geometry = [links[i % len(links)] for i in indices]
        with obs.recording() as recorder:
            build_fleet_traffic(indices, geometry, pipeline=pipeline, **FLEET_TRAFFIC_KW)
        histograms = recorder.snapshot().metrics.histograms
        assert histograms["collect.plan"].count == len(indices)
        assert histograms["collect.batch_synthesize"].count == 1
