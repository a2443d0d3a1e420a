"""The batch-invariance contract of acquisition and stacked scoring.

Acquisition: a collector draws every random quantity per packet, in packet
order, from its own streams, so collecting a list of windows in one
:meth:`~repro.csi.collector.PacketCollector.collect_batch` call or split
over any run of consecutive calls gives byte-identical traces.

Calibration: a detector's state depends only on its own trace and settings:
calibrated inside any group :func:`~repro.api.monitor.calibrate_sessions` is
handed — any size, any order, schemes, estimators, geometries, angular gates
and packet counts mixed — its state and replay threshold are bit-identical
to calibrating its session alone, under every numeric backend.

Scoring: a window's score depends only on its detector's calibration and its
packets: scored inside any batch :func:`~repro.api.monitor.score_windows` is
handed — any size, any order, windows of several links, schemes and packet
counts mixed, the same window under several detectors — it is bit-identical
to its batch of one, ``detector.score(window)``, under every numeric backend.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.aoa.bartlett import BartlettEstimator
from repro.aoa.music import MusicEstimator
from repro.aoa.smoothed import SmoothedMusicEstimator
from repro.api.monitor import calibrate_sessions, score_windows
from repro.api.session import StreamingSession
from repro.backend import use_backend
from repro.channel.antenna import UniformLinearArray
from repro.channel.channel import ChannelSimulator
from repro.channel.geometry import Point
from repro.channel.human import HumanBody
from repro.core.detector import (
    BaselineDetector,
    SubcarrierPathWeightingDetector,
    SubcarrierWeightingDetector,
)
from repro.csi.collector import PacketCollector
from repro.experiments.scenarios import evaluation_cases

BACKENDS = ("exact", "fast")
LINKS = 3
#: Packet counts of the windows: windows of both shapes mix in one batch.
WINDOW_PACKETS = (6, 9)
#: Every scheme variant, built for each link.
DETECTORS = (
    lambda link: BaselineDetector(),
    lambda link: BaselineDetector(sanitize=False),
    lambda link: SubcarrierWeightingDetector(),
    lambda link: SubcarrierWeightingDetector(use_stability_ratio=False),
    lambda link: SubcarrierPathWeightingDetector(BartlettEstimator(array=link.array)),
    lambda link: SubcarrierPathWeightingDetector(MusicEstimator(array=link.array)),
    lambda link: SubcarrierPathWeightingDetector(
        SmoothedMusicEstimator(array=link.array)
    ),
)
NUM_DETECTORS = LINKS * len(DETECTORS)
#: An empty and an occupied window per link and packet count.
NUM_WINDOWS = LINKS * len(WINDOW_PACKETS) * 2


@pytest.fixture(scope="module")
def candidates():
    """A simulator and its candidate scenes: empty, occupied, zero power."""
    link = evaluation_cases()[0][1]
    simulator = ChannelSimulator(link, seed=3)
    cleans = simulator.clean_cfr_batch([None, [HumanBody(position=link.midpoint())]])
    return simulator, np.concatenate([cleans, np.zeros_like(cleans[:1])])


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    backend=st.sampled_from(BACKENDS),
    loss_probability=st.sampled_from((0.0, 0.3)),
    windows=st.lists(
        st.tuples(st.integers(0, 1), st.integers(1, 40)), min_size=0, max_size=7
    ),
    zero_power=st.tuples(st.integers(0, 7), st.integers(1, 40)),
    cuts=st.sets(st.integers(1, 7)),
)
def test_collect_batch_is_invariant_to_splitting(
    candidates, backend, loss_probability, windows, zero_power, cuts
):
    simulator, cleans = candidates
    position, count = zero_power
    windows = list(windows)
    windows.insert(position, (2, count))
    scenes = cleans[[scene for scene, _ in windows]]
    counts = [count for _, count in windows]
    labels = [f"w{i}" for i in range(len(windows))]
    bounds = [0, *sorted(cut for cut in cuts if cut < len(windows)), len(windows)]

    def collector():
        return PacketCollector(simulator, loss_probability=loss_probability, seed=9)

    with use_backend(backend):
        whole = collector().collect_batch(scenes, counts, labels=labels)
        split_collector = collector()
        split = []
        for start, end in zip(bounds, bounds[1:]):
            split += split_collector.collect_batch(
                scenes[start:end], counts[start:end], labels=labels[start:end]
            )
    assert len(split) == len(whole)
    for got, expected in zip(split, whole):
        assert got.csi.tobytes() == expected.csi.tobytes()
        assert got.timestamps.tobytes() == expected.timestamps.tobytes()
        assert got.label == expected.label


@pytest.fixture(scope="module")
def population():
    """Per backend: calibrated detectors of three links, windows of those
    links (two packet counts, empty and occupied) and every batch-of-one
    score."""
    links = [link for _, link in evaluation_cases()[:LINKS]]
    windows = []
    calibrations = []
    for n, link in enumerate(links):
        collector = PacketCollector(ChannelSimulator(link, seed=30 + n), seed=50 + n)
        calibrations.append(collector.collect_empty(num_packets=24))
        human = HumanBody(position=link.midpoint())
        for count in WINDOW_PACKETS:
            windows.append(collector.collect_empty(num_packets=count))
            windows.append(collector.collect(human, num_packets=count))
    out = {}
    for backend in BACKENDS:
        with use_backend(backend):
            detectors = []
            for link, calibration in zip(links, calibrations):
                for build in DETECTORS:
                    detector = build(link)
                    detector.calibrate(calibration)
                    detectors.append(detector)
            alone = np.array(
                [[detector.score(window) for window in windows] for detector in detectors]
            )
        out[backend] = (detectors, windows, alone)
    return out


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    backend=st.sampled_from(BACKENDS),
    picks=st.lists(
        st.tuples(
            st.integers(0, NUM_DETECTORS - 1), st.integers(0, NUM_WINDOWS - 1)
        ),
        min_size=1,
        max_size=30,
    ),
)
def test_every_score_equals_its_batch_of_one(population, backend, picks):
    detectors, windows, alone = population[backend]
    with use_backend(backend):
        scores = score_windows([(detectors[d], windows[w]) for d, w in picks])
    for (d, w), score in zip(picks, scores):
        assert score == alone[d, w]


@pytest.mark.parametrize("backend", BACKENDS)
def test_single_pair_batch_is_the_standalone_score(population, backend):
    detectors, windows, alone = population[backend]
    with use_backend(backend):
        for d in range(0, len(detectors), 4):
            for w in range(0, len(windows), 5):
                assert score_windows([(detectors[d], windows[w])]) == [alone[d, w]]


#: Calibration-trace packet counts: groups mix traces of both lengths.
CALIBRATION_PACKETS = (24, 31)
#: Calibration variants: every scheme, every estimator, several angular gates.
CALIBRATED = (
    *DETECTORS,
    lambda link: SubcarrierPathWeightingDetector(
        BartlettEstimator(array=link.array), theta_min_deg=-35.0, theta_max_deg=50.0
    ),
    lambda link: SubcarrierPathWeightingDetector(
        MusicEstimator(array=link.array), theta_min_deg=-70.0, theta_max_deg=20.0
    ),
    lambda link: SubcarrierPathWeightingDetector(
        SmoothedMusicEstimator(array=link.array), theta_min_deg=-10.0, theta_max_deg=80.0
    ),
)


def _session(link, build) -> StreamingSession:
    return StreamingSession(build(link), window_packets=8)


def _state(session: StreamingSession) -> tuple:
    """Every calibrated array of a session's detector, by bytes, plus its
    gate, snapshot count and replay threshold."""
    detector = session.detector
    state = [detector._profile_amplitude.tobytes(), session.threshold]
    if isinstance(detector, SubcarrierPathWeightingDetector):
        state += [
            detector._calibration_gram.tobytes(),
            detector._calibration_packets,
            detector._path_weights.tobytes(),
            (detector.theta_min_deg, detector.theta_max_deg),
        ]
    return tuple(state)


@pytest.fixture(scope="module")
def calibration_population():
    """(link, variant, trace) candidates and, per backend, each one's state
    when its session calibrates alone."""
    links = [link for _, link in evaluation_cases()[:LINKS]]
    candidates = []
    for n, link in enumerate(links):
        collector = PacketCollector(ChannelSimulator(link, seed=70 + n), seed=90 + n)
        traces = [collector.collect_empty(num_packets=c) for c in CALIBRATION_PACKETS]
        candidates += [(link, build, trace) for build in CALIBRATED for trace in traces]
    alone = {}
    for backend in BACKENDS:
        with use_backend(backend):
            states = []
            for link, build, trace in candidates:
                session = _session(link, build)
                session.calibrate(trace)
                states.append(_state(session))
        alone[backend] = states
    return candidates, alone


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    backend=st.sampled_from(BACKENDS),
    picks=st.lists(
        st.integers(0, LINKS * len(CALIBRATED) * len(CALIBRATION_PACKETS) - 1),
        min_size=1,
        max_size=16,
    ),
)
def test_every_calibration_equals_its_batch_of_one(calibration_population, backend, picks):
    candidates, alone = calibration_population
    sessions = [_session(*candidates[i][:2]) for i in picks]
    with use_backend(backend):
        calibrate_sessions(
            [(session, candidates[i][2]) for session, i in zip(sessions, picks)]
        )
    for session, i in zip(sessions, picks):
        assert _state(session) == alone[backend][i]


def _key(estimator) -> object:
    return SubcarrierPathWeightingDetector(estimator).batch_key()


def test_combined_key_is_what_the_spectra_read():
    """Placement never splits a kernel group; every setting a spectrum
    reads does."""
    array = UniformLinearArray()
    moved = UniformLinearArray(reference=Point(3.0, -2.0), broadside=Point(0.0, 1.0))
    for estimator in (BartlettEstimator, MusicEstimator, SmoothedMusicEstimator):
        assert _key(estimator(array=array)) == _key(estimator(array=moved))
    # The evaluation links differ only in placement: one group.
    links = [link for _, link in evaluation_cases()]
    assert len({_key(BartlettEstimator(array=link.array)) for link in links}) == 1

    class SubclassedBartlett(BartlettEstimator):
        pass

    reference = _key(BartlettEstimator(array=array))
    splits = [
        SubclassedBartlett(array=array),
        MusicEstimator(array=array),
        BartlettEstimator(array=UniformLinearArray(num_elements=4)),
        BartlettEstimator(array=UniformLinearArray(spacing=array.spacing * 0.9)),
        BartlettEstimator(array=array, frequency_hz=5.18e9),
        BartlettEstimator(array=array, angle_grid_deg=np.linspace(-90.0, 90.0, 91)),
    ]
    assert all(_key(estimator) != reference for estimator in splits)
    assert _key(MusicEstimator(array=array, num_sources=1)) != _key(
        MusicEstimator(array=array, num_sources=2)
    )
