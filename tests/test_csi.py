"""Tests for the CSI measurement plane: frames, traces, collection, calibration, RSS."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.channel import HumanBody, ImpairmentModel, Point
from repro.csi import (
    CSIFrame,
    CSITrace,
    PacketCollector,
    rss_change_db,
    sanitize_trace,
    subcarrier_rss_db,
)
from repro.csi.rssi import mean_rss_change_db, rss_variance_db, trace_rss_change_db
from repro.utils.rng import child_rng, draw_word, ensure_rng


def _random_csi(rng: np.random.Generator, packets: int = 0) -> np.ndarray:
    shape = (packets, 3, 30) if packets else (3, 30)
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


class TestCSIFrame:
    def test_basic_accessors(self, rng):
        frame = CSIFrame(csi=_random_csi(rng), timestamp=1.5, sequence_number=7)
        assert frame.num_antennas == 3
        assert frame.num_subcarriers == 30
        assert frame.amplitude().shape == (3, 30)
        assert frame.phase().shape == (3, 30)
        assert np.allclose(frame.power(), frame.amplitude() ** 2)
        assert frame.frequencies().shape == (30,)

    def test_1d_input_promoted_to_single_antenna(self, rng):
        frame = CSIFrame(csi=_random_csi(rng)[0])
        assert frame.num_antennas == 1

    def test_subcarrier_count_mismatch_rejected(self, rng):
        with pytest.raises(ValueError):
            CSIFrame(csi=rng.normal(size=(3, 29)) + 0j)

    def test_non_finite_rejected(self, rng):
        csi = _random_csi(rng)
        csi[0, 0] = np.nan
        with pytest.raises(ValueError):
            CSIFrame(csi=csi)

    def test_antenna_view(self, rng):
        frame = CSIFrame(csi=_random_csi(rng))
        single = frame.antenna(1)
        assert single.num_antennas == 1
        assert np.allclose(single.csi[0], frame.csi[1])
        with pytest.raises(IndexError):
            frame.antenna(5)

    def test_subcarrier_rss_db_matches_power(self, rng):
        frame = CSIFrame(csi=_random_csi(rng))
        assert np.allclose(frame.subcarrier_rss_db(), 10 * np.log10(frame.power()))


class TestCSITrace:
    def test_container_protocol(self, rng):
        trace = CSITrace(csi=_random_csi(rng, packets=5), label="x")
        assert len(trace) == 5
        assert trace.num_antennas == 3 and trace.num_subcarriers == 30
        frames = list(trace)
        assert len(frames) == 5
        assert isinstance(trace[0], CSIFrame)
        assert isinstance(trace[1:3], CSITrace)
        assert len(trace[1:3]) == 2

    def test_default_timestamps_at_50pps(self, rng):
        trace = CSITrace(csi=_random_csi(rng, packets=4))
        assert np.allclose(np.diff(trace.timestamps), 0.02)

    def test_timestamp_length_mismatch_rejected(self, rng):
        with pytest.raises(ValueError):
            CSITrace(csi=_random_csi(rng, packets=4), timestamps=np.zeros(3))

    def test_mean_amplitude_shape(self, rng):
        trace = CSITrace(csi=_random_csi(rng, packets=6))
        assert trace.mean_amplitude().shape == (3, 30)
        assert trace.mean_csi().shape == (3, 30)

    def test_from_frames_and_concatenate(self, rng):
        frames = [CSIFrame(csi=_random_csi(rng), timestamp=i * 0.02) for i in range(4)]
        trace = CSITrace.from_frames(frames, label="joined")
        assert trace.num_packets == 4
        double = CSITrace.concatenate([trace, trace])
        assert double.num_packets == 8

    def test_from_frames_rejects_empty_and_mismatched(self, rng):
        with pytest.raises(ValueError):
            CSITrace.from_frames([])
        a = CSIFrame(csi=_random_csi(rng))
        b = CSIFrame(csi=_random_csi(rng)[0:1])
        with pytest.raises(ValueError):
            CSITrace.from_frames([a, b])

    def test_from_frames_explicit_timestamps_override_frames(self, rng):
        frames = [CSIFrame(csi=_random_csi(rng), timestamp=i * 0.02) for i in range(4)]
        explicit = np.array([1.0, 1.5, 2.25, 9.0])
        trace = CSITrace.from_frames(frames, timestamps=explicit)
        assert np.array_equal(trace.timestamps, explicit)
        # Without the argument the frames' own timestamps are used.
        default = CSITrace.from_frames(frames)
        assert np.array_equal(default.timestamps, [0.0, 0.02, 0.04, 0.06])

    def test_from_frames_timestamps_shape_checked(self, rng):
        frames = [CSIFrame(csi=_random_csi(rng)) for _ in range(3)]
        with pytest.raises(ValueError, match="timestamps"):
            CSITrace.from_frames(frames, timestamps=np.zeros(2))

    def test_split(self, rng):
        trace = CSITrace(csi=_random_csi(rng, packets=10))
        chunks = trace.split(3)
        assert sum(len(c) for c in chunks) == 10
        with pytest.raises(ValueError):
            trace.split(11)

    def test_antenna_view(self, rng):
        trace = CSITrace(csi=_random_csi(rng, packets=5))
        single = trace.antenna(2)
        assert single.num_antennas == 1
        with pytest.raises(IndexError):
            trace.antenna(3)

    def test_save_load_roundtrip(self, rng, tmp_path):
        trace = CSITrace(csi=_random_csi(rng, packets=5), label="persisted")
        path = tmp_path / "trace.npz"
        trace.save(path)
        loaded = CSITrace.load(path)
        assert loaded.label == "persisted"
        assert np.allclose(loaded.csi, trace.csi)
        assert np.allclose(loaded.timestamps, trace.timestamps)
        assert loaded.subcarrier_indices == trace.subcarrier_indices


class TestPacketCollector:
    def test_collect_count_and_timestamps(self, collector):
        trace = collector.collect_empty(num_packets=10)
        assert trace.num_packets == 10
        assert np.all(np.diff(trace.timestamps) > 0)

    def test_collect_with_loss_still_returns_requested_count(self, simulator):
        lossy = PacketCollector(simulator, loss_probability=0.4, seed=3)
        trace = lossy.collect_empty(num_packets=20)
        assert trace.num_packets == 20
        # Losses stretch the capture in time beyond the loss-free duration.
        loss_free_duration = 20 / lossy.packet_rate_hz
        assert trace.timestamps[-1] > loss_free_duration

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        loss=st.floats(0.05, 0.9),
        counts=st.lists(st.integers(1, 30), min_size=1, max_size=3),
    )
    def test_lazy_loss_stream_draws_what_an_eager_one_draws(
        self, simulator, seed, loss, counts
    ):
        # The eager stream: the loss generator derived from the collector's
        # first draw, as its construction orders them.
        eager = child_rng(draw_word(ensure_rng(seed)), "loss")
        lossy = PacketCollector(simulator, loss_probability=loss, seed=seed)
        cleans = simulator.clean_cfr_batch([None] * len(counts))
        traces = lossy.collect_batch(cleans, counts)
        for trace, count in zip(traces, counts):
            slots = np.cumsum(eager.geometric(1.0 - loss, size=count))
            expected = slots / lossy.packet_rate_hz
            assert trace.timestamps.tobytes() == expected.tobytes()

    def test_loss_free_collector_never_builds_a_loss_generator(self, simulator):
        collector = PacketCollector(simulator, seed=4)
        collector.collect_empty(num_packets=5)
        collector.collect_walk([Point(3.0, 2.0), Point(3.0, 4.0)])
        assert collector._loss_rng is None

    def test_invalid_parameters(self, simulator):
        with pytest.raises(ValueError):
            PacketCollector(simulator, packet_rate_hz=0.0)
        with pytest.raises(ValueError):
            PacketCollector(simulator, loss_probability=1.5)
        with pytest.raises(ValueError):
            PacketCollector(simulator).collect_empty(num_packets=0)

    @pytest.mark.parametrize("loss", [False, "0.5", np.nan])
    def test_mistyped_loss_probability_rejected(self, simulator, loss):
        with pytest.raises(ValueError, match="loss_probability must be a finite number") as info:
            PacketCollector(simulator, loss_probability=loss)
        assert "\n" not in str(info.value)

    @pytest.mark.parametrize("rate", [np.nan, np.inf, -np.inf, True])
    def test_non_finite_packet_rate_rejected(self, simulator, rate):
        # NaN used to stamp NaN timestamps and inf all zeros.
        with pytest.raises(ValueError, match="packet_rate_hz must be a finite number"):
            PacketCollector(simulator, packet_rate_hz=rate)

    @pytest.mark.parametrize("count", [2.7, 3.0, True, "3"])
    def test_non_integer_packet_count_rejected(self, simulator, count):
        # 2.7 used to be truncated into a 2-packet window.
        cleans = simulator.clean_cfr_batch([None])
        with pytest.raises(ValueError, match="packet count must be an integer"):
            PacketCollector(simulator, seed=1).collect_batch(cleans, [count])

    def test_certain_loss_rejected_at_construction(self, simulator):
        # Regression: loss_probability=1.0 used to spin forever inside
        # collect(); it is now rejected before any capture can start.
        with pytest.raises(ValueError, match=r"loss_probability must be within \[0, 1\)"):
            PacketCollector(simulator, loss_probability=1.0)

    def test_pathological_loss_stream_aborts_with_clear_error(self, simulator):
        # A valid but near-certain loss probability must hit the retry cap
        # instead of capturing (almost) forever: one geometric lost-ping gap
        # here exceeds the cap with probability ~1 - 1e-4.
        lossy = PacketCollector(simulator, loss_probability=1 - 1e-9, seed=0)
        with pytest.raises(RuntimeError, match="consecutive pings"):
            lossy.collect_empty(num_packets=1)

    def test_walk_with_every_ping_lost_raises(self, simulator):
        lossy = PacketCollector(simulator, loss_probability=1 - 1e-9, seed=0)
        positions = [Point(3.0, 1.0 + 0.5 * i) for i in range(6)]
        with pytest.raises(RuntimeError, match="every ping of the 6-position walk was lost"):
            lossy.collect_walk(positions)

    def test_collect_walk(self, collector, link):
        positions = [Point(3.0, 1.0), Point(3.0, 3.0), Point(3.0, 5.0)]
        trace = collector.collect_walk(positions)
        assert trace.num_packets == 3
        with pytest.raises(ValueError):
            collector.collect_walk([])

    def test_collect_walk_applies_loss(self, simulator, link):
        # Regression: collect_walk used to ignore loss_probability entirely.
        # Lost pings consume their trajectory position and shift timestamps
        # but produce no CSI, so a lossy walk yields fewer packets while the
        # surviving timestamps stay on the ping grid.
        positions = [
            Point(2.0 + 0.1 * i, 2.0 + 0.05 * i) for i in range(40)
        ]
        lossy = PacketCollector(simulator, loss_probability=0.5, seed=123)
        trace = lossy.collect_walk(positions)
        assert 0 < trace.num_packets < len(positions)
        interval = 1.0 / lossy.packet_rate_hz
        ping_slots = np.rint(trace.timestamps / interval)
        assert np.allclose(trace.timestamps, ping_slots * interval)
        assert len(np.unique(ping_slots)) == trace.num_packets

    def test_collect_walk_without_loss_matches_trajectory_sampling(self, simulator):
        # With loss disabled the walk impairs one packet per position, in
        # position order, on the collector's generator after its loss word.
        positions = [Point(3.0, 1.0 + 0.5 * i) for i in range(6)]
        trace = PacketCollector(simulator, seed=5).collect_walk(positions)
        scenes = [HumanBody(position=position) for position in positions]
        rng = ensure_rng(5)
        draw_word(rng)
        reference = ImpairmentModel().apply(
            simulator.clean_cfr_batch(scenes),
            np.arange(len(positions)),
            simulator.subcarrier_indices,
            rng,
        )
        assert np.array_equal(trace.csi, reference)
        assert trace.num_packets == len(positions)

    def test_occupied_trace_differs_from_empty(self, collector, human):
        empty = collector.collect_empty(num_packets=10)
        occupied = collector.collect(human, num_packets=10)
        assert not np.allclose(empty.mean_amplitude(), occupied.mean_amplitude())


class TestCalibration:
    def test_sanitize_trace_shape_and_label(self, empty_trace):
        sanitized = sanitize_trace(empty_trace)
        assert sanitized.num_packets == empty_trace.num_packets
        assert sanitized.label == empty_trace.label
        assert np.allclose(sanitized.amplitude(), empty_trace.amplitude())

    def test_sanitize_reduces_inter_packet_phase_spread(self, collector):
        trace = collector.collect_empty(num_packets=20)
        raw_spread = np.std(np.angle(trace.csi[:, 0, 15]))
        sanitized = sanitize_trace(trace)
        clean_spread = np.std(np.angle(sanitized.csi[:, 0, 15]))
        assert clean_spread < raw_spread


class TestRss:
    def test_subcarrier_rss_db(self, rng):
        csi = rng.normal(size=(3, 30)) + 1j * rng.normal(size=(3, 30))
        assert np.allclose(subcarrier_rss_db(csi), 10 * np.log10(np.abs(csi) ** 2))

    def test_rss_change_zero_for_identical(self, rng):
        csi = rng.normal(size=(3, 30)) + 1j * rng.normal(size=(3, 30))
        assert np.allclose(rss_change_db(csi, csi), 0.0)

    def test_trace_rss_change_shape(self, occupied_trace, empty_trace):
        change = trace_rss_change_db(occupied_trace, empty_trace)
        assert change.shape == (occupied_trace.num_packets, 3, 30)

    def test_blocking_person_mean_change_negative(self, occupied_trace, empty_trace):
        change = mean_rss_change_db(occupied_trace, empty_trace)
        assert change.mean() < 0.0

    def test_rss_variance_non_negative(self, empty_trace):
        assert np.all(rss_variance_db(empty_trace) >= 0.0)
