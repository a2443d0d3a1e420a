"""Integration-level tests for the end-to-end channel simulator."""

from __future__ import annotations

import numpy as np
import pytest

from repro.channel import ChannelSimulator, HumanBody, ImpairmentModel, Link, Point
from repro.utils.convert import power_to_db


class TestLink:
    def test_default_array_faces_transmitter(self, link):
        assert link.array is not None
        assert link.array.num_elements == 3
        direction = (link.tx - link.rx).normalized()
        assert link.array.broadside.x == pytest.approx(direction.x)
        assert link.array.broadside.y == pytest.approx(direction.y)

    def test_distance_and_midpoint(self, link):
        assert link.distance() == pytest.approx(4.0)
        assert link.midpoint() == Point(4.0, 3.0)

    def test_coincident_endpoints_rejected(self, room):
        with pytest.raises(ValueError):
            Link(room=room, tx=Point(2.0, 2.0), rx=Point(2.0, 2.0))

    def test_invalid_tx_power_rejected(self, room):
        with pytest.raises(ValueError):
            Link(room=room, tx=Point(2.0, 2.0), rx=Point(5.0, 2.0), tx_power=0.0)


class TestStaticPaths:
    def test_static_paths_cached_and_los_first(self, clean_simulator):
        first = clean_simulator.static_paths()
        second = clean_simulator.static_paths()
        assert [p.kind for p in first][0] == "los"
        assert len(first) == len(second)

    def test_human_adds_reflection_path(self, clean_simulator, off_path_human):
        empty = clean_simulator.paths(None)
        with_human = clean_simulator.paths(off_path_human)
        assert len(with_human) == len(empty) + 1
        assert with_human[-1].kind == "human"

    def test_blocking_human_attenuates_los(self, clean_simulator, human):
        empty = clean_simulator.paths(None)
        occupied = clean_simulator.paths(human)
        assert occupied[0].kind == "los"
        assert occupied[0].amplitude_gain < empty[0].amplitude_gain

    def test_multiple_people_each_add_a_path(self, clean_simulator):
        people = [
            HumanBody(position=Point(3.0, 4.0)),
            HumanBody(position=Point(5.0, 2.0)),
        ]
        paths = clean_simulator.paths(people)
        assert sum(1 for p in paths if p.kind == "human") == 2


class TestCfrSynthesis:
    def test_clean_cfr_shape(self, clean_simulator):
        cfr = clean_simulator.clean_cfr(None)
        assert cfr.shape == (3, 30)
        assert np.all(np.isfinite(cfr))

    def test_blocking_person_drops_mean_power(self, clean_simulator, human):
        empty_power = np.mean(np.abs(clean_simulator.clean_cfr(None)) ** 2)
        occupied_power = np.mean(np.abs(clean_simulator.clean_cfr(human)) ** 2)
        drop_db = power_to_db(occupied_power) - power_to_db(empty_power)
        assert drop_db < -1.0

    def test_off_path_person_changes_channel_slightly(self, clean_simulator, off_path_human):
        empty = clean_simulator.clean_cfr(None)
        occupied = clean_simulator.clean_cfr(off_path_human)
        relative = np.linalg.norm(occupied - empty) / np.linalg.norm(empty)
        assert 0.0 < relative < 0.5

    def test_far_person_weaker_than_near_person(self, clean_simulator):
        near = clean_simulator.clean_cfr(HumanBody(position=Point(4.0, 3.8)))
        far = clean_simulator.clean_cfr(HumanBody(position=Point(1.0, 5.5)))
        empty = clean_simulator.clean_cfr(None)
        assert np.linalg.norm(near - empty) > np.linalg.norm(far - empty)

    def test_tx_power_scales_cfr(self, room):
        base = Link(room=room, tx=Point(2.0, 3.0), rx=Point(6.0, 3.0), tx_power=1.0)
        boosted = Link(room=room, tx=Point(2.0, 3.0), rx=Point(6.0, 3.0), tx_power=4.0)
        from repro.channel.propagation import PropagationModel

        cfr_base = ChannelSimulator(
            base, propagation=PropagationModel(tx_power=base.tx_power),
            impairments=ImpairmentModel().noiseless(),
        ).clean_cfr(None)
        cfr_boost = ChannelSimulator(
            boosted, propagation=PropagationModel(tx_power=boosted.tx_power),
            impairments=ImpairmentModel().noiseless(),
        ).clean_cfr(None)
        assert np.allclose(np.abs(cfr_boost), 2.0 * np.abs(cfr_base))


class TestSampling:
    def test_sample_packet_shape_and_noise(self, simulator):
        a = simulator.sample_packet(None, seed=1)
        b = simulator.sample_packet(None, seed=2)
        assert a.shape == (3, 30)
        assert not np.allclose(a, b)

    def test_sample_burst_shape(self, simulator, human):
        burst = simulator.sample_burst(human, num_packets=7, seed=3)
        assert burst.shape == (7, 3, 30)

    def test_sample_burst_rejects_zero_packets(self, simulator):
        with pytest.raises(ValueError):
            simulator.sample_burst(None, num_packets=0)

    def test_sample_trajectory_one_packet_per_position(self, simulator):
        positions = [Point(3.0, 2.0), Point(3.5, 2.5), Point(4.0, 3.0)]
        packets = simulator.sample_trajectory(positions, seed=4)
        assert packets.shape == (3, 3, 30)

    def test_with_impairments_returns_new_simulator(self, simulator):
        clean = simulator.with_impairments(ImpairmentModel().noiseless())
        assert clean is not simulator
        assert clean.link is simulator.link

    def test_with_impairments_clone_does_not_mutate_parent_stream(self, link):
        # Regression: the clone used to share the parent's generator, so
        # sampling from the clone silently advanced the parent's stream.
        parent = ChannelSimulator(link, seed=42)
        clone = parent.with_impairments(ImpairmentModel(snr_db=10.0))
        state_after_clone = parent._rng.bit_generator.state
        clone.sample_packet(None)
        clone.sample_burst(None, num_packets=5)
        assert parent._rng.bit_generator.state == state_after_clone

    def test_with_impairments_clone_stream_is_deterministic(self, link):
        # Two identically-seeded parents derive identically-seeded clones.
        a = ChannelSimulator(link, seed=42).with_impairments(ImpairmentModel(snr_db=10.0))
        b = ChannelSimulator(link, seed=42).with_impairments(ImpairmentModel(snr_db=10.0))
        assert np.array_equal(a.sample_packet(None), b.sample_packet(None))

    def test_sample_burst_reproducible_and_varied(self, simulator, human):
        a = simulator.sample_burst(human, num_packets=5, seed=8)
        b = simulator.sample_burst(human, num_packets=5, seed=8)
        assert np.array_equal(a, b)
        assert not np.allclose(a[0], a[1])
