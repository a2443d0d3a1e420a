"""Integration-level tests for the end-to-end channel simulator."""

from __future__ import annotations

import numpy as np
import pytest

from repro.channel import ChannelSimulator, HumanBody, Link, Point, PropagationModel
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

    @pytest.mark.parametrize("power", [0.0, -1.0, np.nan, np.inf])
    def test_invalid_tx_power_rejected(self, room, power):
        # The simulator transmits at the link's power: NaN or inf would
        # give non-finite CSI.
        with pytest.raises(ValueError, match="tx_power"):
            Link(room=room, tx=Point(2.0, 2.0), rx=Point(5.0, 2.0), tx_power=power)


class TestStaticPaths:
    def test_static_paths_cached_and_los_first(self, simulator):
        first = simulator.static_paths()
        second = simulator.static_paths()
        assert [p.kind for p in first][0] == "los"
        assert len(first) == len(second)

    def test_human_adds_reflection_path(self, simulator, off_path_human):
        empty = simulator.paths(None)
        with_human = simulator.paths(off_path_human)
        assert len(with_human) == len(empty) + 1
        assert with_human[-1].kind == "human"

    def test_blocking_human_attenuates_los(self, simulator, human):
        empty = simulator.paths(None)
        occupied = simulator.paths(human)
        assert occupied[0].kind == "los"
        assert occupied[0].amplitude_gain < empty[0].amplitude_gain

    def test_multiple_people_each_add_a_path(self, simulator):
        people = [
            HumanBody(position=Point(3.0, 4.0)),
            HumanBody(position=Point(5.0, 2.0)),
        ]
        paths = simulator.paths(people)
        assert sum(1 for p in paths if p.kind == "human") == 2


class TestCfrSynthesis:
    def test_clean_cfr_shape(self, simulator):
        cfr = simulator.clean_cfr(None)
        assert cfr.shape == (3, 30)
        assert np.all(np.isfinite(cfr))

    def test_blocking_person_drops_mean_power(self, simulator, human):
        empty_power = np.mean(np.abs(simulator.clean_cfr(None)) ** 2)
        occupied_power = np.mean(np.abs(simulator.clean_cfr(human)) ** 2)
        drop_db = power_to_db(occupied_power) - power_to_db(empty_power)
        assert drop_db < -1.0

    def test_off_path_person_changes_channel_slightly(self, simulator, off_path_human):
        empty = simulator.clean_cfr(None)
        occupied = simulator.clean_cfr(off_path_human)
        relative = np.linalg.norm(occupied - empty) / np.linalg.norm(empty)
        assert 0.0 < relative < 0.5

    def test_far_person_weaker_than_near_person(self, simulator):
        near = simulator.clean_cfr(HumanBody(position=Point(4.0, 3.8)))
        far = simulator.clean_cfr(HumanBody(position=Point(1.0, 5.5)))
        empty = simulator.clean_cfr(None)
        assert np.linalg.norm(near - empty) > np.linalg.norm(far - empty)

    def test_tx_power_scales_cfr(self, room):
        base = Link(room=room, tx=Point(2.0, 3.0), rx=Point(6.0, 3.0), tx_power=1.0)
        boosted = Link(room=room, tx=Point(2.0, 3.0), rx=Point(6.0, 3.0), tx_power=4.0)
        cfr_base = ChannelSimulator(base).clean_cfr(None)
        cfr_boost = ChannelSimulator(boosted).clean_cfr(None)
        assert np.allclose(np.abs(cfr_boost), 2.0 * np.abs(cfr_base))

    def test_explicit_propagation_wins_over_link_power(self, room):
        boosted = Link(room=room, tx=Point(2.0, 3.0), rx=Point(6.0, 3.0), tx_power=4.0)
        explicit = ChannelSimulator(boosted, propagation=PropagationModel(tx_power=1.0))
        base = ChannelSimulator(Link(room=room, tx=Point(2.0, 3.0), rx=Point(6.0, 3.0)))
        assert np.array_equal(explicit.clean_cfr(None), base.clean_cfr(None))
