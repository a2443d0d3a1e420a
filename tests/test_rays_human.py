"""Tests for the image-method ray tracer and the human body model."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.channel.geometry import Point, Room, Segment
from repro.channel.human import HumanBody
from repro.channel.rays import Path, RayTracer, assign_angles_of_arrival


@pytest.fixture()
def square_room() -> Room:
    return Room.rectangular(8.0, 6.0)


@pytest.fixture()
def tracer(square_room: Room) -> RayTracer:
    return RayTracer(square_room, max_bounces=1)


class TestPath:
    def test_length_and_bounces(self):
        path = Path(vertices=(Point(0.0, 0.0), Point(3.0, 0.0), Point(3.0, 4.0)), kind="wall")
        assert path.length() == pytest.approx(7.0)
        assert path.num_bounces() == 1
        assert len(path.segments()) == 2

    def test_with_gain_multiplies(self):
        path = Path(vertices=(Point(0.0, 0.0), Point(1.0, 0.0)), kind="los", amplitude_gain=0.5)
        assert path.with_gain(0.5).amplitude_gain == pytest.approx(0.25)

    def test_with_aoa(self):
        path = Path(vertices=(Point(0.0, 0.0), Point(1.0, 0.0)), kind="los")
        assert path.with_aoa(0.3).aoa_rad == pytest.approx(0.3)


class TestRayTracer:
    def test_los_always_first(self, tracer):
        paths = tracer.trace(Point(2.0, 3.0), Point(6.0, 3.0))
        assert paths[0].kind == "los"
        assert paths[0].length() == pytest.approx(4.0)

    def test_single_bounce_count_in_rectangle(self, tracer):
        paths = tracer.trace(Point(2.0, 3.0), Point(6.0, 3.0))
        wall_paths = [p for p in paths if p.kind == "wall"]
        # A rectangular room offers one specular reflection per wall.
        assert len(wall_paths) == 4

    def test_reflection_geometry_symmetric_link(self, tracer):
        paths = tracer.trace(Point(2.0, 3.0), Point(6.0, 3.0))
        south = [p for p in paths if p.kind == "wall" and p.vertices[1].y == pytest.approx(0.0)]
        assert len(south) == 1
        # For a symmetric link the reflection point is below the midpoint.
        assert south[0].vertices[1].x == pytest.approx(4.0)

    def test_reflected_path_longer_than_los(self, tracer):
        paths = tracer.trace(Point(2.0, 3.0), Point(6.0, 3.0))
        los_length = paths[0].length()
        for path in paths[1:]:
            assert path.length() > los_length

    def test_wall_paths_carry_material_gain(self, tracer, square_room):
        paths = tracer.trace(Point(2.0, 3.0), Point(6.0, 3.0))
        for path in paths:
            if path.kind == "wall":
                assert 0.0 < path.amplitude_gain < 1.0
            else:
                assert path.amplitude_gain == pytest.approx(1.0)

    def test_max_bounces_zero_gives_los_only(self, square_room):
        tracer = RayTracer(square_room, max_bounces=0)
        paths = tracer.trace(Point(2.0, 3.0), Point(6.0, 3.0))
        assert len(paths) == 1 and paths[0].kind == "los"

    def test_two_bounce_adds_paths(self, square_room):
        one = RayTracer(square_room, max_bounces=1).trace(Point(2.0, 3.0), Point(6.0, 2.0))
        two = RayTracer(square_room, max_bounces=2).trace(Point(2.0, 3.0), Point(6.0, 2.0))
        assert len(two) > len(one)
        assert any(p.num_bounces() == 2 for p in two)

    def test_endpoints_outside_room_rejected(self, tracer):
        with pytest.raises(ValueError):
            tracer.trace(Point(-1.0, 3.0), Point(6.0, 3.0))
        with pytest.raises(ValueError):
            tracer.trace(Point(2.0, 3.0), Point(9.0, 3.0))

    def test_negative_max_bounces_rejected(self, square_room):
        with pytest.raises(ValueError):
            RayTracer(square_room, max_bounces=-1)

    def test_assign_angles_of_arrival_los_is_zero(self, tracer):
        tx, rx = Point(2.0, 3.0), Point(6.0, 3.0)
        paths = assign_angles_of_arrival(tracer.trace(tx, rx), rx, broadside=tx - rx)
        assert paths[0].aoa_rad == pytest.approx(0.0, abs=1e-9)

    def test_assign_angles_symmetric_reflections(self, tracer):
        tx, rx = Point(2.0, 3.0), Point(6.0, 3.0)
        paths = assign_angles_of_arrival(tracer.trace(tx, rx), rx, broadside=tx - rx)
        # For a link centred between the north and south walls, those two
        # bounces arrive at mirror-image angles; the end walls arrive along
        # the link axis (0 or 180 degrees) and are excluded here.
        oblique = sorted(
            np.degrees(p.aoa_rad)
            for p in paths
            if p.kind == "wall" and 1.0 < abs(np.degrees(p.aoa_rad)) < 179.0
        )
        assert len(oblique) == 2
        assert oblique[0] == pytest.approx(-oblique[1], abs=1e-6)


class TestHumanBody:
    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            HumanBody(position=Point(0, 0), radius=0.0)
        with pytest.raises(ValueError):
            HumanBody(position=Point(0, 0), min_attenuation=1.0)
        with pytest.raises(ValueError):
            HumanBody(position=Point(0, 0), reflection_coefficient=1.5)
        with pytest.raises(ValueError):
            HumanBody(position=Point(0, 0), shadow_extent_wavelengths=0.0)

    @pytest.mark.parametrize(
        "x, y", [(np.nan, 1.0), (1.0, np.nan), (np.inf, 1.0), (1.0, -np.inf)]
    )
    def test_non_finite_position_rejected(self, x, y):
        # A NaN position used to synthesise an all-NaN CFR with no error.
        with pytest.raises(ValueError, match="position must be finite") as excinfo:
            HumanBody(position=Point(x, y))
        assert "\n" not in str(excinfo.value)

    def test_attenuation_deepest_on_path(self):
        body = HumanBody(position=Point(0.0, 0.0), min_attenuation=0.4)
        assert body.attenuation_for_offset(0.0) == pytest.approx(0.4)
        assert body.attenuation_for_offset(5.0) == pytest.approx(1.0, abs=1e-6)

    def test_attenuation_monotone_in_offset(self):
        body = HumanBody(position=Point(0.0, 0.0))
        offsets = np.linspace(0.0, 3.0, 50)
        values = [body.attenuation_for_offset(o) for o in offsets]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_attenuation_rejects_negative_offset(self):
        with pytest.raises(ValueError):
            HumanBody(position=Point(0, 0)).attenuation_for_offset(-0.1)

    def test_shadow_attenuation_blocking_vs_far(self):
        los = Path(vertices=(Point(0.0, 0.0), Point(4.0, 0.0)), kind="los")
        blocking = HumanBody(position=Point(2.0, 0.0))
        distant = HumanBody(position=Point(2.0, 3.0))
        assert blocking.shadow_attenuation(los) < 0.6
        assert distant.shadow_attenuation(los) == pytest.approx(1.0, abs=1e-3)

    def test_obstructs_segment(self):
        body = HumanBody(position=Point(2.0, 0.1), radius=0.25)
        assert body.obstructs_segment(Segment(Point(0.0, 0.0), Point(4.0, 0.0)))
        assert not body.obstructs_segment(Segment(Point(0.0, 2.0), Point(4.0, 2.0)))

    def test_reflection_path_structure(self):
        body = HumanBody(position=Point(2.0, 1.0))
        path = body.reflection_path(Point(0.0, 0.0), Point(4.0, 0.0))
        assert path.kind == "human"
        assert path.vertices[1] == Point(2.0, 1.0)
        assert path.amplitude_gain > 0

    def test_reflection_weaker_when_farther_from_link(self):
        tx, rx = Point(0.0, 0.0), Point(4.0, 0.0)
        near = HumanBody(position=Point(2.0, 0.8)).reflection_path(tx, rx)
        far = HumanBody(position=Point(2.0, 4.0)).reflection_path(tx, rx)
        assert near.amplitude_gain > far.amplitude_gain

    def test_excess_path_length_positive_off_path(self):
        body = HumanBody(position=Point(2.0, 1.0))
        assert body.excess_path_length(Point(0.0, 0.0), Point(4.0, 0.0)) > 0

    def test_excess_path_length_zero_on_path(self):
        body = HumanBody(position=Point(2.0, 0.0))
        assert body.excess_path_length(Point(0.0, 0.0), Point(4.0, 0.0)) == pytest.approx(0.0)

    def test_moved_to_preserves_parameters(self):
        body = HumanBody(position=Point(0.0, 0.0), min_attenuation=0.3, radius=0.3)
        moved = body.moved_to(Point(1.0, 1.0))
        assert moved.position == Point(1.0, 1.0)
        assert moved.min_attenuation == 0.3
        assert moved.radius == 0.3

    @given(st.floats(min_value=0.0, max_value=10.0))
    def test_attenuation_bounded(self, offset):
        body = HumanBody(position=Point(0.0, 0.0), min_attenuation=0.45)
        value = body.attenuation_for_offset(offset)
        assert 0.45 - 1e-9 <= value <= 1.0 + 1e-9
