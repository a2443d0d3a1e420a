"""Unit and property-based tests for the 2-D geometry primitives."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.channel.geometry import (
    Point,
    Room,
    Segment,
    angle_between,
    path_length,
    segment_blocked_by_disc,
    segment_point_deltas,
)

finite_coord = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)


class TestPoint:
    def test_arithmetic(self):
        a, b = Point(1.0, 2.0), Point(3.0, -1.0)
        assert (a + b) == Point(4.0, 1.0)
        assert (b - a) == Point(2.0, -3.0)
        assert (a * 2.0) == Point(2.0, 4.0)
        assert (2.0 * a) == Point(2.0, 4.0)

    def test_norm_and_distance(self):
        assert Point(3.0, 4.0).norm() == pytest.approx(5.0)
        assert Point(0.0, 0.0).distance_to(Point(3.0, 4.0)) == pytest.approx(5.0)

    def test_normalized(self):
        unit = Point(0.0, 5.0).normalized()
        assert unit.norm() == pytest.approx(1.0)
        assert unit.y == pytest.approx(1.0)

    def test_normalize_zero_raises(self):
        with pytest.raises(ValueError):
            Point(0.0, 0.0).normalized()

    def test_rotated_quarter_turn(self):
        rotated = Point(1.0, 0.0).rotated(math.pi / 2)
        assert rotated.x == pytest.approx(0.0, abs=1e-12)
        assert rotated.y == pytest.approx(1.0)

    def test_dot_and_cross(self):
        assert Point(1.0, 0.0).dot(Point(0.0, 1.0)) == 0.0
        assert Point(1.0, 0.0).cross(Point(0.0, 1.0)) == 1.0

    @given(finite_coord, finite_coord)
    def test_distance_symmetry(self, x, y):
        a, b = Point(x, y), Point(y, x)
        assert a.distance_to(b) == pytest.approx(b.distance_to(a))


class TestSegment:
    def test_length_direction_normal(self):
        seg = Segment(Point(0.0, 0.0), Point(4.0, 0.0))
        assert seg.length() == pytest.approx(4.0)
        assert seg.direction() == Point(1.0, 0.0)
        assert seg.normal() == Point(0.0, 1.0)
        assert seg.midpoint() == Point(2.0, 0.0)

    def test_mirror_point(self):
        seg = Segment(Point(0.0, 0.0), Point(10.0, 0.0))
        assert seg.mirror_point(Point(3.0, 2.0)) == Point(3.0, -2.0)

    def test_mirror_point_is_involution(self):
        seg = Segment(Point(1.0, 1.0), Point(4.0, 5.0))
        p = Point(2.0, -1.0)
        twice = seg.mirror_point(seg.mirror_point(p))
        assert twice.x == pytest.approx(p.x)
        assert twice.y == pytest.approx(p.y)

    def test_intersection_crossing(self):
        a = Segment(Point(0.0, 0.0), Point(2.0, 2.0))
        b = Segment(Point(0.0, 2.0), Point(2.0, 0.0))
        crossing = a.intersection_with(b)
        assert crossing is not None
        assert crossing.x == pytest.approx(1.0)
        assert crossing.y == pytest.approx(1.0)

    def test_intersection_parallel_is_none(self):
        a = Segment(Point(0.0, 0.0), Point(1.0, 0.0))
        b = Segment(Point(0.0, 1.0), Point(1.0, 1.0))
        assert a.intersection_with(b) is None

    def test_intersection_disjoint_is_none(self):
        a = Segment(Point(0.0, 0.0), Point(1.0, 0.0))
        b = Segment(Point(5.0, -1.0), Point(5.0, 1.0))
        assert a.intersection_with(b) is None

    def test_distance_to_point_interior_and_endpoint(self):
        seg = Segment(Point(0.0, 0.0), Point(4.0, 0.0))
        assert seg.distance_to_point(Point(2.0, 3.0)) == pytest.approx(3.0)
        assert seg.distance_to_point(Point(-3.0, 4.0)) == pytest.approx(5.0)

    def test_contains_projection(self):
        seg = Segment(Point(0.0, 0.0), Point(4.0, 0.0))
        assert seg.contains_projection(Point(1.0, 7.0))
        assert not seg.contains_projection(Point(-1.0, 0.0))


class TestRoom:
    def test_rectangular_has_four_walls(self):
        room = Room.rectangular(8.0, 6.0)
        assert len(room.walls) == 4
        assert room.diagonal() == pytest.approx(10.0)

    def test_contains_with_margin(self):
        room = Room.rectangular(8.0, 6.0)
        assert room.contains(Point(4.0, 3.0))
        assert not room.contains(Point(-0.1, 3.0))
        assert not room.contains(Point(0.2, 3.0), margin=0.5)

    def test_invalid_dimensions_rejected(self):
        with pytest.raises(ValueError):
            Room.rectangular(0.0, 5.0)
        with pytest.raises(ValueError):
            Room.rectangular(5.0, -1.0)

    def test_add_obstacle_extends_walls(self):
        room = Room.rectangular(8.0, 6.0)
        room.add_obstacle(Segment(Point(1.0, 1.0), Point(2.0, 1.0)), material="wood")
        assert len(room.walls) == 5
        assert room.walls[-1].material == "wood"


class TestHelpers:
    def test_angle_between_signs(self):
        origin = Point(0.0, 0.0)
        reference = Point(1.0, 0.0)
        assert angle_between(origin, Point(1.0, 0.0), reference) == pytest.approx(0.0)
        assert angle_between(origin, Point(0.0, 1.0), reference) == pytest.approx(math.pi / 2)
        assert angle_between(origin, Point(0.0, -1.0), reference) == pytest.approx(-math.pi / 2)

    def test_path_length(self):
        points = [Point(0.0, 0.0), Point(3.0, 0.0), Point(3.0, 4.0)]
        assert path_length(points) == pytest.approx(7.0)
        assert path_length(points[:1]) == 0.0

    def test_segment_blocked_by_disc(self):
        start, end = Point(0.0, 0.0), Point(4.0, 0.0)
        assert segment_blocked_by_disc(start, end, Point(2.0, 0.1), radius=0.3)
        assert not segment_blocked_by_disc(start, end, Point(2.0, 1.0), radius=0.3)
        assert not segment_blocked_by_disc(start, end, Point(2.0, 0.0), radius=0.0)

    @given(finite_coord, finite_coord, st.floats(min_value=0.01, max_value=5.0))
    def test_disc_blocking_consistent_with_distance(self, x, y, radius):
        start, end = Point(-10.0, 0.0), Point(10.0, 0.0)
        center = Point(x, y)
        blocked = segment_blocked_by_disc(start, end, center, radius)
        distance = Segment(start, end).distance_to_point(center)
        assert blocked == (distance <= radius)

    def test_segment_whose_squared_length_overflows_gives_finite_offsets(self):
        """A 1e160 m leg squares to inf; its projection stays finite and
        puts the closest point where the exact geometry does."""
        starts = np.array([[1.0, 2.0], [1.0, 2.0]])
        ends = np.array([[1e160, 2.0], [4.0, 2.0]])
        points = np.array([[3.0, 4.0], [3.0, 4.0]])
        with np.errstate(over="ignore"):
            dx, dy = segment_point_deltas(starts, ends, points)
        assert dx.tolist() == [0.0, 0.0] and dy.tolist() == [-2.0, -2.0]
