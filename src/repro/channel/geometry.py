"""2-D geometry primitives for the ray-bouncing simulator.

The paper's link model (Section III-B, Fig. 1) is planar: the transmitter,
receiver, walls and the person all live in the horizontal plane, and heights
only shift the effective link distance slightly.  We therefore keep the
geometry strictly two-dimensional, which makes the image (mirror) method for
specular reflections exact and cheap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence

import numpy as np

from repro.backend import active_backend


@dataclass(frozen=True)
class Point:
    """A point (or position vector) in the room plane, in metres."""

    x: float
    y: float

    def __add__(self, other: "Point") -> "Point":
        return Point(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "Point") -> "Point":
        return Point(self.x - other.x, self.y - other.y)

    def __mul__(self, scalar: float) -> "Point":
        return Point(self.x * scalar, self.y * scalar)

    __rmul__ = __mul__

    def dot(self, other: "Point") -> float:
        """Dot product with another point/vector."""
        return self.x * other.x + self.y * other.y

    def cross(self, other: "Point") -> float:
        """Z-component of the 2-D cross product."""
        return self.x * other.y - self.y * other.x

    def norm(self) -> float:
        """Euclidean length of the vector."""
        return math.hypot(self.x, self.y)

    def distance_to(self, other: "Point") -> float:
        """Euclidean distance to another point."""
        return math.hypot(self.x - other.x, self.y - other.y)

    def normalized(self) -> "Point":
        """Unit vector in the same direction.

        Raises
        ------
        ValueError
            If the vector has (near-)zero length.
        """
        n = self.norm()
        if n < 1e-12:
            raise ValueError("cannot normalise a zero-length vector")
        return Point(self.x / n, self.y / n)

    def rotated(self, angle_rad: float) -> "Point":
        """Vector rotated counter-clockwise by *angle_rad* radians."""
        c, s = math.cos(angle_rad), math.sin(angle_rad)
        return Point(c * self.x - s * self.y, s * self.x + c * self.y)

    def as_tuple(self) -> tuple[float, float]:
        """Return ``(x, y)``."""
        return (self.x, self.y)


@dataclass(frozen=True)
class Segment:
    """A line segment between two points, typically one wall face."""

    start: Point
    end: Point

    def length(self) -> float:
        """Length of the segment in metres."""
        return self.start.distance_to(self.end)

    def direction(self) -> Point:
        """Unit vector pointing from ``start`` to ``end``."""
        return (self.end - self.start).normalized()

    def normal(self) -> Point:
        """Unit normal (90° counter-clockwise from the direction)."""
        d = self.direction()
        return Point(-d.y, d.x)

    def midpoint(self) -> Point:
        """Midpoint of the segment."""
        return Point((self.start.x + self.end.x) / 2.0, (self.start.y + self.end.y) / 2.0)

    def mirror_point(self, point: Point) -> Point:
        """Mirror *point* across the infinite line supporting this segment.

        This is the core operation of the image method: the virtual source of
        a single-bounce reflection off this wall is the mirror image of the
        transmitter.
        """
        direction = self.direction()
        rel = point - self.start
        along = direction * rel.dot(direction)
        perp = rel - along
        mirrored_rel = along - perp
        return self.start + mirrored_rel

    def intersection_with(self, other: "Segment") -> Optional[Point]:
        """Intersection point of two segments, or ``None`` if they miss.

        Shared endpoints and collinear overlaps return ``None`` — for ray
        tracing we only care about proper crossings of the wall interior.
        """
        p, r = self.start, self.end - self.start
        q, s = other.start, other.end - other.start
        denom = r.cross(s)
        if abs(denom) < 1e-12:
            return None
        t = (q - p).cross(s) / denom
        u = (q - p).cross(r) / denom
        eps = 1e-9
        if eps < t < 1 - eps and eps < u < 1 - eps:
            return p + r * t
        return None

    def contains_projection(self, point: Point) -> bool:
        """True when *point* projects onto the segment interior."""
        direction = self.end - self.start
        length_sq = direction.dot(direction)
        if length_sq < 1e-24:
            return False
        t = (point - self.start).dot(direction) / length_sq
        return 0.0 <= t <= 1.0

    def distance_to_point(self, point: Point) -> float:
        """Shortest distance from *point* to the segment."""
        direction = self.end - self.start
        length_sq = direction.dot(direction)
        if length_sq < 1e-24:
            return self.start.distance_to(point)
        t = (point - self.start).dot(direction) / length_sq
        t = min(1.0, max(0.0, t))
        closest = self.start + direction * t
        return closest.distance_to(point)


@dataclass(frozen=True)
class Wall:
    """A reflective wall: a segment plus the name of its material."""

    segment: Segment
    material: str = "concrete"
    name: str = ""

    def length(self) -> float:
        """Length of the wall in metres."""
        return self.segment.length()


@dataclass
class Room:
    """A rectangular (or polygonal) room bounded by reflective walls.

    The paper's environments — a 6 m × 8 m classroom and two furnished office
    rooms — are modelled as rectangles with optional interior obstacle walls
    (desks, cabinets, a neighbouring concrete wall).  Only the walls matter
    for specular reflection; diffuse clutter enters through the impairment
    model instead.
    """

    width: float
    height: float
    walls: list[Wall] = field(default_factory=list)
    name: str = "room"

    def __post_init__(self) -> None:
        if self.width <= 0 or self.height <= 0:
            raise ValueError(
                f"room dimensions must be positive, got {self.width} x {self.height}"
            )
        if not self.walls:
            self.walls = self._boundary_walls("concrete")

    def _boundary_walls(self, material: str) -> list[Wall]:
        corners = [
            Point(0.0, 0.0),
            Point(self.width, 0.0),
            Point(self.width, self.height),
            Point(0.0, self.height),
        ]
        names = ["south", "east", "north", "west"]
        walls = []
        for i, name in enumerate(names):
            seg = Segment(corners[i], corners[(i + 1) % 4])
            walls.append(Wall(segment=seg, material=material, name=name))
        return walls

    @classmethod
    def rectangular(
        cls,
        width: float,
        height: float,
        *,
        material: str = "concrete",
        name: str = "room",
    ) -> "Room":
        """Create a rectangular room with four boundary walls of *material*."""
        room = cls(width=width, height=height, walls=[], name=name)
        room.walls = room._boundary_walls(material)
        return room

    def add_obstacle(self, segment: Segment, material: str = "wood", name: str = "") -> None:
        """Add an interior reflective obstacle (desk edge, cabinet, partition)."""
        self.walls.append(Wall(segment=segment, material=material, name=name))

    def contains(self, point: Point, *, margin: float = 0.0) -> bool:
        """True when *point* lies inside the rectangular footprint.

        Interior obstacles are ignored; *margin* shrinks the usable area, which
        is handy when sampling human positions that must not hug the walls.
        """
        return (
            margin <= point.x <= self.width - margin
            and margin <= point.y <= self.height - margin
        )

    def iter_walls(self) -> Iterator[Wall]:
        """Iterate over all walls (boundary first, then obstacles)."""
        return iter(self.walls)

    def diagonal(self) -> float:
        """Length of the room diagonal, an upper bound on any LOS distance."""
        return math.hypot(self.width, self.height)


def angle_between(origin: Point, target: Point, reference_direction: Point) -> float:
    """Signed angle (radians) of ``target - origin`` relative to a reference direction.

    Positive angles are counter-clockwise.  Used to express path directions in
    the receiver's array coordinate frame.
    """
    v = target - origin
    ref = reference_direction.normalized()
    if v.norm() < 1e-12:
        return 0.0
    v = v.normalized()
    cos_a = max(-1.0, min(1.0, v.dot(ref)))
    sign = 1.0 if ref.cross(v) >= 0 else -1.0
    return sign * math.acos(cos_a)


def path_length(points: Sequence[Point]) -> float:
    """Total polyline length through *points*."""
    if len(points) < 2:
        return 0.0
    return sum(points[i].distance_to(points[i + 1]) for i in range(len(points) - 1))


def points_as_array(points: Sequence[Point]) -> np.ndarray:
    """Stack :class:`Point` objects into an ``(N, 2)`` float array."""
    if not points:
        return np.zeros((0, 2), dtype=float)
    return np.array([[p.x, p.y] for p in points], dtype=float)


def segment_point_distances(
    starts: np.ndarray, ends: np.ndarray, points: np.ndarray
) -> np.ndarray:
    """Distances from every point to every segment, vectorised.

    Bit-identical batch form of :meth:`Segment.distance_to_point`: the same
    clamp-projection arithmetic evaluated over a stack of segments, with the
    final Euclidean norm routed through the active backend's ``hypot``
    (``math.hypot`` per element in ``exact`` mode) so each entry matches the
    scalar ``math.hypot`` call exactly.

    Parameters
    ----------
    starts, ends:
        Segment endpoints, shape ``(num_segments, 2)``.
    points:
        Query points, shape ``(num_points, 2)``.

    Returns
    -------
    numpy.ndarray
        Distance matrix of shape ``(num_points, num_segments)``.
    """
    starts = np.asarray(starts, dtype=float)
    ends = np.asarray(ends, dtype=float)
    points = np.asarray(points, dtype=float)
    if starts.ndim != 2 or starts.shape[1] != 2 or starts.shape != ends.shape:
        raise ValueError(
            f"starts/ends must both have shape (num_segments, 2), "
            f"got {starts.shape} and {ends.shape}"
        )
    if points.ndim != 2 or points.shape[1] != 2:
        raise ValueError(f"points must have shape (num_points, 2), got {points.shape}")
    direction = ends - starts  # (S, 2)
    length_sq = direction[:, 0] * direction[:, 0] + direction[:, 1] * direction[:, 1]
    degenerate = length_sq < 1e-24
    safe_length_sq = np.where(degenerate, 1.0, length_sq)
    rel_x = points[:, None, 0] - starts[None, :, 0]  # (N, S)
    rel_y = points[:, None, 1] - starts[None, :, 1]
    t = (rel_x * direction[None, :, 0] + rel_y * direction[None, :, 1]) / safe_length_sq
    t = np.clip(t, 0.0, 1.0)
    closest_x = starts[None, :, 0] + direction[None, :, 0] * t
    closest_y = starts[None, :, 1] + direction[None, :, 1] * t
    distances = active_backend().hypot(closest_x - points[:, None, 0], closest_y - points[:, None, 1])
    if np.any(degenerate):
        start_dist = active_backend().hypot(
            starts[None, :, 0] - points[:, None, 0], starts[None, :, 1] - points[:, None, 1]
        )
        distances = np.where(degenerate[None, :], start_dist, distances)
    return distances


def paired_segment_point_distances(
    starts: np.ndarray, ends: np.ndarray, points: np.ndarray
) -> np.ndarray:
    """Row-aligned variant of :func:`segment_point_distances`.

    Computes the distance from ``points[i]`` to the segment
    ``starts[i] → ends[i]`` (one distance per row rather than the full
    cross product), with the same bit-identical arithmetic.
    """
    starts = np.asarray(starts, dtype=float)
    ends = np.asarray(ends, dtype=float)
    points = np.asarray(points, dtype=float)
    if not (starts.shape == ends.shape == points.shape) or starts.ndim != 2:
        raise ValueError(
            f"starts/ends/points must share shape (N, 2), got "
            f"{starts.shape}, {ends.shape}, {points.shape}"
        )
    direction = ends - starts
    length_sq = direction[:, 0] * direction[:, 0] + direction[:, 1] * direction[:, 1]
    degenerate = length_sq < 1e-24
    safe_length_sq = np.where(degenerate, 1.0, length_sq)
    rel_x = points[:, 0] - starts[:, 0]
    rel_y = points[:, 1] - starts[:, 1]
    t = (rel_x * direction[:, 0] + rel_y * direction[:, 1]) / safe_length_sq
    t = np.clip(t, 0.0, 1.0)
    closest_x = starts[:, 0] + direction[:, 0] * t
    closest_y = starts[:, 1] + direction[:, 1] * t
    distances = active_backend().hypot(closest_x - points[:, 0], closest_y - points[:, 1])
    if np.any(degenerate):
        start_dist = active_backend().hypot(
            starts[:, 0] - points[:, 0], starts[:, 1] - points[:, 1]
        )
        distances = np.where(degenerate, start_dist, distances)
    return distances


def signed_angles_to_reference(vectors: np.ndarray, reference: Point) -> np.ndarray:
    """Batched :func:`angle_between` with the origin at ``(0, 0)``.

    Computes the signed angle of each row vector relative to
    *reference*, reproducing the scalar function bit-for-bit (including the
    zero-vector → 0.0 convention); the `acos` goes through the active
    backend (libm-exact in ``exact`` mode).

    Parameters
    ----------
    vectors:
        Row vectors, shape ``(N, 2)``.
    reference:
        Reference direction (normalised internally, exactly as the scalar
        :func:`angle_between` does).
    """
    vectors = np.asarray(vectors, dtype=float)
    if vectors.ndim != 2 or vectors.shape[1] != 2:
        raise ValueError(f"vectors must have shape (N, 2), got {vectors.shape}")
    ref = reference.normalized()
    norms = active_backend().hypot(vectors[:, 0], vectors[:, 1])
    small = norms < 1e-12
    safe_norms = np.where(small, 1.0, norms)
    ux = vectors[:, 0] / safe_norms
    uy = vectors[:, 1] / safe_norms
    cos_a = np.clip(ux * ref.x + uy * ref.y, -1.0, 1.0)
    sign = np.where(ref.x * uy - ref.y * ux >= 0, 1.0, -1.0)
    return np.where(small, 0.0, sign * active_backend().acos(cos_a))


def segment_blocked_by_disc(
    start: Point, end: Point, center: Point, radius: float
) -> bool:
    """True when the open segment ``start→end`` passes through a disc.

    The disc models the horizontal cross-section of a standing person; a path
    is "shadowed" when any of its straight segments crosses the body disc.
    """
    if radius <= 0:
        return False
    return Segment(start, end).distance_to_point(center) <= radius
