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


def segment_point_deltas(
    starts: np.ndarray, ends: np.ndarray, points: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Offsets ``(dx, dy)`` from points to their nearest points on segments.

    The batch form of :meth:`Segment.distance_to_point`: the same
    clamp-projection arithmetic, evaluated with NumPy broadcasting over
    stacks of segments and points.  ``hypot(dx, dy)`` (through the active
    backend's ``hypot``) is bit-identical to the scalar distance; a
    zero-length segment clamps to its start, as the scalar method does.  A
    finite segment whose squared length overflows (longer than ~1.3e154)
    projects along its direction divided by its larger component instead,
    whose squared length is in [1, 2], so its offsets stay finite where the
    scalar method's are NaN.

    Parameters
    ----------
    starts, ends, points:
        Arrays of shape ``(..., 2)``, broadcast against each other: rows
        aligned for one distance per row, or ``starts[None]`` against
        ``points[:, None]`` for every point against every segment.

    Returns
    -------
    tuple of numpy.ndarray
        ``dx`` and ``dy``, each of the broadcast shape without the last axis.
    """
    starts = np.asarray(starts, dtype=float)
    ends = np.asarray(ends, dtype=float)
    points = np.asarray(points, dtype=float)
    for name, array in (("starts", starts), ("ends", ends), ("points", points)):
        if array.ndim == 0 or array.shape[-1] != 2:
            raise ValueError(f"{name} must have shape (..., 2), got {array.shape}")
    direction_x = ends[..., 0] - starts[..., 0]
    direction_y = ends[..., 1] - starts[..., 1]
    length_sq = direction_x * direction_x + direction_y * direction_y
    degenerate = length_sq < 1e-24
    safe_length_sq = np.where(degenerate, 1.0, length_sq)
    rel_x = points[..., 0] - starts[..., 0]
    rel_y = points[..., 1] - starts[..., 1]
    t = (rel_x * direction_x + rel_y * direction_y) / safe_length_sq
    overflowed = np.isinf(length_sq)
    if np.any(overflowed):
        with np.errstate(invalid="ignore"):
            scale = np.maximum(np.abs(direction_x), np.abs(direction_y))
            unit_x, unit_y = direction_x / scale, direction_y / scale
            scaled = (rel_x / scale * unit_x + rel_y / scale * unit_y) / (
                unit_x * unit_x + unit_y * unit_y
            )
        t = np.where(overflowed, scaled, t)
    t = np.clip(t, 0.0, 1.0)
    if np.any(degenerate):
        # A finite direction times 0.0 is a signed zero, so the closest
        # point is the start exactly.
        t = np.where(degenerate, 0.0, t)
    dx = starts[..., 0] + direction_x * t - points[..., 0]
    dy = starts[..., 1] + direction_y * t - points[..., 1]
    return dx, dy


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
