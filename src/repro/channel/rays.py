"""Image-method ray tracer for static (environment-only) propagation paths.

The tracer enumerates the line-of-sight path plus specular wall reflections up
to a configurable bounce order.  First-order reflections use the classic image
method: the virtual source of a bounce off wall ``W`` is the transmitter
mirrored across ``W``; the reflection point is where the straight line from
the image to the receiver crosses the wall.  Second-order reflections chain
two mirror operations.

Human-induced effects (shadowing of these paths and the extra human-created
reflection path) are layered on top by :mod:`repro.channel.human` and
:mod:`repro.channel.channel`; the tracer itself only knows about the room.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Optional

from repro.channel.geometry import Point, Room, Segment, Wall, angle_between
from repro.channel.materials import DEFAULT_MATERIALS, MaterialLibrary


@dataclass(frozen=True)
class Path:
    """A single propagation path from the transmitter to the receiver.

    Attributes
    ----------
    vertices:
        Polyline of the path, starting at the transmitter and ending at the
        receiver; reflection points appear in between.
    kind:
        ``"los"`` for the direct path, ``"wall"`` for environment reflections
        and ``"human"`` for the path created by a person near the link.
    materials:
        Material name of each bounce surface, in order.
    amplitude_gain:
        Product of per-bounce reflection gains and any shadowing attenuation
        applied later; multiplies the free-space amplitude.
    aoa_rad:
        Angle of arrival at the receiver relative to the array broadside
        (filled in by the simulator once the array orientation is known).
    """

    vertices: tuple[Point, ...]
    kind: str
    materials: tuple[str, ...] = ()
    amplitude_gain: float = 1.0
    aoa_rad: float = 0.0

    def length(self) -> float:
        """Total geometric length of the path in metres."""
        total = 0.0
        for a, b in zip(self.vertices[:-1], self.vertices[1:]):
            total += a.distance_to(b)
        return total

    def num_bounces(self) -> int:
        """Number of reflection points along the path."""
        return max(0, len(self.vertices) - 2)

    def segments(self) -> list[Segment]:
        """All straight segments making up the path."""
        return [Segment(a, b) for a, b in zip(self.vertices[:-1], self.vertices[1:])]

    def with_gain(self, gain: float) -> "Path":
        """Return a copy with ``amplitude_gain`` multiplied by *gain*."""
        return replace(self, amplitude_gain=self.amplitude_gain * gain)

    def with_aoa(self, aoa_rad: float) -> "Path":
        """Return a copy with the angle of arrival set to *aoa_rad*."""
        return replace(self, aoa_rad=aoa_rad)


class RayTracer:
    """Enumerate specular propagation paths inside a :class:`Room`.

    Parameters
    ----------
    room:
        The environment to trace in.
    materials:
        Library resolving wall material names to reflection coefficients.
    max_bounces:
        Highest reflection order to enumerate (0 = LOS only, 1 = LOS plus
        single-bounce wall reflections, 2 adds double bounces).  The paper's
        analytic model is one-bounce; the default matches that while the
        two-bounce option exists for clutter-density studies.
    min_amplitude_gain:
        Paths whose accumulated reflection gain falls below this value are
        discarded (they would be buried in noise anyway).
    """

    def __init__(
        self,
        room: Room,
        *,
        materials: MaterialLibrary | None = None,
        max_bounces: int = 1,
        min_amplitude_gain: float = 1e-3,
    ) -> None:
        if max_bounces < 0:
            raise ValueError(f"max_bounces must be >= 0, got {max_bounces}")
        self.room = room
        self.materials = materials if materials is not None else DEFAULT_MATERIALS
        self.max_bounces = max_bounces
        self.min_amplitude_gain = min_amplitude_gain

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #
    def trace(self, tx: Point, rx: Point) -> list[Path]:
        """Return every path from *tx* to *rx* up to ``max_bounces`` bounces.

        The line-of-sight path is always first in the returned list, followed
        by single-bounce and then (optionally) double-bounce reflections in
        order of discovery.
        """
        self._check_endpoint("transmitter", tx)
        self._check_endpoint("receiver", rx)
        paths: list[Path] = [Path(vertices=(tx, rx), kind="los")]
        if self.max_bounces >= 1:
            paths.extend(self._single_bounce_paths(tx, rx))
        if self.max_bounces >= 2:
            paths.extend(self._double_bounce_paths(tx, rx))
        return [p for p in paths if p.amplitude_gain >= self.min_amplitude_gain]

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #
    def _check_endpoint(self, name: str, point: Point) -> None:
        if not self.room.contains(point):
            raise ValueError(
                f"{name} at ({point.x:.2f}, {point.y:.2f}) lies outside the "
                f"{self.room.width:.1f} x {self.room.height:.1f} m room"
            )

    def _wall_gain(self, wall: Wall) -> float:
        return self.materials.get(wall.material).effective_amplitude_gain()

    def _single_bounce_paths(self, tx: Point, rx: Point) -> list[Path]:
        paths = []
        for wall in self.room.iter_walls():
            reflection = self._reflection_point(tx, rx, wall)
            if reflection is None:
                continue
            gain = self._wall_gain(wall)
            paths.append(
                Path(
                    vertices=(tx, reflection, rx),
                    kind="wall",
                    materials=(wall.material,),
                    amplitude_gain=gain,
                )
            )
        return paths

    def _double_bounce_paths(self, tx: Point, rx: Point) -> list[Path]:
        paths = []
        walls = list(self.room.iter_walls())
        for first in walls:
            image_tx = first.segment.mirror_point(tx)
            for second in walls:
                if second is first:
                    continue
                # Reflection point on the second wall using the doubly-mirrored
                # image of the transmitter.
                second_point = self._reflection_point(image_tx, rx, second)
                if second_point is None:
                    continue
                # Reflection point on the first wall: intersection of the
                # segment image_tx -> second_point projected back, i.e. the
                # segment from tx's first image toward the second bounce.
                first_point = self._segment_wall_crossing(image_tx, second_point, first)
                if first_point is None:
                    continue
                gain = self._wall_gain(first) * self._wall_gain(second)
                if gain < self.min_amplitude_gain:
                    continue
                paths.append(
                    Path(
                        vertices=(tx, first_point, second_point, rx),
                        kind="wall",
                        materials=(first.material, second.material),
                        amplitude_gain=gain,
                    )
                )
        return paths

    def _reflection_point(self, tx: Point, rx: Point, wall: Wall) -> Optional[Point]:
        """Specular reflection point of tx->wall->rx, or None if invalid."""
        image = wall.segment.mirror_point(tx)
        crossing = self._segment_wall_crossing(image, rx, wall)
        if crossing is None:
            return None
        # Degenerate case: the transmitter lies on the wall plane, which would
        # make the "reflection" coincide with the LOS path.
        if image.distance_to(tx) < 1e-9:
            return None
        return crossing

    @staticmethod
    def _segment_wall_crossing(a: Point, b: Point, wall: Wall) -> Optional[Point]:
        """Intersection of segment a->b with the wall segment interior."""
        seg = Segment(a, b)
        return seg.intersection_with(wall.segment)


def assign_angles_of_arrival(
    paths: Iterable[Path], rx: Point, broadside: Point
) -> list[Path]:
    """Fill in each path's angle of arrival relative to *broadside*.

    Parameters
    ----------
    paths:
        Paths ending at the receiver.
    rx:
        Receiver position (the last vertex of every path).
    broadside:
        Unit-ish vector giving the array broadside direction; angles are
        measured from it, positive counter-clockwise, in radians.
    """
    out = []
    for path in paths:
        prev = path.vertices[-2]
        # Incoming direction is from the previous vertex toward the receiver;
        # the angle of arrival is measured looking *out* from the receiver.
        incoming_from = prev - rx
        angle = angle_between(Point(0.0, 0.0), incoming_from, broadside)
        out.append(path.with_aoa(angle))
    return out
