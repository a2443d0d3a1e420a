"""Testing scenarios matching the paper's measurement environments.

Three environments appear in the paper:

* A **6 m x 8 m classroom** used for the link-characterization measurements
  of Section III (Fig. 2–4): a 4 m TX-RX link with 500 static human
  locations on and around the LOS path.
* A **3 m link next to a concrete wall** used for the angle-of-arrival study
  of Section IV-B (Fig. 5): the wall creates a pronounced reflected path the
  array must separate from the LOS.
* **Two office rooms in an academic building** with desks and furniture,
  hosting the 5 TX-RX links ("cases") of the evaluation (Fig. 6–12), each
  with a 3x3 grid of human presence locations.

The rooms are parametric: wall materials and interior obstacles set the
multipath density, and every scenario records the grid of human positions so
the runner and figures sample the same locations the paper does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.channel.channel import Link
from repro.channel.geometry import Point, Room, Segment


@dataclass(frozen=True)
class Scenario:
    """A named environment with one or more deployed links.

    Attributes
    ----------
    name:
        Scenario identifier (``"classroom"``, ``"office-a"``, …).
    room:
        The environment geometry.
    links:
        Deployed TX-RX links, in case order.
    description:
        One-line description of what the scenario reproduces.
    """

    name: str
    room: Room
    links: tuple[Link, ...]
    description: str = ""

    def link(self, index: int = 0) -> Link:
        """Convenience accessor for one of the scenario's links."""
        return self.links[index]


# --------------------------------------------------------------------------- #
# Section III: classroom characterization
# --------------------------------------------------------------------------- #
def classroom_scenario(*, link_length_m: float = 4.0) -> Scenario:
    """The 6 m x 8 m classroom with a single 4 m link (Section III-A).

    The link is placed across the room centre; a whiteboard wall and a row of
    desks provide the static multipath the paper's measurements exhibit.
    """
    room = Room.rectangular(8.0, 6.0, material="concrete", name="classroom")
    room.add_obstacle(
        Segment(Point(1.0, 5.4), Point(7.0, 5.4)), material="whiteboard", name="whiteboard"
    )
    room.add_obstacle(
        Segment(Point(1.5, 1.2), Point(6.5, 1.2)), material="wood", name="desk-row"
    )
    mid_x = 4.0
    half = link_length_m / 2.0
    tx = Point(mid_x - half, 3.0)
    rx = Point(mid_x + half, 3.0)
    link = Link(room=room, tx=tx, rx=rx, name="classroom-link")
    return Scenario(
        name="classroom",
        room=room,
        links=(link,),
        description="6x8 m classroom, 4 m link, link characterization (Fig. 2-4)",
    )


# --------------------------------------------------------------------------- #
# Section IV-B: link next to a concrete wall (angle study)
# --------------------------------------------------------------------------- #
def corner_link_scenario(*, wall_offset_m: float = 1.0) -> Scenario:
    """A 3 m link deployed close to a concrete wall (Fig. 5 setup).

    The nearby wall creates a strong single-bounce reflection arriving from a
    clearly separated angle, which the MUSIC pseudospectrum must resolve next
    to the LOS peak.
    """
    room = Room.rectangular(8.0, 6.0, material="drywall", name="corner-room")
    # Replace the south wall with concrete (the reflector of interest).
    room.walls[0] = type(room.walls[0])(
        segment=room.walls[0].segment, material="concrete", name="south-concrete"
    )
    tx = Point(2.5, wall_offset_m)
    rx = Point(5.5, wall_offset_m)
    link = Link(room=room, tx=tx, rx=rx, name="corner-link")
    return Scenario(
        name="corner",
        room=room,
        links=(link,),
        description="3 m link near a concrete wall, AoA study (Fig. 5, Fig. 10, Fig. 11)",
    )


# --------------------------------------------------------------------------- #
# Section V: two office rooms, five link cases
# --------------------------------------------------------------------------- #
def office_scenarios() -> tuple[Scenario, Scenario]:
    """The two furnished office rooms hosting the 5 evaluation cases (Fig. 6).

    Room A (13 m x 8 m, an open-plan lab) hosts cases 1-3 and room B
    (11 m x 7 m) hosts cases 4-5.  The cases differ in TX-RX distance (3 m to
    6 m) and in how cluttered their surroundings are; case 3 is the short
    link in a relatively vacant area that the paper singles out as having the
    strongest LOS.  The rooms are large enough that the "students" of the
    background-dynamics workload can keep the paper's 5 m distance from the
    monitored links.
    """
    room_a = Room.rectangular(13.0, 8.0, material="concrete", name="office-a")
    room_a.add_obstacle(
        Segment(Point(0.8, 6.8), Point(5.2, 6.8)), material="wood", name="desk-bank-north"
    )
    room_a.add_obstacle(
        Segment(Point(7.2, 1.0), Point(7.2, 4.5)), material="metal", name="cabinet-east"
    )
    room_a.add_obstacle(
        Segment(Point(1.0, 1.1), Point(4.0, 1.1)), material="wood", name="desk-bank-south"
    )

    room_b = Room.rectangular(11.0, 7.0, material="brick", name="office-b")
    room_b.add_obstacle(
        Segment(Point(6.9, 0.8), Point(6.9, 5.2)), material="glass", name="window-partition"
    )
    room_b.add_obstacle(
        Segment(Point(1.0, 5.9), Point(5.0, 5.9)), material="wood", name="desk-bank"
    )

    # The per-case transmit powers model the paper's "diverse TX-RX distances
    # and AP heights": different deployments see different received-power
    # scales even before anyone enters the room.
    cases_a = (
        Link(room=room_a, tx=Point(1.5, 2.0), rx=Point(6.5, 2.0), name="case-1", tx_power=1.0),
        Link(room=room_a, tx=Point(1.5, 4.5), rx=Point(7.5, 4.5), name="case-2", tx_power=0.3),
        Link(room=room_a, tx=Point(3.0, 3.2), rx=Point(6.0, 3.2), name="case-3", tx_power=2.5),
    )
    cases_b = (
        Link(room=room_b, tx=Point(1.2, 3.0), rx=Point(6.2, 3.0), name="case-4", tx_power=0.55),
        Link(room=room_b, tx=Point(1.5, 1.5), rx=Point(5.5, 4.5), name="case-5", tx_power=1.6),
    )
    scenario_a = Scenario(
        name="office-a",
        room=room_a,
        links=cases_a,
        description="Office room A, evaluation cases 1-3 (Fig. 6)",
    )
    scenario_b = Scenario(
        name="office-b",
        room=room_b,
        links=cases_b,
        description="Office room B, evaluation cases 4-5 (Fig. 6)",
    )
    return scenario_a, scenario_b


def evaluation_cases() -> list[tuple[Scenario, Link]]:
    """The five (scenario, link) evaluation cases in paper order."""
    scenario_a, scenario_b = office_scenarios()
    cases = [(scenario_a, link) for link in scenario_a.links]
    cases.extend((scenario_b, link) for link in scenario_b.links)
    return cases


# --------------------------------------------------------------------------- #
# Human placement grids
# --------------------------------------------------------------------------- #
def human_grid(
    link: Link,
    *,
    rows: int = 3,
    cols: int = 3,
    lateral_extent_m: float = 2.0,
    along_extent_m: float | None = None,
    margin_m: float = 0.3,
) -> list[Point]:
    """The 3x3 grid of human presence locations tested for each case.

    The grid is aligned with the link: columns spread along the TX->RX
    direction, rows spread laterally *to one side* of the LOS path so the
    grid "covers different distances and angles with respect to the
    receiver" as in the paper (the monitored person stands near the link, not
    on top of the devices).  The first row sits just outside the LOS
    sensitivity region, the last row ``lateral_extent_m`` away.  Positions
    falling outside the room (minus *margin_m*) are pulled back inside.

    Parameters
    ----------
    link:
        The link the grid is attached to.
    rows, cols:
        Grid dimensions (3x3 in the paper).
    lateral_extent_m:
        Maximum perpendicular offset from the LOS path.
    along_extent_m:
        Span of the grid along the link; defaults to the link length.
    margin_m:
        Minimum distance kept from the room walls.
    """
    if rows < 1 or cols < 1:
        raise ValueError(f"rows and cols must be >= 1, got {rows}x{cols}")
    direction = (link.rx - link.tx).normalized()
    normal = Point(-direction.y, direction.x)
    length = along_extent_m if along_extent_m is not None else link.distance()
    centre = link.midpoint()

    # Fractions along the link (centred) and across it.  Lateral offsets are
    # one-sided: from just off the LOS out to the full lateral extent.
    if cols == 1:
        along_fractions = [0.0]
    else:
        along_fractions = [(-0.5 + c / (cols - 1)) for c in range(cols)]
    if rows == 1:
        lateral_fractions = [0.25]
    else:
        lateral_fractions = [0.25 + 0.75 * r / (rows - 1) for r in range(rows)]

    room = link.room
    grid: list[Point] = []
    for r in lateral_fractions:
        for c in along_fractions:
            point = centre + direction * (c * length) + normal * (r * lateral_extent_m)
            x = min(max(point.x, margin_m), room.width - margin_m)
            y = min(max(point.y, margin_m), room.height - margin_m)
            grid.append(Point(x, y))
    return grid


def grid_distance_to_receiver(link: Link, position: Point) -> float:
    """Distance from a grid position to the receiver (Fig. 9's abscissa)."""
    return position.distance_to(link.rx)


def grid_angle_to_receiver_deg(link: Link, position: Point) -> float:
    """Angle of a grid position as seen from the receiver array (degrees).

    Measured relative to the array broadside (which faces the transmitter),
    matching the abscissa of Fig. 11.
    """
    array = link.array
    assert array is not None
    direction = position - link.rx
    broadside = array.broadside.normalized()
    if direction.norm() < 1e-9:
        return 0.0
    direction = direction.normalized()
    cos_a = max(-1.0, min(1.0, direction.dot(broadside)))
    sign = 1.0 if broadside.cross(direction) >= 0 else -1.0
    return math.degrees(sign * math.acos(cos_a))
