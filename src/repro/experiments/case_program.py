"""Whole-case array program: plan every window of a case before synthesis.

The historical :func:`~repro.experiments.runner.run_case` interleaved scene
construction, CFR synthesis and impairment sampling window by window — 275
single-scene :meth:`~repro.channel.channel.ChannelSimulator.clean_cfr_batch`
calls per case at the default configuration.  The case program splits the
campaign into a *plan* and an *execute* phase:

* :func:`plan_case` walks the case's window schedule (calibration, positive
  grid windows, interleaved empties) drawing the background, clutter and
  drift randomness in exactly the historical per-window order, and records
  one :class:`PlannedWindow` per capture — scene, packet count, label and
  drift gain.
* The executor (``run_case``) then synthesises every scene in one
  ``clean_cfr_batch`` call, acquires every packet in one
  :meth:`~repro.csi.collector.PacketCollector.collect_batch` call and
  scores every window through one shared sanitisation pass.

The split is safe because the case's random streams are independent
generators: the planner only consumes the background and drift streams (in
their historical per-window order) and the executor only consumes the
collector's streams, whose per-packet draws do not depend on how windows
are grouped into calls.  Clean CFR synthesis consumes no randomness at all.
Drift gains are applied to the raw traces *before* sanitisation, exactly as
the historical path does — sanitisation is not bit-wise scale-invariant, so
the order matters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.channel.human import HumanBody
from repro.experiments.scenarios import (
    grid_angle_to_receiver_deg,
    grid_distance_to_receiver,
    human_grid,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.channel.channel import Link
    from repro.experiments.runner import EvaluationConfig
    from repro.experiments.workloads import BackgroundDynamics, EnvironmentDrift


@dataclass(frozen=True)
class PlannedWindow:
    """One capture of a case schedule, fully determined before synthesis.

    Attributes
    ----------
    scene:
        The static bodies the channel sees during this window (the monitored
        person, background people, clutter).
    num_packets:
        Received packets to collect.
    label:
        Trace label (``<case>/calibration``, ``<case>/occupied``,
        ``<case>/empty``).
    occupied:
        Whether the monitored person is present (calibration counts as not
        occupied).
    gain:
        Per-window drift gain to apply to the collected trace, or ``None``
        for the calibration window (drift accumulates only *after*
        calibration).
    distance_to_rx_m, angle_deg, location_index:
        Grid-position metadata of positive windows (``None`` elsewhere).
    """

    scene: tuple[HumanBody, ...]
    num_packets: int
    label: str
    occupied: bool
    gain: float | None = None
    distance_to_rx_m: float | None = None
    angle_deg: float | None = None
    location_index: int | None = None


@dataclass(frozen=True)
class CasePlan:
    """The full window schedule of one link case, in capture order.

    ``windows[0]`` is always the calibration capture; everything after it is
    a monitoring window.  The accessors below are shaped for
    :meth:`~repro.csi.collector.PacketCollector.collect_batch`.
    """

    windows: tuple[PlannedWindow, ...]

    def __post_init__(self) -> None:
        if not self.windows:
            raise ValueError("a case plan needs at least the calibration window")

    @property
    def calibration(self) -> PlannedWindow:
        """The calibration capture (always the first window)."""
        return self.windows[0]

    @property
    def monitoring(self) -> tuple[PlannedWindow, ...]:
        """The monitoring windows, in scoring order."""
        return self.windows[1:]

    def scenes(self) -> list[list[HumanBody]]:
        """Per-window scenes, ready for ``clean_cfr_batch``."""
        return [list(window.scene) for window in self.windows]

    def counts(self) -> list[int]:
        """Per-window packet counts, aligned with :meth:`scenes`."""
        return [window.num_packets for window in self.windows]

    def labels(self) -> list[str]:
        """Per-window trace labels, aligned with :meth:`scenes`."""
        return [window.label for window in self.windows]


def plan_case(
    link: "Link",
    config: "EvaluationConfig",
    background: "BackgroundDynamics",
    drift: "EnvironmentDrift",
) -> CasePlan:
    """Enumerate every window of a case, drawing ambience in historical order.

    Consumes the *background* and *drift* random streams exactly as the
    window-by-window campaign loop did: per window, a background draw
    (:meth:`~repro.experiments.workloads.BackgroundDynamics.people_for_window`)
    then a clutter draw, and — for monitoring windows — a gain draw
    immediately after, so a planned campaign replays the same ambient
    conditions bit for bit.  The collector's streams are untouched; batched
    acquisition consumes them later.
    """
    windows: list[PlannedWindow] = [
        PlannedWindow(
            scene=tuple(background.people_for_window() + drift.clutter_for_window()),
            num_packets=config.calibration_packets,
            label=f"{link.name}/calibration",
            occupied=False,
        )
    ]

    grid = human_grid(
        link,
        rows=config.grid_rows,
        cols=config.grid_cols,
        lateral_extent_m=config.grid_lateral_extent_m,
        along_extent_m=config.grid_along_fraction * link.distance(),
    )

    # Positive windows: every grid location, several bursts each.
    for location_index, position in enumerate(grid):
        distance = grid_distance_to_receiver(link, position)
        angle = grid_angle_to_receiver_deg(link, position)
        for _ in range(config.windows_per_location):
            scene = [config.human_at(position)]
            scene += background.people_for_window()
            scene += drift.clutter_for_window()
            windows.append(
                PlannedWindow(
                    scene=tuple(scene),
                    num_packets=config.window_packets,
                    label=f"{link.name}/occupied",
                    occupied=True,
                    gain=drift.gain_for_window(),
                    distance_to_rx_m=distance,
                    angle_deg=angle,
                    location_index=location_index,
                )
            )

    # Negative windows: the same number, same ambient conditions, nobody in
    # the monitored area.
    num_negative = len(grid) * config.windows_per_location
    for _ in range(num_negative):
        scene = background.people_for_window() + drift.clutter_for_window()
        windows.append(
            PlannedWindow(
                scene=tuple(scene),
                num_packets=config.window_packets,
                label=f"{link.name}/empty",
                occupied=False,
                gain=drift.gain_for_window(),
            )
        )

    return CasePlan(windows=tuple(windows))
