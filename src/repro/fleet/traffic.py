"""Synthetic fleet traffic: deterministic Poisson packet arrivals per link.

A production deployment is thousands of independent links with ragged packet
schedules, not the handful of lockstep streams the evaluation campaign
drives.  This module synthesises that traffic: every link of the population
draws from its own seeded planning stream — the collector's seed word, the
rate class and the Poisson arrival process, in that order — and a scoring
link's collector from one child of that word, all derived from the fleet
seed and the link index alone.  Any subset of the population can therefore
be rebuilt on any worker in any order and produce byte-identical traffic,
which is what makes the sharded fleet engine deterministic.

The population is heterogeneous in the FAIRSERVE workload-generator style:
links belong to rate classes (``normal`` / ``busy`` / ``abusive``) drawn from
a configured mix, and each class pings at its own Poisson rate.  The CSI a
link reports comes from the paper's channel simulator: a per-link calibration
capture of the empty environment plus a pool of monitoring packets split
between empty and occupied scenes, cycled over the arrival schedule so the
link alternates idle and occupied bursts.

Set-up does only the work the run reads: a link's arrivals are drawn before
its CSI, so only the pool frames its complete windows read are acquired
(:class:`LinkTraffic` holds that prefix of the cycle), and a link whose
arrivals complete no window is idle: it gets no collector, calibration
capture or pool frames.  Set-up writes a shard's acquired frames once, into
a frame layout: one array per frame shape, each scoring link's frames after
the previous link's.  A link's traffic names its rows there, and the fleet
scheduler gathers each flush's windows of many links with one index.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from repro import obs
from repro.api.session import window_starts
from repro.channel.channel import ChannelSimulator
from repro.channel.constants import INTEL5300_SUBCARRIER_INDICES
from repro.channel.human import HumanBody
from repro.csi.trace import CSITrace
from repro.experiments.scenarios import human_grid
from repro.utils.rng import child_rng, draw_word, ensure_rng

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.channel.channel import Link

    from repro.api.config import PipelineConfig

#: Link rate classes, in mix-assignment order (FAIRSERVE's population shape:
#: mostly normal links, a busy tier, a small abusive tail).
RATE_CLASSES: tuple[str, ...] = ("normal", "busy", "abusive")


def derive_link_seed(seed: int, link_index: int) -> int:
    """The deterministic per-link seed of a fleet.

    Same convention as :func:`repro.experiments.runner.derive_case_seed`
    (``seed + 1000 * index``): every link's traffic is a pure function of the
    fleet seed and its index, independent of population size, build order and
    worker sharding.
    """
    return seed + 1000 * link_index


def poisson_arrival_times(
    rng: np.random.Generator, rate_hz: float, duration_s: float
) -> np.ndarray:
    """Strictly increasing Poisson arrival times in ``[0, duration_s)``.

    Inter-arrival gaps are exponential with mean ``1/rate_hz``; gaps are
    drawn in chunks purely for speed — the draw sequence (and therefore the
    schedule) depends only on the generator state.
    """
    if rate_hz <= 0:
        raise ValueError(f"rate_hz must be > 0, got {rate_hz}")
    if duration_s <= 0:
        raise ValueError(f"duration_s must be > 0, got {duration_s}")
    chunk = max(16, int(rate_hz * duration_s * 1.2) + 16)
    segments: list[np.ndarray] = []
    last = 0.0
    while last < duration_s:
        gaps = rng.exponential(1.0 / rate_hz, size=chunk)
        segment = last + np.cumsum(gaps)
        segments.append(segment)
        last = float(segment[-1])
    times = np.concatenate(segments)
    return times[times < duration_s]


def rate_class_table(class_mix: Mapping[str, float]) -> tuple[list[str], list[float]]:
    """The population mix as a draw table: the classes with positive weight,
    in :data:`RATE_CLASSES` order, and their cumulative normalised weights.

    Built once per fleet and handed to every :func:`assign_rate_class`.
    """
    names = [name for name in RATE_CLASSES if class_mix.get(name, 0.0) > 0]
    weights = np.asarray([class_mix[name] for name in names], dtype=float)
    return names, (np.cumsum(weights) / weights.sum()).tolist()


def assign_rate_class(
    rng: np.random.Generator, table: tuple[list[str], list[float]]
) -> str:
    """Draw one link's rate class from a :func:`rate_class_table`.

    A single uniform draw against the cumulative mix selects the first class
    whose cumulative weight exceeds it, so the assignment is deterministic
    per link stream.
    """
    names, cumulative = table
    return names[min(bisect.bisect_right(cumulative, rng.random()), len(names) - 1)]


@dataclass(frozen=True)
class LinkProfile:
    """Static description of one fleet link.

    Attributes
    ----------
    index:
        Position of the link in the population (also its seed key).
    name:
        Stable link id stamped on emitted events (``link-00042``).
    rate_class:
        Rate class drawn from the population mix.
    packet_rate_hz:
        Mean Poisson ping rate of that class.
    case_name:
        Name of the evaluation link geometry the link re-uses.
    """

    index: int
    name: str
    rate_class: str
    packet_rate_hz: float
    case_name: str


class LinkTraffic:
    """One link's synthetic traffic: schedule, calibration and pool CSI.

    Arrival ``i`` reports pool frame ``i % pool_cycle`` (an idle burst, then
    an occupied one); the traffic holds the prefix of that cycle its windows
    read.  Those frames are rows ``first_frame …`` of :attr:`frames`, a
    frame layout that :func:`build_fleet_traffic` writes once per shard,
    every scoring link's frames after the previous link's, so the fleet
    scheduler gathers a flush's windows of many links with one index.  A
    link whose arrivals complete no window reads no frame and never scores,
    so it holds neither frames nor a calibration capture: its
    :attr:`calibration` is ``None`` exactly when it holds no frames.

    Parameters
    ----------
    profile:
        The link's static description.
    arrivals:
        Non-decreasing packet arrival times in seconds (so a link's windows
        complete in order).
    calibration:
        Empty-environment capture used to calibrate the link's session;
        ``None`` for a link that completes no window (and holds no frames).
    frames:
        Complex ``(rows, antennas, subcarriers)`` frame layout whose rows
        ``first_frame … first_frame + len(pool_occupied) - 1`` are the
        link's acquired pool frames ``0, 1, …``, all finite (a standalone
        traffic passes just its own frames).
    pool_occupied:
        Ground-truth occupancy per acquired frame; its length is the number
        of frames acquired (none for a link that completes no window).
    subcarrier_indices:
        Frequency grid shared by every frame.
    pool_cycle:
        Frames in the pool's full cycle, ``>= max(acquired frames, 1)``.
    first_frame:
        Row of :attr:`frames` holding the link's pool frame 0.
    """

    def __init__(
        self,
        profile: LinkProfile,
        arrivals: np.ndarray,
        calibration: CSITrace | None,
        frames: np.ndarray,
        pool_occupied: np.ndarray,
        subcarrier_indices: tuple[int, ...],
        pool_cycle: int,
        *,
        first_frame: int = 0,
    ) -> None:
        if frames.ndim != 3:
            raise ValueError(f"frames must be (rows, antennas, subcarriers): {frames.shape}")
        if pool_occupied.ndim != 1:
            raise ValueError(f"pool_occupied must be 1-D, got shape {pool_occupied.shape}")
        acquired = pool_occupied.shape[0]
        if not 0 <= first_frame <= frames.shape[0] - acquired:
            raise ValueError(
                f"rows {first_frame} … {first_frame + acquired - 1} of the pool's "
                f"frames are outside a layout of {frames.shape[0]} rows"
            )
        if isinstance(pool_cycle, bool) or not isinstance(pool_cycle, int) or (
            pool_cycle < max(acquired, 1)
        ):
            raise ValueError(
                f"pool_cycle must be an integer >= max(1, {acquired} acquired "
                f"frames), got {pool_cycle!r}"
            )
        if (calibration is None) != (acquired == 0):
            raise ValueError(
                "calibration must be None exactly when no pool frames are held "
                f"(a link that completes no window), got {acquired} frames"
            )
        self.profile = profile
        self.arrivals = np.asarray(arrivals, dtype=float)
        if self.arrivals.ndim != 1 or not np.all(np.diff(self.arrivals) >= 0):
            raise ValueError("arrivals must be a non-decreasing 1-D array of times")
        self.calibration = calibration
        self.frames = frames
        self.first_frame = first_frame
        self.pool_occupied = pool_occupied
        if not np.all(np.isfinite(self.pool_csi)):
            raise ValueError("pool_csi contains non-finite values")
        self.subcarrier_indices = subcarrier_indices
        self.pool_cycle = pool_cycle

    @property
    def pool_csi(self) -> np.ndarray:
        """The acquired pool frames ``0 …``, shape ``(acquired, antennas,
        subcarriers)`` (a view of :attr:`frames`)."""
        return self.frames[self.first_frame : self.first_frame + self.pool_occupied.shape[0]]

    @property
    def num_arrivals(self) -> int:
        """Packets this link delivers over the fleet run."""
        return int(self.arrivals.shape[0])

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(link={self.profile.name!r}, "
            f"class={self.profile.rate_class!r}, "
            f"rate={self.profile.packet_rate_hz}Hz, "
            f"arrivals={self.num_arrivals}, "
            f"frames={self.pool_occupied.shape[0]}/{self.pool_cycle})"
        )


def build_fleet_traffic(
    indices: Sequence[int],
    links: Sequence["Link"],
    *,
    seed: int,
    pipeline: "PipelineConfig",
    duration_s: float,
    pool_packets: int,
    occupied_fraction: float,
    class_mix: Mapping[str, float],
    class_rates_hz: Mapping[str, float],
) -> list[LinkTraffic]:
    """Synthesise many links' traffic, acquiring only what their windows read.

    Each link has one planning stream,
    ``ensure_rng(derive_link_seed(seed, link_index))``: it draws the
    collector's seed word, then the rate-class uniform, then the arrivals.
    A scoring link's collector draws from ``child_rng(word, "collector")``,
    so a link builds one generator, or two if it scores, and is
    byte-identical whichever worker builds it and whichever other links are
    built.  Three phases:

    * Plan: a link's arrivals are drawn before its CSI, so its complete
      windows are planned first, by the session's rule
      (:func:`~repro.api.session.window_starts`).  Arrival ``i`` reports
      pool frame ``i % pool_packets``, so the link reads frames ``0 …
      min(pool_packets, last window end) - 1``.  A link that plans no window
      is idle: it reads nothing and never scores, so it keeps its profile
      and arrivals and gets no collector, capture or frames.
    * Synthesise: clean CFRs (one empty, one occupied scene) once per
      *geometry* a scoring link uses, in one
      :meth:`~repro.channel.channel.ChannelSimulator.clean_cfr_batch` call
      each.  The simulator holds no random state, so links of one geometry
      share it; every draw is from a link's own collector generator.
    * Acquire: the calibration capture, then the frames the windows read, in
      one :meth:`~repro.csi.collector.PacketCollector.collect_batch` call
      per scoring link.  Every packet's impairment block and loss gap are
      drawn in packet order, so they are the bytes a full-pool acquisition
      gives those frames.  The frames are then written into the shard's
      frame layout, one concatenation per frame shape, in link order
      (:attr:`LinkTraffic.frames`, :attr:`LinkTraffic.first_frame`).

    *links* holds the geometry of each entry of *indices*, aligned
    one-to-one (entries may repeat — they are deduplicated by identity).
    """
    if len(links) != len(indices):
        raise ValueError(f"got {len(links)} links for {len(indices)} link indices")
    occupied_packets = int(round(pool_packets * occupied_fraction))
    occupied_packets = min(max(occupied_packets, 0), pool_packets)
    empty_packets = pool_packets - occupied_packets
    classes = rate_class_table(class_mix)

    plans: list[tuple[LinkProfile, np.ndarray, int, int]] = []
    for link_index, link in zip(indices, links):
        with obs.span("collect.plan"):
            rng = ensure_rng(derive_link_seed(seed, link_index))
            link_word = draw_word(rng)
            rate_class = assign_rate_class(rng, classes)
            profile = LinkProfile(
                index=link_index,
                name=f"link-{link_index:05d}",
                rate_class=rate_class,
                packet_rate_hz=float(class_rates_hz[rate_class]),
                case_name=getattr(link, "name", "") or "",
            )
            arrivals = poisson_arrival_times(rng, profile.packet_rate_hz, duration_s)
            starts = window_starts(arrivals.size, pipeline.window_packets, pipeline.window_stride)
            frames = min(pool_packets, starts[-1] + pipeline.window_packets) if starts.size else 0
            plans.append((profile, arrivals, link_word, frames))

    # One (simulator, [empty, occupied] cleans) per geometry a scoring link uses.
    cache: dict[int, tuple[ChannelSimulator, np.ndarray]] = {}
    with obs.span("collect.batch_synthesize"):
        for link, (_, _, _, frames) in zip(links, plans):
            if not frames or id(link) in cache:
                continue
            simulator = ChannelSimulator(link)
            grid = human_grid(link)
            human = HumanBody(position=grid[len(grid) // 2])
            cache[id(link)] = (simulator, simulator.clean_cfr_batch([None, [human]]))

    # Acquire every scoring link, then write the shard's frame layouts: one
    # array per frame shape, each link's frames after the previous link's.
    acquired: list[tuple[CSITrace, tuple[int, ...], int] | None] = []
    pools: dict[tuple[int, ...], list[np.ndarray]] = {}
    rows: dict[tuple[int, ...], int] = {}
    for link, (profile, _, link_word, frames) in zip(links, plans):
        if not frames:
            acquired.append(None)
            continue
        simulator, cleans = cache[id(link)]
        empty = min(empty_packets, frames)
        window_cleans = [cleans[0]]
        counts = [pipeline.calibration_packets]
        for clean, count in ((cleans[0], empty), (cleans[1], frames - empty)):
            if count:
                window_cleans.append(clean)
                counts.append(count)
        collector = pipeline.collector(simulator, rng=child_rng(link_word, "collector"))
        calibration, *captures = collector.collect_batch(
            np.stack(window_cleans),
            counts,
            labels=[f"{profile.name}/calibration"] + [""] * (len(counts) - 1),
        )
        shape = calibration.csi.shape[1:]
        acquired.append((calibration, shape, rows.get(shape, 0)))
        rows[shape] = rows.get(shape, 0) + frames
        pools.setdefault(shape, []).extend(trace.csi for trace in captures)
    layouts = {shape: np.concatenate(csi) for shape, csi in pools.items()}

    traffics: list[LinkTraffic] = []
    for link, (profile, arrivals, _, frames), capture in zip(links, plans, acquired):
        if capture is None:
            traffics.append(
                LinkTraffic(
                    profile=profile,
                    arrivals=arrivals,
                    calibration=None,
                    frames=np.empty(
                        (0, link.array.num_elements, len(INTEL5300_SUBCARRIER_INDICES)),
                        dtype=complex,
                    ),
                    pool_occupied=np.zeros(0, dtype=bool),
                    subcarrier_indices=INTEL5300_SUBCARRIER_INDICES,
                    pool_cycle=pool_packets,
                )
            )
            continue
        calibration, shape, first = capture
        traffics.append(
            LinkTraffic(
                profile=profile,
                arrivals=arrivals,
                calibration=calibration,
                frames=layouts[shape],
                pool_occupied=np.arange(frames) >= empty_packets,
                subcarrier_indices=calibration.subcarrier_indices,
                pool_cycle=pool_packets,
                first_frame=first,
            )
        )
    return traffics
