"""Synthetic fleet traffic: deterministic Poisson packet arrivals per link.

A production deployment is thousands of independent links with ragged packet
schedules, not the handful of lockstep streams the evaluation campaign
drives.  This module synthesises that traffic: every link of the population
draws from its own seeded streams — rate class, Poisson arrival process and
channel/collector randomness — all derived from the fleet seed and the link
index alone.  Any subset of the population can therefore be rebuilt on any
worker in any order and produce byte-identical traffic, which is what makes
the sharded fleet engine deterministic.

The population is heterogeneous in the FAIRSERVE workload-generator style:
links belong to rate classes (``normal`` / ``busy`` / ``abusive``) drawn from
a configured mix, and each class pings at its own Poisson rate.  The CSI a
link reports comes from the paper's channel simulator: a per-link calibration
capture of the empty environment plus a pool of monitoring packets split
between empty and occupied scenes, cycled over the arrival schedule so the
link alternates idle and occupied bursts.

Set-up does only the work the run reads: a link's arrivals are drawn before
its CSI, so only the pool frames its complete windows read are acquired
(:class:`LinkTraffic` holds that prefix of the cycle).
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from repro import obs
from repro.api.session import window_starts
from repro.channel.channel import ChannelSimulator
from repro.channel.human import HumanBody
from repro.channel.propagation import PropagationModel
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
    read, and :meth:`arrival_csi` is the one lookup from arrivals to frames.

    Parameters
    ----------
    profile:
        The link's static description.
    arrivals:
        Non-decreasing packet arrival times in seconds (so a link's windows
        complete in order).
    calibration:
        Empty-environment capture used to calibrate the link's session.
    pool_csi:
        Finite complex ``(frames, antennas, subcarriers)`` array of the
        acquired pool frames ``0 … frames - 1`` (none for a link that
        completes no window).
    pool_occupied:
        Ground-truth occupancy per acquired frame.
    subcarrier_indices:
        Frequency grid shared by every frame.
    pool_cycle:
        Frames in the pool's full cycle, ``>= max(frames, 1)``.
    """

    def __init__(
        self,
        profile: LinkProfile,
        arrivals: np.ndarray,
        calibration: CSITrace,
        pool_csi: np.ndarray,
        pool_occupied: np.ndarray,
        subcarrier_indices: tuple[int, ...],
        pool_cycle: int,
    ) -> None:
        if pool_csi.ndim != 3:
            raise ValueError(f"pool_csi must be (frames, antennas, subcarriers): {pool_csi.shape}")
        frames = pool_csi.shape[0]
        if isinstance(pool_cycle, bool) or not isinstance(pool_cycle, int) or (
            pool_cycle < max(frames, 1)
        ):
            raise ValueError(
                f"pool_cycle must be an integer >= max(1, {frames} acquired "
                f"frames), got {pool_cycle!r}"
            )
        if not np.all(np.isfinite(pool_csi)):
            raise ValueError("pool_csi contains non-finite values")
        if pool_occupied.shape != (frames,):
            raise ValueError(
                f"pool_occupied has shape {pool_occupied.shape}, expected ({frames},)"
            )
        self.profile = profile
        self.arrivals = np.asarray(arrivals, dtype=float)
        if self.arrivals.ndim != 1 or not np.all(np.diff(self.arrivals) >= 0):
            raise ValueError("arrivals must be a non-decreasing 1-D array of times")
        self.calibration = calibration
        self.pool_csi = pool_csi
        self.pool_occupied = pool_occupied
        self.subcarrier_indices = subcarrier_indices
        self.pool_cycle = pool_cycle

    @property
    def num_arrivals(self) -> int:
        """Packets this link delivers over the fleet run."""
        return int(self.arrivals.shape[0])

    def arrival_csi(self, arrivals: int | np.ndarray) -> np.ndarray:
        """The CSI arrival(s) ``i`` report, frame ``i % pool_cycle``;
        :class:`IndexError` for a frame that was not acquired."""
        return self.pool_csi[np.asarray(arrivals) % self.pool_cycle]

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(link={self.profile.name!r}, "
            f"class={self.profile.rate_class!r}, "
            f"rate={self.profile.packet_rate_hz}Hz, "
            f"arrivals={self.num_arrivals}, "
            f"frames={self.pool_csi.shape[0]}/{self.pool_cycle})"
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

    Each stream of a link (class, arrivals, collector) is
    ``derive_rng(ensure_rng(derive_link_seed(seed, link_index)), key)``, so
    a link is byte-identical whichever worker builds it; the streams share
    one parent state, so its word is drawn once per link.

    * Clean CFRs (one empty, one occupied scene) are synthesised once per
      *geometry*, in one
      :meth:`~repro.channel.channel.ChannelSimulator.clean_cfr_batch` call.
      Sharing a simulator across links is byte-safe: the collect path draws
      only from each link's collector streams.
    * A link's arrivals are drawn before its CSI, so its complete windows
      are planned first, by the session's rule
      (:func:`~repro.api.session.window_starts`).  Arrival ``i`` reports
      pool frame ``i % pool_packets``, so only frames ``0 …
      min(pool_packets, last window end) - 1`` are acquired, after the
      calibration capture, in one
      :meth:`~repro.csi.collector.PacketCollector.collect_batch` call.
      Every impairment quantity and loss gap is drawn per packet, in packet
      order, on its own stream, so they are the bytes a full-pool
      acquisition gives those frames.

    *links* holds the geometry of each entry of *indices*, aligned
    one-to-one (entries may repeat — they are deduplicated by identity).
    """
    if len(links) != len(indices):
        raise ValueError(f"got {len(links)} links for {len(indices)} link indices")
    occupied_packets = int(round(pool_packets * occupied_fraction))
    occupied_packets = min(max(occupied_packets, 0), pool_packets)
    empty_packets = pool_packets - occupied_packets
    classes = rate_class_table(class_mix)

    # One (simulator, [empty, occupied] cleans) per distinct geometry.
    cache: dict[int, tuple[ChannelSimulator, np.ndarray]] = {}
    with obs.span("collect.batch_synthesize"):
        for link in links:
            if id(link) in cache:
                continue
            simulator = ChannelSimulator(
                link,
                propagation=PropagationModel(tx_power=link.tx_power),
                seed=0,
            )
            grid = human_grid(link)
            human = HumanBody(position=grid[len(grid) // 2])
            cache[id(link)] = (simulator, simulator.clean_cfr_batch([None, [human]]))

    traffics: list[LinkTraffic] = []
    for link_index, link in zip(indices, links):
        simulator, cleans = cache[id(link)]
        with obs.span("collect.plan"):
            link_word = draw_word(ensure_rng(derive_link_seed(seed, link_index)))
            rate_class = assign_rate_class(child_rng(link_word, "class"), classes)
            profile = LinkProfile(
                index=link_index,
                name=f"link-{link_index:05d}",
                rate_class=rate_class,
                packet_rate_hz=float(class_rates_hz[rate_class]),
                case_name=getattr(link, "name", "") or "",
            )
            arrivals = poisson_arrival_times(
                child_rng(link_word, "arrivals"), profile.packet_rate_hz, duration_s
            )
            # Only the pool frames the link's complete windows read.
            starts = window_starts(arrivals.size, pipeline.window_packets, pipeline.window_stride)
            frames = min(pool_packets, starts[-1] + pipeline.window_packets) if starts.size else 0
            empty = min(empty_packets, frames)
            window_cleans = [cleans[0]]
            counts = [pipeline.calibration_packets]
            labels = [f"{profile.name}/calibration"]
            for clean, count in ((cleans[0], empty), (cleans[1], frames - empty)):
                if count:
                    window_cleans.append(clean)
                    counts.append(count)
                    labels.append("")
        collector = pipeline.collector(simulator, rng=child_rng(link_word, "collector"))
        calibration, *pools = collector.collect_batch(
            np.stack(window_cleans), counts, labels=labels
        )
        traffics.append(
            LinkTraffic(
                profile=profile,
                arrivals=arrivals,
                calibration=calibration,
                pool_csi=np.concatenate(
                    [calibration.csi[:0], *(trace.csi for trace in pools)]
                ),
                pool_occupied=np.arange(frames) >= empty_packets,
                subcarrier_indices=calibration.subcarrier_indices,
                pool_cycle=pool_packets,
            )
        )
    return traffics
