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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from repro import obs
from repro.channel.channel import ChannelSimulator
from repro.channel.human import HumanBody
from repro.channel.propagation import PropagationModel
from repro.csi.trace import CSITrace
from repro.experiments.scenarios import human_grid
from repro.utils.rng import derive_rng, ensure_rng

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


def _stream_rng(link_seed: int, key: str) -> np.random.Generator:
    """One named, order-independent random stream of a link.

    Each stream derives from a *fresh* generator of the link seed via
    :func:`~repro.utils.rng.derive_rng`, so the streams are mutually
    independent and adding a new stream never shifts the draws of an
    existing one.
    """
    return derive_rng(ensure_rng(link_seed), key)


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


def assign_rate_class(
    rng: np.random.Generator, class_mix: Mapping[str, float]
) -> str:
    """Draw one link's rate class from the population mix.

    Classes are laid out in :data:`RATE_CLASSES` order and selected by a
    single uniform draw against the cumulative (normalised) mix, so the
    assignment is deterministic per link stream.
    """
    names = [name for name in RATE_CLASSES if class_mix.get(name, 0.0) > 0]
    weights = np.asarray([class_mix[name] for name in names], dtype=float)
    cumulative = np.cumsum(weights) / weights.sum()
    draw = rng.random()
    return names[int(np.searchsorted(cumulative, draw, side="right").clip(0, len(names) - 1))]


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
    """One link's complete synthetic traffic: schedule, calibration and CSI.

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
        Finite complex array of shape ``(pool, antennas, subcarriers)``;
        arrival ``i`` reports frame ``i % pool``, so the link cycles through
        an idle burst followed by an occupied burst.
    pool_occupied:
        Ground-truth occupancy per pool frame.
    subcarrier_indices:
        Frequency grid shared by every frame.
    """

    def __init__(
        self,
        profile: LinkProfile,
        arrivals: np.ndarray,
        calibration: CSITrace,
        pool_csi: np.ndarray,
        pool_occupied: np.ndarray,
        subcarrier_indices: tuple[int, ...],
    ) -> None:
        if pool_csi.ndim != 3 or pool_csi.shape[0] < 1:
            raise ValueError(
                f"pool_csi must be (pool, antennas, subcarriers) with at "
                f"least one frame, got shape {pool_csi.shape}"
            )
        if not np.all(np.isfinite(pool_csi)):
            raise ValueError("pool_csi contains non-finite values")
        if pool_occupied.shape != (pool_csi.shape[0],):
            raise ValueError(
                f"pool_occupied has shape {pool_occupied.shape}, expected "
                f"({pool_csi.shape[0]},)"
            )
        self.profile = profile
        self.arrivals = np.asarray(arrivals, dtype=float)
        if self.arrivals.ndim != 1 or not np.all(np.diff(self.arrivals) >= 0):
            raise ValueError("arrivals must be a non-decreasing 1-D array of times")
        self.calibration = calibration
        self.pool_csi = pool_csi
        self.pool_occupied = pool_occupied
        self.subcarrier_indices = subcarrier_indices

    @property
    def num_arrivals(self) -> int:
        """Packets this link delivers over the fleet run."""
        return int(self.arrivals.shape[0])

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(link={self.profile.name!r}, "
            f"class={self.profile.rate_class!r}, "
            f"rate={self.profile.packet_rate_hz}Hz, "
            f"arrivals={self.num_arrivals})"
        )


def build_link_traffic(
    link_index: int,
    link: "Link",
    *,
    seed: int,
    pipeline: "PipelineConfig",
    duration_s: float,
    pool_packets: int,
    occupied_fraction: float,
    class_mix: Mapping[str, float],
    class_rates_hz: Mapping[str, float],
) -> LinkTraffic:
    """Synthesise one link's traffic from the fleet seed and its index.

    Every random stream (class assignment, arrival schedule, channel
    impairments, collector draws) is derived from ``(seed, link_index)``
    alone — see :func:`derive_link_seed` / :func:`_stream_rng` — so the same
    link is byte-identical no matter which worker builds it or how large the
    population is.
    """
    link_seed = derive_link_seed(seed, link_index)
    rate_class = assign_rate_class(_stream_rng(link_seed, "class"), class_mix)
    profile = LinkProfile(
        index=link_index,
        name=f"link-{link_index:05d}",
        rate_class=rate_class,
        packet_rate_hz=float(class_rates_hz[rate_class]),
        case_name=getattr(link, "name", "") or "",
    )
    arrivals = poisson_arrival_times(
        _stream_rng(link_seed, "arrivals"), profile.packet_rate_hz, duration_s
    )

    simulator = ChannelSimulator(
        link,
        propagation=PropagationModel(tx_power=link.tx_power),
        seed=int(_stream_rng(link_seed, "channel").integers(0, 2**31 - 1)),
    )
    collector = pipeline.collector(simulator, rng=_stream_rng(link_seed, "collector"))
    calibration = collector.collect(
        None,
        num_packets=pipeline.calibration_packets,
        label=f"{profile.name}/calibration",
    )

    occupied_packets = int(round(pool_packets * occupied_fraction))
    occupied_packets = min(max(occupied_packets, 0), pool_packets)
    empty_packets = pool_packets - occupied_packets
    pools: list[CSITrace] = []
    if empty_packets:
        pools.append(collector.collect(None, num_packets=empty_packets))
    if occupied_packets:
        grid = human_grid(link)
        human = HumanBody(position=grid[len(grid) // 2])
        pools.append(collector.collect([human], num_packets=occupied_packets))
    pool_csi = np.concatenate([trace.csi for trace in pools], axis=0)
    pool_occupied = np.concatenate(
        [
            np.zeros(empty_packets, dtype=bool),
            np.ones(occupied_packets, dtype=bool),
        ]
    )
    return LinkTraffic(
        profile=profile,
        arrivals=arrivals,
        calibration=calibration,
        pool_csi=pool_csi,
        pool_occupied=pool_occupied,
        subcarrier_indices=calibration.subcarrier_indices,
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
    """Synthesise many links' traffic through shared batched plans.

    Byte-identical to :func:`build_link_traffic` per link (the parity suite
    pins it), at a fraction of the cost for realistic populations:

    * Links reuse a handful of evaluation-case geometries, so the clean CFRs
      (one empty, one occupied scene per geometry) are synthesised once per
      *geometry* — one :meth:`~repro.channel.channel.ChannelSimulator.clean_cfr_batch`
      call each — instead of once per link.  Sharing a simulator across links
      is byte-safe because the collect path never draws from the simulator's
      own streams: all per-packet randomness comes from the loss and
      impairment streams each link's collector derives from its "collector"
      stream.  (:func:`build_link_traffic` seeds its simulator from the
      link's "channel" stream; that stream is independent of every other, so
      not consuming it changes no other draw.)
    * Each link's three captures (calibration, empty pool, occupied pool)
      are acquired in one
      :meth:`~repro.csi.collector.PacketCollector.collect_batch` call, which
      draws exactly what three consecutive captures would.

    *links* holds the geometry of each entry of *indices*, aligned
    one-to-one (entries may repeat — they are deduplicated by identity).
    """
    if len(links) != len(indices):
        raise ValueError(
            f"got {len(links)} links for {len(indices)} link indices"
        )
    occupied_packets = int(round(pool_packets * occupied_fraction))
    occupied_packets = min(max(occupied_packets, 0), pool_packets)
    empty_packets = pool_packets - occupied_packets

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
            link_seed = derive_link_seed(seed, link_index)
            rate_class = assign_rate_class(_stream_rng(link_seed, "class"), class_mix)
            profile = LinkProfile(
                index=link_index,
                name=f"link-{link_index:05d}",
                rate_class=rate_class,
                packet_rate_hz=float(class_rates_hz[rate_class]),
                case_name=getattr(link, "name", "") or "",
            )
            arrivals = poisson_arrival_times(
                _stream_rng(link_seed, "arrivals"), profile.packet_rate_hz, duration_s
            )
            window_cleans = [cleans[0]]
            counts = [pipeline.calibration_packets]
            labels = [f"{profile.name}/calibration"]
            if empty_packets:
                window_cleans.append(cleans[0])
                counts.append(empty_packets)
                labels.append("")
            if occupied_packets:
                window_cleans.append(cleans[1])
                counts.append(occupied_packets)
                labels.append("")
        collector = pipeline.collector(
            simulator, rng=_stream_rng(link_seed, "collector")
        )
        traces = collector.collect_batch(
            np.stack(window_cleans), counts, labels=labels
        )
        calibration = traces[0]
        pool_csi = np.concatenate([trace.csi for trace in traces[1:]], axis=0)
        pool_occupied = np.concatenate(
            [
                np.zeros(empty_packets, dtype=bool),
                np.ones(occupied_packets, dtype=bool),
            ]
        )
        traffics.append(
            LinkTraffic(
                profile=profile,
                arrivals=arrivals,
                calibration=calibration,
                pool_csi=pool_csi,
                pool_occupied=pool_occupied,
                subcarrier_indices=calibration.subcarrier_indices,
            )
        )
    return traffics
