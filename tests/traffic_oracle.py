"""The full-pool traffic oracle: one link built the long way.

:func:`repro.fleet.traffic.build_fleet_traffic` acquires only the pool frames
a link's windows read, shares clean CFRs across links of one geometry and
draws each link's seed word once.  This oracle does none of that: it derives
every stream from a fresh generator of the link seed, gives the link its own
simulator (seeded from the link's independent ``"channel"`` stream), and
acquires the calibration capture and the *whole* pool through three plain
:meth:`~repro.csi.collector.PacketCollector.collect` calls.  Its
``pool_csi`` is the full cycle, so the fleet's acquired frames must be its
prefix, and sequential ``push`` over it is the reference event stream.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from repro.api.config import PipelineConfig
from repro.channel.channel import ChannelSimulator, Link
from repro.channel.human import HumanBody
from repro.channel.propagation import PropagationModel
from repro.csi.trace import CSITrace
from repro.experiments.scenarios import human_grid
from repro.fleet.traffic import (
    LinkProfile,
    LinkTraffic,
    assign_rate_class,
    derive_link_seed,
    poisson_arrival_times,
    rate_class_table,
)
from repro.utils.rng import derive_rng, ensure_rng


def full_pool_traffic(
    link_index: int,
    link: Link,
    *,
    seed: int,
    pipeline: PipelineConfig,
    duration_s: float,
    pool_packets: int,
    occupied_fraction: float,
    class_mix: Mapping[str, float],
    class_rates_hz: Mapping[str, float],
) -> LinkTraffic:
    """One link's traffic with its whole pool acquired."""
    link_seed = derive_link_seed(seed, link_index)

    def stream(key: str) -> np.random.Generator:
        return derive_rng(ensure_rng(link_seed), key)

    rate_class = assign_rate_class(stream("class"), rate_class_table(class_mix))
    profile = LinkProfile(
        index=link_index,
        name=f"link-{link_index:05d}",
        rate_class=rate_class,
        packet_rate_hz=float(class_rates_hz[rate_class]),
        case_name=getattr(link, "name", "") or "",
    )
    arrivals = poisson_arrival_times(stream("arrivals"), profile.packet_rate_hz, duration_s)
    simulator = ChannelSimulator(
        link,
        propagation=PropagationModel(tx_power=link.tx_power),
        seed=int(stream("channel").integers(0, 2**31 - 1)),
    )
    collector = pipeline.collector(simulator, rng=stream("collector"))
    calibration = collector.collect(
        None, num_packets=pipeline.calibration_packets, label=f"{profile.name}/calibration"
    )
    occupied_packets = min(max(int(round(pool_packets * occupied_fraction)), 0), pool_packets)
    empty_packets = pool_packets - occupied_packets
    pools: list[CSITrace] = []
    if empty_packets:
        pools.append(collector.collect(None, num_packets=empty_packets))
    if occupied_packets:
        grid = human_grid(link)
        human = HumanBody(position=grid[len(grid) // 2])
        pools.append(collector.collect([human], num_packets=occupied_packets))
    return LinkTraffic(
        profile=profile,
        arrivals=arrivals,
        calibration=calibration,
        pool_csi=np.concatenate([trace.csi for trace in pools], axis=0),
        pool_occupied=np.arange(pool_packets) >= empty_packets,
        subcarrier_indices=calibration.subcarrier_indices,
        pool_cycle=pool_packets,
    )
