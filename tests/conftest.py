"""Shared fixtures: a small simulated link, collector and traces.

The fixtures are deliberately tiny (few packets, simple room) so the full
test suite runs in seconds; the heavier end-to-end behaviour is exercised by
the integration tests and the benchmarks.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.channel import ChannelSimulator, HumanBody, Link, Point, Room
from repro.csi import CSITrace, PacketCollector


@pytest.fixture(scope="session")
def room() -> Room:
    """An 8 m x 6 m concrete room."""
    return Room.rectangular(8.0, 6.0, name="test-room")


@pytest.fixture(scope="session")
def link(room: Room) -> Link:
    """A 4 m link across the middle of the room."""
    return Link(room=room, tx=Point(2.0, 3.0), rx=Point(6.0, 3.0), name="test-link")


@pytest.fixture(scope="session")
def simulator(link: Link) -> ChannelSimulator:
    """The channel simulator of the test link (deterministic clean CFRs)."""
    return ChannelSimulator(link)


@pytest.fixture(scope="session")
def collector(simulator: ChannelSimulator) -> PacketCollector:
    """A packet collector with default impairments on the test link."""
    return PacketCollector(simulator, seed=4321)


@pytest.fixture(scope="session")
def human(link: Link) -> HumanBody:
    """A person standing on the LOS path of the link."""
    return HumanBody(position=Point(4.0, 3.0))


@pytest.fixture(scope="session")
def off_path_human() -> HumanBody:
    """A person standing about one metre off the LOS path."""
    return HumanBody(position=Point(4.0, 4.0))


@pytest.fixture(scope="session")
def empty_trace(collector: PacketCollector) -> CSITrace:
    """A 60-packet trace of the empty room."""
    return collector.collect_empty(num_packets=60)


@pytest.fixture(scope="session")
def occupied_trace(collector: PacketCollector, human: HumanBody) -> CSITrace:
    """A 30-packet trace with a person on the LOS path."""
    return collector.collect(human, num_packets=30, label="occupied")


@pytest.fixture(scope="session")
def off_path_trace(collector: PacketCollector, off_path_human: HumanBody) -> CSITrace:
    """A 30-packet trace with a person near (but not on) the LOS path."""
    return collector.collect(off_path_human, num_packets=30, label="off-path")


@pytest.fixture()
def rng() -> np.random.Generator:
    """A per-test deterministic generator."""
    return np.random.default_rng(7)
