"""Packet collection: sampling the channel simulator like a pinging receiver.

In the paper's testbed the receiver pings the AP at 50 packets per second and
the CSI tool reports one CSI group per received packet.  The
:class:`PacketCollector` reproduces that acquisition loop on top of a
:class:`~repro.channel.channel.ChannelSimulator`, producing
:class:`~repro.csi.trace.CSITrace` objects with realistic timestamps and
optional packet loss.

Acquisition is array at a time: a call draws the lost-ping gaps of all its
packets in one vectorised draw from the collector's loss stream, and impairs
all its packets in one :meth:`~repro.channel.noise.ImpairmentModel.apply`
call on the collector's per-quantity impairment streams.  Every quantity is
drawn in packet order, so collecting windows in one call or split over
consecutive calls gives byte-identical traces (a capture cut short holds
the full one's leading packets).  A loss-free collector never builds its
loss generator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro import obs
from repro.channel.channel import ChannelSimulator
from repro.channel.constants import DEFAULT_PACKET_RATE_HZ
from repro.channel.geometry import Point
from repro.channel.human import HumanBody
from repro.channel.noise import ImpairmentStreams
from repro.csi.trace import CSITrace
from repro.utils.rng import SeedLike, child_rng, draw_word, ensure_rng
from repro.utils.validation import check_probability

#: Consecutive lost pings after which collection aborts.  With the validated
#: ``loss_probability < 1`` this is astronomically unlikely to trigger for any
#: sane configuration (p = 0.999 reaches it with probability ~1e-44); it
#: exists to turn a mis-modelled loss process into a clear error instead of a
#: silent near-endless capture.
MAX_CONSECUTIVE_LOSSES = 100_000


@dataclass
class PacketCollector:
    """Collect CSI traces from a simulated link at a fixed packet rate.

    Parameters
    ----------
    simulator:
        The channel simulator standing in for the AP/NIC pair.
    packet_rate_hz:
        Ping rate; the paper uses 50 packets per second.
    loss_probability:
        Independent probability that a ping is lost (no CSI reported).  Losses
        shift subsequent timestamps exactly as they would on hardware.  Must
        be strictly below 1: with certain loss no capture can ever complete.
    seed:
        Seed for the loss process and per-packet impairments.
    rng:
        Explicit generator for the loss process and impairments; takes
        precedence over *seed*.  The collector derives its loss stream and
        its :class:`~repro.channel.noise.ImpairmentStreams` from it once, at
        construction, so collectors built from one shared generator get
        distinct streams in construction order.
    """

    simulator: ChannelSimulator
    packet_rate_hz: float = DEFAULT_PACKET_RATE_HZ
    loss_probability: float = 0.0
    seed: SeedLike = None
    rng: np.random.Generator | None = None

    def __post_init__(self) -> None:
        if self.packet_rate_hz <= 0:
            raise ValueError(f"packet_rate_hz must be > 0, got {self.packet_rate_hz}")
        check_probability(
            "loss_probability",
            self.loss_probability,
            exclusive_upper=True,
            reason="with certain loss a fixed-size capture never completes",
        )
        if self.rng is not None and not isinstance(self.rng, np.random.Generator):
            raise TypeError(
                f"rng must be a numpy.random.Generator, got {type(self.rng).__name__}"
            )
        rng = self.rng if self.rng is not None else ensure_rng(self.seed)
        # Impairment streams first: a collector and ``sample_trajectory``
        # given the same seed then impair identically.
        self._streams = ImpairmentStreams.derive(rng)
        self._loss_word = draw_word(rng)
        self._loss_rng: np.random.Generator | None = None

    @property
    def _loss(self) -> np.random.Generator:
        """``derive_rng(rng, "loss")``, built on the first loss draw."""
        if self._loss_rng is None:
            self._loss_rng = child_rng(self._loss_word, "loss")
        return self._loss_rng

    def _impair(self, cleans: np.ndarray, candidates: np.ndarray) -> np.ndarray:
        """Impair one packet per candidate index on this collector's streams."""
        simulator = self.simulator
        csi = simulator.impairments.apply(
            cleans, candidates, simulator.subcarrier_indices, self._streams
        )
        obs.count("collect.packets", candidates.size)
        return csi

    # ------------------------------------------------------------------ #
    # static scenes
    # ------------------------------------------------------------------ #
    def collect(
        self,
        humans: Sequence[HumanBody] | HumanBody | None = None,
        *,
        num_packets: int,
        label: str = "",
        start_time: float = 0.0,
    ) -> CSITrace:
        """Collect *num_packets* received packets for a static scene.

        Lost pings are skipped (they consume time but produce no CSI), so the
        returned trace always contains exactly *num_packets* frames, matching
        how a fixed-size capture is gathered on hardware.  This is
        :meth:`collect_batch` of one window.
        """
        if num_packets < 1:
            raise ValueError(f"num_packets must be >= 1, got {num_packets}")
        with obs.span("collect.synthesize"):
            cleans = self.simulator.clean_cfr_batch([humans])
        return self.collect_batch(
            cleans, [num_packets], labels=[label], start_time=start_time
        )[0]

    def collect_batch(
        self,
        cleans: np.ndarray,
        counts: Sequence[int],
        *,
        labels: Sequence[str] | None = None,
        start_time: float = 0.0,
    ) -> list[CSITrace]:
        """Collect several static-scene windows in one vectorised pass.

        Every window's time axis starts at *start_time*.  Lost pings draw
        geometric gaps between received packets, one per packet, and every
        impairment quantity is drawn per packet in window order, so the
        traces are byte-identical to collecting the same windows over any
        run of consecutive calls.

        Parameters
        ----------
        cleans:
            Clean CFRs, shape ``(windows, antennas, subcarriers)`` — one
            static scene per requested window (entries may repeat).
        counts:
            Received packets per window, one entry per clean; all >= 1.
        labels:
            Optional per-window trace labels (default ``""``).
        start_time:
            Time origin of every window (matching ``collect``'s default of
            ``0.0`` per call).
        """
        cleans = np.asarray(cleans, dtype=complex)
        if cleans.ndim != 3:
            raise ValueError(
                f"cleans must have shape (windows, antennas, subcarriers), "
                f"got {cleans.shape}"
            )
        counts = [int(count) for count in counts]
        if len(counts) != cleans.shape[0]:
            raise ValueError(
                f"got {len(counts)} packet counts for {cleans.shape[0]} windows"
            )
        if any(count < 1 for count in counts):
            raise ValueError(f"every window needs >= 1 packets, got {counts}")
        if labels is not None and len(labels) != len(counts):
            raise ValueError(
                f"got {len(labels)} labels for {len(counts)} windows"
            )
        total = sum(counts)
        with obs.span("collect.impair"):
            # Pings per received packet: 1 + the lost pings before it.
            if self.loss_probability > 0:
                gaps = self._loss.geometric(1.0 - self.loss_probability, size=total)
                if gaps.max() > MAX_CONSECUTIVE_LOSSES:
                    raise RuntimeError(
                        f"aborting capture: {MAX_CONSECUTIVE_LOSSES} consecutive "
                        f"pings lost at loss_probability={self.loss_probability}; "
                        "the loss process never delivers packets"
                    )
            else:
                gaps = np.ones(total, dtype=np.int64)
            window_of = np.repeat(np.arange(len(counts)), counts)
            csi = self._impair(cleans, window_of)
        # Ping slots since each window's start: the running gap total,
        # restarted at every window boundary.
        slots = np.cumsum(gaps)
        window_start = np.cumsum(counts) - counts
        slots -= np.repeat(slots[window_start] - gaps[window_start], counts)
        timestamps = start_time + slots / self.packet_rate_hz
        traces: list[CSITrace] = []
        for window, (start, count) in enumerate(zip(window_start, counts)):
            traces.append(
                CSITrace(
                    csi=csi[start : start + count],
                    timestamps=timestamps[start : start + count],
                    label=labels[window] if labels is not None else "",
                )
            )
        return traces

    def collect_empty(self, *, num_packets: int, label: str = "empty") -> CSITrace:
        """Collect a static (no human) profile trace."""
        return self.collect(None, num_packets=num_packets, label=label)

    # ------------------------------------------------------------------ #
    # moving scenes
    # ------------------------------------------------------------------ #
    def collect_walk(
        self,
        positions: Sequence[Point],
        *,
        body: HumanBody | None = None,
        background: Sequence[HumanBody] = (),
        label: str = "walk",
        start_time: float = 0.0,
    ) -> CSITrace:
        """Collect packets for a person walking along a trajectory.

        The trajectory should already be sampled at the packet rate (use
        :func:`repro.experiments.workloads.walking_trajectory`); each ping
        sees the person at the corresponding position.

        The loss process is the same as :meth:`collect`, drawn as one
        uniform per position: a lost ping consumes its trajectory position
        (the person keeps walking) and shifts subsequent timestamps, but
        produces no CSI.  With loss enabled the returned trace therefore
        holds *fewer* packets than positions — the walk is bounded in time,
        unlike a fixed-size static capture.  With ``loss_probability=0``
        there is exactly one packet per position, identical to
        :meth:`~repro.channel.channel.ChannelSimulator.sample_trajectory` on
        the same seed.

        All per-position clean CFRs are synthesised in one
        :meth:`~repro.channel.channel.ChannelSimulator.clean_cfr_batch` pass
        (the background bodies are shared across scenes); the received
        positions are then impaired in one kernel call.
        """
        if not positions:
            raise ValueError("positions must contain at least one point")
        template = (
            body if body is not None else HumanBody(position=self.simulator.link.midpoint())
        )
        background = list(background)
        with obs.span("collect.synthesize"):
            scenes = [
                [template.moved_to(position), *background] for position in positions
            ]
            cleans = self.simulator.clean_cfr_batch(scenes)
        with obs.span("collect.impair"):
            received = np.arange(len(positions))
            if self.loss_probability > 0:
                lost = self._loss.random(len(positions)) < self.loss_probability
                received = received[~lost]
                if received.size == 0:
                    raise RuntimeError(
                        f"every ping of the {len(positions)}-position walk was lost "
                        f"(loss_probability={self.loss_probability}); no CSI collected"
                    )
            csi = self._impair(cleans, received)
        timestamps = start_time + (received + 1) / self.packet_rate_hz
        return CSITrace(csi=csi, timestamps=timestamps, label=label)
