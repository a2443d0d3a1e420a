"""Declarative pipeline configuration.

A :class:`PipelineConfig` captures everything needed to construct a detection
pipeline — which registered detector to use, how traces are sanitised, how
monitoring windows slide, how the decision threshold is chosen and how packets
are collected — as one flat, JSON-serialisable dataclass.  The CLI, the
experiment runner, the examples and any future service build their pipelines
from the same config type, so a config file describes one pipeline everywhere.

Typical use::

    from repro.api import PipelineConfig

    config = PipelineConfig(detector="combined", window_packets=25)
    session = config.session(link)            # -> StreamingSession
    session.calibrate(calibration_trace)
    for frame in live_frames:
        event = session.push(frame)           # -> DetectionEvent | None
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, Mapping

from repro.backend import check_backend
from repro.utils.validation import (
    check_finite_real,
    check_integer,
    check_known_keys,
    check_probability,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.channel.channel import ChannelSimulator, Link
    from repro.core.detector import Detector
    from repro.csi.collector import PacketCollector

    from repro.api.session import StreamingSession

#: Spectrum estimators selectable for the combined scheme.
SPECTRA: tuple[str, ...] = ("bartlett", "music")

#: Supported threshold policies (see :class:`PipelineConfig.threshold_policy`).
THRESHOLD_POLICIES: tuple[str, ...] = ("fixed", "calibration")

#: Fields whose ``None`` means "not set" (see :class:`PipelineConfig`).
_OPTIONAL_FIELDS = frozenset({"window_stride", "threshold", "seed"})


@dataclass(frozen=True)
class PipelineConfig:
    """Declarative description of one detection pipeline.

    Parameters
    ----------
    detector:
        Name of a detector registered in :mod:`repro.api.registry`
        (``"baseline"``, ``"subcarrier"``, ``"combined"`` are built in).
    sanitize:
        Whether traces are phase-sanitised before processing.
    use_stability_ratio:
        Subcarrier-weighting variant (Eq. 15 when True, the per-packet Eq. 12
        ablation when False).
    spectrum:
        Angular spectrum estimator for the combined scheme: ``"bartlett"``
        (library default) or ``"music"`` (the paper's literal choice).
    theta_min_deg, theta_max_deg:
        Angular gate of the path weights.
    window_packets:
        Packets per monitoring window (25 = 0.5 s at 50 packets/s).
    window_stride:
        How many packets a streaming session advances between scored windows.
        ``None`` means tumbling windows (stride = ``window_packets``), matching
        how the batch campaign consumes disjoint windows; ``1`` scores a fully
        sliding window on every new packet.
    calibration_packets:
        Packets collected for the empty-environment profile.
    threshold:
        Fixed decision threshold (required when ``threshold_policy="fixed"``).
    threshold_policy:
        ``"fixed"`` compares scores against :attr:`threshold`;
        ``"calibration"`` derives the threshold at calibration time from the
        empty-environment windows themselves (max calibration-window score
        times :attr:`threshold_margin`).
    threshold_margin:
        Safety factor of the calibration-derived threshold.
    packet_rate_hz:
        Collector ping rate.
    loss_probability:
        Collector packet-loss probability.
    seed:
        Seed for the pipeline's stochastic components (collector loss process
        and impairments).
    backend:
        Numeric backend (:mod:`repro.backend`) the pipeline's computation
        runs under: ``"exact"`` (default, byte-identical libm-routed
        kernels) or ``"fast"`` (SIMD kernels, tolerance parity).  Any other
        name fails here, when the config is built.  The entry point that runs
        the pipeline — the campaign bridge, the ``pipeline`` CLI command —
        activates it with :func:`repro.backend.use_backend`; library callers
        driving a :class:`~repro.api.session.StreamingSession` directly wrap
        their own computation the same way.  Fleet runs ignore this field:
        the fleet backend comes from :class:`~repro.fleet.FleetConfig`, like
        the fleet seed.
    """

    detector: str = "combined"
    sanitize: bool = True
    use_stability_ratio: bool = True
    spectrum: str = "bartlett"
    theta_min_deg: float = -60.0
    theta_max_deg: float = 60.0
    window_packets: int = 25
    window_stride: int | None = None
    calibration_packets: int = 150
    threshold: float | None = None
    threshold_policy: str = "calibration"
    threshold_margin: float = 1.5
    packet_rate_hz: float = 50.0
    loss_probability: float = 0.0
    seed: int | None = None
    backend: str = "exact"

    def __post_init__(self) -> None:
        if not self.detector or not isinstance(self.detector, str):
            raise ValueError(f"detector must be a non-empty string, got {self.detector!r}")
        check_backend(self.backend)
        if self.spectrum not in SPECTRA:
            raise ValueError(
                f"spectrum must be one of {SPECTRA}, got {self.spectrum!r}"
            )
        # Types first, so a config file fails here with one line: a fraction
        # or boolean size, a NaN rate or a "no" flag would otherwise crash
        # mid-run or run a pipeline other than the one written down.
        for name in ("sanitize", "use_stability_ratio"):
            if not isinstance(getattr(self, name), bool):
                raise ValueError(f"{name} must be true or false, got {getattr(self, name)!r}")
        for name, check in (
            ("window_packets", check_integer),
            ("window_stride", check_integer),
            ("calibration_packets", check_integer),
            ("seed", check_integer),
            ("threshold", check_finite_real),
            ("threshold_margin", check_finite_real),
            ("packet_rate_hz", check_finite_real),
            ("theta_min_deg", check_finite_real),
            ("theta_max_deg", check_finite_real),
        ):
            value = getattr(self, name)
            if not (value is None and name in _OPTIONAL_FIELDS):
                object.__setattr__(self, name, check(name, value))
        if self.window_packets < 1:
            raise ValueError(f"window_packets must be >= 1, got {self.window_packets}")
        if self.window_stride is not None and self.window_stride < 1:
            raise ValueError(f"window_stride must be >= 1, got {self.window_stride}")
        if self.calibration_packets < 2:
            raise ValueError(
                f"calibration_packets must be >= 2, got {self.calibration_packets}"
            )
        if self.threshold_policy not in THRESHOLD_POLICIES:
            raise ValueError(
                f"threshold_policy must be one of {THRESHOLD_POLICIES}, "
                f"got {self.threshold_policy!r}"
            )
        if self.threshold_policy == "fixed" and self.threshold is None:
            raise ValueError('threshold_policy "fixed" requires an explicit threshold')
        if self.threshold_margin <= 0:
            raise ValueError(f"threshold_margin must be > 0, got {self.threshold_margin}")
        if not self.theta_min_deg < self.theta_max_deg:
            raise ValueError(
                f"theta_min_deg must be < theta_max_deg, got "
                f"[{self.theta_min_deg}, {self.theta_max_deg}]"
            )
        if self.packet_rate_hz <= 0:
            raise ValueError(f"packet_rate_hz must be > 0, got {self.packet_rate_hz}")
        # The upper bound is exclusive: a collector with certain loss can
        # never complete a fixed-size capture (see PacketCollector).
        probability = check_probability(
            "loss_probability",
            self.loss_probability,
            exclusive_upper=True,
            reason="with certain loss a fixed-size capture never completes",
        )
        object.__setattr__(self, "loss_probability", probability)

    # ------------------------------------------------------------------ #
    # serialisation
    # ------------------------------------------------------------------ #
    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "PipelineConfig":
        """Build a config from a plain mapping, rejecting unknown keys."""
        check_known_keys(
            "PipelineConfig", data, (f.name for f in dataclasses.fields(cls))
        )
        return cls(**dict(data))

    def to_dict(self) -> dict[str, Any]:
        """The config as a plain JSON-serialisable dict (``from_dict`` inverse)."""
        return dataclasses.asdict(self)

    @classmethod
    def from_json(cls, text: str) -> "PipelineConfig":
        """Parse a config from a JSON object string."""
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ValueError(f"expected a JSON object, got {type(data).__name__}")
        return cls.from_dict(data)

    @classmethod
    def from_file(cls, path: str | Path) -> "PipelineConfig":
        """Load a config from a JSON file."""
        return cls.from_json(Path(path).read_text())

    def to_json(self, *, indent: int | None = 2) -> str:
        """The config as a JSON object string."""
        return json.dumps(self.to_dict(), indent=indent)

    def replace(self, **changes: Any) -> "PipelineConfig":
        """A copy of the config with *changes* applied (validated)."""
        return dataclasses.replace(self, **changes)

    # ------------------------------------------------------------------ #
    # pipeline construction
    # ------------------------------------------------------------------ #
    def build_detector(self, link: "Link | None" = None) -> "Detector":
        """Build the configured detector from its registered factory.

        Parameters
        ----------
        link:
            The monitored link; required by detectors that need the receive
            array geometry (the combined scheme).

        Raises
        ------
        ValueError
            When no factory is registered under :attr:`detector`, or the
            factory returns something other than a
            :class:`~repro.core.detector.Detector`.
        """
        from repro.api.registry import DEFAULT_REGISTRY
        from repro.core.detector import Detector

        detector = DEFAULT_REGISTRY.get(self.detector)(self, link)
        if not isinstance(detector, Detector):
            raise ValueError(
                f"detector {self.detector!r} factory returned "
                f"{type(detector).__name__}, not a repro.core.Detector"
            )
        return detector

    def session(
        self, link: "Link | None" = None, *, link_name: str = ""
    ) -> "StreamingSession":
        """Build a :class:`~repro.api.session.StreamingSession` for one link."""
        from repro.api.session import StreamingSession

        return StreamingSession.from_config(self, link, link_name=link_name)

    def collector(
        self,
        simulator: "ChannelSimulator",
        *,
        rng=None,
    ) -> "PacketCollector":
        """Build a :class:`~repro.csi.collector.PacketCollector` from the
        config's collector settings.

        Parameters
        ----------
        simulator:
            The channel simulator to sample from.
        rng:
            Optional generator; overrides :attr:`seed`.  The collector
            draws from it as handed over: its loss word first, then every
            packet's impairments.
        """
        from repro.csi.collector import PacketCollector

        return PacketCollector(
            simulator,
            packet_rate_hz=self.packet_rate_hz,
            loss_probability=self.loss_probability,
            seed=rng if rng is not None else self.seed,
        )
