"""End-to-end experiment driver reproducing the paper's evaluation campaign.

The driver mirrors Section V-A's methodology: for every link case it collects
a calibration profile of the empty environment, then monitoring windows for
each human-grid position (positives) and for the empty room (negatives), all
under background dynamics and slow environmental drift.  Every window is
scored by the three detection schemes; the resulting
:class:`EvaluationResult` feeds the ROC (Fig. 7), per-case (Fig. 8),
per-distance (Fig. 9), per-angle (Fig. 11) and per-window-size (Fig. 12)
figures as well as the headline numbers.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Mapping, Sequence

from repro import obs
from repro.api.config import PipelineConfig
from repro.backend import use_backend
from repro.channel.channel import ChannelSimulator, Link
from repro.channel.human import HumanBody
from repro.channel.noise import ImpairmentModel
from repro.channel.propagation import PropagationModel
from repro.core.thresholds import RocCurve, detection_rates_at_threshold, roc_curve
from repro.csi.collector import PacketCollector
from repro.csi.trace import CSITrace
from repro.experiments.metrics import bin_labels, rates_by_group
from repro.experiments.scenarios import (
    Scenario,
    evaluation_cases,
    grid_angle_to_receiver_deg,
    grid_distance_to_receiver,
    human_grid,
)
from repro.experiments.workloads import BackgroundDynamics, EnvironmentDrift
from repro.utils.rng import ensure_rng
from repro.utils.validation import (
    check_finite_real,
    check_integer,
    check_known_keys,
    check_probability,
)

#: Names of the three evaluation schemes, in the paper's order.
SCHEMES: tuple[str, ...] = ("baseline", "subcarrier", "combined")


@dataclass(frozen=True)
class EvaluationConfig:
    """Knobs of the evaluation campaign.

    The defaults reproduce the paper's protocol scaled to simulation: 3x3
    human grids per case, three monitoring bursts per location, 0.5-second
    monitoring windows at 50 packets per second, background students and
    slow environmental drift between windows.

    ``max_workers`` controls how many link cases :func:`run_evaluation` runs
    concurrently (in separate processes).  Each case already derives its own
    seed from ``seed + 1000 * case_index``, so the campaign result is
    bit-identical for every worker count.

    ``backend`` names the numeric backend (:mod:`repro.backend`) every case
    of the campaign computes through: ``"exact"`` (default) keeps the
    byte-identical libm-routed kernels behind the published sha256 pins,
    ``"fast"`` swaps in the SIMD kernels (tolerance parity — identical
    operating points, trailing-bit score deltas).  The name is resolved
    against the backend registry when the campaign runs, so custom backends
    registered via :func:`repro.backend.register_backend` are addressable
    from config files.
    """

    calibration_packets: int = 150
    window_packets: int = 25
    max_workers: int = 1
    windows_per_location: int = 3
    grid_rows: int = 3
    grid_cols: int = 3
    grid_lateral_extent_m: float = 2.4
    grid_along_fraction: float = 0.8
    snr_db: float = 32.0
    max_bounces: int = 2
    packet_rate_hz: float = 50.0
    background_max_people: int = 3
    background_min_distance_m: float = 5.0
    gain_drift_std_db: float = 0.3
    clutter_reflection: float = 0.04
    human_min_attenuation: float = 0.45
    human_reflection: float = 0.5
    use_stability_ratio: bool = True
    use_music_spectrum: bool = False
    theta_min_deg: float = -60.0
    theta_max_deg: float = 60.0
    schemes: tuple[str, ...] = SCHEMES
    backend: str = "exact"
    seed: int = 2015

    def __post_init__(self) -> None:
        if not self.backend or not isinstance(self.backend, str):
            raise ValueError(
                f"backend must be a non-empty string, got {self.backend!r}"
            )
        # A degenerate campaign (no windows, no grid, an uncalibratable
        # profile) or a mistyped knob must fail at configuration time —
        # especially now that JSON-driven sweeps construct configs far from
        # the code that runs them — not deep inside scoring with an unrelated
        # error, and never as a silent run of a campaign other than the one
        # written down (a NaN threshold, ``true`` read as 1 dB, ``"no"`` read
        # as true).
        for name, minimum in (
            ("window_packets", 1),
            ("windows_per_location", 1),
            ("grid_rows", 1),
            ("grid_cols", 1),
            ("calibration_packets", 2),
            ("max_workers", 1),
            ("max_bounces", 0),
            ("background_max_people", 0),
            ("seed", None),
        ):
            value = check_integer(name, getattr(self, name))
            if minimum is not None and value < minimum:
                raise ValueError(f"{name} must be >= {minimum}, got {value}")
        # Every float knob must be a finite number; field types are the
        # annotation strings, this module postponing annotations.
        for field in dataclasses.fields(self):
            if field.type == "float":
                check_finite_real(field.name, getattr(self, field.name))
        if not isinstance(self.use_music_spectrum, bool):
            raise ValueError(
                f"use_music_spectrum must be true or false, got {self.use_music_spectrum!r}"
            )
        # The ranges the campaign's components enforce when a case builds
        # them, checked here so a bad value fails before the first case.
        if self.packet_rate_hz <= 0:
            raise ValueError(f"packet_rate_hz must be > 0, got {self.packet_rate_hz!r}")
        if self.gain_drift_std_db < 0:
            raise ValueError(f"gain_drift_std_db must be >= 0, got {self.gain_drift_std_db}")
        check_probability("clutter_reflection", self.clutter_reflection)
        check_probability("human_reflection", self.human_reflection)
        if not 0.0 < self.human_min_attenuation < 1.0:
            raise ValueError(
                f"human_min_attenuation must be in (0, 1), got {self.human_min_attenuation}"
            )
        if isinstance(self.schemes, str):
            raise ValueError(
                f"schemes must be a sequence of scheme names, "
                f"got the string {self.schemes!r}"
            )
        if not self.schemes or not all(
            isinstance(scheme, str) and scheme for scheme in self.schemes
        ):
            raise ValueError(
                f"schemes must be non-empty scheme names, got {self.schemes!r}"
            )
        # The knobs every scheme's pipeline is built from are checked by the
        # config they are forwarded to, here rather than mid-campaign.
        self.pipeline_config(self.schemes[0])

    def impairments(self) -> ImpairmentModel:
        """The per-packet impairment model used by every case."""
        return ImpairmentModel(snr_db=self.snr_db)

    def human_at(self, position) -> HumanBody:
        """The monitored person standing at *position*."""
        return HumanBody(
            position=position,
            min_attenuation=self.human_min_attenuation,
            reflection_coefficient=self.human_reflection,
        )

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "EvaluationConfig":
        """Build a campaign config from a plain mapping, rejecting unknown keys.

        List values for tuple fields (``schemes``) are coerced, so configs can
        round-trip through JSON.
        """
        check_known_keys(
            "EvaluationConfig", data, (f.name for f in dataclasses.fields(cls))
        )
        values = dict(data)
        if "schemes" in values and not isinstance(values["schemes"], tuple):
            if isinstance(values["schemes"], str):
                # tuple("baseline") would silently become a character tuple.
                raise ValueError(
                    f"schemes must be a list of scheme names, "
                    f"got the string {values['schemes']!r}"
                )
            values["schemes"] = tuple(values["schemes"])
        return cls(**values)

    def to_dict(self) -> dict[str, Any]:
        """The campaign config as a plain dict (``from_dict`` inverse)."""
        data = dataclasses.asdict(self)
        data["schemes"] = list(self.schemes)
        return data

    def pipeline_config(self, scheme: str) -> PipelineConfig:
        """The :class:`~repro.api.config.PipelineConfig` for one scheme.

        This is the bridge between the campaign knobs and ``repro.api``: every
        detector of the evaluation is constructed from exactly this config, so
        a campaign detector and a pipeline built from the same settings are
        byte-identical.
        """
        return PipelineConfig(
            detector=scheme,
            use_stability_ratio=self.use_stability_ratio,
            spectrum="music" if self.use_music_spectrum else "bartlett",
            theta_min_deg=self.theta_min_deg,
            theta_max_deg=self.theta_max_deg,
            window_packets=self.window_packets,
            calibration_packets=self.calibration_packets,
            packet_rate_hz=self.packet_rate_hz,
            seed=self.seed,
            backend=self.backend,
        )


@dataclass(frozen=True)
class ScoredWindow:
    """One monitoring window scored by one scheme."""

    scheme: str
    case: str
    occupied: bool
    score: float
    distance_to_rx_m: float | None = None
    angle_deg: float | None = None
    location_index: int | None = None
    window_packets: int = 0

    def to_dict(self) -> dict[str, Any]:
        """The window as a plain JSON-serialisable dict (``from_dict`` inverse)."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ScoredWindow":
        """Rebuild a window from :meth:`to_dict` output.

        Unknown and missing keys raise the same one-line ``ValueError`` style
        as the config classes.
        """
        fields = dataclasses.fields(cls)
        check_known_keys(
            "ScoredWindow",
            data,
            (f.name for f in fields),
            required=(
                f.name
                for f in fields
                if f.default is dataclasses.MISSING
                and f.default_factory is dataclasses.MISSING
            ),
        )
        return cls(**dict(data))


@dataclass
class EvaluationResult:
    """All scored windows of a campaign plus the derived metrics."""

    windows: list[ScoredWindow]
    config: EvaluationConfig

    # ------------------------------------------------------------------ #
    # serialisation
    # ------------------------------------------------------------------ #
    def to_dict(self) -> dict[str, Any]:
        """The result as a plain JSON-serialisable dict (``from_dict`` inverse).

        Scores are plain Python floats, so a JSON round-trip reproduces the
        result exactly (``json`` preserves doubles bit-for-bit).
        """
        return {
            "config": self.config.to_dict(),
            "windows": [window.to_dict() for window in self.windows],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "EvaluationResult":
        """Rebuild a result from :meth:`to_dict` output."""
        check_known_keys(
            "EvaluationResult",
            data,
            ("config", "windows"),
            required=("config", "windows"),
        )
        return cls(
            windows=[ScoredWindow.from_dict(w) for w in data["windows"]],
            config=EvaluationConfig.from_dict(data["config"]),
        )

    # ------------------------------------------------------------------ #
    # score selection
    # ------------------------------------------------------------------ #
    def _select(self, scheme: str, occupied: bool) -> list[ScoredWindow]:
        selected = [
            w for w in self.windows if w.scheme == scheme and w.occupied == occupied
        ]
        if not selected:
            raise ValueError(
                f"no {'occupied' if occupied else 'empty'} windows for scheme {scheme!r}"
            )
        return selected

    def positive_scores(self, scheme: str) -> list[float]:
        """Scores of human-present windows for one scheme."""
        return [w.score for w in self._select(scheme, True)]

    def negative_scores(self, scheme: str) -> list[float]:
        """Scores of empty windows for one scheme."""
        return [w.score for w in self._select(scheme, False)]

    # ------------------------------------------------------------------ #
    # derived metrics
    # ------------------------------------------------------------------ #
    def roc(self, scheme: str) -> RocCurve:
        """ROC curve of one scheme (Fig. 7)."""
        return roc_curve(self.positive_scores(scheme), self.negative_scores(scheme))

    def balanced_operating_point(self, scheme: str) -> tuple[float, float, float]:
        """(threshold, TPR, FPR) at the balanced-accuracy point of a scheme."""
        return self.roc(scheme).balanced_point()

    def rates_at_balanced_threshold(self, scheme: str) -> tuple[float, float]:
        """(TPR, FPR) of a scheme at its own balanced threshold."""
        threshold, _, _ = self.balanced_operating_point(scheme)
        return detection_rates_at_threshold(
            self.positive_scores(scheme), self.negative_scores(scheme), threshold
        )

    def rates_by_case(self, scheme: str, threshold: float | None = None) -> dict[str, float]:
        """Detection rate per link case at a fixed threshold (Fig. 8)."""
        threshold = self._threshold(scheme, threshold)
        windows = self._select(scheme, True)
        return rates_by_group(
            [w.score for w in windows], [w.case for w in windows], threshold
        )

    def rates_by_distance(
        self,
        scheme: str,
        threshold: float | None = None,
        *,
        edges: Sequence[float] = (0.0, 1.0, 2.0, 3.0, 4.0, 6.0),
    ) -> dict[str, float]:
        """Detection rate binned by distance to the receiver (Fig. 9)."""
        threshold = self._threshold(scheme, threshold)
        windows = [w for w in self._select(scheme, True) if w.distance_to_rx_m is not None]
        labels = bin_labels([w.distance_to_rx_m for w in windows], edges)
        return rates_by_group([w.score for w in windows], labels, threshold)

    def rates_by_angle(
        self,
        scheme: str,
        threshold: float | None = None,
        *,
        edges: Sequence[float] = (-90.0, -60.0, -30.0, -10.0, 10.0, 30.0, 60.0, 90.0),
    ) -> dict[str, float]:
        """Detection rate binned by angle from the receiver broadside (Fig. 11)."""
        threshold = self._threshold(scheme, threshold)
        windows = [w for w in self._select(scheme, True) if w.angle_deg is not None]
        labels = bin_labels([w.angle_deg for w in windows], edges)
        return rates_by_group([w.score for w in windows], labels, threshold)

    def headline(self) -> dict[str, dict[str, float]]:
        """Balanced TPR/FPR per scheme — the abstract's 92.0 % / 4.5 % numbers."""
        summary: dict[str, dict[str, float]] = {}
        for scheme in self.config.schemes:
            threshold, tpr, fpr = self.balanced_operating_point(scheme)
            summary[scheme] = {
                "threshold": threshold,
                "true_positive_rate": tpr,
                "false_positive_rate": fpr,
                "auc": self.roc(scheme).auc(),
            }
        return summary

    def _threshold(self, scheme: str, threshold: float | None) -> float:
        if threshold is not None:
            return threshold
        value, _, _ = self.balanced_operating_point(scheme)
        return value


# --------------------------------------------------------------------------- #
# detector construction
# --------------------------------------------------------------------------- #
def build_detectors(link: Link, config: EvaluationConfig) -> dict[str, object]:
    """Instantiate the requested detection schemes for one link.

    Each scheme is built by
    ``config.pipeline_config(scheme).build_detector(link)``, the one
    construction path of :mod:`repro.api`, so custom schemes registered via
    :func:`repro.api.register_detector` are picked up when named in
    ``config.schemes`` and an unknown name raises the registry's
    ``unknown detector`` error.
    """
    return {
        scheme: config.pipeline_config(scheme).build_detector(link)
        for scheme in config.schemes
    }


# --------------------------------------------------------------------------- #
# per-case campaign
# --------------------------------------------------------------------------- #
def _case_components(
    link: Link, config: EvaluationConfig, seed: int
) -> tuple[ChannelSimulator, PacketCollector, BackgroundDynamics, EnvironmentDrift]:
    """The four per-case components, seeded off the case seed.

    Four sequential integer draws off the case RNG seed the simulator, the
    collector, the background and the drift, in that order.  This is the
    seeding contract both campaign paths share: changing the order (or
    count) would silently re-randomise every published number.  The
    collector derives its loss stream and its per-quantity impairment
    streams from its seed.
    """
    rng = ensure_rng(seed)
    simulator = ChannelSimulator(
        link,
        propagation=PropagationModel(tx_power=link.tx_power),
        impairments=config.impairments(),
        max_bounces=config.max_bounces,
        seed=int(rng.integers(0, 2**31 - 1)),
    )
    collector = PacketCollector(
        simulator,
        packet_rate_hz=config.packet_rate_hz,
        seed=int(rng.integers(0, 2**31 - 1)),
    )
    background = BackgroundDynamics(
        link,
        max_people=config.background_max_people,
        min_distance_m=config.background_min_distance_m,
        seed=int(rng.integers(0, 2**31 - 1)),
    )
    drift = EnvironmentDrift(
        link,
        gain_drift_std_db=config.gain_drift_std_db,
        clutter_reflection=config.clutter_reflection,
        seed=int(rng.integers(0, 2**31 - 1)),
    )
    return simulator, collector, background, drift


def run_case(
    link: Link,
    config: EvaluationConfig,
    *,
    case_seed: int | None = None,
) -> list[ScoredWindow]:
    """Run the full monitoring campaign for one link case.

    Returns one :class:`ScoredWindow` per (scheme, window).  Positive windows
    cover every grid location ``windows_per_location`` times; the same number
    of empty windows is collected interleaved with the same background
    dynamics and drift.

    The case runs as a whole-case array program
    (:mod:`repro.experiments.case_program`): the window schedule is planned
    up front, every scene is synthesised in one
    :meth:`~repro.channel.channel.ChannelSimulator.clean_cfr_batch` call,
    every packet of the case is acquired in one
    :meth:`~repro.csi.collector.PacketCollector.collect_batch` call and every
    window is sanitised once and scored by all schemes from that shared view
    (:func:`~repro.api.monitor.score_windows_shared`).  Acquisition is
    batch-invariant (each impairment quantity and the loss gaps are drawn
    per packet, in packet order, from the collector's own streams), so
    scores are bit-identical to the retained window-by-window path,
    :func:`run_case_reference`, which the parity suite pins.

    The whole case — synthesis, impairments, sanitisation and scoring —
    computes through ``config.backend``, activated here so process-pool
    workers (which never see the parent's active backend) and library
    callers get the configured kernels without wrapping anything themselves.
    """
    from repro.api.monitor import calibrate_shared, score_windows_shared

    from repro.experiments.case_program import plan_case

    seed = config.seed if case_seed is None else case_seed
    with use_backend(config.backend):
        simulator, collector, background, drift = _case_components(link, config, seed)

        with obs.span("collect.plan"):
            plan = plan_case(link, config, background, drift)
        with obs.span("collect.batch_synthesize"):
            cleans = simulator.clean_cfr_batch(plan.scenes())
        traces = collector.collect_batch(cleans, plan.counts(), labels=plan.labels())

        # Calibration (traces[0]): empty monitored area, no drift gain — drift
        # accumulates *after* calibration.  Gains scale the raw traces before
        # sanitisation, exactly as the historical path applied them.
        monitoring = [
            trace if planned.gain is None else drift.apply_to_trace(trace, planned.gain)
            for trace, planned in zip(traces[1:], plan.monitoring)
        ]
        detectors = build_detectors(link, config)
        calibrate_shared(detectors, traces[0])
        scores = score_windows_shared(detectors, monitoring)

    windows: list[ScoredWindow] = []
    for position, planned in enumerate(plan.monitoring):
        for scheme in detectors:
            windows.append(
                ScoredWindow(
                    scheme=scheme,
                    case=link.name,
                    occupied=planned.occupied,
                    score=scores[scheme][position],
                    distance_to_rx_m=planned.distance_to_rx_m,
                    angle_deg=planned.angle_deg,
                    location_index=planned.location_index,
                    window_packets=planned.num_packets,
                )
            )
    return windows


def run_case_reference(
    link: Link,
    config: EvaluationConfig,
    *,
    case_seed: int | None = None,
) -> list[ScoredWindow]:
    """The historical window-by-window campaign loop for one link case.

    Retained as the bit-parity reference for :func:`run_case`: it collects,
    sanitises and scores one window at a time with per-scheme ``score``
    calls.  The parity suite asserts ``run_case`` reproduces these windows
    float for float; production callers should use :func:`run_case`.

    Like :func:`run_case`, the whole case computes through
    ``config.backend``.
    """
    seed = config.seed if case_seed is None else case_seed
    with use_backend(config.backend):
        simulator, collector, background, drift = _case_components(link, config, seed)

        # Calibration: empty monitored area (background may be present far
        # away), no drift applied — it accumulates *after* calibration.
        calibration = collector.collect(
            background.people_for_window() + drift.clutter_for_window(),
            num_packets=config.calibration_packets,
            label=f"{link.name}/calibration",
        )
        detectors = build_detectors(link, config)
        for detector in detectors.values():
            detector.calibrate(calibration)

        grid = human_grid(
            link,
            rows=config.grid_rows,
            cols=config.grid_cols,
            lateral_extent_m=config.grid_lateral_extent_m,
            along_extent_m=config.grid_along_fraction * link.distance(),
        )

        windows: list[ScoredWindow] = []

        def score_window(
            trace: CSITrace,
            *,
            occupied: bool,
            distance: float | None,
            angle: float | None,
            location_index: int | None,
        ) -> None:
            for scheme, detector in detectors.items():
                windows.append(
                    ScoredWindow(
                        scheme=scheme,
                        case=link.name,
                        occupied=occupied,
                        score=float(detector.score(trace)),
                        distance_to_rx_m=distance,
                        angle_deg=angle,
                        location_index=location_index,
                        window_packets=trace.num_packets,
                    )
                )

        # Positive windows: every grid location, several bursts each.
        for location_index, position in enumerate(grid):
            distance = grid_distance_to_receiver(link, position)
            angle = grid_angle_to_receiver_deg(link, position)
            for _ in range(config.windows_per_location):
                scene = [config.human_at(position)]
                scene += background.people_for_window()
                scene += drift.clutter_for_window()
                trace = collector.collect(
                    scene,
                    num_packets=config.window_packets,
                    label=f"{link.name}/occupied",
                )
                trace = drift.apply_to_trace(trace, drift.gain_for_window())
                score_window(
                    trace,
                    occupied=True,
                    distance=distance,
                    angle=angle,
                    location_index=location_index,
                )

        # Negative windows: the same number, same ambient conditions, nobody
        # in the monitored area.
        num_negative = len(grid) * config.windows_per_location
        for _ in range(num_negative):
            scene = background.people_for_window() + drift.clutter_for_window()
            trace = collector.collect(
                scene, num_packets=config.window_packets, label=f"{link.name}/empty"
            )
            trace = drift.apply_to_trace(trace, drift.gain_for_window())
            score_window(
                trace, occupied=False, distance=None, angle=None, location_index=None
            )

    return windows


# --------------------------------------------------------------------------- #
# full campaign
# --------------------------------------------------------------------------- #
def derive_case_seed(config: EvaluationConfig, case_index: int) -> int:
    """The deterministic per-case seed of a campaign.

    Single source of the derivation: :func:`run_evaluation` and the sweep
    runner (:mod:`repro.sweep.runner`) both shard cases with exactly this
    seed, which is what makes a sweep point bit-identical to a standalone
    campaign of the same config.
    """
    return config.seed + 1000 * case_index


def _run_case_shard(
    link: Link,
    config: EvaluationConfig,
    case_seed: int,
    obs_enabled: bool = False,
) -> tuple[list[ScoredWindow], "obs.ObsSnapshot | None"]:
    """One process-pool work unit of :func:`run_evaluation`.

    Wraps :func:`run_case` in its own :mod:`repro.obs` recorder when
    observability is on (workers don't share the parent's recorder) and
    ships the snapshot home with the windows for in-order merge.
    """
    with obs.shard_recording(obs_enabled) as recorder:
        with obs.span("eval.case"):
            windows = run_case(link, config, case_seed=case_seed)
        snapshot = recorder.snapshot() if recorder is not None else None
    return windows, snapshot


def run_evaluation(
    config: EvaluationConfig | None = None,
    *,
    cases: Sequence[tuple[Scenario, Link]] | None = None,
    parallel: bool | None = None,
    max_workers: int | None = None,
) -> EvaluationResult:
    """Run the campaign over all evaluation cases (the 5 office links).

    Cases are embarrassingly parallel: every case derives its own seed
    (``config.seed + 1000 * case_index``) and shares no mutable state, so the
    campaign can be sharded over a :class:`~concurrent.futures.ProcessPoolExecutor`
    with bit-identical results for any worker count.  Per-case window lists
    are merged back in case order, so the result's window ordering is also
    deterministic.

    Parameters
    ----------
    config:
        Campaign configuration; defaults to :class:`EvaluationConfig`.
    cases:
        Optional subset of (scenario, link) pairs; defaults to the paper's
        five cases from :func:`repro.experiments.scenarios.evaluation_cases`.
    parallel:
        Force sequential (``False``) or process-parallel (``True``) execution;
        ``None`` (default) parallelises exactly when the effective worker
        count exceeds one.  ``True`` always goes through the process pool,
        even with a single worker.
    max_workers:
        Worker-count override; ``None`` uses ``config.max_workers``.

    Notes
    -----
    Worker processes resolve scheme names through their own process-global
    :data:`~repro.api.registry.DEFAULT_REGISTRY`.  Under the ``fork`` start
    method (Linux default) runtime registrations are inherited; on platforms
    whose executors spawn fresh interpreters (``spawn``/``forkserver``),
    custom detectors registered via :func:`repro.api.register_detector` must
    be registered at import time of an importable module, or the workers will
    reject the scheme as unknown.
    """
    config = config if config is not None else EvaluationConfig()
    case_list = list(cases) if cases is not None else evaluation_cases()
    if not case_list:
        raise ValueError("run_evaluation requires at least one case")
    workers = config.max_workers if max_workers is None else max_workers
    if check_integer("max_workers", workers) < 1:
        raise ValueError(f"max_workers must be >= 1, got {workers}")
    workers = min(workers, len(case_list))
    if parallel is None:
        parallel = workers > 1
    seeds = [derive_case_seed(config, index) for index in range(len(case_list))]

    per_case: list[list[ScoredWindow]]
    with obs.span("eval.campaign"):
        if not parallel:
            per_case = []
            for (_, link), seed in zip(case_list, seeds):
                with obs.span("eval.case"):
                    per_case.append(run_case(link, config, case_seed=seed))
        else:
            from concurrent.futures import ProcessPoolExecutor

            obs_enabled = obs.enabled()
            with ProcessPoolExecutor(max_workers=workers) as executor:
                futures = [
                    executor.submit(
                        _run_case_shard, link, config, seed, obs_enabled
                    )
                    for (_, link), seed in zip(case_list, seeds)
                ]
                # Collect in submission order: the merged window list (and the
                # merged metrics) are identical to the sequential campaign
                # regardless of completion order.
                per_case = []
                for future in futures:
                    case_windows, snapshot = future.result()
                    per_case.append(case_windows)
                    obs.merge(snapshot)

    windows: list[ScoredWindow] = []
    for case_windows in per_case:
        windows.extend(case_windows)
    obs.count("eval.windows", len(windows))
    return EvaluationResult(windows=windows, config=config)
