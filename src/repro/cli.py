"""Command-line interface: run the paper's experiments from a terminal.

Examples
--------
Run the full evaluation campaign and print the headline numbers::

    python -m repro headline

Regenerate a specific figure's data::

    python -m repro figure fig9 --seed 7

Stream a simulated link through a detection pipeline, as JSON lines::

    python -m repro pipeline --detector combined --windows 6

Drive everything from a JSON config file (``EvaluationConfig`` keys for the
campaign commands, ``PipelineConfig`` keys for ``pipeline``)::

    python -m repro --config campaign.json headline
    python -m repro --config pipeline.json pipeline

Run a parameter sweep from a spec file into a persistent store, check its
progress, and pivot the stored results::

    python -m repro sweep run --spec sweep.json --store sweep.jsonl --workers 8
    python -m repro sweep status --spec sweep.json --store sweep.jsonl
    python -m repro sweep report --store sweep.jsonl --axis window_packets

Run a fleet of synthetic links through the window scheduler
(``FleetConfig`` keys in the --config file), persist the event stream, and
summarise it later::

    python -m repro --config fleet.json fleet run --workers 4 --events events.jsonl
    python -m repro fleet run --links 1000 --duration 5
    python -m repro fleet report --events events.jsonl

Statically enforce the determinism contract (exit 1 on any unsuppressed
finding; see the README's "Determinism contract" section)::

    python -m repro lint src/repro
    python -m repro lint src/repro --format json --rule DET001

Profile where time goes: record per-stage spans and latency histograms
during a fleet or sweep run, then render the metrics file (events, scores
and digests are byte-identical with observability on or off)::

    python -m repro fleet run --links 1000 --obs --obs-out fleet-obs.jsonl
    python -m repro sweep run --spec sweep.json --store sweep.jsonl --obs
    python -m repro obs report --metrics fleet-obs.jsonl --format markdown

List every available experiment::

    python -m repro list
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path
from typing import Any, Callable

import numpy as np

from repro.api import PipelineConfig, available_detectors
from repro.api.registry import DEFAULT_REGISTRY as DETECTORS
from repro.backend import available_backends, resolve_backend, use_backend
from repro.experiments import figures
from repro.experiments.runner import EvaluationConfig, run_evaluation
from repro.experiments.scenarios import evaluation_cases, human_grid

#: Figure generators that need the shared evaluation campaign.
_CAMPAIGN_FIGURES = {
    "fig7": figures.fig7_roc,
    "fig8": figures.fig8_cases,
    "fig9": figures.fig9_range,
    "fig11": figures.fig11_angles,
}

#: Stand-alone figure generators (they build their own small campaigns).
_STANDALONE_FIGURES: dict[str, Callable[..., Any]] = {
    "fig2a": figures.fig2a_rss_change_cdf,
    "fig2b": figures.fig2b_walk_rss_change,
    "fig3": figures.fig3_multipath_factor,
    "fig4": figures.fig4_temporal_stability,
    "fig5": figures.fig5_aoa,
    "fig10": figures.fig10_angle_errors,
    "fig12": figures.fig12_packet_sweep,
}

#: Fallbacks applied when neither the CLI nor --config sets a knob, derived
#: from the dataclass so there is a single source of defaults.
_DEFAULTS = {
    key: getattr(EvaluationConfig(), key)
    for key in ("seed", "windows_per_location", "window_packets")
}


def _to_serializable(value: Any) -> Any:
    """Convert NumPy containers and dataclass-like values to JSON-friendly data.

    Objects exposing ``to_dict()`` (``DetectionResult``, ``DetectionEvent``,
    the config dataclasses) serialise through it; the generic walker only
    handles what has no such contract.
    """
    if hasattr(value, "to_dict") and not isinstance(value, type):
        return _to_serializable(value.to_dict())
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, dict):
        return {str(k): _to_serializable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_to_serializable(v) for v in value]
    if hasattr(value, "__dict__") and not isinstance(value, type):
        return {k: _to_serializable(v) for k, v in vars(value).items()}
    return value


def _read_config_file(path: str) -> dict[str, Any]:
    """Load a JSON object from *path* (the --config payload)."""
    data = json.loads(Path(path).read_text())
    if not isinstance(data, dict):
        raise ValueError(f"--config file {path!r} must contain a JSON object")
    return data


def _build_config(args: argparse.Namespace) -> EvaluationConfig:
    """Resolve the campaign config: defaults < --config file < explicit flags."""
    file_data = _read_config_file(args.config) if args.config else {}
    config = EvaluationConfig.from_dict(file_data)
    overrides = {
        key: getattr(args, key, None)
        for key in _DEFAULTS
        if getattr(args, key, None) is not None
    }
    if getattr(args, "workers", None) is not None:
        overrides["max_workers"] = args.workers
    if getattr(args, "backend", None) is not None:
        overrides["backend"] = args.backend
    config = dataclasses.replace(config, **overrides) if overrides else config
    # Resolve the backend and scheme names now so a typo is a one-line
    # exit-2 config error instead of a traceback from deep inside the
    # campaign.
    resolve_backend(config.backend)
    for scheme in config.schemes:
        DETECTORS.get(scheme)
    return config


def _cmd_list(_: argparse.Namespace) -> int:
    print("campaign figures :", ", ".join(sorted(_CAMPAIGN_FIGURES)))
    print("standalone figures:", ", ".join(sorted(_STANDALONE_FIGURES)))
    print("detectors         :", ", ".join(available_detectors()))
    print(
        "other commands    : headline, lint, list, obs report, pipeline, "
        "sweep {run,status,report}, fleet {run,report}"
    )
    return 0


def _config_error(error: Exception) -> int:
    """Report a configuration mistake as a one-line error, exit code 2."""
    print(f"error: {error}", file=sys.stderr)
    return 2


def _cmd_headline(args: argparse.Namespace) -> int:
    try:
        config = _build_config(args)
    except (ValueError, FileNotFoundError) as error:
        return _config_error(error)
    result = run_evaluation(config)
    print(json.dumps(_to_serializable(result.headline()), indent=2))
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    name = args.name
    try:
        config = _build_config(args)
    except (ValueError, FileNotFoundError) as error:
        return _config_error(error)
    if name in _CAMPAIGN_FIGURES:
        result = run_evaluation(config)
        data = _CAMPAIGN_FIGURES[name](result)
    elif name in _STANDALONE_FIGURES:
        # Standalone figures only take a seed, but they still honour the
        # resolved config so --config files are validated and applied; they
        # bypass run_case, so the backend is activated here.
        with use_backend(config.backend):
            data = _STANDALONE_FIGURES[name](seed=config.seed)
    else:
        known = sorted(set(_CAMPAIGN_FIGURES) | set(_STANDALONE_FIGURES))
        print(f"unknown figure {name!r}; known figures: {', '.join(known)}", file=sys.stderr)
        return 2
    print(json.dumps(_to_serializable(data), indent=2))
    return 0


def _pipeline_config(args: argparse.Namespace) -> PipelineConfig:
    """Resolve the pipeline config: defaults < --config file < explicit flags."""
    file_data = _read_config_file(args.config) if args.config else {}
    config = PipelineConfig.from_dict(file_data)
    overrides: dict[str, Any] = {}
    if getattr(args, "detector", None) is not None:
        overrides["detector"] = args.detector
    if getattr(args, "window_packets", None) is not None:
        overrides["window_packets"] = args.window_packets
    if getattr(args, "seed", None) is not None:
        overrides["seed"] = args.seed
    elif config.seed is None:
        overrides["seed"] = _DEFAULTS["seed"]
    if getattr(args, "backend", None) is not None:
        overrides["backend"] = args.backend
    config = config.replace(**overrides) if overrides else config
    resolve_backend(config.backend)
    return config


def _cmd_pipeline(args: argparse.Namespace) -> int:
    """Stream one simulated evaluation link through a repro.api pipeline.

    Emits one JSON line per :class:`~repro.api.session.DetectionEvent`,
    augmented with the ground-truth occupancy of the window that produced it.
    """
    from repro.channel.channel import ChannelSimulator
    from repro.channel.propagation import PropagationModel
    from repro.utils.rng import ensure_rng

    try:
        config = _pipeline_config(args)
    except (ValueError, FileNotFoundError) as error:
        return _config_error(error)
    cases = {link.name: link for _, link in evaluation_cases()}
    link = cases.get(args.case)
    if link is None:
        print(
            f"unknown case {args.case!r}; known cases: {', '.join(cases)}",
            file=sys.stderr,
        )
        return 2
    if args.windows < 1:
        print(f"--windows must be >= 1, got {args.windows}", file=sys.stderr)
        return 2

    with use_backend(config.backend):
        rng = ensure_rng(config.seed)
        simulator = ChannelSimulator(
            link,
            propagation=PropagationModel(tx_power=link.tx_power),
            seed=int(rng.integers(0, 2**31 - 1)),
        )
        # One generator stream shared with the collector so the whole pipeline
        # is reproducible from the single config seed.
        collector = config.collector(simulator, rng=rng)
        try:
            session = config.session(link)
        except ValueError as error:  # e.g. a detector name not in the registry
            return _config_error(error)
        calibration = collector.collect(
            None,
            num_packets=config.calibration_packets,
            label=f"{link.name}/calibration",
        )
        session.calibrate(calibration)
        clock = float(calibration.timestamps[-1])

        # Alternate empty / occupied monitoring bursts; the person stands at
        # the centre position of the paper's presence grid for this link.
        # Ground truth is tracked per packet so event labels stay correct even
        # when a sliding stride makes windows straddle burst boundaries.
        from collections import deque

        from repro.channel.human import HumanBody

        grid = human_grid(link)
        human = HumanBody(position=grid[len(grid) // 2])
        truth: deque[bool] = deque(maxlen=config.window_packets)
        for index in range(args.windows):
            occupied = index % 2 == 1
            scene = [human] if occupied else None
            trace = collector.collect(
                scene,
                num_packets=config.window_packets,
                label=link.name,
                start_time=clock,
            )
            clock = float(trace.timestamps[-1])
            for frame in trace:
                truth.append(occupied)
                event = session.push(frame)
                if event is None:
                    continue
                payload = event.to_dict()
                payload["occupied_packets"] = sum(truth)
                payload["occupied"] = sum(truth) * 2 > len(truth)
                print(json.dumps(payload))
    return 0


# --------------------------------------------------------------------------- #
# determinism lint
# --------------------------------------------------------------------------- #
def _cmd_lint(args: argparse.Namespace) -> int:
    """Statically enforce the determinism contract over the given paths.

    Exit code 0 when clean, 1 on any unsuppressed finding, 2 on a
    configuration mistake (unknown rule, bad path, malformed config).
    """
    from repro.analysis import LintConfig, lint_paths
    from repro.analysis.reporters import REPORTERS

    try:
        config = None
        if args.pyproject is not None:
            pyproject = Path(args.pyproject)
            if not pyproject.is_file():
                raise FileNotFoundError(f"no such pyproject file: {pyproject}")
            config = LintConfig.from_pyproject(pyproject)
        rule_ids = [rule.upper() for rule in args.rule] if args.rule else None
        result = lint_paths(args.paths, config=config, rule_ids=rule_ids)
    except (ValueError, FileNotFoundError) as error:
        return _config_error(error)
    print(REPORTERS[args.format](result))
    return 0 if result.ok else 1


# --------------------------------------------------------------------------- #
# observability
# --------------------------------------------------------------------------- #
def _obs_out_path(args: argparse.Namespace, default: str) -> Path | None:
    """Resolve the ``--obs``/``--obs-out`` pair to a metrics path (or None).

    ``--obs`` alone writes to *default*; ``--obs-out PATH`` implies ``--obs``.
    """
    obs_out = getattr(args, "obs_out", None)
    if obs_out is not None:
        return Path(obs_out)
    if getattr(args, "obs", False):
        return Path(default)
    return None


def _write_obs(recorder, path: Path) -> None:
    """Persist a recorder's snapshot as JSONL and note it on stderr."""
    from repro.obs import write_jsonl

    lines = write_jsonl(recorder.snapshot(), path)
    print(f"wrote {lines} metrics line(s) to {path}", file=sys.stderr)


def _cmd_obs_report(args: argparse.Namespace) -> int:
    """Render a metrics JSONL file written by ``--obs-out``."""
    from repro.obs import REPORTERS, load_jsonl

    try:
        snapshot = load_jsonl(args.metrics)
    except (ValueError, FileNotFoundError) as error:
        return _config_error(error)
    print(REPORTERS[args.format](snapshot))
    return 0


# --------------------------------------------------------------------------- #
# fleet streaming
# --------------------------------------------------------------------------- #
def _fleet_config(args: argparse.Namespace):
    """Resolve the fleet config: defaults < --config file < explicit flags."""
    from repro.fleet import FleetConfig

    file_data = _read_config_file(args.config) if args.config else {}
    config = FleetConfig.from_dict(file_data)
    overrides: dict[str, Any] = {}
    for attr, field_name in (
        ("links", "links"),
        ("duration", "duration_s"),
        ("seed", "seed"),
        ("backend", "backend"),
        ("batch_windows", "batch_windows"),
        ("workers", "max_workers"),
    ):
        value = getattr(args, attr, None)
        if value is not None:
            overrides[field_name] = value
    config = config.replace(**overrides) if overrides else config
    resolve_backend(config.backend)
    return config


def _cmd_fleet_run(args: argparse.Namespace) -> int:
    """Run a synthetic fleet through the streaming scheduler.

    Prints the :class:`~repro.fleet.FleetReport` summary (throughput,
    p50/p99 scheduler flush latency, class census, event digest) as
    JSON; ``--events PATH`` additionally persists the canonical event
    stream as one JSON line per event.
    """
    from repro.fleet import run_fleet

    try:
        config = _fleet_config(args)
    except (ValueError, FileNotFoundError) as error:
        return _config_error(error)
    obs_out = _obs_out_path(args, "fleet-obs.jsonl")
    if obs_out is not None:
        from repro import obs

        with obs.recording() as recorder:
            report = run_fleet(config)
        _write_obs(recorder, obs_out)
    else:
        report = run_fleet(config)
    if args.events is not None:
        with Path(args.events).open("w") as handle:
            for event in report.events:
                handle.write(json.dumps(event.to_dict(), sort_keys=True) + "\n")
    print(json.dumps(_to_serializable(report.to_dict()), indent=2))
    return 0


def _cmd_fleet_report(args: argparse.Namespace) -> int:
    """Summarise a persisted fleet event stream (``fleet run --events``)."""
    try:
        path = Path(args.events)
        if not path.exists():
            raise FileNotFoundError(f"no such events file: {path}")
        events: list[dict[str, Any]] = []
        for number, line in enumerate(path.read_text().splitlines(), start=1):
            if not line.strip():
                continue
            try:
                events.append(json.loads(line))
            except json.JSONDecodeError as error:
                raise ValueError(f"{path}:{number}: malformed event line: {error}")
        if not events:
            raise ValueError(f"events file {path} contains no events")
    except (ValueError, FileNotFoundError) as error:
        return _config_error(error)
    import hashlib

    scores = [event["score"] for event in events]
    by_link: dict[str, int] = {}
    for event in events:
        by_link[event["link"]] = by_link.get(event["link"], 0) + 1
    digest = hashlib.sha256(json.dumps(events, sort_keys=True).encode()).hexdigest()
    print(
        json.dumps(
            {
                "events": len(events),
                "links": len(by_link),
                "detected": sum(1 for event in events if event.get("detected")),
                "score": {
                    "min": min(scores),
                    "mean": sum(scores) / len(scores),
                    "max": max(scores),
                },
                "first_timestamp": min(event["timestamp"] for event in events),
                "last_timestamp": max(event["timestamp"] for event in events),
                "event_digest": digest,
            },
            indent=2,
        )
    )
    return 0


# --------------------------------------------------------------------------- #
# parameter sweeps
# --------------------------------------------------------------------------- #
def _load_sweep_spec(path: str):
    from repro.sweep import SweepSpec

    return SweepSpec.from_file(path)


def _cmd_sweep_run(args: argparse.Namespace) -> int:
    """Run (or resume) a parameter sweep from a spec file into a JSONL store."""
    from repro.sweep import SweepRunner, SweepStore

    try:
        spec = _load_sweep_spec(args.spec)
        if getattr(args, "backend", None) is not None:
            spec = dataclasses.replace(spec, backend=args.backend)
        if spec.backend is not None:
            resolve_backend(spec.backend)
        workers = getattr(args, "workers", None)
        runner = SweepRunner(
            spec=spec,
            store=SweepStore(args.store),
            max_workers=workers if workers is not None else 1,
            progress=lambda record: print(
                f"completed {record.point_id} {record.overrides}", file=sys.stderr
            ),
        )
        prepared = runner.validate(resume=args.resume)
    except (ValueError, FileNotFoundError) as error:
        return _config_error(error)
    # Execution errors (a failing case inside a worker) keep their tracebacks
    # — only configuration mistakes get the one-line exit-2 treatment.
    obs_out = _obs_out_path(args, "sweep-obs.jsonl")
    if obs_out is not None:
        from repro import obs

        with obs.recording() as recorder:
            outcome = runner.run(resume=args.resume, prepared=prepared)
        _write_obs(recorder, obs_out)
    else:
        outcome = runner.run(resume=args.resume, prepared=prepared)
    print(
        json.dumps(
            {
                "sweep": spec.name,
                "store": str(args.store),
                "points": spec.num_points,
                "executed": list(outcome.executed),
                "skipped": list(outcome.skipped),
            },
            indent=2,
        )
    )
    return 0


def _cmd_sweep_status(args: argparse.Namespace) -> int:
    """Report completed/pending points of a sweep store."""
    from repro.sweep import SweepStore

    try:
        # point_ids skips building the per-window record objects.
        completed = SweepStore(args.store).point_ids()
        status: dict[str, Any] = {
            "store": str(args.store),
            "completed": len(completed),
            "completed_ids": completed,
        }
        if args.spec is not None:
            spec = _load_sweep_spec(args.spec)
            done = set(completed)
            points = spec.expand()
            status["sweep"] = spec.name
            status["points"] = spec.num_points
            status["pending_ids"] = [
                point.point_id for point in points if point.point_id not in done
            ]
            # Records that belong to no point of this spec: the store was
            # written by a different sweep (sweep run --resume would refuse it).
            foreign = sorted(done - {point.point_id for point in points})
            if foreign:
                status["foreign_ids"] = foreign
    except (ValueError, FileNotFoundError) as error:
        return _config_error(error)
    print(json.dumps(status, indent=2))
    return 0


def _cmd_sweep_report(args: argparse.Namespace) -> int:
    """Aggregate a sweep store: headline table, or a pivot over one axis."""
    from repro.sweep import SweepStore, headline_table, operating_points, pivot

    try:
        records = SweepStore(args.store).records()
        if not records:
            raise ValueError(f"sweep store {args.store!r} contains no records")
        if args.axis is not None:
            data: Any = pivot(
                records, args.axis, metric=args.metric, scheme=args.scheme
            )
        else:
            data = {
                "headline": headline_table(records),
                "operating_points": operating_points(records, scheme=args.scheme),
            }
    except (ValueError, FileNotFoundError) as error:
        return _config_error(error)
    print(json.dumps(_to_serializable(data), indent=2))
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of the ICDCS 2015 multipath device-free detection paper",
    )
    parser.add_argument(
        "--config",
        metavar="PATH",
        default=None,
        help="JSON config file (EvaluationConfig keys for campaign commands, "
        "PipelineConfig keys for the pipeline command)",
    )
    parser.add_argument(
        "--seed", type=int, default=None, help="campaign seed (default 2015)"
    )
    parser.add_argument(
        "--windows-per-location",
        type=int,
        default=None,
        help="monitoring bursts per grid position (default 3)",
    )
    parser.add_argument(
        "--window-packets",
        type=int,
        default=None,
        help="packets per monitoring window (default 25)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="processes sharding the campaign's link cases, or a sweep's "
        "(point, case) units (default 1; results are bit-identical for any "
        "worker count)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def _add_obs_flags(subparser, default_out: str) -> None:
        """The --obs/--obs-out pair shared by the fleet and sweep runners."""
        subparser.add_argument(
            "--obs",
            action="store_true",
            help="record per-stage spans and latency histograms during the run "
            "(outputs are byte-identical with or without it) and write the "
            f"metrics JSONL to {default_out}",
        )
        subparser.add_argument(
            "--obs-out",
            metavar="PATH",
            default=None,
            help=f"metrics JSONL path (implies --obs; default {default_out})",
        )

    def _add_backend_flag(subparser) -> None:
        """The --backend flag shared by figure/pipeline/fleet run/sweep run."""
        subparser.add_argument(
            "--backend",
            metavar="NAME",
            default=None,
            help="numeric backend to compute through: 'exact' keeps the "
            "byte-identical pins (default), 'fast' uses SIMD kernels with "
            f"tolerance parity (registered: {', '.join(available_backends())})",
        )

    def add_postfix_overrides(subparser, names: tuple[str, ...]) -> None:
        """Accept the global campaign flags after the subcommand too.

        ``repro figure fig9 --seed 7`` should work like
        ``repro --seed 7 figure fig9``; SUPPRESS keeps an omitted postfix flag
        from clobbering a value parsed before the subcommand.
        """
        for name in names:
            subparser.add_argument(
                f"--{name.replace('_', '-')}",
                type=int,
                default=argparse.SUPPRESS,
                help=argparse.SUPPRESS,
            )

    _CAMPAIGN_FLAGS = ("seed", "windows_per_location", "window_packets", "workers")

    sub.add_parser("list", help="list available experiments").set_defaults(func=_cmd_list)
    headline = sub.add_parser(
        "headline", help="run the campaign and print headline numbers"
    )
    add_postfix_overrides(headline, _CAMPAIGN_FLAGS)
    headline.set_defaults(func=_cmd_headline)
    figure = sub.add_parser("figure", help="regenerate one figure's data as JSON")
    figure.add_argument("name", help="figure identifier, e.g. fig7 or fig2a")
    add_postfix_overrides(figure, _CAMPAIGN_FLAGS)
    _add_backend_flag(figure)
    figure.set_defaults(func=_cmd_figure)

    pipeline = sub.add_parser(
        "pipeline",
        help="stream a simulated link through a repro.api detection pipeline "
        "(one JSON line per detection event)",
    )
    pipeline.add_argument(
        "--case",
        default="case-1",
        help="evaluation link to monitor (default case-1)",
    )
    pipeline.add_argument(
        "--detector",
        default=None,
        help="registered detector name (default from --config, else 'combined')",
    )
    pipeline.add_argument(
        "--windows",
        type=int,
        default=6,
        help="monitoring windows to stream, alternating empty/occupied (default 6)",
    )
    add_postfix_overrides(pipeline, ("seed", "window_packets"))
    _add_backend_flag(pipeline)
    pipeline.set_defaults(func=_cmd_pipeline)

    lint = sub.add_parser(
        "lint",
        help="statically enforce the determinism contract (libm routing, "
        "RNG discipline, canonical serialisation); exits 1 on any "
        "unsuppressed finding",
    )
    lint.add_argument(
        "paths",
        nargs="*",
        default=["src/repro"],
        metavar="PATH",
        help="files or directories to lint (default src/repro)",
    )
    lint.add_argument(
        "--format",
        choices=("text", "json", "markdown"),
        default="text",
        help="report format (default text; markdown suits CI job summaries)",
    )
    lint.add_argument(
        "--rule",
        action="append",
        metavar="ID",
        help="restrict the run to this rule id (repeatable), e.g. --rule DET001",
    )
    lint.add_argument(
        "--pyproject",
        metavar="PATH",
        default=None,
        help="explicit pyproject.toml with the [tool.repro.lint] scoping "
        "(default: discovered by walking up from the first linted path)",
    )
    lint.set_defaults(func=_cmd_lint)

    fleet = sub.add_parser(
        "fleet",
        help="fleet-scale streaming: run thousands of synthetic links through "
        "the cross-link batch scheduler, summarise persisted event streams",
    )
    fleet_sub = fleet.add_subparsers(dest="fleet_command", required=True)

    fleet_run = fleet_sub.add_parser(
        "run",
        help="run a synthetic fleet (FleetConfig keys in --config) through the "
        "window scheduler and print the throughput/flush-latency report as JSON",
    )
    fleet_run.add_argument(
        "--links", type=int, default=None, help="population size (default 100)"
    )
    fleet_run.add_argument(
        "--duration",
        type=float,
        default=None,
        help="synthetic traffic duration in seconds per link (default 10)",
    )
    fleet_run.add_argument(
        "--batch-windows",
        type=int,
        default=None,
        help="ready windows batched across links per scoring flush "
        "(default 32; events are bit-identical for any value)",
    )
    fleet_run.add_argument(
        "--events",
        metavar="PATH",
        default=None,
        help="persist the canonical event stream as JSON lines",
    )
    _add_obs_flags(fleet_run, "fleet-obs.jsonl")
    add_postfix_overrides(fleet_run, ("seed", "workers"))
    _add_backend_flag(fleet_run)
    fleet_run.set_defaults(func=_cmd_fleet_run)

    fleet_report = fleet_sub.add_parser(
        "report", help="summarise a fleet event stream written by fleet run --events"
    )
    fleet_report.add_argument("--events", required=True, metavar="PATH")
    fleet_report.set_defaults(func=_cmd_fleet_report)

    obs_parser = sub.add_parser(
        "obs",
        help="observability: render metrics files recorded by "
        "fleet/sweep run --obs",
    )
    obs_sub = obs_parser.add_subparsers(dest="obs_command", required=True)
    obs_report = obs_sub.add_parser(
        "report",
        help="render a metrics JSONL file (per-stage p50/p99 latency, "
        "counters, setup-vs-scheduling time split)",
    )
    obs_report.add_argument(
        "--metrics", required=True, metavar="PATH", help="metrics JSONL file"
    )
    obs_report.add_argument(
        "--format",
        choices=("text", "markdown", "prometheus"),
        default="text",
        help="report format (default text; markdown suits CI job summaries, "
        "prometheus is the text exposition format)",
    )
    obs_report.set_defaults(func=_cmd_obs_report)

    sweep = sub.add_parser(
        "sweep",
        help="parameter sweeps: run a spec into a persistent store, check "
        "progress, aggregate results",
    )
    sweep_sub = sweep.add_subparsers(dest="sweep_command", required=True)

    sweep_run = sweep_sub.add_parser(
        "run", help="run (or resume) a sweep spec into a JSONL store"
    )
    sweep_run.add_argument(
        "--spec", required=True, metavar="PATH", help="sweep spec JSON file"
    )
    sweep_run.add_argument(
        "--store", required=True, metavar="PATH", help="JSONL result store to append to"
    )
    sweep_run.add_argument(
        "--workers",
        type=int,
        # SUPPRESS, not None: a plain default would clobber a --workers value
        # parsed before the subcommand (same argparse behaviour the postfix
        # override helper works around).
        default=argparse.SUPPRESS,
        help="process pool size sharding (point, case) units (default 1; the "
        "store is byte-identical for any worker count)",
    )
    sweep_run.add_argument(
        "--resume",
        action="store_true",
        help="skip points already completed in the store (required to reuse a "
        "non-empty store)",
    )
    _add_obs_flags(sweep_run, "sweep-obs.jsonl")
    _add_backend_flag(sweep_run)
    sweep_run.set_defaults(func=_cmd_sweep_run)

    sweep_status = sweep_sub.add_parser(
        "status", help="completed/pending points of a sweep store"
    )
    sweep_status.add_argument("--store", required=True, metavar="PATH")
    sweep_status.add_argument(
        "--spec",
        default=None,
        metavar="PATH",
        help="spec file; when given, pending points are listed too",
    )
    sweep_status.set_defaults(func=_cmd_sweep_status)

    sweep_report = sweep_sub.add_parser(
        "report", help="aggregate a sweep store as JSON"
    )
    sweep_report.add_argument("--store", required=True, metavar="PATH")
    sweep_report.add_argument(
        "--axis",
        default=None,
        help="pivot the headline metric over this axis (default: full "
        "headline + operating-point tables)",
    )
    sweep_report.add_argument(
        "--metric",
        default="true_positive_rate",
        help="headline metric to pivot (default true_positive_rate)",
    )
    sweep_report.add_argument(
        "--scheme",
        default="combined",
        help="detection scheme to report (default combined)",
    )
    sweep_report.set_defaults(func=_cmd_sweep_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point.

    Configuration mistakes (unknown keys/detectors, malformed JSON, missing
    files) exit with code 2 and a one-line ``error:`` message; genuine
    runtime failures inside the experiments keep their tracebacks.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
