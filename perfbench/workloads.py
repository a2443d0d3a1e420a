"""The benchmark's workloads: how each one sets up, runs a unit and checks it.

A workload builds its inputs from the run's seed alone and exposes:

* ``setups`` and ``set_up()`` - how many separate set-ups a run times, and
  one of them, returning its wall seconds (a workload that sets up inside
  every unit has none);
* ``min_units`` - the fewest timed units a run may end with;
* ``warm_up()`` - untimed work that fills lazy caches and records the
  reference output the timed units are compared against;
* ``unit(trace)`` - one timed unit of work, returned as a :class:`Unit`,
  recorded by a ``repro.obs`` recorder when *trace* is set;
* ``check(unit)`` - problems with one unit's output (empty when correct);
* ``final_checks()`` - seed-independent checks of the reference output.

Every check holds for any seed: structure, determinism (identical bytes for
identical inputs, across units and across processes), cross-path
equivalence (``exact`` vs ``fast`` backend, a sub-fleet vs the full fleet)
and detection-quality floors far below what the paper's schemes reach.
"""

from __future__ import annotations

import hashlib
import json
import math
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from repro import obs
from repro.api import PipelineConfig
from repro.experiments.runner import EvaluationConfig, run_evaluation
from repro.experiments.scenarios import evaluation_cases
from repro.fleet import FleetConfig, run_fleet

HERE = Path(__file__).resolve().parent

#: Relative per-window score tolerance between the ``exact`` and ``fast``
#: backends.  The largest delta seen over 28 campaign seeds is 2.6e-13.
BACKEND_RELATIVE_TOLERANCE = 1e-11

#: Cold starts per campaign run; ``setup_s`` is their median.
COLD_STARTS = 3

#: Campaign inputs a run cycles through, each from its own seed derived from
#: the run's: on the fast backend a campaign's time varies by ~5% from one
#: seed's inputs to another's, which would otherwise be the runs' spread.
CAMPAIGN_INPUTS = 4

#: Seconds a cold-start child may take before it counts as failed.
COLD_START_TIMEOUT_S = 40


@dataclass
class Unit:
    """One timed unit of work and what it produced.

    ``start`` and ``end`` are ``time.perf_counter`` readings; the run turns
    wall seconds into reference seconds over that interval (``speed.py``).
    ``work_s`` is the part of the unit its ``windows`` were scored in,
    ``setup_s`` the set-up inside the unit, for workloads that set up per
    unit, and ``wait_p50_s`` the median wait of a ready window for scoring.
    ``inputs`` indexes the workload's inputs the unit ran on.
    """

    start: float
    end: float
    windows: int
    work_s: float
    digest: str
    inputs: int = 0
    setup_s: float | None = None
    wait_p50_s: float = 0.0
    snapshot: "obs.ObsSnapshot | None" = None

    @property
    def wall_s(self) -> float:
        return self.end - self.start


def _timed(call, trace: bool):
    """Run *call*, returning (result, start, end, obs snapshot or None)."""
    if not trace:
        start = time.perf_counter()
        result = call()
        return result, start, time.perf_counter(), None
    with obs.recording(obs.Recorder(max_spans=None)) as recorder:
        start = time.perf_counter()
        result = call()
        end = time.perf_counter()
    return result, start, end, recorder.snapshot()


# --------------------------------------------------------------------------- #
# the paper's evaluation campaign
# --------------------------------------------------------------------------- #
def campaign_digest(result) -> str:
    """sha256 over every scored window of a campaign, floats exact."""
    payload = json.dumps([window.to_dict() for window in result.windows])
    return hashlib.sha256(payload.encode()).hexdigest()


class Campaign:
    """The five-case evaluation campaign of Section V-A on one backend.

    A unit is one :func:`~repro.experiments.runner.run_evaluation` of the
    default protocol (3x3 grid, three bursts per location, as many empty
    windows, three schemes); units cycle through ``CAMPAIGN_INPUTS`` seeds
    derived from the run's seed.  Set-up is a cold start: a fresh
    interpreter imports the program and runs the first seed's campaign once
    (``coldstart.py``).
    """

    min_units = 2 * CAMPAIGN_INPUTS
    setups = COLD_STARTS

    def __init__(self, backend: str, seed: int) -> None:
        self.backend = backend
        self.configs = [
            EvaluationConfig(seed=seed * CAMPAIGN_INPUTS + offset, backend=backend)
            for offset in range(CAMPAIGN_INPUTS)
        ]
        self.references: list = []
        self.reference_digests: list[str] = []
        self.cold_digests: list[str] = []
        self.units_started = 0

    def set_up(self) -> float:
        command = [
            sys.executable,
            str(HERE / "coldstart.py"),
            "--backend",
            self.backend,
            "--seed",
            str(self.configs[0].seed),
        ]
        child = subprocess.run(
            command,
            capture_output=True,
            text=True,
            timeout=COLD_START_TIMEOUT_S,
            cwd=HERE.parent,
        )
        if child.returncode != 0:
            raise RuntimeError(f"cold start failed:\n{child.stderr}")
        outcome = json.loads(child.stdout.strip().splitlines()[-1])
        self.cold_digests.append(outcome["digest"])
        return float(outcome["seconds"])

    def warm_up(self) -> None:
        # The first campaign of a process also builds the fast backend's
        # caches; it is a reference, never timed.
        self.references = [run_evaluation(config) for config in self.configs]
        self.reference_digests = [campaign_digest(result) for result in self.references]

    def unit(self, trace: bool) -> Unit:
        inputs = self.units_started % len(self.configs)
        self.units_started += 1
        config = self.configs[inputs]
        result, start, end, snapshot = _timed(lambda: run_evaluation(config), trace)
        return Unit(
            start=start,
            end=end,
            windows=len(result.windows),
            work_s=end - start,
            digest=campaign_digest(result),
            inputs=inputs,
            snapshot=snapshot,
        )

    def check(self, unit: Unit) -> list[str]:
        if unit.digest != self.reference_digests[unit.inputs]:
            return ["campaign output differs from the first campaign of the same seed"]
        return []

    def final_checks(self) -> list[str]:
        problems = []
        for config, result in zip(self.configs, self.references):
            problems += campaign_structure(result, config)
            problems += campaign_quality(result)
        for digest in self.cold_digests:
            if digest != self.reference_digests[0]:
                problems.append("a fresh interpreter produced a different campaign")
        other = "fast" if self.backend == "exact" else "exact"
        twin = run_evaluation(EvaluationConfig(seed=self.configs[0].seed, backend=other))
        problems += backend_parity(self.references[0], twin)
        return problems


def campaign_structure(result, config: EvaluationConfig) -> list[str]:
    """Window counts, labels and score ranges the protocol fixes."""
    problems = []
    cases = [link.name for _, link in evaluation_cases()]
    per_class = config.grid_rows * config.grid_cols * config.windows_per_location
    expected = len(cases) * 2 * per_class * len(config.schemes)
    if len(result.windows) != expected:
        problems.append(f"{len(result.windows)} scored windows, expected {expected}")
    tally: dict[tuple[str, str, bool], int] = {}
    for window in result.windows:
        key = (window.case, window.scheme, window.occupied)
        tally[key] = tally.get(key, 0) + 1
        if not (math.isfinite(window.score) and window.score >= 0.0):
            problems.append(f"score {window.score!r} in {window.case}/{window.scheme}")
            break
        if window.window_packets != config.window_packets:
            problems.append(f"window of {window.window_packets} packets")
            break
        located = window.location_index is not None
        if located != window.occupied:
            problems.append("grid location does not match the occupancy label")
            break
    for case in cases:
        for scheme in config.schemes:
            for occupied in (True, False):
                if tally.get((case, scheme, occupied), 0) != per_class:
                    problems.append(f"{case}/{scheme}: wrong window count")
    return problems


def campaign_quality(result) -> list[str]:
    """Detection-quality floors every seed clears by a wide margin.

    Over 28 seeds the combined scheme's AUC stays in [0.983, 0.998], its
    balanced TPR in [0.93, 0.99] and FPR in [0, 0.075]; every scheme's AUC
    stays above 0.90.
    """
    problems = []
    headline = result.headline()
    for scheme, stats in headline.items():
        if stats["auc"] < 0.85:
            problems.append(f"{scheme} AUC {stats['auc']:.3f} < 0.85")
    combined = headline.get("combined")
    if combined is None:
        problems.append("the combined scheme was not scored")
    elif (
        combined["auc"] < 0.95
        or combined["true_positive_rate"] < 0.85
        or combined["false_positive_rate"] > 0.15
    ):
        problems.append(f"combined scheme below its quality floor: {combined}")
    return problems


def backend_parity(result, twin) -> list[str]:
    """``exact`` and ``fast`` agree to trailing bits and on every operating point."""
    if len(result.windows) != len(twin.windows):
        return ["the two backends scored different window counts"]
    for mine, theirs in zip(result.windows, twin.windows):
        if (mine.scheme, mine.case, mine.occupied) != (
            theirs.scheme,
            theirs.case,
            theirs.occupied,
        ):
            return ["the two backends scored windows in a different order"]
        scale = max(abs(mine.score), 1e-300)
        if abs(mine.score - theirs.score) / scale > BACKEND_RELATIVE_TOLERANCE:
            return [f"backend score delta beyond {BACKEND_RELATIVE_TOLERANCE}"]
    for scheme in result.config.schemes:
        if result.balanced_operating_point(scheme)[1:] != twin.balanced_operating_point(
            scheme
        )[1:]:
            return [f"{scheme}: the backends disagree on the operating point"]
    return []


# --------------------------------------------------------------------------- #
# the 1,000-link fleet
# --------------------------------------------------------------------------- #
FLEET_LINKS = 1000
#: Links of the sub-fleet whose events must reappear unchanged in the fleet.
SUB_FLEET_LINKS = 40


def fleet_config(seed: int, **changes) -> FleetConfig:
    """1,000 links for 2 simulated seconds, all running the combined scheme."""
    settings = dict(
        links=FLEET_LINKS,
        duration_s=2.0,
        seed=seed,
        batch_windows=64,
        pool_packets=40,
        pipeline=PipelineConfig(
            detector="combined", window_packets=10, calibration_packets=30
        ),
    )
    settings.update(changes)
    return FleetConfig(**settings)


class Fleet:
    """A 1,000-link fleet on the combined scheme through the batch scheduler.

    A unit is one :func:`~repro.fleet.run_fleet`: set-up (traffic synthesis
    and calibration of every link's session) followed by the scheduling pass
    that merges the links' Poisson arrivals and scores ready windows in
    cross-link batches.  Every unit sets the fleet up again: set-up is the
    unit's time outside the pass, and throughput is per second of the pass
    alone, since the number of windows depends on the seed's mix of slow
    and busy links.
    """

    min_units = 3
    setups = 0

    def __init__(self, seed: int) -> None:
        self.config = fleet_config(seed)
        self.reference = None
        self.reference_digest = ""
        self.sub_fleet = None

    def warm_up(self) -> None:
        # The first fleet of a process runs slower (allocation); it becomes
        # the reference.  The sub-fleet, scored one window at a time, is
        # checked against the reference's batched events later.
        self.reference = run_fleet(self.config)
        self.reference_digest = self.reference.event_digest()
        self.sub_fleet = run_fleet(
            self.config.replace(links=SUB_FLEET_LINKS, batch_windows=1)
        )

    def unit(self, trace: bool) -> Unit:
        report, start, end, snapshot = _timed(lambda: run_fleet(self.config), trace)
        return Unit(
            start=start,
            end=end,
            windows=report.windows_scored,
            work_s=report.elapsed_s,
            digest=report.event_digest(),
            setup_s=end - start - report.elapsed_s,
            wait_p50_s=report.latency_p50_s,
            snapshot=snapshot,
        )

    def check(self, unit: Unit) -> list[str]:
        if unit.digest != self.reference_digest:
            return ["fleet events differ from the first run of the same seed"]
        return []

    def final_checks(self) -> list[str]:
        report = self.reference
        problems = fleet_structure(report, self.config)
        problems += fleet_quality(report, self.config)
        sub_links = {event.link for event in self.sub_fleet.events}
        mine = [event for event in report.events if event.link in sub_links]
        if not sub_links or mine != list(self.sub_fleet.events):
            problems.append(
                "a sub-fleet scored one window at a time disagrees with the fleet"
            )
        return problems


def fleet_structure(report, config: FleetConfig) -> list[str]:
    """Event bookkeeping every fleet run must satisfy."""
    problems = []
    window = config.pipeline.window_packets
    if report.links != config.links or sum(report.per_class.values()) != config.links:
        problems.append("the fleet report lost links")
    if not report.events or len(report.events) != report.windows_scored:
        problems.append(
            f"{len(report.events)} events for {report.windows_scored} scored windows"
        )
    if report.arrivals < report.windows_scored * window:
        problems.append("more windows scored than packets arrived")
    last: dict[str, tuple[int, float]] = {}
    for event in report.events:
        index, timestamp = last.get(event.link, (-1, -math.inf))
        if event.index != index + 1 or event.timestamp < timestamp:
            problems.append(f"{event.link}: events out of order")
            break
        last[event.link] = (event.index, event.timestamp)
        if not (math.isfinite(event.score) and event.score >= 0.0):
            problems.append(f"{event.link}: score {event.score!r}")
            break
        if event.threshold is None or event.detected != (event.score > event.threshold):
            problems.append(f"{event.link}: decision does not follow the threshold")
            break
        if event.window_packets != window or event.packets_seen != window * (
            event.index + 1
        ):
            problems.append(f"{event.link}: window bookkeeping is off")
            break
    return problems


def fleet_quality(report, config: FleetConfig) -> list[str]:
    """Detection rates against the pool's ground truth.

    Every link's arrivals cycle through its packet pool, an idle burst then
    an occupied one, so a window's truth follows from its packet positions.
    Over eight seeds the combined scheme catches every occupied window and
    flags 25-33% of the idle ones; the floors leave wide margins.
    """
    pool = config.pool_packets
    empty = pool - min(max(round(pool * config.occupied_fraction), 0), pool)
    counts = {True: [0, 0], False: [0, 0]}
    for event in report.events:
        first = event.packets_seen - event.window_packets
        truth = {
            (position % pool) >= empty for position in range(first, event.packets_seen)
        }
        if len(truth) == 1:
            occupied = truth.pop()
            counts[occupied][0] += 1
            counts[occupied][1] += bool(event.detected)
    (positives, hits), (negatives, alarms) = counts[True], counts[False]
    if not positives or not negatives:
        return ["the fleet scored no pure occupied or empty windows"]
    tpr, fpr = hits / positives, alarms / negatives
    if tpr < 0.9 or fpr > 0.5:
        return [f"fleet detection TPR {tpr:.3f} / FPR {fpr:.3f} outside TPR>=0.9, FPR<=0.5"]
    return []


WORKLOADS = {
    "campaign-exact": lambda seed: Campaign("exact", seed),
    "campaign-fast": lambda seed: Campaign("fast", seed),
    "fleet-combined": Fleet,
}
