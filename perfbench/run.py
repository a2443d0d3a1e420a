"""Benchmark of the CSI occupancy-detection reproduction, end to end and per layer.

Run from the root of a checkout (no build step; the program is imported from
the checkout's ``src/``)::

    python3 perfbench/run.py --workload campaign-exact --seed 1 --seconds 25 --trace 0

Workloads (``workloads.py``):

* ``campaign-exact`` - the paper's five-case evaluation campaign on the
  ``exact`` numeric backend (libm-routed kernels, per-window scoring);
* ``campaign-fast`` - the same campaign on the ``fast`` backend (SIMD kernels,
  stacked scoring);
* ``fleet-combined`` - 1,000 links running the paper's combined scheme
  through the cross-link batch scheduler.

A run builds its inputs from ``--seed``, warms up, sets up, then times units
of work for ``--seconds`` seconds (closed loop, one client: the next unit
starts when the last one ends; at least eight campaigns or three fleets),
checks every output and prints one JSON object as the last line of standard
output::

    {"correct": true, "attempted": 31, "failed": 0, "metrics": {...}}

``attempted`` counts timed units and ``failed`` those that raised or whose
output differed from the reference; ``correct`` also needs the seed-proof
checks of ``workloads.py`` to pass.  Diagnostics go to standard error.

With ``--trace 0`` observability is off and the metrics are end to end:

* ``setup_s`` - median of a run's set-ups: campaigns, a fresh interpreter
  importing the program and running its first campaign, three times; fleet,
  synthesising traffic for and calibrating the 1,000 links' sessions, once
  per unit;
* ``run_s`` - median of one unit: a five-case campaign, or a whole fleet run
  (set-up and scheduling);
* ``windows_per_s`` - scored windows per second over the run: of the
  campaigns, or of the fleets' scheduling passes.

With ``--trace 1`` a ``repro.obs`` recorder is installed around every unit
and the metrics are the per-layer ones of ``layers.py``, each a median over
the units; ``unit_ms`` against the untraced ``run_s`` gives the tracing
overhead.

Times are reference seconds: wall seconds scaled by the machine's speed
while they passed, which a fixed kernel timed by a side process on the same
core measures (``speed.py``).  The whole run, children included, keeps to
one core.  Standard error shows each unit's wall seconds and scale.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
import traceback

#: Thread-count variables of the BLAS libraries NumPy may load.
BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: End-to-end metric -> unit, in the order a run reports them.
END_TO_END: dict[str, str] = {"setup_s": "s", "run_s": "s", "windows_per_s": "1/s"}


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="Benchmark the occupancy-detection campaign and fleet."
    )
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error(f"--seed must be >= 0, got {args.seed}")
    if args.seconds <= 0:
        parser.error(f"--seconds must be > 0, got {args.seconds}")
    return args


def confine_to_one_core() -> None:
    """Run this process, its BLAS library and every child on one core.

    The speed sampler (``speed.py``) then times its kernel on the core the
    program runs on, in the gaps the scheduler gives it, never alongside the
    program: on a shared 2-vCPU guest the two cores share enough hardware
    that a program running on one slows a kernel on the other by up to 40%,
    which would tie the reference to the program.  OpenBLAS is held to one thread for the
    same reason; left alone it spins a second one on the fast backend
    without speeding the campaign up.  Children inherit both settings, so
    this must run before NumPy loads.
    """
    for name in BLAS_THREADS:
        os.environ[name] = "1"
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def time_setups(workload) -> list[tuple[float, float, float]]:
    """``(start, end, seconds)`` of each of the workload's separate set-ups."""
    setups = []
    for _ in range(workload.setups):
        start = time.perf_counter()
        seconds = workload.set_up()
        setups.append((start, time.perf_counter(), seconds))
    return setups


def measure(workload, seconds: float, trace: bool):
    """Run timed units until *seconds* have passed and enough have finished.

    Returns the units whose output checked out, the number attempted and the
    problems of the others.
    """
    units = []
    attempted = 0
    problems: list[str] = []
    started = time.perf_counter()
    while attempted < workload.min_units or time.perf_counter() - started < seconds:
        attempted += 1
        try:
            unit = workload.unit(trace)
        except Exception as error:  # a failing unit is counted, not fatal
            traceback.print_exc()
            problems.append(f"unit {attempted} raised {error!r}")
            continue
        unit_problems = workload.check(unit)
        if unit_problems:
            problems.extend(unit_problems)
            continue
        units.append(unit)
    return units, attempted, problems


def end_to_end_metrics(sampler, setups, units) -> dict[str, float]:
    """The end-to-end metrics of a run, in reference seconds.

    Each phase is scaled by the machine's speed over that phase itself: a
    fleet's set-up and scheduling pass run at different moments, and the
    kernel's mean over the pass alone correlates at 0.96 with the pass's
    wall time, over the whole fleet at 0.71.  A unit's time is the sum of
    its scaled phases.
    """
    setup_s = [seconds * sampler.scale(start, end) for start, end, seconds in setups]
    run_s = []
    windows = 0
    work_s = 0.0
    for unit in units:
        work_start = unit.end - unit.work_s
        work = unit.work_s * sampler.scale(work_start, unit.end)
        run = work
        if unit.setup_s is not None:
            setup = unit.setup_s * sampler.scale(unit.start, work_start)
            setup_s.append(setup)
            run += setup
        run_s.append(run)
        work_s += work
        windows += unit.windows
    return {
        "setup_s": statistics.median(setup_s),
        "run_s": statistics.median(run_s),
        "windows_per_s": windows / work_s,
    }


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    confine_to_one_core()
    from program import import_program
    from speed import SpeedSampler

    import_program()
    from layers import LAYER_METRICS, layer_values
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(
            f"error: unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    workload = WORKLOADS[args.workload](args.seed)
    trace = bool(args.trace)

    workload.warm_up()
    with SpeedSampler() as sampler:
        setups = [] if trace else time_setups(workload)
        units, attempted, problems = measure(workload, args.seconds, trace)
    if not units:
        print("error: no unit completed correctly", *problems, sep="\n", file=sys.stderr)
        return 1
    problems += workload.final_checks()
    scales = [sampler.scale(unit.start, unit.end) for unit in units]

    if trace:
        per_unit = [layer_values(unit, scale) for unit, scale in zip(units, scales)]
        # Counts repeat exactly from unit to unit; median_low keeps them whole.
        values = {
            name: (statistics.median_low if unit == "count" else statistics.median)(
                [row[name] for row in per_unit]
            )
            for name, unit in LAYER_METRICS.items()
        }
        units_of = LAYER_METRICS
    else:
        values = end_to_end_metrics(sampler, setups, units)
        units_of = END_TO_END

    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(
        f"{args.workload} seed={args.seed}: {len(units)}/{attempted} units ok; "
        "wall seconds x scale: "
        + " ".join(
            f"{unit.wall_s:.3f}x{scale:.2f}" for unit, scale in zip(units, scales)
        ),
        file=sys.stderr,
    )
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": attempted - len(units),
        "metrics": {
            name: {"value": values[name], "unit": unit} for name, unit in units_of.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
