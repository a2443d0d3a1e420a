#!/usr/bin/env python
"""Gate a pytest-benchmark run against the committed baseline medians.

Usage::

    python benchmarks/check_regression.py bench-smoke.json \
        [--baselines benchmarks/baselines.json] [--threshold 0.30]

Every benchmark listed in the baselines file is *gated*: its median in the
run must not exceed the baseline median by more than ``--threshold``
(fractional slowdown, default 30 %).  A gated benchmark missing from the run
also fails — otherwise dropping a file from the smoke list would silently
disarm the gate.  Benchmarks present in the run but absent from the
baselines are reported as ungated (new benchmarks land first, get baselined
in the same PR or the next re-baseline).

A per-benchmark delta table is printed to stdout and, when
``$GITHUB_STEP_SUMMARY`` is set, appended to the job summary as Markdown.

Exit codes: 0 all gates green, 1 regression or missing gated benchmark,
2 usage error.

To re-baseline after an intentional perf change, run the CI smoke command
locally on the reference machine and regenerate the file::

    PYTHONPATH=src python -m pytest -q --benchmark-only \
        --benchmark-min-rounds=1 --benchmark-warmup=off \
        --benchmark-json=bench-smoke.json <smoke files from ci.yml>
    python benchmarks/check_regression.py bench-smoke.json --write-baselines
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path


def load_run_medians(path: Path) -> dict[str, float]:
    """``{fullname: median_seconds}`` of a pytest-benchmark JSON file."""
    with path.open() as handle:
        data = json.load(handle)
    medians: dict[str, float] = {}
    for bench in data.get("benchmarks", []):
        medians[bench["fullname"]] = float(bench["stats"]["median"])
    return medians


def format_table(rows: list[tuple[str, str, str, str, str]]) -> str:
    header = ("benchmark", "baseline", "run", "delta", "status")
    return "\n".join(
        [
            "| " + " | ".join(header) + " |",
            "| " + " | ".join("---" for _ in header) + " |",
            *("| " + " | ".join(row) + " |" for row in rows),
        ]
    )


def seconds(value: float) -> str:
    if value < 1e-3:
        return f"{value * 1e6:.0f} µs"
    if value < 1.0:
        return f"{value * 1e3:.2f} ms"
    return f"{value:.3f} s"


def backend_speedup_table(medians: dict[str, float]) -> str | None:
    """Markdown table of fast-vs-exact medians for backend-matrixed benches.

    Benchmarks parametrized over the numeric backends appear twice in a run,
    as ``<name>[<params>exact]`` and ``<name>[<params>fast]`` (e.g.
    ``[exact]``/``[fast]`` or ``[combined-exact]``/``[combined-fast]``);
    for every such pair the table shows both medians and the exact/fast
    speedup factor.  Returns ``None`` when the run has no pairs (e.g. a
    filtered local run).
    """
    rows: list[tuple[str, str, str, str]] = []
    for name in sorted(medians):
        if not name.endswith("exact]"):
            continue
        stem = name[: -len("exact]")]
        fast = medians.get(f"{stem}fast]")
        if fast is None:
            continue
        exact = medians[name]
        speedup = exact / fast if fast > 0 else float("inf")
        label = stem[:-1] if stem.endswith("[") else f"{stem[:-1]}]"
        rows.append((f"`{label}`", seconds(exact), seconds(fast), f"{speedup:.2f}x"))
    if not rows:
        return None
    header = ("benchmark", "exact median", "fast median", "speedup")
    return "\n".join(
        [
            "| " + " | ".join(header) + " |",
            "| " + " | ".join("---" for _ in header) + " |",
            *("| " + " | ".join(row) + " |" for row in rows),
        ]
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("run", type=Path, help="pytest-benchmark JSON of this run")
    parser.add_argument(
        "--baselines",
        type=Path,
        default=Path(__file__).parent / "baselines.json",
        help="committed reference-machine medians (default: benchmarks/baselines.json)",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.30,
        help="maximum fractional slowdown before the gate fails (default 0.30)",
    )
    parser.add_argument(
        "--write-baselines",
        action="store_true",
        help="overwrite the baselines file with this run's medians and exit",
    )
    args = parser.parse_args(argv)
    if args.threshold <= 0:
        parser.error(f"--threshold must be > 0, got {args.threshold}")
    if not args.run.exists():
        parser.error(f"benchmark JSON not found: {args.run}")

    run_medians = load_run_medians(args.run)
    if args.write_baselines:
        payload = {
            "note": (
                "Reference-machine benchmark medians (seconds), keyed by pytest "
                "fullname. Regenerate with check_regression.py --write-baselines "
                "after an intentional perf change; see the README's CI perf gate "
                "section."
            ),
            "medians": {name: run_medians[name] for name in sorted(run_medians)},
        }
        args.baselines.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {len(run_medians)} baseline medians to {args.baselines}")
        return 0

    if not args.baselines.exists():
        parser.error(f"baselines file not found: {args.baselines}")
    baselines: dict[str, float] = json.loads(args.baselines.read_text())["medians"]

    rows: list[tuple[str, str, str, str, str]] = []
    failures: list[str] = []
    for name in sorted(baselines):
        base = float(baselines[name])
        if name not in run_medians:
            rows.append((f"`{name}`", seconds(base), "—", "—", "❌ missing from run"))
            failures.append(f"{name}: gated benchmark missing from the run")
            continue
        median = run_medians[name]
        delta = (median - base) / base
        status = "✅ ok" if delta <= args.threshold else "❌ regression"
        if delta > args.threshold:
            failures.append(
                f"{name}: median {seconds(median)} is {delta:+.1%} vs baseline "
                f"{seconds(base)} (threshold +{args.threshold:.0%})"
            )
        rows.append(
            (f"`{name}`", seconds(base), seconds(median), f"{delta:+.1%}", status)
        )
    ungated = sorted(set(run_medians) - set(baselines))
    for name in ungated:
        rows.append((f"`{name}`", "—", seconds(run_medians[name]), "—", "ungated"))

    title = (
        f"## Benchmark perf gate (threshold +{args.threshold:.0%} vs "
        f"reference-machine medians)"
    )
    table = format_table(rows)
    print(title)
    print(table)
    speedup_title = "## Numeric backend speedup (fast vs exact medians, this run)"
    speedups = backend_speedup_table(run_medians)
    if speedups is not None:
        print(speedup_title)
        print(speedups)
    if failures:
        print("\nFAIL:")
        for failure in failures:
            print(f"  - {failure}")
    else:
        print(f"\nall {len(baselines)} gated benchmarks within threshold")

    summary_path = os.environ.get("GITHUB_STEP_SUMMARY")
    if summary_path:
        with open(summary_path, "a") as handle:
            handle.write(f"{title}\n\n{table}\n")
            if speedups is not None:
                handle.write(f"\n{speedup_title}\n\n{speedups}\n")
            if failures:
                handle.write("\n**FAIL:**\n")
                for failure in failures:
                    handle.write(f"- {failure}\n")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
