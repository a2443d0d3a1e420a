"""Parameter sweep: seeds x window sizes x weighting policies in one run.

The paper's Section V figures are a grid of evaluation campaigns — the same
protocol rerun under different knobs.  This example drives that grid through
``repro.sweep``:

1. describe the grid declaratively with a :class:`repro.sweep.SweepSpec`
   (a base :class:`repro.experiments.runner.EvaluationConfig` plus named axes
   — ``seed`` is just another axis, so replication comes for free);
2. run it with :func:`repro.sweep.run_sweep`, which shards *(point, case)*
   work units over one process pool and appends one JSONL record per
   completed point to a :class:`repro.sweep.SweepStore` — interrupt it and
   rerun with ``resume=True`` and only the missing points are computed;
3. pivot the persisted results across any axis with
   :mod:`repro.sweep.analysis`.

The store is byte-identical for any worker count, so sweep results are
reproducible artifacts, not run-specific logs.

Run with::

    python examples/parameter_sweep.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro.experiments.runner import EvaluationConfig
from repro.sweep import SweepAxis, SweepSpec, SweepStore, run_sweep
from repro.sweep.analysis import best_point, pivot


def main() -> None:
    # 1. The grid: 2 replication seeds x 2 window sizes x both subcarrier
    #    weighting policies (Eq. 15 vs the per-packet Eq. 12 ablation).  The
    #    base config scales the campaign down so the example finishes in
    #    seconds; drop the overrides to sweep the full five-case protocol.
    spec = SweepSpec(
        name="window-size-x-weighting",
        base=EvaluationConfig(
            calibration_packets=40,
            windows_per_location=1,
            grid_rows=2,
            grid_cols=2,
            schemes=("baseline", "subcarrier"),
        ),
        axes=(
            SweepAxis("seed", (2015, 2016)),
            SweepAxis("window_packets", (10, 25)),
            SweepAxis("use_stability_ratio", (True, False)),
        ),
        cases=("case-1", "case-3"),
    )
    print(f"sweep '{spec.name}': {spec.num_points} points")
    print(f"axes: {[axis.field for axis in spec.axes]}")

    # 2. Run it.  One process pool spans all (point, case) pairs, so even a
    #    narrow two-case campaign keeps four workers busy.  The JSONL store
    #    persists every completed point; a second run with resume=True would
    #    skip all of them.
    with tempfile.TemporaryDirectory(prefix="repro-sweep-") as workdir:
        store_path = Path(workdir) / "sweep.jsonl"
        outcome = run_sweep(spec, store_path, max_workers=4)
        print(f"\nexecuted {len(outcome.executed)} points -> {store_path}")

        # 3. Aggregate across axes straight from the records (or reload the store
        #    later: SweepStore(store_path).records()).
        for metric in ("true_positive_rate", "auc"):
            table = pivot(
                outcome.records, "window_packets", metric=metric, scheme="subcarrier"
            )
            cells = ", ".join(
                f"{key} packets: {entry['mean']:.3f} (n={entry['n']})"
                for key, entry in table.items()
            )
            print(f"subcarrier {metric} by window size -> {cells}")

        policy = pivot(
            outcome.records, "use_stability_ratio", metric="auc", scheme="subcarrier"
        )
        for key, entry in policy.items():
            label = "stability ratio (Eq. 15)" if entry["value"] else "per-packet (Eq. 12)"
            print(f"weighting policy {label}: mean AUC {entry['mean']:.3f}")

        best = best_point(outcome.records, metric="auc", scheme="subcarrier")
        print(f"\nbest point {best['point_id']}: {best['overrides']} (AUC {best['value']:.3f})")

        # The store survives the process: this is what `repro sweep report` reads.
        reloaded = SweepStore(store_path).records()
        assert [r.point_id for r in reloaded] == [r.point_id for r in outcome.records]
        print(f"store reloads {len(reloaded)} records bit-exactly")


if __name__ == "__main__":
    main()
