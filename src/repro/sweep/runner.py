"""Deterministic sweep execution: shard points x cases over one process pool.

A single evaluation campaign has only five link cases, so sharding at the
campaign level (``EvaluationConfig(max_workers=...)``) tops out at five busy
workers.  The sweep runner shards one level up *and* one level down at the
same time: the unit of work is a ``(point, case)`` pair, so a 20-point sweep
keeps every worker of a wide pool saturated even though each campaign is
narrow.

Determinism is inherited from the campaign driver rather than re-invented:

* every point's per-case seeds are derived exactly the way
  :func:`~repro.experiments.runner.run_evaluation` derives them
  (``config.seed + 1000 * case_index``), so a sweep point's record is
  bit-identical to running ``run_evaluation(point.config, cases=...)`` on its
  own;
* :func:`~repro.utils.parallel.ordered_map` yields unit results in
  ``(point, case)`` order, and a point's record is appended once its cases
  are in, so the store's records — and their exact bytes — are identical for
  any worker count.  A failing unit or progress callback stops the run with
  every earlier point persisted and nothing after it.
"""

from __future__ import annotations

from contextlib import closing
from dataclasses import dataclass, field
from itertools import islice
from typing import Callable

from repro import obs
from repro.api.registry import DEFAULT_REGISTRY as DETECTORS
from repro.channel.channel import Link
from repro.experiments.runner import (
    EvaluationConfig,
    EvaluationResult,
    ScoredWindow,
    derive_case_seed,
    run_case,
)
from repro.experiments.scenarios import Scenario
from repro.sweep.spec import SweepPoint, SweepSpec
from repro.sweep.store import SweepRecord, SweepStore
from repro.utils.parallel import ordered_map
from repro.utils.validation import check_integer


def _run_point_case(
    link: Link, config: EvaluationConfig, case_seed: int
) -> list[ScoredWindow]:
    """One (point, case) work unit: :func:`run_case` under a ``sweep.case`` span.

    The module global is the seam the resume tests monkeypatch to count
    exactly which work units a run executes.
    """
    with obs.span("sweep.case"):
        return run_case(link, config, case_seed=case_seed)


@dataclass(frozen=True)
class SweepRunResult:
    """Outcome of one :meth:`SweepRunner.run` invocation.

    Attributes
    ----------
    records:
        One record per sweep point, in point order — previously completed
        records plus the ones executed by this run.
    executed:
        Point ids computed by this invocation, in execution order.
    skipped:
        Point ids found already complete in the store and not recomputed.
    """

    records: list[SweepRecord]
    executed: tuple[str, ...]
    skipped: tuple[str, ...]


@dataclass
class SweepRunner:
    """Run a :class:`~repro.sweep.spec.SweepSpec` into a :class:`SweepStore`.

    Parameters
    ----------
    spec:
        The sweep to run.
    store:
        Persistent result store; one JSONL record is appended per completed
        point, in point order.
    max_workers:
        Number of processes the ``(point, case)`` work units are sharded
        over.  The result (and the store's bytes) is identical for any
        value; 1 runs in-process without a pool.
    progress:
        Optional callback invoked as ``progress(record)`` after each point's
        record is appended.  If it raises, the run stops with that error.
    """

    spec: SweepSpec
    store: SweepStore
    max_workers: int = 1
    progress: Callable[[SweepRecord], None] | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if check_integer("max_workers", self.max_workers) < 1:
            raise ValueError(f"max_workers must be >= 1, got {self.max_workers}")

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #
    def validate(self, *, resume: bool = False) -> tuple[
        list[SweepPoint], list[SweepRecord], list[tuple[Scenario, Link]]
    ]:
        """Configuration-level checks, separated from execution.

        Expands the spec (each point's config checks its backend name as it
        is built), looks up every point's schemes in the detector registry,
        resolves the case subset and reconciles the store (recovering a torn
        trailing line when *resume* is set).  Every error
        raised here is a configuration mistake — the CLI maps them to its
        one-line exit-2 contract, while errors raised during :meth:`run`'s
        actual execution keep their tracebacks.

        Returns ``(points, existing_records, cases)``.
        """
        points = self.spec.expand()
        for point in points:
            for scheme in point.config.schemes:
                DETECTORS.get(scheme)
        known_ids = {point.point_id for point in points}

        existing: list[SweepRecord] = []
        if resume:
            existing = self.store.recover()
        elif self.store.path.exists() and self.store.path.stat().st_size > 0:
            raise ValueError(
                f"sweep store {self.store.path} already contains records; "
                f"pass resume=True (CLI: --resume) to continue it, or point "
                f"the sweep at a fresh store"
            )
        stale = sorted({r.point_id for r in existing} - known_ids)
        if stale:
            raise ValueError(
                f"sweep store {self.store.path} contains records for points not "
                f"in this spec (e.g. {stale[:3]}); it belongs to a different "
                f"sweep — point this run at a fresh store"
            )
        return points, existing, self.spec.evaluation_cases()

    def run(
        self,
        *,
        resume: bool = False,
        prepared: tuple[
            list[SweepPoint], list[SweepRecord], list[tuple[Scenario, Link]]
        ] | None = None,
    ) -> SweepRunResult:
        """Execute the sweep, appending one store record per completed point.

        Parameters
        ----------
        resume:
            Skip points whose record is already in the store (a torn trailing
            line from a previous interruption is truncated first).  Without
            ``resume``, a non-empty store is an error so two sweeps can never
            silently interleave records in one file.
        prepared:
            The output of an earlier :meth:`validate` call, so a caller that
            already validated (the CLI separates config errors from runtime
            failures) does not expand the spec and reconcile the store twice.
        """
        points, existing, cases = (
            prepared if prepared is not None else self.validate(resume=resume)
        )

        completed = {record.point_id for record in existing}
        pending = [point for point in points if point.point_id not in completed]

        # One (point, case) task per pending unit, in deterministic order;
        # seeds come from the same derivation run_evaluation uses, so each
        # point's record matches a standalone campaign of its config.
        tasks = [
            (link, point.config, derive_case_seed(point.config, case_index))
            for point in pending
            for case_index, (_, link) in enumerate(cases)
        ]

        executed: list[str] = []
        new_records: list[SweepRecord] = []
        clock = obs.active_clock()
        with closing(ordered_map(_run_point_case, tasks, self.max_workers)) as units:
            for point in pending:
                # sweep.point_s is the wait for the point's cases: their run
                # time in-process, the point's share of the run over a pool.
                started = clock.now()
                windows = [
                    window
                    for case_windows in islice(units, len(cases))
                    for window in case_windows
                ]
                obs.observe("sweep.point_s", clock.now() - started)
                obs.count("sweep.points", 1)
                result = EvaluationResult(windows=windows, config=point.config)
                record = SweepRecord.from_point(point, result)
                self.store.append(record)
                new_records.append(record)
                executed.append(point.point_id)
                if self.progress is not None:
                    self.progress(record)

        by_id = {record.point_id: record for record in existing + new_records}
        records = [by_id[point.point_id] for point in points]
        return SweepRunResult(
            records=records,
            executed=tuple(executed),
            skipped=tuple(record.point_id for record in existing),
        )


def run_sweep(
    spec: SweepSpec,
    store: SweepStore | str,
    *,
    max_workers: int = 1,
    resume: bool = False,
    progress: Callable[[SweepRecord], None] | None = None,
) -> SweepRunResult:
    """Convenience wrapper: run *spec* into *store* (path or store object)."""
    if not isinstance(store, SweepStore):
        store = SweepStore(store)
    runner = SweepRunner(
        spec=spec, store=store, max_workers=max_workers, progress=progress
    )
    return runner.run(resume=resume)
