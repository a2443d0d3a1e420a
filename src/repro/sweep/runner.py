"""Deterministic sweep execution: shard points x cases over one process pool.

A single evaluation campaign has only five link cases, so sharding at the
campaign level (``run_evaluation(max_workers=...)``) tops out at five busy
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
* futures are collected as they complete (so a slow unit early in the grid
  never delays noticing later failures) but results are buffered and merged
  back in ``(point, case)`` submission order, so the store's records — and
  their exact bytes — are identical for any worker count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

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


def _run_point_case(
    link: Link, config: EvaluationConfig, case_seed: int
) -> list[ScoredWindow]:
    """One (point, case) work unit.

    A module-level indirection over :func:`run_case` so both execution paths
    (sequential and process pool) share one seam — the resume tests
    monkeypatch it to count exactly which work units a run executes.
    """
    return run_case(link, config, case_seed=case_seed)


#: What one work unit ships back: the scored windows plus the unit's
#: observability snapshot (``None`` when observability is off).
_UnitResult = tuple[list[ScoredWindow], "obs.ObsSnapshot | None"]


def _timed_point_case(
    link: Link, config: EvaluationConfig, case_seed: int, obs_enabled: bool = False
) -> _UnitResult:
    """Run one work unit under its own :mod:`repro.obs` recorder.

    Calls :func:`_run_point_case` through the module global so the resume
    tests' monkeypatch seam keeps working in both execution paths.  When
    observability is on, the unit's per-case timing lands in a
    ``sweep.case`` span and the snapshot rides home with the windows for
    in-order merge (process-pool workers don't share the parent's recorder).
    """
    with obs.shard_recording(obs_enabled) as recorder:
        with obs.span("sweep.case"):
            windows = _run_point_case(link, config, case_seed)
        snapshot = recorder.snapshot() if recorder is not None else None
    return windows, snapshot


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
        Size of the process pool the ``(point, case)`` work units are
        sharded over.  The result (and the store's bytes) is identical for
        any value; 1 runs in-process without a pool.
    progress:
        Optional callback invoked as ``progress(record)`` after each point
        completes.
    """

    spec: SweepSpec
    store: SweepStore
    max_workers: int = 1
    progress: Callable[[SweepRecord], None] | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {self.max_workers}")

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #
    def validate(self, *, resume: bool = False) -> tuple[
        list[SweepPoint], list[SweepRecord], list[tuple[Scenario, Link]]
    ]:
        """Configuration-level checks, separated from execution.

        Expands the spec, looks up every point's schemes in the detector
        registry, resolves the case subset and reconciles the store
        (recovering a torn trailing line when *resume* is set).  Every error
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
        tasks: list[tuple[SweepPoint, Link, int]] = [
            (point, link, derive_case_seed(point.config, case_index))
            for point in pending
            for case_index, (_, link) in enumerate(cases)
        ]

        executed: list[str] = []
        new_records: list[SweepRecord] = []
        obs_enabled = obs.enabled()

        def complete_point(point: SweepPoint, per_case: Sequence[_UnitResult]) -> None:
            windows: list[ScoredWindow] = []
            point_s = 0.0
            # Merge case snapshots in case order, so the combined metrics are
            # structurally identical for any worker count.
            for case_windows, snapshot in per_case:
                windows.extend(case_windows)
                obs.merge(snapshot)
                if snapshot is not None:
                    case_histogram = snapshot.metrics.histograms.get("sweep.case")
                    if case_histogram is not None:
                        point_s += case_histogram.sum
            if obs_enabled:
                obs.observe("sweep.point_s", point_s)
                obs.count("sweep.points", 1)
            result = EvaluationResult(windows=windows, config=point.config)
            record = SweepRecord.from_point(point, result)
            self.store.append(record)
            new_records.append(record)
            executed.append(point.point_id)
            if self.progress is not None:
                self.progress(record)

        workers = min(self.max_workers, len(tasks)) if tasks else 1
        if workers <= 1:
            for i, point in enumerate(pending):
                complete_point(
                    point,
                    [
                        _timed_point_case(link, p.config, seed, obs_enabled)
                        for p, link, seed in tasks[i * len(cases) : (i + 1) * len(cases)]
                    ],
                )
        else:
            from concurrent.futures import (
                CancelledError,
                ProcessPoolExecutor,
                as_completed,
            )

            with ProcessPoolExecutor(max_workers=workers) as executor:
                futures = [
                    executor.submit(
                        _timed_point_case, link, point.config, seed, obs_enabled
                    )
                    for point, link, seed in tasks
                ]
                # Collect as-completed, flush in submission order: results of
                # units that finish out of order are buffered, and a point's
                # record is appended the moment every earlier point has been
                # appended and its own cases are done.  The store's records —
                # and their exact bytes — therefore stay identical to the
                # sequential sweep for any worker count, while a long-tailed
                # unit early in the grid no longer postpones noticing a
                # failure of later units (nor holds every later result alive
                # until its own point flushes — buffers are popped as points
                # complete).
                index_of = {future: i for i, future in enumerate(futures)}
                buffered: dict[int, _UnitResult] = {}
                next_unit = 0

                def flush_ready() -> None:
                    nonlocal next_unit
                    while next_unit < len(tasks):
                        lo, hi = next_unit, next_unit + len(cases)
                        if not all(i in buffered for i in range(lo, hi)):
                            break
                        point = pending[next_unit // len(cases)]
                        per_case = [buffered.pop(i) for i in range(lo, hi)]
                        # Mark the point consumed *before* completing it: if
                        # the store append or a progress callback raises
                        # after the record hit disk, the failure drain below
                        # must not replay the point (a duplicate record
                        # would break the store's byte-parity contract).
                        next_unit = hi
                        complete_point(point, per_case)

                try:
                    for future in as_completed(futures):
                        buffered[index_of[future]] = future.result()
                        flush_ready()
                except BaseException:
                    # Surface the failed unit promptly: cancel everything not
                    # yet started, but drain units already running so every
                    # point that fully finished ahead of the failure is still
                    # persisted (the pool starts units in submission order,
                    # so those form a prefix; the in-order flush guarantees
                    # nothing *after* the failure is ever appended).
                    executor.shutdown(wait=False, cancel_futures=True)
                    for index, future in enumerate(futures):
                        if index in buffered:
                            continue
                        try:
                            buffered[index] = future.result()
                        except (CancelledError, Exception):
                            continue
                    try:
                        flush_ready()
                    except BaseException:
                        # A secondary flush failure (e.g. the same progress
                        # callback raising again) must not mask the original.
                        pass
                    raise

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
