"""One ordered fan-out for independent work units.

The campaign's link cases (:func:`~repro.experiments.runner.run_evaluation`),
the sweep's ``(point, case)`` units (:class:`~repro.sweep.runner.SweepRunner`)
and the fleet's link shards (:func:`~repro.fleet.engine.run_fleet`) are
independent units whose results are merged in a fixed order.
:func:`ordered_map` runs all three, in this process or over a process pool,
and yields results in task order either way, so a merge that consumes them
in order gives the same bytes for any worker count.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, Sequence, TypeVar

from repro import obs

R = TypeVar("R")


def _recorded_unit(
    fn: Callable[..., R], task: tuple[Any, ...], obs_enabled: bool
) -> tuple[R, obs.ObsSnapshot | None]:
    """Run one unit in a pool worker, under its own recorder when *obs_enabled*.

    Workers do not share the parent's recorder, so the unit's snapshot
    travels home with its result.
    """
    with obs.shard_recording(obs_enabled) as recorder:
        result = fn(*task)
        return result, (recorder.snapshot() if recorder is not None else None)


def ordered_map(
    fn: Callable[..., R], tasks: Sequence[tuple[Any, ...]], max_workers: int
) -> Generator[R, None, None]:
    """Yield ``fn(*task)`` for every task, in task order.

    With one effective worker (``min(max_workers, len(tasks)) <= 1``) each
    unit runs in this process when iteration reaches it and records into the
    caller's :mod:`repro.obs` recorder, so its spans nest under the caller's
    open span.  Otherwise the units run on a
    :class:`~concurrent.futures.ProcessPoolExecutor` of that many workers
    (the platform's default start method, so workers inherit run-time
    detector registrations and the recorder's clock); each unit records
    under :func:`repro.obs.shard_recording`, and its snapshot is merged into
    the caller's recorder just before its result is yielded, so snapshots
    merge in task order.

    A unit's exception is raised when iteration reaches it, after every
    earlier result.  On an error or an early :meth:`close`, the pool cancels
    the units not yet started and waits for the running ones before control
    returns, so no worker outlives the call.  A consumer that may stop or
    raise between results should close the iterator itself
    (``with contextlib.closing(ordered_map(...)) as results:``).

    *fn* and every task must pickle (a module-level function and plain
    data) whenever the pool is used.
    """
    workers = min(max_workers, len(tasks))
    if workers <= 1:
        for task in tasks:
            yield fn(*task)
        return

    from concurrent.futures import ProcessPoolExecutor

    obs_enabled = obs.enabled()
    executor = ProcessPoolExecutor(max_workers=workers)
    try:
        futures = [
            executor.submit(_recorded_unit, fn, task, obs_enabled) for task in tasks
        ]
        for future in futures:
            result, snapshot = future.result()
            obs.merge(snapshot)
            yield result
    finally:
        executor.shutdown(wait=True, cancel_futures=True)
