"""Tests for repro.utils.parallel.ordered_map: result order, obs snapshot
merging, failure propagation and worker lifetime, in this process and over
the process pool.

Unit functions are module-level so the pool can pickle them."""

from __future__ import annotations

import multiprocessing
import time

import pytest

from repro import obs
from repro.obs import ManualClock, Recorder
from repro.utils.parallel import ordered_map


def _square(value: int, delay_s: float = 0.0) -> int:
    time.sleep(delay_s)
    return value * value


def _traced(value: int, delay_s: float = 0.0) -> int:
    time.sleep(delay_s)
    with obs.span("unit", task=value):
        obs.observe("unit.value", float(value))
        obs.count("unit.calls", 1)
    return value


def _recording(_: int) -> bool:
    return obs.enabled()


def _fails_at_two(value: int) -> int:
    if value == 2:
        raise RuntimeError(f"unit {value} failed")
    return value


@pytest.mark.parametrize("max_workers", [1, 2])
def test_results_come_in_task_order(max_workers):
    # The slow first unit finishes last in the pool; it is still yielded first.
    tasks = [(3, 0.3), (1, 0.0), (2, 0.0), (4, 0.0)]
    assert list(ordered_map(_square, tasks, max_workers)) == [9, 1, 4, 16]


def test_no_tasks_yield_nothing():
    assert list(ordered_map(_square, [], 4)) == []


def test_pool_snapshots_merge_in_task_order():
    """The pool's merged metrics equal the in-process run's, and its spans
    arrive in task order although the first unit finishes last."""
    tasks = [(1, 0.3), (2, 0.0), (3, 0.0)]
    snapshots = []
    for max_workers in (1, 2):
        with obs.recording(Recorder(clock=ManualClock())) as recorder:
            assert list(ordered_map(_traced, tasks, max_workers)) == [1, 2, 3]
        snapshots.append(recorder.snapshot())
    in_process, pooled = snapshots
    for snapshot in snapshots:
        assert [dict(s.attrs)["task"] for s in snapshot.spans] == [1, 2, 3]
        assert snapshot.metrics.counters["unit.calls"] == 3
    for name in ("unit", "unit.value"):
        assert (
            pooled.metrics.histograms[name].count
            == in_process.metrics.histograms[name].count
            == 3
        )
    assert pooled.metrics.histograms["unit.value"].sum == 6.0


def test_in_process_units_record_into_the_callers_span():
    with obs.recording(Recorder(clock=ManualClock())) as recorder:
        with obs.span("caller"):
            list(ordered_map(_traced, [(1,), (2,)], 1))
    paths = [span.path for span in recorder.snapshot().spans]
    assert paths == ["caller/unit", "caller/unit", "caller"]


def test_no_snapshot_crosses_the_pool_with_obs_off(monkeypatch):
    merged = []
    monkeypatch.setattr(obs, "merge", merged.append)
    assert list(ordered_map(_recording, [(0,), (1,), (2,)], 2)) == [False] * 3
    assert merged == [None, None, None]


@pytest.mark.parametrize("max_workers", [1, 2])
def test_a_failing_unit_raises_after_every_earlier_result(max_workers):
    results = ordered_map(_fails_at_two, [(0,), (1,), (2,), (3,)], max_workers)
    assert next(results) == 0
    assert next(results) == 1
    with pytest.raises(RuntimeError, match="unit 2 failed"):
        next(results)
    # Nothing after the failing unit is ever yielded.
    with pytest.raises(StopIteration):
        next(results)


def test_no_worker_outlives_a_failing_unit():
    with pytest.raises(RuntimeError, match="unit 2 failed") as excinfo:
        list(ordered_map(_fails_at_two, [(value,) for value in range(6)], 2))
    # excinfo keeps the traceback alive, so the workers must be gone before
    # the error propagated, not reaped when the generator is freed.
    assert multiprocessing.active_children() == []
    assert excinfo.value is not None


def test_no_worker_outlives_an_early_close():
    results = ordered_map(_square, [(value, 0.2) for value in range(6)], 2)
    assert next(results) == 0
    results.close()
    assert multiprocessing.active_children() == []
