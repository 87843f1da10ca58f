"""Unit tests for the fault-tolerant task runtime (repro.exec).

Every failure path is driven by the deterministic fault injector
(``docs/resilience.md``), so these tests exercise the exact code that
runs when a real worker crashes, hangs, or errors out — no
monkeypatching of ``concurrent.futures`` internals.
"""

import multiprocessing
import pickle

import pytest

from repro import obs
from repro.exec import (
    FaultEntry,
    InjectedFault,
    TaskFailure,
    default_timeout_s,
    parse_fault_spec,
    run_tasks,
)

pytestmark = pytest.mark.fault_smoke


def double(payload):
    return payload * 2


def counters():
    return obs.metrics().counters()


# ---------------------------------------------------------------- happy path


def test_healthy_batch_returns_values_in_order():
    batch = run_tasks(double, [1, 2, 3, 4], max_workers=2)
    assert batch.ok
    assert batch.values() == [2, 4, 6, 8]
    assert batch.failures == []
    assert [o.label for o in batch.outcomes] == ["0", "1", "2", "3"]
    got = counters()
    assert got["exec.tasks.completed"] == 4
    assert got["exec.tasks.submitted"] == 4
    assert got.get("exec.tasks.failed", 0) == 0


def test_batch_runs_under_an_exec_batch_span():
    with obs.tracing():
        run_tasks(double, [1, 2], max_workers=2)
    names = [r.name for r in obs.tracer().records()]
    assert "exec.batch" in names


# ------------------------------------------------------------- input checks


@pytest.mark.parametrize("bad", [0, -1])
def test_worker_count_must_be_positive(bad):
    with pytest.raises(ValueError, match="max_workers"):
        run_tasks(double, [1], max_workers=bad)


def test_labels_must_align_with_payloads():
    with pytest.raises(ValueError, match="labels"):
        run_tasks(double, [1, 2], labels=["only-one"], max_workers=2)


def test_negative_max_retries_rejected():
    with pytest.raises(ValueError, match="max_retries"):
        run_tasks(double, [1], max_workers=1, max_retries=-1)


# ------------------------------------------------------------ crash recovery


def test_crash_exhausts_retries_then_falls_back():
    """A deterministically crashing task is retried, quarantined, and
    redone by the parent-side fallback; the healthy tasks are kept.
    The crash breaks a pool with all four tasks in flight, yet only
    the crasher is charged: the bystanders succeed on resubmission."""
    calls = []

    def fallback(payload, index):
        calls.append(index)
        return double(payload)

    batch = run_tasks(
        double, [1, 2, 3, 4], max_workers=4, max_retries=1,
        fallback=fallback, fault_spec="crash:2",
    )
    assert batch.ok
    assert batch.values() == [2, 4, 6, 8]
    assert calls == [2]
    crashed = batch.outcomes[2]
    assert crashed.degraded
    assert crashed.attempts == 2  # initial + one retry
    for index in (0, 1, 3):
        assert not batch.outcomes[index].degraded
        assert batch.outcomes[index].attempts == 1
    got = counters()
    assert got["exec.tasks.crashed"] == 2
    assert got["exec.tasks.retried"] == 1
    assert got["exec.pool.respawns"] >= 1
    assert got["exec.tasks.degraded"] == 1


def test_crash_without_fallback_is_a_structured_failure():
    batch = run_tasks(
        double, [1, 2, 3], max_workers=1, max_retries=1,
        fault_spec="crash:1",
    )
    assert not batch.ok
    assert batch.values() == [2, 6]
    (failure,) = batch.failures
    assert failure.kind == "crash"
    assert failure.label == "1"
    assert failure.attempts == 2
    assert "task 1: crash after 2 attempts" in failure.render()
    assert counters()["exec.tasks.failed"] == 1


def test_pool_that_breaks_on_every_task_ends_unavailable():
    """When every task crashes its worker, the respawn backstop gives
    up on the pool: the tasks end as ``pool-unavailable`` and go to
    the parent, not to crash quarantine one by one."""
    def fallback(payload, index):
        raise RuntimeError("parent run refused")

    batch = run_tasks(double, [1, 2, 3, 4], max_workers=2,
                      fallback=fallback, fault_spec="crash")
    assert [f.kind for f in batch.failures] == ["pool-unavailable"] * 4
    assert all("parent run refused" in f.message
               for f in batch.failures)


# ----------------------------------------------------------------- timeouts


def test_hung_task_times_out_and_falls_back(monkeypatch):
    """A hang costs its timeout budget, not the injected hang length,
    and only the hung task is redone.  The hung worker is killed, not
    left sleeping for the interpreter's exit to wait on."""
    monkeypatch.setenv("REPRO_FAULT_HANG_S", "30")
    children = set(multiprocessing.active_children())
    batch = run_tasks(
        double, [1, 2, 3], max_workers=2, timeout_s=1.0, max_retries=0,
        fallback=lambda payload, index: double(payload),
        fault_spec="hang:1",
    )
    assert set(multiprocessing.active_children()) <= children
    assert batch.ok
    assert batch.values() == [2, 4, 6]
    assert batch.outcomes[1].degraded
    got = counters()
    assert got["exec.tasks.timeout"] == 1
    assert got["exec.tasks.degraded"] == 1
    # Timeouts are quarantined directly, never resubmitted to the pool.
    assert got.get("exec.tasks.retried", 0) == 0


# ------------------------------------------------------------ genuine errors


def test_genuine_error_surfaces_once_with_worker_traceback():
    """An exception from the task function is final: reported with the
    original worker traceback and never re-executed anywhere."""
    calls = []

    def fallback(payload, index):  # pragma: no cover - must not run
        calls.append(index)
        return double(payload)

    batch = run_tasks(
        double, [1, 2, 3], max_workers=2, fallback=fallback,
        fault_spec="error:0",
    )
    assert not batch.ok
    assert batch.values() == [4, 6]
    assert calls == []
    (failure,) = batch.failures
    assert failure.kind == "error"
    assert failure.attempts == 1
    assert "InjectedFault" in failure.message
    assert failure.traceback is not None
    assert "InjectedFault" in failure.traceback
    got = counters()
    assert got["exec.tasks.errors"] == 1
    assert got.get("exec.tasks.retried", 0) == 0


# ------------------------------------------------------- unpicklable results


def test_unpicklable_result_retries_then_falls_back():
    batch = run_tasks(
        double, [1, 2], max_workers=2, max_retries=1,
        fallback=lambda payload, index: double(payload),
        fault_spec="unpicklable:0",
    )
    assert batch.ok
    assert batch.values() == [2, 4]
    assert batch.outcomes[0].degraded
    got = counters()
    assert got["exec.tasks.unpicklable"] >= 2
    assert got["exec.tasks.degraded"] == 1


# ------------------------------------------------------- fallback misbehaves


def test_fallback_failure_is_reported_not_raised():
    def fallback(payload, index):
        raise RuntimeError("fallback exploded")

    batch = run_tasks(
        double, [1, 2], max_workers=1, max_retries=0,
        fallback=fallback, fault_spec="crash:0",
    )
    assert not batch.ok
    assert batch.values() == [4]
    (failure,) = batch.failures
    assert failure.kind == "crash"
    assert "serial fallback failed" in failure.message
    assert "fallback exploded" in failure.message


# --------------------------------------------------------- pool unavailable


def test_no_subprocess_support_degrades_to_parent(monkeypatch):
    """Environments that cannot spawn processes run every task in the
    parent — the legacy serial path — even without a fallback."""

    class NoPool:
        def __init__(self, *args, **kwargs):
            raise OSError("no subprocess support here")

    monkeypatch.setattr("repro.exec.runtime.ProcessPoolExecutor", NoPool)
    batch = run_tasks(double, [1, 2, 3], max_workers=2)
    assert batch.ok
    assert batch.values() == [2, 4, 6]
    assert all(o.degraded for o in batch.outcomes)
    got = counters()
    assert got["exec.tasks.degraded"] == 3
    assert got.get("exec.tasks.submitted", 0) == 0


def test_pool_unavailable_fault_injection_still_fires(monkeypatch):
    """The parent-side degrade path still honours parent/any-scoped
    error faults via the fallback the caller provided."""

    class NoPool:
        def __init__(self, *args, **kwargs):
            raise OSError("no subprocess support here")

    monkeypatch.setattr("repro.exec.runtime.ProcessPoolExecutor", NoPool)
    # worker-scoped faults must NOT fire in the parent degrade path
    batch = run_tasks(double, [1, 2], max_workers=2,
                      fault_spec="error:0:worker")
    assert batch.ok and batch.values() == [2, 4]


# ------------------------------------------------------------ fault parsing


def test_parse_fault_spec_grammar():
    assert parse_fault_spec(None) == ()
    assert parse_fault_spec("") == ()
    assert parse_fault_spec("crash") == (FaultEntry("crash", "*", "worker"),)
    assert parse_fault_spec("hang:3:any") == (FaultEntry("hang", "3", "any"),)
    assert parse_fault_spec("crash:2, error:*:parent") == (
        FaultEntry("crash", "2", "worker"),
        FaultEntry("error", "*", "parent"),
    )


@pytest.mark.parametrize("bad", ["explode", "crash:1:everywhere",
                                 "crash:1:worker:extra"])
def test_parse_fault_spec_rejects_malformed_entries(bad):
    with pytest.raises(ValueError):
        parse_fault_spec(bad)


def test_fault_entry_scope_matching():
    worker_only = FaultEntry("crash", "7", "worker")
    assert worker_only.matches("7", in_worker=True)
    assert not worker_only.matches("7", in_worker=False)
    assert not worker_only.matches("8", in_worker=True)
    anywhere = FaultEntry("error", "*", "any")
    assert anywhere.matches("anything", in_worker=False)


def test_injected_error_fires_in_parent_scope():
    from repro.exec import maybe_inject

    with pytest.raises(InjectedFault):
        maybe_inject("x", "error:x:parent")
    maybe_inject("x", "error:x:worker")  # wrong scope: no-op
    maybe_inject("y", "error:x:parent")  # wrong label: no-op


# ------------------------------------------------------------- env plumbing


def test_default_timeout_env(monkeypatch):
    monkeypatch.delenv("REPRO_TASK_TIMEOUT_S", raising=False)
    assert default_timeout_s() is None
    monkeypatch.setenv("REPRO_TASK_TIMEOUT_S", "2.5")
    assert default_timeout_s() == 2.5
    monkeypatch.setenv("REPRO_TASK_TIMEOUT_S", "0")
    assert default_timeout_s() is None
    monkeypatch.setenv("REPRO_TASK_TIMEOUT_S", "junk")
    assert default_timeout_s() is None


def test_task_failure_is_picklable_and_renders():
    failure = TaskFailure(label="5", index=4, kind="timeout",
                          message="exceeded 3s", attempts=1)
    assert pickle.loads(pickle.dumps(failure)) == failure
    assert failure.render() == "task 5: timeout after 1 attempt: exceeded 3s"
