"""A fault-tolerant task runtime for process-pool fan-out.

Both design-space exploration (:mod:`repro.explore.parallel`) and
differential fuzzing (:mod:`repro.verify.corpus`) used to hand a whole
batch to ``pool.map`` — one bad task then poisoned the batch: a
crashed worker raised ``BrokenProcessPool`` and every completed
result was discarded (and, in exploration, the *entire* sweep was
silently re-run serially, doubling wall-clock and double-executing a
genuinely failing synthesis).

:func:`run_tasks` fixes those failure semantics.  Tasks are submitted
individually and harvested as they complete, so the runtime always
knows exactly which tasks finished.  The policy, per task:

* **completed** — the result is kept, no matter what happens to any
  other task afterwards.
* **worker crash / pool breakage / unpicklable result** — retryable:
  the task is resubmitted (bounded by ``max_retries``, exponential
  backoff) onto a freshly respawned pool; when retries are exhausted
  the task is *quarantined* and redone via the caller's serial
  ``fallback`` in the parent process.  A broken pool fails every
  future in flight, so a crash is charged only to a task that was in
  flight alone: when several were, all go back free of charge as
  *suspects*, and a suspect runs with nothing else in flight until
  it completes or breaks a pool on its own.
* **wall-clock timeout** — not retried in the pool (a hang is assumed
  deterministic); the hung pool is killed and respawned for the
  remaining tasks, the timed-out task is quarantined to the serial
  fallback.
* **genuine task error** — any other exception raised by the task
  function is *final*: it is never re-executed (neither in the pool
  nor serially) and surfaces exactly once as a structured
  :class:`TaskFailure` carrying the original worker traceback.

Tasks that still cannot produce a value (no fallback, or the fallback
itself raised) yield :class:`TaskFailure` records in the returned
:class:`BatchResult` — callers attach them to their own reports
instead of losing the whole batch.

Every outcome is counted in the metrics registry (``exec.tasks.*``,
``exec.pool.respawns``) and the batch and each serial fallback run
are spanned by the tracer.  Deterministic fault injection
(:mod:`repro.exec.faults`) makes all of these paths testable.
"""

from __future__ import annotations

import os
import pickle
import time
import traceback as traceback_module
from collections import deque
from concurrent.futures import (
    FIRST_COMPLETED,
    CancelledError,
    Future,
    ProcessPoolExecutor,
    TimeoutError as FutureTimeoutError,
    wait,
)
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from ..obs import metrics, trace_span
from .faults import maybe_inject, wants_unpicklable

#: Environment default for the per-task wall-clock timeout (seconds).
TIMEOUT_ENV = "REPRO_TASK_TIMEOUT_S"


def default_timeout_s() -> float | None:
    """The env-configured per-task timeout, or None (no timeout)."""
    raw = os.environ.get(TIMEOUT_ENV, "").strip()
    if not raw:
        return None
    try:
        value = float(raw)
    except ValueError:
        return None
    return value if value > 0 else None


@dataclass
class TaskFailure:
    """One task that permanently failed (structured, renderable).

    ``kind`` is one of ``error`` (the task function raised — carries
    the original traceback), ``crash`` (worker process died),
    ``timeout`` (exceeded the wall-clock budget), ``unpicklable``
    (result could not be shipped back to the parent) or
    ``pool-unavailable`` (this environment cannot spawn processes).
    """

    label: str
    index: int
    kind: str
    message: str
    attempts: int
    traceback: str | None = None

    def render(self) -> str:
        plural = "s" if self.attempts != 1 else ""
        return (
            f"task {self.label}: {self.kind} after "
            f"{self.attempts} attempt{plural}: {self.message}"
        )


@dataclass
class TaskOutcome:
    """The final state of one task: a value or a failure, never both."""

    index: int
    label: str
    value: Any = None
    failure: TaskFailure | None = None
    attempts: int = 1
    #: The value was produced by the parent-side serial fallback, not
    #: by a pool worker.
    degraded: bool = False

    @property
    def ok(self) -> bool:
        return self.failure is None


@dataclass
class BatchResult:
    """All task outcomes of one :func:`run_tasks` call, in input order."""

    outcomes: list[TaskOutcome] = field(default_factory=list)

    @property
    def failures(self) -> list[TaskFailure]:
        return [o.failure for o in self.outcomes if o.failure is not None]

    @property
    def ok(self) -> bool:
        return all(o.ok for o in self.outcomes)

    def values(self) -> list[Any]:
        """Values of the successful outcomes, in input order."""
        return [o.value for o in self.outcomes if o.ok]


class _UnpicklableResult:
    """Injected-fault wrapper whose pickling always fails."""

    def __init__(self, value: Any) -> None:
        self.value = value

    def __reduce__(self):
        raise pickle.PicklingError(
            "injected unpicklable task result"
        )


def _execute_task(item: tuple) -> Any:
    """Worker-side shim: fault hook, then the actual task function."""
    fn, payload, label, fault_spec = item
    maybe_inject(label, fault_spec)
    result = fn(payload)
    if wants_unpicklable(label, fault_spec):
        return _UnpicklableResult(result)
    return result


def _is_pickling_error(error: BaseException) -> bool:
    if isinstance(error, pickle.PickleError):
        return True
    return (
        isinstance(error, (TypeError, AttributeError))
        and "pickle" in str(error).lower()
    )


def _format_remote_traceback(error: BaseException) -> str:
    """The worker-side traceback if the pool shipped one, else ours."""
    cause = error.__cause__
    if cause is not None and type(cause).__name__ == "_RemoteTraceback":
        return f"{str(cause).strip()}\n{type(error).__name__}: {error}"
    return "".join(
        traceback_module.format_exception(type(error), error,
                                          error.__traceback__)
    )


def _kill_pool(pool: ProcessPoolExecutor) -> None:
    """Tear a (possibly hung or broken) pool down without blocking.

    ``shutdown(wait=True)`` would join a wedged worker forever, so the
    worker processes are terminated outright.  Touching
    ``_processes`` is unavoidable — the executor API offers no kill —
    but the attribute has been stable since 3.8 and everything here is
    best-effort behind guards.  It is read before ``shutdown``, which
    drops it, and so is the executor's manager thread: that thread
    joins the same workers, and a worker it reaps first stays listed
    by ``multiprocessing.active_children()`` until it is done, so the
    teardown waits for it too.
    """
    processes = list((getattr(pool, "_processes", None) or {}).values())
    manager = getattr(pool, "_executor_manager_thread", None)
    try:
        pool.shutdown(wait=False, cancel_futures=True)
    except Exception:
        pass
    for process in processes:
        try:
            process.terminate()
        except Exception:
            pass
    for process in processes:
        try:
            process.join(timeout=0.5)
        except Exception:
            pass
    if manager is not None:
        manager.join(timeout=0.5)


@dataclass
class _TaskState:
    index: int
    payload: Any
    label: str
    attempts: int = 0
    started: float = 0.0
    not_before: float = 0.0
    #: In flight with others when a pool broke: runs alone from then
    #: on, so a crash it causes is charged to it and to nothing else.
    suspect: bool = False


def run_tasks(
    fn: Callable[[Any], Any],
    payloads: Sequence[Any],
    *,
    labels: Sequence[Any] | None = None,
    max_workers: int | None = None,
    timeout_s: float | None = None,
    max_retries: int = 2,
    backoff_s: float = 0.05,
    fallback: Callable[[Any, int], Any] | None = None,
    fault_spec: str | None = None,
) -> BatchResult:
    """Run ``fn`` over ``payloads`` on a process pool, fault-tolerantly.

    Args:
        fn: module-level (picklable) task function of one payload.
        payloads: one picklable payload per task.
        labels: per-task display/injection labels (default: indices).
        max_workers: pool size (``None``: one per CPU).  Values below
            one are a :class:`ValueError` — the caller owns the
            decision to skip the pool entirely.
        timeout_s: per-task wall-clock budget, measured from pool
            submission (tasks are only submitted when a worker slot is
            free, so queue time does not count).  ``None``: no limit.
        max_retries: pool resubmissions allowed per task for retryable
            faults (crash / pool breakage / unpicklable result).
        backoff_s: base of the exponential retry backoff.
        fallback: ``fallback(payload, index)`` run in the *parent* for
            quarantined tasks (crash retries exhausted, timeout, pool
            unavailable).  ``None``: such tasks fail with a record.
            Never invoked for genuine task errors — those surface once.
        fault_spec: explicit fault-injection spec (default: the
            ``REPRO_FAULT`` environment variable).

    Returns:
        A :class:`BatchResult` with one :class:`TaskOutcome` per
        payload, in input order.
    """
    if max_workers is None:
        max_workers = os.cpu_count() or 1
    if max_workers < 1:
        raise ValueError(
            f"max_workers must be >= 1, got {max_workers}"
        )
    if max_retries < 0:
        raise ValueError(f"max_retries must be >= 0, got {max_retries}")

    payloads = list(payloads)
    count = len(payloads)
    if labels is None:
        labels = [str(i) for i in range(count)]
    else:
        labels = [str(label) for label in labels]
        if len(labels) != count:
            raise ValueError("labels and payloads must align")

    registry = metrics()
    outcomes: list[TaskOutcome | None] = [None] * count
    #: Quarantined tasks awaiting the parent-side serial pass.
    quarantined: list[tuple[_TaskState, TaskFailure]] = []

    with trace_span("exec.batch", tasks=count, workers=max_workers):
        _run_pool_phase(
            fn, payloads, labels, max_workers, timeout_s, max_retries,
            backoff_s, fault_spec, registry, outcomes, quarantined,
        )
        _run_serial_phase(
            fn, fallback, registry, outcomes, quarantined,
        )

    assert all(outcome is not None for outcome in outcomes)
    return BatchResult(outcomes=list(outcomes))  # type: ignore[arg-type]


def _run_pool_phase(
    fn, payloads, labels, max_workers, timeout_s, max_retries,
    backoff_s, fault_spec, registry, outcomes, quarantined,
) -> None:
    """Drive the pool until every task completed, failed finally, or
    was quarantined for the serial phase."""
    ready: deque[_TaskState] = deque(
        _TaskState(index=i, payload=payloads[i], label=labels[i])
        for i in range(len(payloads))
    )
    inflight: dict[Future, _TaskState] = {}
    pool: ProcessPoolExecutor | None = None
    pool_size = 0
    batch_started = time.monotonic()

    def update_pool_gauges() -> None:
        """Peak pool telemetry: workers, in-flight tasks, utilization.

        Gauges keep the batch maximum — the same rule the registry
        uses for cross-process merges — so a report reads "how full
        did the pool get", not whatever the last sample was.
        """
        in_flight_gauge = registry.gauge("exec.pool.in_flight")
        in_flight_gauge.set(max(in_flight_gauge.value, len(inflight)))
        if pool_size:
            utilization = registry.gauge("exec.pool.utilization")
            utilization.set(
                max(utilization.value, len(inflight) / pool_size)
            )

    def record_value(state: _TaskState, value: Any) -> None:
        outcomes[state.index] = TaskOutcome(
            index=state.index, label=state.label, value=value,
            attempts=state.attempts,
        )
        registry.counter("exec.tasks.completed").inc()

    def record_error(state: _TaskState, error: BaseException) -> None:
        registry.counter("exec.tasks.errors").inc()
        registry.counter("exec.tasks.failed").inc()
        outcomes[state.index] = TaskOutcome(
            index=state.index, label=state.label,
            attempts=state.attempts,
            failure=TaskFailure(
                label=state.label, index=state.index, kind="error",
                message=f"{type(error).__name__}: {error}",
                attempts=state.attempts,
                traceback=_format_remote_traceback(error),
            ),
        )

    def quarantine(state: _TaskState, kind: str, message: str) -> None:
        quarantined.append((state, TaskFailure(
            label=state.label, index=state.index, kind=kind,
            message=message, attempts=state.attempts,
        )))

    def retry_or_quarantine(state: _TaskState, kind: str,
                            message: str) -> None:
        if state.attempts > max_retries:
            quarantine(state, kind, message)
            return
        registry.counter("exec.tasks.retried").inc()
        state.not_before = (
            time.monotonic() + backoff_s * (2 ** (state.attempts - 1))
        )
        ready.append(state)

    def resolve(future: Future, state: _TaskState) -> bool:
        """Fold one finished future into the books.  Returns True when
        it failed because the pool broke; the caller decides whom to
        charge."""
        nonlocal stalled_respawns
        try:
            value = future.result(timeout=0)
        except CancelledError:
            state.attempts -= 1  # never ran; resubmission is free
            ready.append(state)
            return False
        except FutureTimeoutError:
            # Not actually done (drain path); treat like cancelled.
            state.attempts -= 1
            ready.append(state)
            return False
        except BrokenProcessPool:
            return True
        except Exception as error:
            if _is_pickling_error(error):
                registry.counter("exec.tasks.unpicklable").inc()
                retry_or_quarantine(
                    state, "unpicklable",
                    f"result could not be pickled: {error}",
                )
            else:
                record_error(state, error)
            return False
        record_value(state, value)
        stalled_respawns = 0
        return False

    #: Consecutive pool respawns without a single task completing —
    #: the backstop against an environment where every spawn breaks.
    stalled_respawns = 0

    def respawn() -> None:
        nonlocal pool, stalled_respawns
        if pool is not None:
            _kill_pool(pool)
            registry.counter("exec.pool.respawns").inc()
            stalled_respawns += 1
        pool = None

    def drain_and_respawn(broken: Sequence[_TaskState] = ()) -> None:
        """Harvest whatever already finished and drop the pool.

        ``broken`` are tasks whose futures already failed with the
        pool.  Every task still in flight was caught by the same
        breakage (or by the kill that follows a timeout).  A crash is
        charged only when one task was caught alone; otherwise all go
        back free of charge, as suspects when the pool broke.
        """
        caught = list(broken)
        pool_broke = bool(caught)
        for future in list(inflight):
            state = inflight.pop(future)
            if not future.done():
                caught.append(state)
            elif resolve(future, state):
                caught.append(state)
                pool_broke = True
        if pool_broke and len(caught) == 1:
            (state,) = caught
            registry.counter("exec.tasks.crashed").inc()
            retry_or_quarantine(state, "crash",
                                "worker process died unexpectedly")
        else:
            for state in sorted(caught, key=lambda s: s.index,
                                reverse=True):
                state.attempts -= 1
                state.suspect = state.suspect or pool_broke
                ready.appendleft(state)
        respawn()

    try:
        while ready or inflight:
            now = time.monotonic()

            # Spawn (or respawn) the pool lazily.
            if pool is None and ready:
                if stalled_respawns > max(3, max_retries + 1):
                    # Every fresh pool dies before completing anything;
                    # stop burning processes and go serial.
                    while ready:
                        state = ready.popleft()
                        quarantine(state, "pool-unavailable",
                                   "process pool keeps breaking")
                    break
                remaining = len(ready) + len(inflight)
                try:
                    pool_size = max(1, min(max_workers, remaining))
                    pool = ProcessPoolExecutor(max_workers=pool_size)
                    workers_gauge = registry.gauge("exec.pool.workers")
                    workers_gauge.set(
                        max(workers_gauge.value, pool_size)
                    )
                except (ImportError, NotImplementedError, OSError,
                        PermissionError):
                    # No subprocess support in this environment: every
                    # remaining task goes to the serial phase.
                    while ready:
                        state = ready.popleft()
                        quarantine(state, "pool-unavailable",
                                   "process pool unavailable")
                    break

            # Submit while worker slots are free (in-flight tasks are
            # therefore genuinely executing, which is what makes the
            # per-task deadline below meaningful).  A suspect only
            # runs with nothing else in flight.
            while (pool is not None and len(inflight) < pool_size
                   and not any(s.suspect for s in inflight.values())):
                eligible = next(
                    (i for i, s in enumerate(ready)
                     if s.not_before <= now
                     and not (s.suspect and inflight)),
                    None,
                )
                if eligible is None:
                    break
                state = ready[eligible]
                del ready[eligible]
                state.attempts += 1
                state.started = time.monotonic()
                try:
                    future = pool.submit(
                        _execute_task,
                        (fn, state.payload, state.label, fault_spec),
                    )
                except (BrokenProcessPool, RuntimeError):
                    state.attempts -= 1
                    ready.appendleft(state)
                    drain_and_respawn()
                    break
                registry.counter("exec.tasks.submitted").inc()
                inflight[future] = state
                if state.attempts == 1:
                    # Queue wait: how long the task sat ready before a
                    # worker slot freed up (first attempt only —
                    # retries wait on backoff, not on the queue).
                    wait_gauge = registry.gauge("exec.queue.wait_s")
                    wait_gauge.set(max(
                        wait_gauge.value,
                        state.started - batch_started,
                    ))
            update_pool_gauges()

            if not inflight:
                if not ready:
                    break
                # Everything is backing off; nap until the earliest.
                delay = min(s.not_before for s in ready) - time.monotonic()
                if delay > 0:
                    time.sleep(min(delay, 0.25))
                continue

            # Wait for the first completion, the nearest deadline, or
            # the earliest backoff expiry — whichever comes first.
            horizons = []
            if timeout_s is not None:
                horizons.append(
                    min(s.started for s in inflight.values())
                    + timeout_s - now
                )
            if ready:
                horizons.append(
                    min(s.not_before for s in ready) - now
                )
            wait_for = max(0.01, min(horizons)) if horizons else None
            done, _ = wait(set(inflight), timeout=wait_for,
                           return_when=FIRST_COMPLETED)

            broken = []
            for future in done:
                state = inflight.pop(future)
                if resolve(future, state):
                    broken.append(state)
            if broken:
                drain_and_respawn(broken)
                continue

            # Deadline enforcement: quarantine hung tasks, then kill
            # the pool (a wedged worker never frees its slot).
            if timeout_s is not None and inflight:
                now = time.monotonic()
                timed_out = [
                    (future, state)
                    for future, state in inflight.items()
                    if now - state.started > timeout_s
                    and not future.done()
                ]
                if timed_out:
                    for future, state in timed_out:
                        inflight.pop(future)
                        registry.counter("exec.tasks.timeout").inc()
                        quarantine(
                            state, "timeout",
                            f"exceeded {timeout_s:g}s wall-clock "
                            f"timeout",
                        )
                    drain_and_respawn()
    finally:
        if pool is not None:
            _kill_pool(pool)


def _run_serial_phase(fn, fallback, registry, outcomes,
                      quarantined) -> None:
    """Redo quarantined tasks in the parent, preserving input order."""
    for state, failure in sorted(quarantined,
                                 key=lambda pair: pair[0].index):
        runner = fallback
        if runner is None and failure.kind == "pool-unavailable":
            # The task never ran anywhere — degrading to an in-parent
            # run of the task function itself is the legacy serial
            # path, not a retry of a failed execution.
            runner = lambda payload, index: fn(payload)  # noqa: E731
        if runner is None:
            registry.counter("exec.tasks.failed").inc()
            outcomes[state.index] = TaskOutcome(
                index=state.index, label=state.label,
                failure=failure, attempts=state.attempts,
            )
            continue
        registry.counter("exec.tasks.degraded").inc()
        with trace_span("exec.serial_fallback", task=state.label,
                        cause=failure.kind):
            try:
                value = runner(state.payload, state.index)
            except Exception as error:
                registry.counter("exec.tasks.failed").inc()
                failure.message += (
                    f"; serial fallback failed: "
                    f"{type(error).__name__}: {error}"
                )
                failure.traceback = "".join(
                    traceback_module.format_exception(
                        type(error), error, error.__traceback__
                    )
                )
                outcomes[state.index] = TaskOutcome(
                    index=state.index, label=state.label,
                    failure=failure, attempts=state.attempts,
                )
            else:
                outcomes[state.index] = TaskOutcome(
                    index=state.index, label=state.label, value=value,
                    attempts=state.attempts, degraded=True,
                )
