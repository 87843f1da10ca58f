"""Fault-tolerant task execution shared by the parallel subsystems.

The paper's §1.2 promise — "produce several designs for the same
specification in a reasonable amount of time" — only holds if one bad
design point (or fuzz case) cannot sink a whole parallel batch.  This
package provides the runtime both :mod:`repro.explore.parallel` and
:mod:`repro.verify.corpus` delegate to:

* :func:`run_tasks` — per-task submission with wall-clock timeouts,
  bounded retries with backoff, pool respawn on breakage, partial-
  result preservation and a parent-side serial fallback for
  quarantined tasks;
* :class:`TaskFailure` / :class:`TaskOutcome` / :class:`BatchResult`
  — structured records of what happened to each task;
* :mod:`repro.exec.faults` — deterministic fault injection
  (``REPRO_FAULT``) so every failure path above is testable.

See ``docs/resilience.md`` for the failure model and policy table.
"""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports
from .faults import (
    CRASH_EXIT_STATUS,
    FAULT_ENV,
    FAULT_KINDS,
    FAULT_SCOPES,
    HANG_ENV,
    FaultEntry,
    InjectedFault,
    in_worker_process,
    maybe_inject,
    parse_fault_spec,
)

# The store's fault hook needs only ``faults``; the process-pool
# runtime loads with the first batch.
if TYPE_CHECKING:  # pragma: no cover
    from .runtime import (
        TIMEOUT_ENV,
        BatchResult,
        TaskFailure,
        TaskOutcome,
        default_timeout_s,
        run_tasks,
    )

__getattr__ = lazy_exports(__name__, {
    "runtime": ("TIMEOUT_ENV", "BatchResult", "TaskFailure", "TaskOutcome",
                "default_timeout_s", "run_tasks"),
})

__all__ = [
    "CRASH_EXIT_STATUS",
    "FAULT_ENV",
    "FAULT_KINDS",
    "FAULT_SCOPES",
    "HANG_ENV",
    "TIMEOUT_ENV",
    "BatchResult",
    "FaultEntry",
    "InjectedFault",
    "TaskFailure",
    "TaskOutcome",
    "default_timeout_s",
    "in_worker_process",
    "maybe_inject",
    "parse_fault_spec",
    "run_tasks",
]
