"""Deterministic fault injection for exercising the task runtime.

Robustness code is only trustworthy if its failure paths run in CI,
so the runtime carries a built-in fault injector: a *fault spec*
names tasks that should crash, hang, error out, or return an
unpicklable result, and the worker shim consults it at task start.
The spec comes from the ``REPRO_FAULT`` environment variable (which
worker processes inherit) or is passed explicitly — e.g. via
``SynthesisOptions(fault_spec=...)`` for design-space sweeps.

Spec grammar (comma-separated entries)::

    kind[:task[:scope]]

* ``kind``  — ``crash`` (``os._exit``), ``hang`` (sleep
  ``REPRO_FAULT_HANG_S`` seconds, default 30), ``error`` (raise
  :class:`InjectedFault`), ``unpicklable`` (wrap the task's result so
  it cannot be pickled back to the parent).
* ``task``  — the task label to hit (``*`` or omitted: every task).
* ``scope`` — ``worker`` (default: only inside a pool worker
  process), ``parent`` (only in the parent), or ``any``.

The default ``worker`` scope is what makes partial-result recovery
testable: an injected crash sinks the pool attempt, while the
parent-side serial fallback for that task runs clean.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from functools import lru_cache

#: Environment variable holding the active fault spec.
FAULT_ENV = "REPRO_FAULT"
#: Environment variable overriding how long a ``hang`` fault sleeps.
HANG_ENV = "REPRO_FAULT_HANG_S"

FAULT_KINDS = ("crash", "hang", "error", "unpicklable")
FAULT_SCOPES = ("worker", "parent", "any")

#: Exit status used by injected crashes, so a crashed worker is
#: distinguishable from an ordinary signal death in process tables.
CRASH_EXIT_STATUS = 32


class InjectedFault(RuntimeError):
    """The exception raised by an ``error``-kind injected fault."""


@dataclass(frozen=True)
class FaultEntry:
    """One parsed fault-spec entry."""

    kind: str
    task: str = "*"
    scope: str = "worker"

    def matches(self, label: str, *, in_worker: bool) -> bool:
        if self.task not in ("*", label):
            return False
        if self.scope == "any":
            return True
        return in_worker if self.scope == "worker" else not in_worker


@lru_cache(maxsize=64)
def parse_fault_spec(spec: str | None) -> tuple[FaultEntry, ...]:
    """Parse ``kind[:task[:scope]],…`` into :class:`FaultEntry` rows."""
    if not spec:
        return ()
    entries = []
    for part in str(spec).split(","):
        part = part.strip()
        if not part:
            continue
        bits = [bit.strip() for bit in part.split(":")]
        kind = bits[0]
        if kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {kind!r} in spec {spec!r} "
                f"(expected one of {', '.join(FAULT_KINDS)})"
            )
        task = bits[1] if len(bits) > 1 and bits[1] else "*"
        scope = bits[2] if len(bits) > 2 and bits[2] else "worker"
        if scope not in FAULT_SCOPES:
            raise ValueError(
                f"unknown fault scope {scope!r} in spec {spec!r} "
                f"(expected one of {', '.join(FAULT_SCOPES)})"
            )
        if len(bits) > 3:
            raise ValueError(f"malformed fault entry {part!r} in {spec!r}")
        entries.append(FaultEntry(kind, task, scope))
    return tuple(entries)


def in_worker_process() -> bool:
    """True inside a multiprocessing child (pool worker)."""
    import multiprocessing  # only when a fault spec is in force

    return multiprocessing.parent_process() is not None


def active_entries(spec: str | None = None) -> tuple[FaultEntry, ...]:
    """The fault entries in force: the explicit spec, else the env."""
    if spec is None:
        spec = os.environ.get(FAULT_ENV, "")
    return parse_fault_spec(spec)


def hang_seconds() -> float:
    try:
        return float(os.environ.get(HANG_ENV, "30"))
    except ValueError:
        return 30.0


def maybe_inject(label: str, spec: str | None = None) -> None:
    """Fire any crash/hang/error fault registered for ``label``.

    Called by the runtime's worker shim at task start.  A no-op when
    no entry matches (the overwhelmingly common case: one env lookup
    on a cached parse).
    """
    entries = active_entries(spec)
    if not entries:
        return
    worker = in_worker_process()
    for entry in entries:
        if not entry.matches(label, in_worker=worker):
            continue
        if entry.kind == "crash":
            os._exit(CRASH_EXIT_STATUS)
        elif entry.kind == "hang":
            time.sleep(hang_seconds())
        elif entry.kind == "error":
            raise InjectedFault(f"injected error for task {label!r}")


def wants_unpicklable(label: str, spec: str | None = None) -> bool:
    """Should ``label``'s result be made unpicklable here?"""
    entries = active_entries(spec)
    if not entries:
        return False
    worker = in_worker_process()
    return any(
        entry.kind == "unpicklable"
        and entry.matches(label, in_worker=worker)
        for entry in entries
    )
