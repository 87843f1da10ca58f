"""Span-based tracing for the synthesis pipeline.

A *span* is one timed region of the flow — a pipeline stage, a
transform pass, a verify contract, a DSE point — recorded with a
monotonic-clock start/duration, nesting depth and a parent link, so a
finished trace is a forest mirroring the call structure.

Tracing is **off by default** and must cost (almost) nothing while
off: :func:`trace_span` then returns a shared no-op context manager
after a single module-global flag test.  It is enabled either
programmatically (the :func:`tracing` scope)
or by setting ``REPRO_TRACE=1`` in the environment; the engine turns
it on for a run when ``SynthesisOptions(trace=True)`` is set.

Spans are recorded in *start* order (document order), which makes the
flat record list deterministic for a deterministic program.  Worker
processes ship their finished records back to the parent, which
grafts them under a local span with :meth:`Tracer.merge` — timestamps
stay in each worker's own clock domain (they carry the worker's pid,
so exporters keep the domains apart).
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterator


def _env_enabled() -> bool:
    return os.environ.get("REPRO_TRACE", "").lower() not in (
        "", "0", "false", "no",
    )


_ENABLED = _env_enabled()


@dataclass
class SpanRecord:
    """One finished (or still-open) span.

    Timestamps are microseconds of :func:`time.perf_counter_ns`
    relative to the owning tracer's epoch; they are comparable within
    one process only (records keep their ``pid`` for that reason).
    """

    name: str
    index: int
    parent: int | None
    depth: int
    start_us: float
    duration_us: float = 0.0
    pid: int = 0
    attrs: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "index": self.index,
            "parent": self.parent,
            "depth": self.depth,
            "start_us": self.start_us,
            "duration_us": self.duration_us,
            "pid": self.pid,
            "attrs": dict(self.attrs),
        }


class _NullSpan:
    """The shared do-nothing span handed out while tracing is off."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def set(self, **attrs) -> None:
        pass


NULL_SPAN = _NullSpan()


class _Span:
    """A live span: a context manager that closes its record."""

    __slots__ = ("_tracer", "record", "_start_ns")

    def __init__(self, tracer: "Tracer", record: SpanRecord,
                 start_ns: int) -> None:
        self._tracer = tracer
        self.record = record
        self._start_ns = start_ns

    def set(self, **attrs) -> None:
        """Attach attributes to the span while it is open."""
        self.record.attrs.update(attrs)

    def __enter__(self) -> "_Span":
        return self

    def __exit__(self, *exc) -> bool:
        self._tracer._close(self, time.perf_counter_ns())
        return False


class Tracer:
    """Collects spans for one process.

    The tracer keeps records in start order; open spans form a stack
    so nesting depth and parent links come for free.  One process-
    global instance (:func:`tracer`) serves the whole library.
    """

    def __init__(self) -> None:
        self._records: list[SpanRecord] = []
        self._stack: list[_Span] = []
        self._epoch_ns = time.perf_counter_ns()

    # -- recording ------------------------------------------------------

    def start(self, name: str, attrs: dict | None = None) -> _Span:
        now_ns = time.perf_counter_ns()
        parent = self._stack[-1].record.index if self._stack else None
        record = SpanRecord(
            name=name,
            index=len(self._records),
            parent=parent,
            depth=len(self._stack),
            start_us=(now_ns - self._epoch_ns) / 1000.0,
            pid=os.getpid(),
            attrs=dict(attrs) if attrs else {},
        )
        self._records.append(record)
        span = _Span(self, record, now_ns)
        self._stack.append(span)
        return span

    def _close(self, span: _Span, end_ns: int) -> None:
        span.record.duration_us = (end_ns - span._start_ns) / 1000.0
        # Close any forgotten inner spans too (exception unwinds).
        while self._stack and self._stack[-1] is not span:
            inner = self._stack.pop()
            if inner.record.duration_us == 0.0:
                inner.record.duration_us = (
                    (end_ns - inner._start_ns) / 1000.0
                )
        if self._stack and self._stack[-1] is span:
            self._stack.pop()

    # -- reading --------------------------------------------------------

    def records(self, start: int = 0) -> list[SpanRecord]:
        """The recorded spans from index ``start`` on, in start order."""
        return self._records[start:]

    def current_index(self) -> int | None:
        """Index of the innermost open span (None outside any span)."""
        return self._stack[-1].record.index if self._stack else None

    def clear(self) -> None:
        self._records.clear()
        self._stack.clear()
        self._epoch_ns = time.perf_counter_ns()

    def truncate(self, length: int) -> None:
        """Drop every record from index ``length`` on (all closed)."""
        del self._records[length:]

    def __len__(self) -> int:
        return len(self._records)

    # -- cross-process merge --------------------------------------------

    def merge(self, records: list[SpanRecord],
              parent: int | None = None) -> None:
        """Graft another tracer's finished records into this one.

        Args:
            records: the child records, in their original start order
                (indices must be self-consistent: every ``parent``
                refers to an earlier record or is None).
            parent: index of a local span to hang the child's root
                spans under (e.g. the ``dse.point`` span the parent
                opened for that unit of work); None keeps them roots.

        Index remapping is purely positional, so merging the same
        records in the same order is deterministic.
        """
        if not records:
            return
        offset = len(self._records)
        base_depth = 0
        if parent is not None:
            base_depth = self._records[parent].depth + 1
        index_map: dict[int, int] = {}
        for i, record in enumerate(records):
            new_index = offset + i
            index_map[record.index] = new_index
            if record.parent is None:
                new_parent = parent
            else:
                new_parent = index_map.get(record.parent, parent)
            extra_depth = base_depth
            self._records.append(SpanRecord(
                name=record.name,
                index=new_index,
                parent=new_parent,
                depth=record.depth + extra_depth,
                start_us=record.start_us,
                duration_us=record.duration_us,
                pid=record.pid,
                attrs=dict(record.attrs),
            ))


#: The process-global tracer every instrumentation site records into.
_TRACER = Tracer()


def tracer() -> Tracer:
    """The process-global :class:`Tracer`."""
    return _TRACER


def trace_span(name: str, **attrs):
    """Open a span named ``name`` (a context manager).

    The single instrumentation entry point.  While tracing is
    disabled this is one global-flag test plus the return of a shared
    no-op object — cheap enough to leave in every hot path.
    """
    if not _ENABLED:
        return NULL_SPAN
    return _TRACER.start(name, attrs)


def tracing_enabled() -> bool:
    """Is span recording currently on?"""
    return _ENABLED


@contextmanager
def tracing(enabled: bool = True) -> Iterator[Tracer]:
    """Scope tracing on (or off) for a ``with`` block, then restore."""
    global _ENABLED
    previous = _ENABLED
    _ENABLED = enabled
    try:
        yield _TRACER
    finally:
        _ENABLED = previous


def maybe_tracing(enabled: bool):
    """``tracing(True)`` when asked and not already on; else a no-op.

    The engine's per-run hook: ``SynthesisOptions(trace=True)`` turns
    tracing on for exactly that run without disturbing an outer scope
    that already enabled it.
    """
    if enabled and not _ENABLED:
        return tracing(True)
    return _NULL_SCOPE


class _ReusableNullScope:
    """A reusable, reentrant no-op context manager."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc) -> bool:
        return False


_NULL_SCOPE = _ReusableNullScope()


def reset_tracing() -> None:
    """Drop all recorded spans and restore the env-derived flag."""
    global _ENABLED
    _TRACER.clear()
    _ENABLED = _env_enabled()
