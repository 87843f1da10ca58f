"""Parallel fan-out of design-point synthesis.

§1.2's promise — "produce several designs for the same specification
in a reasonable amount of time" — is embarrassingly parallel across
design points: each ``(builder, limit)`` cell is an independent
synthesis run.  :class:`ParallelExplorer` distributes the cells of a
sweep over one process pool via the fault-tolerant :mod:`repro.exec`
runtime.  A worker task rebuilds the cell's
:class:`~repro.explore.dse._PointBuilder` from the parent builder's
arguments and calls its ``build`` — the code the serial path runs — so
a worker synthesizes, caches and measures a point by the same rules
as the parent.  The rebuilt builder gets the worker's template for its
source and template-shaping options (a per-process memo of the
template's :class:`~repro.core.engine.ScheduleMemo`, compiled and
transformed at most once per worker), and the worker shares the
parent's design store.  The parent puts each design a worker built
into its own memory tier, as the serial path would have.

The pool is an optimization, never a correctness hazard.  Failure
semantics (see ``docs/resilience.md``):

* points that completed are **always kept** — no failure elsewhere in
  the sweep ever discards or re-synthesizes them;
* a crashed or hung worker only costs its own point: the runtime
  respawns the pool, retries retryable faults with backoff, and
  rebuilds quarantined points **serially in the parent**;
* a genuine synthesis error surfaces exactly once, as a structured
  :class:`~repro.exec.TaskFailure` carrying the original worker
  traceback — it is never blindly re-executed;
* an unpicklable work item (e.g. a closure CDFG factory) or an
  environment without subprocess support degrades to the in-process
  serial path, exactly as before.
"""

from __future__ import annotations

import os
import pickle
from typing import Sequence

from ..core.engine import ScheduleMemo, source_digest
from ..exec import TaskFailure, default_timeout_s, run_tasks
from ..obs import (
    metrics,
    reset_metrics,
    tracer,
    tracing,
    tracing_enabled,
)
from ..scheduling import ResourceConstraints
from ..store import active_store, configure_store
from .dse import DesignPoint, _PointBuilder

#: Per-worker-process templates, keyed by source digest plus every
#: option knob that shapes the optimized graph — directive DSE runs
#: points with *different* transform directives over one source, and
#: each variant needs its own template — plus the resource model, to
#: which the template's schedule memo is bound.
_WORKER_TEMPLATES: dict[tuple, ScheduleMemo] = {}


def _template_key(digest: str, options) -> tuple:
    model = options.model
    return (
        digest,
        options.optimize_ir,
        options.unroll,
        options.tree_height,
        options.if_conversion,
        options.narrow,
        options.assume_ranges,
        # A model without a cache token is keyed by identity: each
        # task unpickles its own copy, so such templates are not shared.
        None if model is None else (model.cache_token() or model),
    )


def _build_point_task(payload: dict) -> tuple[DesignPoint, list, dict]:
    """Worker-side build of one cell (module-level: must be importable
    by pickle in the worker process).

    Points the worker at the parent's store directory (``None``
    disables it, with no fallback to the environment), rebuilds the
    parent's builder around this worker's template and runs its
    ``build``.  The builder is fresh per task, and so is its
    measurement memo: every point a worker builds is measured.

    Returns ``(point, spans, metrics_snapshot)``: worker processes are
    reused across points, so each task resets its process-local
    tracer/registry first and ships exactly its own telemetry home —
    the parent merges spans under its open sweep span and folds the
    counters into its registry.  A task that dies or times out ships
    nothing, so partial attempts never pollute the merged totals.
    """
    reset_metrics()
    tracer().clear()
    configure_store(payload["store_dir"])
    source, resource_class, options, vectors, use_cache = payload["builder"]
    key = (_template_key(source_digest(source), options)
           if isinstance(source, str) else None)
    builder = _PointBuilder(source, resource_class, options, vectors,
                            use_cache, template=_WORKER_TEMPLATES.get(key))
    with tracing(payload["trace"] or tracing_enabled()):
        point = builder.build(payload["limit"])
    if builder._template is not None:
        # Compiled on this worker's first miss of a string source,
        # unless a cache tier served the point.
        _WORKER_TEMPLATES[key] = builder._template
    return point, tracer().records(), metrics().snapshot()


class ParallelExplorer:
    """Fans design points out over a process pool.

    Args:
        max_workers: worker process count.  ``None`` means one per
            CPU; ``1`` always takes the in-process serial path (no
            pool is ever spawned).  Zero and negative counts are a
            :class:`ValueError` — they used to silently mean
            one-per-CPU, contradicting this docstring.
        timeout_s: per-point wall-clock budget once a point starts on
            a worker.  Defaults to env ``REPRO_TASK_TIMEOUT_S`` when
            set, else no timeout.
    """

    def __init__(self, max_workers: int | None = None, *,
                 timeout_s: float | None = None) -> None:
        if max_workers is None:
            max_workers = os.cpu_count() or 1
        elif max_workers < 1:
            raise ValueError(
                f"max_workers must be >= 1 (or None for one per "
                f"CPU), got {max_workers}"
            )
        self.max_workers = max_workers
        self.timeout_s = (
            timeout_s if timeout_s is not None else default_timeout_s()
        )

    def build_points(
        self, cells: Sequence[tuple[_PointBuilder, int]],
    ) -> tuple[list[DesignPoint | None], list[TaskFailure]]:
        """One measured :class:`DesignPoint` per ``(builder, limit)``
        cell, in input order, all in one batch.

        Returns ``(points, failures)``.  ``points[i]`` belongs to
        ``cells[i]`` and equals ``builder.build(limit)``; it is None
        only when that cell failed, and then its record is in
        ``failures`` — when its pool attempts were exhausted *and* the
        parent-side serial rebuild failed, or when the task raised a
        genuine synthesis error, which is reported once with its
        original traceback rather than run a second time.
        """
        cells = list(cells)
        if self.max_workers <= 1 or len(cells) <= 1:
            return [builder.build(limit) for builder, limit in cells], []
        # A malformed budget is the caller's error, not a failed point:
        # raise it here, as the serial path does, before any worker runs.
        for builder, limit in cells:
            ResourceConstraints({builder.resource_class: limit})

        payloads = []
        for builder, limit in cells:
            # Materialize the sweep vectors in the parent (assume
            # contract applied) so every worker measures the same
            # inputs the serial path would.
            builder.ensure_vectors()
            store = active_store() if builder.use_cache else None
            payloads.append({
                "builder": (builder.source_or_factory,
                            builder.resource_class, builder.base,
                            builder.vectors, builder.use_cache),
                "limit": limit,
                "trace": tracing_enabled() or builder.base.trace,
                "store_dir": None if store is None else str(store.root),
            })
        try:
            pickle.dumps(payloads)
        except Exception:
            # Unpicklable work item (e.g. a closure factory): the pool
            # can never run it — degrade to the serial path up front.
            metrics().counter("exec.tasks.degraded").inc(len(cells))
            return [builder.build(limit) for builder, limit in cells], []

        batch = run_tasks(
            _build_point_task,
            payloads,
            labels=[str(limit) for _, limit in cells],
            max_workers=min(self.max_workers, len(cells)),
            timeout_s=self.timeout_s,
            # Quarantined points (crash/timeout/unpicklable) are
            # rebuilt serially in the parent — only them, never the
            # points that already completed.
            fallback=lambda payload, index: cells[index][0].build(
                cells[index][1]
            ),
            fault_spec=cells[0][0].base.fault_spec,
        )

        points: list[DesignPoint | None] = []
        failures: list[TaskFailure] = []
        for (builder, limit), outcome in zip(cells, batch.outcomes):
            if outcome.failure is not None:
                failures.append(outcome.failure)
                points.append(None)
            elif outcome.degraded:
                # Built by builder.build in this process: telemetry
                # already landed in the parent registry/tracer.
                points.append(outcome.value)
            else:
                point, spans, snapshot = outcome.value
                # Worker telemetry lands in the parent in input order,
                # so the merged registry and trace are deterministic.
                metrics().merge(snapshot)
                if spans and tracing_enabled():
                    tracer().merge(spans, parent=tracer().current_index())
                builder.adopt(limit, point.design)
                points.append(point)
        return points, failures
