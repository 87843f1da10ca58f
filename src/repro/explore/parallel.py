"""Parallel fan-out of design-point synthesis.

§1.2's promise — "produce several designs for the same specification
in a reasonable amount of time" — is embarrassingly parallel across
resource limits: each design point is an independent synthesis run.
:class:`ParallelExplorer` distributes points over a process pool via
the fault-tolerant :mod:`repro.exec` runtime; each worker compiles a
behavioral source at most once (a per-process template memo keyed by
source digest plus every graph-shaping option knob) and synthesizes
every point against that shared CDFG, mirroring the serial
compile-once path, so the resulting points are identical to a serial
sweep.

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
from dataclasses import replace
from typing import Sequence

from ..core.engine import synthesize_cdfg
from ..estimation import estimate_area, estimate_timing
from ..exec import TaskFailure, default_timeout_s, run_tasks
from ..ir.cdfg import CDFG
from ..lang import compile_source
from ..obs import (
    metrics,
    reset_metrics,
    trace_span,
    tracer,
    tracing,
    tracing_enabled,
)
from ..scheduling import ResourceConstraints
from ..store import DesignStore, active_store, store_key
from ..transforms import optimize
from .dse import DesignPoint, _PointBuilder, measure_cycles

#: Per-worker-process compiled templates, keyed by source digest plus
#: every option knob that shapes the optimized graph — directive DSE
#: runs points with *different* transform directives over one source,
#: and each variant needs its own template.
_WORKER_TEMPLATES: dict[tuple, CDFG] = {}


def _template_key(digest: str, options) -> tuple:
    return (
        digest,
        options.optimize_ir,
        options.unroll,
        options.tree_height,
        options.if_conversion,
        options.narrow,
        options.assume_ranges,
    )


def _build_point_task(payload: dict) -> tuple[DesignPoint, list, dict]:
    """Worker-side build of one design point (module-level: must be
    importable by pickle in the worker process).

    Returns ``(point, spans, metrics_snapshot)``: worker processes are
    reused across points, so each task resets its process-local
    tracer/registry first and ships exactly its own telemetry home —
    the parent merges spans under its open ``dse.sweep`` span and
    folds the counters into its registry, keeping parallel counter
    totals equal to a serial sweep's.  A task that dies or times out
    ships nothing, so partial attempts never pollute the merged
    totals.
    """
    reset_metrics()
    tracer().clear()
    with tracing(payload.get("trace", False) or tracing_enabled()):
        with trace_span("dse.point",
                        resource=payload["resource_class"],
                        limit=payload["limit"]):
            metrics().counter("dse.points.evaluated").inc()
            point = _build_point(payload)
    return point, tracer().records(), metrics().snapshot()


def _worker_store(store_dir: str | None) -> DesignStore | None:
    """The store this worker should consult.

    The parent resolves its active store once and ships the directory
    in every payload — so programmatic configuration crosses the
    process boundary, and a parent that disabled caching disables it
    for its workers too (no env fallback here)."""
    if store_dir:
        return DesignStore(store_dir)
    return None


def _build_point(payload: dict) -> DesignPoint:
    source = payload["source"]
    options = payload["options"].with_constraints(
        {payload["resource_class"]: payload["limit"]}
    )
    design = None
    store = None
    key = None
    if source is not None:
        store = _worker_store(payload.get("store_dir"))
        if store is not None:
            # Same key the parent's serial path derives: constraints
            # applied, the optimize_ir knob still as requested.
            key = store_key(payload["digest"], None, options)
        if key is not None:
            design = store.get(key)
    if design is None:
        if source is not None:
            template_key = _template_key(payload["digest"], options)
            template = _WORKER_TEMPLATES.get(template_key)
            if template is None:
                template = compile_source(source)
                if options.optimize_ir:
                    optimize(template, unroll=options.unroll,
                             tree_height=options.tree_height,
                             if_conversion=options.if_conversion)
                if options.narrow:
                    from ..transforms.narrow import RangeNarrowing

                    assume = {
                        name: (lo, hi)
                        for name, lo, hi in options.assume_ranges
                    }
                    RangeNarrowing(assume=assume).run(template)
                _WORKER_TEMPLATES[template_key] = template
            # The memoized template is already optimized and narrowed.
            # Synthesize it directly, exactly like the serial
            # compile-once path: the pipeline only reads the CDFG after
            # IR optimization, and a clone would renumber op ids —
            # scheduler tie-breaking follows id order, so a cloned
            # graph can legally schedule differently and break the
            # points-identical-to-serial contract (tree-height graphs
            # trip this in practice).
            cdfg = template
            run_options = replace(options, optimize_ir=False,
                                  narrow=False)
        else:
            cdfg = payload["factory"]()
            run_options = options
        design = synthesize_cdfg(cdfg, run_options)
        if key is not None:
            store.put(key, design, fault_spec=options.fault_spec)
    metrics().counter("dse.measurements.run").inc()
    cycles = measure_cycles(design, payload["vectors"])
    timing = estimate_timing(design, cycles)
    return DesignPoint(
        constraints=options.constraints,
        design=design,
        area=estimate_area(design).total,
        cycles=cycles,
        clock_ns=timing.clock_ns,
    )


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
        max_retries: pool resubmissions per point for retryable
            faults (worker crash, pool breakage, unpicklable result).
        backoff_s: base of the exponential retry backoff.
    """

    def __init__(self, max_workers: int | None = None, *,
                 timeout_s: float | None = None,
                 max_retries: int = 2,
                 backoff_s: float = 0.05) -> None:
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
        self.max_retries = max_retries
        self.backoff_s = backoff_s

    def build_points(
        self, builder: _PointBuilder, limits: Sequence[int],
    ) -> tuple[list[DesignPoint], list[TaskFailure]]:
        """Measured :class:`DesignPoint`\\ s per limit, in input order.

        Returns ``(points, failures)``.  Completed points are
        identical to ``[builder.build(l) for l in limits]``; a limit
        appears in ``failures`` (and not in ``points``) only when its
        pool attempts were exhausted *and* the parent-side serial
        rebuild failed — or when the task raised a genuine synthesis
        error, which is reported once with its original traceback
        rather than run a second time.
        """
        limits = list(limits)
        if not limits or self.max_workers <= 1 or len(limits) == 1:
            return [builder.build(limit) for limit in limits], []
        # A malformed budget is the caller's error, not a failed point:
        # raise it here, as the serial path does, before any worker runs.
        for limit in limits:
            ResourceConstraints({builder.resource_class: limit})

        source_or_factory = builder.source_or_factory
        is_source = isinstance(source_or_factory, str)
        # Materialize the sweep vectors in the parent (assume contract
        # applied) so every worker measures the same inputs the serial
        # path would.
        builder.ensure_vectors()
        store = active_store() if builder.use_cache else None
        payloads = [
            {
                "source": source_or_factory if is_source else None,
                "factory": None if is_source else source_or_factory,
                "digest": builder._digest,
                "options": builder.base,
                "resource_class": builder.resource_class,
                "limit": limit,
                "vectors": builder.vectors,
                "trace": tracing_enabled() or builder.base.trace,
                "store_dir": (
                    str(store.root) if store is not None else None
                ),
            }
            for limit in limits
        ]
        try:
            pickle.dumps(payloads[0])
        except Exception:
            # Unpicklable work item (e.g. a closure factory): the pool
            # can never run it — degrade to the serial path up front.
            metrics().counter("exec.tasks.degraded").inc(len(limits))
            return [builder.build(limit) for limit in limits], []

        batch = run_tasks(
            _build_point_task,
            payloads,
            labels=[str(limit) for limit in limits],
            max_workers=min(self.max_workers, len(limits)),
            timeout_s=self.timeout_s,
            max_retries=self.max_retries,
            backoff_s=self.backoff_s,
            # Quarantined points (crash/timeout/unpicklable) are
            # rebuilt serially in the parent — only them, never the
            # points that already completed.
            fallback=lambda payload, index: builder.build(
                limits[index]
            ),
            fault_spec=builder.base.fault_spec,
        )

        points: list[DesignPoint] = []
        failures: list[TaskFailure] = []
        for outcome in batch.outcomes:
            if outcome.failure is not None:
                failures.append(outcome.failure)
                continue
            if outcome.degraded:
                # Built by builder.build in this process: telemetry
                # already landed in the parent registry/tracer.
                points.append(outcome.value)
                continue
            point, spans, snapshot = outcome.value
            # Worker telemetry lands in the parent in input order, so
            # the merged registry and trace are deterministic.
            metrics().merge(snapshot)
            if spans and tracing_enabled():
                tracer().merge(spans, parent=tracer().current_index())
            points.append(point)
        return points, failures
