"""Design-space exploration: the paper's resource-iteration loop.

§1.2 motivates synthesis with "the ability to search the design space
… produce several designs for the same specification in a reasonable
amount of time", and §3.1.1 describes the loop concretely (MIMOLA,
Chippe): "first choosing a resource limit, then scheduling, then
changing the limit based on the results of the scheduling, rescheduling
and so on until a satisfactory design has been found."

:func:`explore_fu_range` sweeps functional-unit limits, synthesizes a
design per point, measures area (estimator) and latency (cycle-accurate
simulation), and reports the Pareto-optimal set.

Exploration is built for "a reasonable amount of time":

* behavioral source is compiled and transformed **once** per sweep
  (the engine's :func:`~repro.core.engine.transform_cdfg`); every
  point then synthesizes against the shared CDFG (the pipeline only
  reads it after the transforms stage) with the template's
  :class:`~repro.core.engine.ScheduleMemo`, so per-block scheduling
  structure is built once across resource budgets and a schedule
  already made for a point's knobs is not made again — parallel
  workers compile one template per process
  (:mod:`repro.explore.parallel`);
* synthesized designs are memoized in the two-tier design cache
  (:func:`~repro.core.engine.lookup_design`: the process-global LRU,
  backed by the persistent :mod:`repro.store` when one is active),
  keyed by source digest and option knobs, so a constraint probed
  twice — across an :func:`explore_fu_range` sweep, a later
  :func:`search_for_latency`, or a whole new process — is never
  rebuilt;
* both entry points take ``n_jobs``: with more than one job, points
  fan out over a :class:`~repro.explore.parallel.ParallelExplorer`
  process pool, producing results identical to the serial path.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

from ..core.design import SynthesizedDesign
from ..core.engine import (
    ScheduleMemo,
    SynthesisOptions,
    lookup_design,
    record_design,
    source_digest,
    synthesize_cdfg,
    transform_cdfg,
)
from ..estimation import estimate_area, estimate_timing
from ..ir.cdfg import CDFG
from ..lang import compile_source
from ..obs import histogram_deltas, metrics, trace_span
from ..obs import ledger as run_ledger
from ..scheduling import ResourceConstraints
from ..sim.equivalence import default_vectors
from ..sim.rtl_sim import RTLSimulator


@dataclass
class DesignPoint:
    """One explored design with its measured quality."""

    constraints: ResourceConstraints
    design: SynthesizedDesign
    area: float
    cycles: int
    clock_ns: float

    @property
    def latency_ns(self) -> float:
        return self.clock_ns * self.cycles

    def row(self) -> str:
        return (
            f"{self.constraints!s:>16}  area={self.area:8.0f}  "
            f"cycles={self.cycles:5d}  clock={self.clock_ns:5.1f}ns  "
            f"latency={self.latency_ns:9.1f}ns"
        )


@dataclass
class ExplorationResult:
    """All explored points plus the Pareto front (area vs latency)."""

    points: list[DesignPoint] = field(default_factory=list)
    #: Sweep telemetry (wall time + metric counter deltas), populated
    #: when the sweep was run with ``report=True``.
    telemetry: dict | None = None
    #: Points that could not be built: structured
    #: :class:`~repro.exec.TaskFailure` records from the parallel
    #: runtime (empty for serial sweeps, which raise instead).  The
    #: completed ``points`` are unaffected by entries here.
    failures: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """Did every requested point produce a design?"""
        return not self.failures

    @property
    def pareto(self) -> list[DesignPoint]:
        """The non-dominated points, in (area, latency, index) order.

        Single sorted sweep: a point survives iff its latency is the
        minimum of its area group and strictly beats every smaller-area
        group's minimum (equal-cost duplicates don't dominate each
        other, matching the pairwise definition)."""
        points = self.points
        order = sorted(
            range(len(points)),
            key=lambda i: (points[i].area, points[i].latency_ns, i),
        )
        front: list[DesignPoint] = []
        best_latency = math.inf
        i = 0
        while i < len(order):
            j = i
            area = points[order[i]].area
            while j < len(order) and points[order[j]].area == area:
                j += 1
            group_min = points[order[i]].latency_ns
            if group_min < best_latency:
                for k in range(i, j):
                    if points[order[k]].latency_ns == group_min:
                        front.append(points[order[k]])
                best_latency = group_min
            i = j
        return front

    def table(self) -> str:
        lines = ["design-space exploration:"]
        pareto = set(map(id, self.pareto))
        for point in self.points:
            marker = "*" if id(point) in pareto else " "
            lines.append(f" {marker} {point.row()}")
        lines.append(" (* = Pareto-optimal)")
        for failure in self.failures:
            lines.append(f" ! {failure.render()}")
        if self.telemetry is not None:
            from ..obs import telemetry_summary

            lines.append(telemetry_summary(self.telemetry))
        return "\n".join(lines)


def measure_cycles(design: SynthesizedDesign,
                   vectors: Sequence[dict] | None = None) -> int:
    """Worst-case activation cycles over the given input vectors."""
    if vectors is None:
        vectors = default_vectors(design.cdfg, count=4)
    worst = 0
    for inputs in vectors:
        simulator = RTLSimulator(design)
        simulator.run(inputs)
        worst = max(worst, simulator.cycles)
    return worst


def _design_signature(design: SynthesizedDesign) -> tuple:
    """Schedules + allocations as a hashable tuple.

    Binding, datapath plans, the FSM, simulation and the estimators
    are all deterministic functions of (CDFG, schedules, allocations),
    so for designs over the *same* CDFG an equal signature implies
    equal measurements.  Lets a sweep measure each distinct design
    once — past the budget where a constraint stops binding, every
    larger budget yields the same design.
    """
    signatures = design.stage_signatures()
    return (signatures["scheduling"], signatures["allocation"])


class _PointBuilder:
    """Synthesizes and measures one design point per resource limit.

    For string sources the behavioral program is compiled **and
    transformed once** into a template; every point synthesizes
    against that shared CDFG (the pipeline after the transforms stage
    only reads it — changing the constraint cannot change the graph)
    with the template's :class:`~repro.core.engine.ScheduleMemo`, so
    per-block scheduling structure is built once and a schedule already
    made for a point's knobs is reused.  Builders that differ only in
    scheduler or allocator can share one template: pass another
    builder's :meth:`template` as ``template``.  Synthesized designs
    additionally go through the two-tier design cache, and measurements
    are memoized per distinct design.  Factory callables are invoked
    per point, exactly as before (the factory owns freshness).
    """

    def __init__(
        self,
        source_or_factory: str | Callable[[], CDFG],
        resource_class: str,
        options: SynthesisOptions | None,
        vectors: Sequence[dict] | None,
        use_cache: bool = True,
        template: ScheduleMemo | None = None,
    ) -> None:
        self.source_or_factory = source_or_factory
        self.resource_class = resource_class
        self.base = options or SynthesisOptions()
        self.vectors = vectors
        self.use_cache = use_cache and isinstance(source_or_factory, str)
        self._digest = (
            source_digest(source_or_factory)
            if isinstance(source_or_factory, str)
            else None
        )
        self._template = template
        self._measure_memo: dict[tuple, tuple[int, float, float]] = {}

    def template(self) -> ScheduleMemo:
        """The schedule memo of the compiled-and-transformed CDFG
        (``.cdfg``) shared by every point (string sources only).

        Range narrowing runs here with the IR optimizations: both are
        constraint-independent, so running them once on the shared
        CDFG (instead of once per point, mutating the graph every
        point re-synthesizes) keeps the sweep identical to per-point
        full synthesis.
        """
        if self._template is None:
            cdfg = compile_source(self.source_or_factory)
            transform_cdfg(cdfg, self.base)
            self._template = ScheduleMemo(cdfg)
        return self._template

    def build(self, limit: int) -> DesignPoint:
        with trace_span("dse.point", resource=self.resource_class,
                        limit=limit):
            metrics().counter("dse.points.evaluated").inc()
            return self._build(limit)

    def ensure_vectors(self) -> None:
        """Generate the sweep's measurement vectors once (string
        sources only).

        Vector generation is deterministic in the CDFG's inputs, so one
        batch serves the whole sweep — parallel sweeps call this before
        shipping payloads so workers measure the very same vectors.
        The assume contract must ride along: a design narrowed under it
        is only equivalent for inputs honoring it, so sweep
        measurements stay inside the contract too.
        """
        if self.vectors is None and isinstance(self.source_or_factory, str):
            assume = {
                name: (lo, hi) for name, lo, hi in self.base.assume_ranges
            }
            self.vectors = default_vectors(
                self.template().cdfg, count=4, assume=assume or None
            )

    def _build(self, limit: int) -> DesignPoint:
        self.ensure_vectors()
        point_options = self.base.with_constraints(
            {self.resource_class: limit}
        )
        design = None
        if self.use_cache:
            # Two-tier: the in-memory LRU, then the persistent store
            # (when active) — a sweep re-run in a fresh process warm
            # starts from disk.
            design = lookup_design(self._digest, None, point_options)
        if design is None:
            if isinstance(self.source_or_factory, str):
                # The transforms stage already ran once on the shared
                # CDFG (cache keys still carry the requested knobs —
                # point_options is keyed *before* this strip).
                memo = self.template()
                run_options = replace(point_options, optimize_ir=False,
                                      narrow=False)
                design = synthesize_cdfg(memo.cdfg, run_options, memo)
            else:
                design = synthesize_cdfg(
                    self.source_or_factory(), point_options
                )
            if self.use_cache:
                record_design(self._digest, None, point_options,
                              design)
        cycles, clock_ns, area = self._measure(design)
        return DesignPoint(
            constraints=point_options.constraints,
            design=design,
            area=area,
            cycles=cycles,
            clock_ns=clock_ns,
        )

    def _measure(self, design: SynthesizedDesign) -> tuple[int, float, float]:
        # The signature shortcut is only sound when every design shares
        # one CDFG, i.e. the string-source path.
        signature = (
            _design_signature(design)
            if isinstance(self.source_or_factory, str)
            else None
        )
        if signature is not None:
            cached = self._measure_memo.get(signature)
            if cached is not None:
                metrics().counter("dse.measurements.memoized").inc()
                return cached
        metrics().counter("dse.measurements.run").inc()
        cycles = measure_cycles(design, self.vectors)
        timing = estimate_timing(design, cycles)
        area = estimate_area(design).total
        measured = (cycles, timing.clock_ns, area)
        if signature is not None:
            self._measure_memo[signature] = measured
        return measured


def _map_points(builder: _PointBuilder, limits: Sequence[int],
                n_jobs: int | None,
                task_timeout_s: float | None = None,
                ) -> tuple[list[DesignPoint], list]:
    """Build a point per limit, in order — fanning out when asked.

    Returns ``(points, failures)``; the serial path raises on error
    (nothing to salvage) and therefore never reports failures.
    """
    if n_jobs is not None and n_jobs > 1:
        from .parallel import ParallelExplorer

        explorer = ParallelExplorer(max_workers=n_jobs,
                                    timeout_s=task_timeout_s)
        return explorer.build_points(builder, limits)
    return [builder.build(limit) for limit in limits], []


def search_for_latency(
    source_or_factory: str | Callable[[], CDFG],
    target_cycles: int,
    resource_class: str = "fu",
    max_units: int = 16,
    options: SynthesisOptions | None = None,
    vectors: Sequence[dict] | None = None,
    n_jobs: int | None = 1,
    use_cache: bool = True,
    task_timeout_s: float | None = None,
) -> DesignPoint | None:
    """Chippe-style constraint-driven search: the *smallest* unit count
    whose design meets ``target_cycles``.

    §3.1.1: "first choosing a resource limit, then scheduling, then
    changing the limit based on the results of the scheduling,
    rescheduling and so on until a satisfactory design has been found."
    Cycle counts are monotone non-increasing in the unit budget here,
    so the loop is a k-section search probing ``n_jobs`` limits per
    round — a binary search at ``n_jobs=1``; every width finds the
    same smallest feasible count.  Returns None when even
    ``max_units`` cannot meet the target.

    Unlike :func:`explore_fu_range`, a probe that permanently fails
    in the parallel runtime raises
    :class:`~repro.errors.TaskExecutionError`: the bisection needs
    every probe's cycle count to steer, so there is no partial result
    to return.
    """
    builder = _PointBuilder(
        source_or_factory, resource_class, options, vectors, use_cache
    )
    ceiling = builder.build(max_units)
    if ceiling.cycles > target_cycles:
        return None
    best = ceiling
    low, high = 1, max_units
    width = max(1, n_jobs or 1)
    while low < high:
        count = min(width, high - low)
        probes = sorted({
            low + ((i + 1) * (high - low)) // (count + 1)
            for i in range(count)
        })
        points, failures = _map_points(builder, probes, n_jobs,
                                       task_timeout_s)
        if failures:
            from ..errors import TaskExecutionError

            rendered = "; ".join(f.render() for f in failures)
            raise TaskExecutionError(
                f"latency search probe(s) failed: {rendered}",
                failures,
            )
        advanced = low
        feasible = None
        for probe, point in zip(probes, points):
            if point.cycles <= target_cycles:
                feasible = (probe, point)
                break
            advanced = probe + 1
        if feasible is not None:
            high, best = feasible
        low = advanced
    return best


def explore_fu_range(
    source_or_factory: str | Callable[[], CDFG],
    fu_limits: Sequence[int],
    resource_class: str = "fu",
    options: SynthesisOptions | None = None,
    vectors: Sequence[dict] | None = None,
    n_jobs: int | None = 1,
    use_cache: bool = True,
    report: bool = False,
    task_timeout_s: float | None = None,
) -> ExplorationResult:
    """Sweep a functional-unit limit and collect the trade-off curve.

    Args:
        source_or_factory: BSL text, or a callable returning a fresh
            CDFG (synthesis mutates its input).
        fu_limits: unit counts to try for ``resource_class``.
        resource_class: the constrained class (default "fu").
        options: base options; the constraint field is overridden per
            point.
        vectors: inputs for cycle measurement (default: generated).
        n_jobs: fan points out over this many worker processes when
            greater than one; results are identical to the serial
            sweep, in ``fu_limits`` order.
        use_cache: reuse designs from the process-global synthesis
            cache for string sources.
        report: collect sweep telemetry (wall time + the metric
            counters this sweep moved, worker registries included)
            into ``result.telemetry``; ``result.table()`` then ends
            with the summary.
        task_timeout_s: per-point wall-clock budget for parallel
            sweeps (default: env ``REPRO_TASK_TIMEOUT_S``, else
            none).  A point that exceeds it is rebuilt serially; if
            that fails too it lands in ``result.failures`` instead of
            sinking the sweep.
    """
    builder = _PointBuilder(
        source_or_factory, resource_class, options, vectors, use_cache
    )
    limits = list(fu_limits)
    result = ExplorationResult()
    ledger = (None if run_ledger.in_ledger_scope()
              else run_ledger.active_ledger())
    before = (metrics().snapshot()
              if report or ledger is not None else None)
    started = time.perf_counter()
    with run_ledger.ledger_scope():
        # The scope claims the ledger record for this sweep: the many
        # syntheses inside are one exploration, not N runs.
        with trace_span("dse.sweep", resource=resource_class,
                        points=len(limits)):
            points, failures = _map_points(builder, limits, n_jobs,
                                           task_timeout_s)
            result.points.extend(points)
            result.failures.extend(failures)
    wall_s = time.perf_counter() - started
    if report:
        after = metrics().snapshot()
        deltas = {
            key: value - before["counters"].get(key, 0)
            for key, value in after["counters"].items()
            if value - before["counters"].get(key, 0) != 0
        }
        result.telemetry = {
            "wall_s": wall_s,
            "counters": deltas,
            "histograms": {
                key: hist.summary()
                for key, hist in histogram_deltas(before, after).items()
            },
        }
    if ledger is not None and result.points:
        # QoR of the sweep's best-latency point, plus the trade-off
        # curve itself — one "explore" record per invocation.
        best = min(result.points,
                   key=lambda p: (p.latency_ns, p.area))
        record = run_ledger.build_record(
            "explore", best.design.cdfg.name,
            design=best.design,
            source_digest=builder._digest,
            options=builder.base,
            metrics_before=before,
            wall_s=wall_s,
            extra={
                "resource_class": resource_class,
                "limits": limits,
                "pareto": len(result.pareto),
                "failures": len(result.failures),
                "points": [
                    {
                        "constraints": str(p.constraints),
                        "area": round(p.area, 3),
                        "cycles": p.cycles,
                        "clock_ns": round(p.clock_ns, 3),
                    }
                    for p in result.points
                ],
            },
        )
        ledger.append(record)
    return result
