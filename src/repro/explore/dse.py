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
  workers run the same builder over one template per process
  (:mod:`repro.explore.parallel`);
* synthesized designs are memoized in the two-tier design cache
  (:func:`~repro.core.engine.lookup_design`: the process-global LRU,
  backed by the persistent :mod:`repro.store` when one is active),
  keyed by source digest and option knobs, so a constraint probed
  twice — across an :func:`explore_fu_range` sweep, a later
  :func:`search_for_latency`, or a whole new process — is never
  rebuilt; that holds for parallel sweeps too, whose workers write
  the store tier and whose designs the parent puts in its LRU;
* both entry points take ``n_jobs``: with more than one job, points
  fan out over a :class:`~repro.explore.parallel.ParallelExplorer`
  process pool, producing results identical to the serial path.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import Callable, Iterator, Sequence

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
from ..errors import HLSError
from ..estimation import estimate_area, estimate_timing
from ..ir.cdfg import CDFG
from ..lang import compile_source
from ..obs import histogram_deltas, metrics, trace_span
from ..obs.ledger import RecordedRun, recorded_run
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

    def ledger_row(self) -> dict:
        """This point's entry in a sweep's ledger record."""
        return {
            "constraints": str(self.constraints),
            "area": round(self.area, 3),
            "cycles": self.cycles,
            "clock_ns": round(self.clock_ns, 3),
        }


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

    def ledger_extra(self) -> dict:
        """What this kind of sweep adds to its ledger record."""
        return {}

    def failure_row(self, failure) -> str:
        """The ``!`` line of one failed point in :meth:`table`."""
        return failure.render()

    def name_run(self, run: RecordedRun, resource_class: str,
                 limits: list[int]) -> None:
        """Name this sweep's ledger record when ``run`` claims one: the
        QoR of the best-latency point, the trade-off curve and
        :meth:`ledger_extra`.  A sweep with no point names nothing."""
        if not (run.claimed and self.points):
            return
        best = min(self.points, key=lambda p: (p.latency_ns, p.area))
        run.name(
            best.design.cdfg.name, best.design,
            resource_class=resource_class,
            limits=limits,
            **self.ledger_extra(),
            pareto=len(self.pareto),
            failures=len(self.failures),
            points=[p.ledger_row() for p in self.points],
        )

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
            lines.append(f" ! {self.failure_row(failure)}")
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


def _compile_template(source: str, options: SynthesisOptions,
                     ) -> tuple[ScheduleMemo, frozenset]:
    """Compile ``source`` and run the transforms stage on it once.

    Returns the template's :class:`~repro.core.engine.ScheduleMemo`
    (its ``.cdfg`` is the transformed graph) and the names of the IR
    passes that fired (:func:`~repro.core.engine.transform_cdfg`).
    """
    cdfg = compile_source(source)
    _, fired = transform_cdfg(cdfg, options)
    return ScheduleMemo(cdfg), fired


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
    additionally go through the two-tier design cache.

    Measurements are memoized per distinct design of the template: a
    design whose schedules and allocations equal those of one already
    measured over the same CDFG and vectors measures the same.  The
    memo belongs to the template, not to the builder — builders that
    share a template and vectors (directive DSE's configs on one
    template) pass one dict as ``measurements`` and measure each
    distinct design once between them.  Factory callables are invoked
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
        measurements: dict[tuple, tuple[int, float, float]] | None = None,
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
        self._measure_memo = {} if measurements is None else measurements

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
            self._template, _ = _compile_template(self.source_or_factory,
                                                  self.base)
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

    def point_options(self, limit: int) -> SynthesisOptions:
        """The options, and so the cache key, of the point at ``limit``."""
        return self.base.with_constraints({self.resource_class: limit})

    def adopt(self, limit: int, design: SynthesizedDesign) -> None:
        """Insert the design a pool worker built at ``limit`` into this
        process's memory tier (the worker wrote the store tier), so a
        later sweep here does not rebuild it."""
        if self.use_cache:
            record_design(self._digest, None, self.point_options(limit),
                          design, persist=False)

    def _build(self, limit: int) -> DesignPoint:
        self.ensure_vectors()
        point_options = self.point_options(limit)
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


def _map_points(cells: Sequence[tuple[_PointBuilder, int]],
                n_jobs: int | None,
                task_timeout_s: float | None = None,
                ) -> tuple[list[DesignPoint | None], list]:
    """Build a point per ``(builder, limit)`` cell, in order — in one
    parallel batch when asked.

    Returns ``(points, failures)``: ``points[i]`` is the point of
    ``cells[i]``, or None when that cell failed in the parallel runtime
    and its record is in ``failures``.  The serial path raises on error
    (nothing to salvage) and therefore never reports failures.
    """
    if n_jobs is not None and n_jobs > 1:
        from .parallel import ParallelExplorer

        explorer = ParallelExplorer(max_workers=n_jobs,
                                    timeout_s=task_timeout_s)
        return explorer.build_points(cells)
    return [builder.build(limit) for builder, limit in cells], []


@contextmanager
def _sweep_telemetry(result: ExplorationResult,
                     report: bool) -> Iterator[None]:
    """With ``report``, file the wall time and the counter and
    histogram deltas of the body in ``result.telemetry``."""
    if not report:
        yield
        return
    before = metrics().snapshot()
    started = time.perf_counter()
    yield
    wall_s = time.perf_counter() - started
    after = metrics().snapshot()
    result.telemetry = {
        "wall_s": wall_s,
        "counters": {
            key: value - before["counters"].get(key, 0)
            for key, value in after["counters"].items()
            if value - before["counters"].get(key, 0) != 0
        },
        "histograms": {
            key: hist.summary()
            for key, hist in histogram_deltas(before, after).items()
        },
    }


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
        points, failures = _map_points(
            [(builder, probe) for probe in probes], n_jobs,
            task_timeout_s,
        )
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

    An empty ``fu_limits`` raises :class:`HLSError`.
    """
    limits = list(fu_limits)
    if not limits:
        raise HLSError("explore_fu_range needs at least one unit limit")
    builder = _PointBuilder(
        source_or_factory, resource_class, options, vectors, use_cache
    )
    result = ExplorationResult()
    with recorded_run("explore", options=builder.base,
                      source_digest=builder._digest) as run, \
            _sweep_telemetry(result, report):
        with trace_span("dse.sweep", resource=resource_class,
                        points=len(limits)):
            points, failures = _map_points(
                [(builder, limit) for limit in limits], n_jobs,
                task_timeout_s,
            )
            result.points.extend(p for p in points if p is not None)
            result.failures.extend(failures)
        result.name_run(run, resource_class, limits)
    return result
