"""The end-to-end HLS engine: behavioral source in, design out.

Implements the complete pipeline of the paper's §2: compile →
high-level transformations → scheduling → allocation → module binding →
controller synthesis.  Every stage is pluggable (scheduler and
allocator families are selected by name), so the engine is also the
harness design-space exploration drives.
"""

from __future__ import annotations

import hashlib
import time
from collections import OrderedDict
from dataclasses import dataclass, replace
from typing import Callable, Hashable, Mapping

from ..allocation import (
    CliqueAllocator,
    ColoringRegisterAllocator,
    GreedyDatapathAllocator,
    LeftEdgeRegisterAllocator,
    RuleBasedAllocator,
)
from ..analysis.liveness import variable_liveness
from ..binding import ComponentLibrary, ModuleBinder
from ..controller.fsm import synthesize_fsm
from ..datapath.plan import plan_block
from ..errors import HLSError
from ..ir.cdfg import CDFG, IfRegion, LoopRegion
from ..ir.values import BasicBlock
from ..lang import compile_source
from ..obs import (
    maybe_memory,
    maybe_tracing,
    memory_span,
    metrics,
    pow2_bucket,
    trace_span,
    tracer,
    tracing_enabled,
)
from ..scheduling import (
    ASAPScheduler,
    BranchAndBoundScheduler,
    ForceDirectedScheduler,
    FreedomBasedScheduler,
    ListScheduler,
    ResourceConstraints,
    ResourceModel,
    Schedule,
    SchedulingProblem,
    SimulatedAnnealingScheduler,
    UniversalFUModel,
    YSCScheduler,
)
from ..transforms import optimize
from .design import SynthesizedDesign

SCHEDULERS: dict[str, Callable] = {
    "asap": ASAPScheduler,
    "list": ListScheduler,
    "force-directed": ForceDirectedScheduler,
    "freedom-based": FreedomBasedScheduler,
    "branch-and-bound": BranchAndBoundScheduler,
    "ysc": YSCScheduler,
    "annealing": SimulatedAnnealingScheduler,
}

ALLOCATORS: dict[str, Callable] = {
    "clique": CliqueAllocator,
    "left-edge": LeftEdgeRegisterAllocator,
    "greedy": GreedyDatapathAllocator,
    "coloring": ColoringRegisterAllocator,
    "rules": RuleBasedAllocator,
}


@dataclass
class SynthesisOptions:
    """Knobs of one synthesis run.

    Attributes:
        scheduler: one of :data:`SCHEDULERS`.
        allocator: one of :data:`ALLOCATORS`.
        model: resource/delay model (default: the paper's universal FU).
        constraints: per-class unit limits.
        optimize_ir: run the standard transformation pipeline first.
        unroll: fully unroll constant-trip loops during optimization.
        tree_height: rebalance associative chains during optimization.
        if_conversion: convert small branches into straight-line mux
            selection during optimization (the third opt-in directive
            of the §2 transformation repertoire; directive DSE sweeps
            it together with ``unroll``/``tree_height``).
        narrow: run the range-driven bitwidth-narrowing pass
            (:class:`repro.transforms.narrow.RangeNarrowing`) after
            optimization, shrinking value and register widths to their
            proven intervals.
        assume_ranges: trusted input contracts for the range analysis,
            as ``(port name, lo, hi)`` triples (e.g. the paper's sqrt
            operating interval ``("X", 0.0625, 1.0)``).  Narrowing
            under a contract is only sound for inputs honoring it;
            unknown port names are ignored.
        library: component library for module binding.
        verify: run the :mod:`repro.verify` stage contracts after each
            pipeline stage and raise
            :class:`~repro.errors.VerificationError` on any violation.
        trace: enable :mod:`repro.obs` span tracing for this run
            (equivalent to env ``REPRO_TRACE=1`` scoped to the call).
            Pure observability — never changes what is synthesized.
        memory: enable :mod:`repro.obs.resource` per-stage heap-peak
            gauges for this run (equivalent to env ``REPRO_MEM=1``
            scoped to the call).  Pure observability, like ``trace``.
        fault_spec: deterministic fault-injection spec for the
            :mod:`repro.exec` task runtime (testing knob, equivalent
            to env ``REPRO_FAULT`` scoped to runs derived from these
            options; see ``docs/resilience.md`` for the grammar).
            Only parallel task execution consults it — the pipeline
            itself never injects faults.
    """

    scheduler: str = "list"
    allocator: str = "left-edge"
    model: ResourceModel | None = None
    constraints: ResourceConstraints | None = None
    optimize_ir: bool = True
    unroll: bool = False
    tree_height: bool = False
    if_conversion: bool = False
    narrow: bool = False
    assume_ranges: tuple[tuple[str, float, float], ...] = ()
    library: ComponentLibrary | None = None
    verify: bool = False
    trace: bool = False
    memory: bool = False
    fault_spec: str | None = None

    def with_constraints(
        self,
        constraints: ResourceConstraints | Mapping[str, int] | None,
    ) -> "SynthesisOptions":
        """A copy of these options with only the constraints replaced.

        The single way DSE derives per-point options — new fields added
        to :class:`SynthesisOptions` are carried along automatically
        instead of having to be re-listed at every call site.
        """
        if constraints is not None and not isinstance(
            constraints, ResourceConstraints
        ):
            constraints = ResourceConstraints(dict(constraints))
        return replace(self, constraints=constraints)

    def cache_key(self) -> tuple[Hashable, ...]:
        """A hashable key identifying every behavior-relevant knob.

        Model and library objects are keyed by identity (they are
        stateless strategy objects); the key tuple keeps a reference to
        them, so an entry can never collide with a different object
        that happens to reuse a freed id.
        """
        limits = (
            None
            if self.constraints is None
            else tuple(sorted(self.constraints.limits.items()))
        )
        # ``trace`` and ``memory`` are deliberately absent: both
        # observe a run without changing its result, so observed and
        # unobserved runs share cache entries.  ``fault_spec`` is
        # absent for the same reason — faults kill or delay a task,
        # never alter a design that completes.
        return (
            self.scheduler,
            self.allocator,
            self.model,
            limits,
            self.optimize_ir,
            self.unroll,
            self.tree_height,
            self.if_conversion,
            self.narrow,
            self.assume_ranges,
            self.library,
            self.verify,
        )


def source_digest(source: str) -> str:
    """Stable digest of behavioral source text, for cache keys."""
    return hashlib.sha256(source.encode("utf-8")).hexdigest()


class SynthesisCache:
    """A bounded LRU cache of synthesized designs.

    Keyed by ``(source digest, entry procedure, options cache key)``;
    the design-space explorers use it so re-probing a constraint the
    binary search (or an earlier sweep) already built never re-runs
    the synthesis pipeline.  Entries are complete
    :class:`SynthesizedDesign` objects and must be treated as
    immutable by callers.
    """

    def __init__(self, max_entries: int = 256) -> None:
        self.max_entries = max_entries
        self._entries: OrderedDict[tuple, SynthesizedDesign] = OrderedDict()
        # Counters live in the global metrics registry (one family per
        # process — every instance shares them, and in practice the
        # process-global cache is the only instance).
        registry = metrics()
        self._hits = registry.counter("cache.hits")
        self._misses = registry.counter("cache.misses")
        self._evictions = registry.counter("cache.evictions")
        self._occupancy = registry.gauge("cache.entries")
        registry.gauge("cache.max_entries").set(max_entries)

    @property
    def hits(self) -> int:
        return self._hits.value

    @property
    def misses(self) -> int:
        return self._misses.value

    @property
    def evictions(self) -> int:
        return self._evictions.value

    def get(self, key: tuple) -> SynthesizedDesign | None:
        design = self._entries.get(key)
        if design is None:
            self._misses.inc()
            return None
        self._entries.move_to_end(key)
        self._hits.inc()
        return design

    def put(self, key: tuple, design: SynthesizedDesign) -> None:
        self._entries[key] = design
        self._entries.move_to_end(key)
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            self._evictions.inc()
        self._occupancy.set(len(self._entries))

    def clear(self) -> None:
        self._entries.clear()
        self._hits.reset()
        self._misses.reset()
        self._evictions.reset()
        self._occupancy.set(0)

    def __len__(self) -> int:
        return len(self._entries)

    def stats(self) -> dict[str, int]:
        """Occupancy and counters, read back from the metrics registry."""
        return {
            "entries": len(self._entries),
            "max_entries": self.max_entries,
            "hits": self._hits.value,
            "misses": self._misses.value,
            "evictions": self._evictions.value,
        }


#: Process-global design cache shared by every exploration entry point.
_SYNTHESIS_CACHE = SynthesisCache()


def synthesis_cache() -> SynthesisCache:
    """The process-global :class:`SynthesisCache`."""
    return _SYNTHESIS_CACHE


def clear_synthesis_cache() -> None:
    """Drop every cached design and reset the hit/miss counters."""
    _SYNTHESIS_CACHE.clear()


def _store_tier(digest: str, procedure: str | None,
                options: SynthesisOptions):
    """(store, key) of the persistent tier, or (None, None).

    Imported lazily: :mod:`repro.store` pulls in :mod:`repro.exec`
    for its fault hooks, and the engine must stay importable first.
    """
    from ..store import active_store, store_key

    store = active_store()
    if store is None:
        return None, None
    key = store_key(digest, procedure, options)
    if key is None:
        return None, None
    return store, key


def lookup_design(digest: str, procedure: str | None,
                  options: SynthesisOptions) -> SynthesizedDesign | None:
    """Two-tier design lookup: the in-memory LRU, then the persistent
    store (when one is active — see :func:`repro.store.active_store`).

    A store hit is re-inserted into the LRU under the in-memory key,
    so repeated lookups in one process pay the pickle load once.
    Cached designs are shared objects; callers must not mutate them.
    """
    key = (digest, procedure, options.cache_key())
    design = _SYNTHESIS_CACHE.get(key)
    if design is not None:
        return design
    store, store_key_ = _store_tier(digest, procedure, options)
    if store is None:
        return None
    design = store.get(store_key_)
    if design is not None:
        _SYNTHESIS_CACHE.put(key, design)
    return design


def record_design(digest: str, procedure: str | None,
                  options: SynthesisOptions,
                  design: SynthesizedDesign) -> None:
    """Insert a design into both cache tiers (store tier only when one
    is active and the options are stably keyable)."""
    _SYNTHESIS_CACHE.put((digest, procedure, options.cache_key()),
                         design)
    store, store_key_ = _store_tier(digest, procedure, options)
    if store is not None:
        store.put(store_key_, design, fault_spec=options.fault_spec)


def _verify_stages(design: SynthesizedDesign, stages: tuple[str, ...],
                   log: list[str]) -> None:
    """Opt-in engine hook: run stage contracts, raise on violations.

    Imported lazily — :mod:`repro.verify` imports the pipeline
    packages, so the engine must not import it at module level.
    """
    from ..errors import VerificationError
    from ..verify import verify_design

    with trace_span("verify", stages=",".join(stages)) as span:
        report = verify_design(design, stages=stages)
        span.set(violations=len(report.violations))
    log.append(
        f"verify[{','.join(stages)}]: "
        f"{'ok' if report.ok else f'{len(report.violations)} violations'}"
    )
    if not report.ok:
        raise VerificationError(report.render(), report.violations)


def _region_condition_values(cdfg: CDFG) -> dict[int, set[int]]:
    """Block id → condition value ids the controller reads there."""
    conditions: dict[int, set[int]] = {}
    for region in cdfg.body.walk():
        if isinstance(region, (IfRegion, LoopRegion)):
            block = region.cond.producer.block
            conditions.setdefault(block.id, set()).add(region.cond.id)
    return conditions


class ScheduleMemo:
    """Per-block scheduling results of one CDFG, shared by many runs.

    ``problems`` holds each block's unconstrained
    :class:`SchedulingProblem` by block id: its dependence graph and
    structure memos are built once and re-targeted per run through
    :meth:`SchedulingProblem.with_constraints`.  The memo also holds
    validated schedules, keyed by block id, scheduler name, the
    model's :meth:`~repro.scheduling.ResourceModel.cache_token` and
    the sorted constraint limits; a model without a token is never
    reused, as in the persistent store.

    A memo is bound to ``cdfg`` and to the one resource model its
    problems were built with, and is valid only while the engine does
    not transform that CDFG again: runs that pass it set
    ``optimize_ir=False, narrow=False``.  It lives with its CDFG —
    never process-global, never persisted, never pickled.
    """

    __slots__ = ("cdfg", "problems", "_schedules")

    def __init__(self, cdfg: CDFG) -> None:
        self.cdfg = cdfg
        self.problems: dict[int, SchedulingProblem] = {}
        self._schedules: dict[tuple, Schedule] = {}

    @staticmethod
    def _key(block_id: int, scheduler: str, model: ResourceModel,
             constraints: ResourceConstraints) -> tuple | None:
        token = model.cache_token()
        if token is None:
            return None
        return (block_id, scheduler, token,
                tuple(sorted(constraints.limits.items())))

    def get(self, block_id: int, scheduler: str, model: ResourceModel,
            constraints: ResourceConstraints) -> Schedule | None:
        """The schedule recorded for this block and these knobs."""
        key = self._key(block_id, scheduler, model, constraints)
        return None if key is None else self._schedules.get(key)

    def put(self, block_id: int, scheduler: str,
            schedule: Schedule) -> None:
        """Record a validated schedule under its own problem's model
        and constraints."""
        problem = schedule.problem
        key = self._key(block_id, scheduler, problem.model,
                        problem.constraints)
        if key is not None:
            self._schedules[key] = schedule


def transform_cdfg(cdfg: CDFG, options: SynthesisOptions) -> list[str]:
    """The transforms stage: run the IR optimizations the options ask
    for, then range narrowing, on ``cdfg`` in place.

    Returns the stage's log lines.  Every path that transforms a CDFG
    before synthesizing it comes through here, so a compile-once
    template and a per-run synthesis apply the same passes.
    """
    log: list[str] = []
    if options.optimize_ir:
        with memory_span("transforms"):
            report = optimize(cdfg, unroll=options.unroll,
                              tree_height=options.tree_height,
                              if_conversion=options.if_conversion)
        log.append(f"optimize: {report}")
    if options.narrow:
        from ..transforms.narrow import RangeNarrowing

        assume = {name: (lo, hi) for name, lo, hi in options.assume_ranges}
        narrow_pass = RangeNarrowing(assume=assume)
        with memory_span("transforms"), trace_span("pass.range-narrow"):
            narrow_pass.run(cdfg)
        log.append(f"narrow: {narrow_pass.summary()}")
    return log


def schedule_block(block: BasicBlock, scheduler: str,
                   model: ResourceModel,
                   constraints: ResourceConstraints,
                   memo: ScheduleMemo | None = None,
                   ) -> tuple[Schedule, bool]:
    """The schedule step for one block: build its problem, run the
    named scheduler and validate the result.

    With a ``memo`` the block's problem comes from (and goes into)
    ``memo.problems``, and the validated schedule is recorded.  A
    schedule the memo already holds for these knobs is returned as is,
    on its own problem, without scheduling or validating again.
    Returns ``(schedule, reused)``; raises
    :class:`~repro.errors.SchedulingError` when the scheduler cannot
    meet the constraints.
    """
    if memo is not None:
        schedule = memo.get(block.id, scheduler, model, constraints)
        if schedule is not None:
            return schedule, True
        base = memo.problems.get(block.id)
        if base is None:
            base = SchedulingProblem.from_block(block, model)
            memo.problems[block.id] = base
        problem = base.with_constraints(constraints)
    else:
        problem = SchedulingProblem.from_block(block, model, constraints)
    with trace_span("schedule", block=block.name,
                    scheduler=scheduler) as span, \
            memory_span("schedule"):
        started = time.perf_counter()
        schedule = SCHEDULERS[scheduler](problem).schedule()
        elapsed_ms = (time.perf_counter() - started) * 1e3
        schedule.validate()
        span.set(steps=schedule.length)
    metrics().counter("scheduler.invocations", scheduler=scheduler).inc()
    metrics().histogram(
        "scheduler.latency_ms", scheduler=scheduler
    ).observe(elapsed_ms)
    if memo is not None:
        memo.put(block.id, scheduler, schedule)
    return schedule, False


def synthesize_cdfg(cdfg: CDFG,
                    options: SynthesisOptions | None = None,
                    memo: ScheduleMemo | None = None,
                    ) -> SynthesizedDesign:
    """Run scheduling → allocation → binding → control on a CDFG.

    The CDFG is transformed in place first (:func:`transform_cdfg`);
    everything after that point only reads the CDFG.

    Args:
        cdfg: the design to synthesize.
        options: pipeline knobs.
        memo: a :class:`ScheduleMemo` of ``cdfg`` to read and fill.
            Each block's problem is built once and shared across runs
            under different constraints (the DSE fast path), and a
            block whose schedule the memo already holds for this run's
            scheduler, model and constraints is not scheduled again
            (funnel level 2's schedules, an incremental baseline's
            replayed ones).  Only valid for a CDFG the run does not
            transform: pass it with ``optimize_ir=False, narrow=False``.
    """
    options = options or SynthesisOptions()
    if memo is not None and memo.cdfg is not cdfg:
        raise HLSError("schedule memo belongs to a different CDFG")
    with maybe_tracing(options.trace), maybe_memory(options.memory):
        return _synthesize_cdfg(cdfg, options, memo)


def _synthesize_cdfg(cdfg: CDFG, options: SynthesisOptions,
                     memo: ScheduleMemo | None) -> SynthesizedDesign:
    """The pipeline proper, with per-stage spans and metrics."""
    model = options.model or UniversalFUModel()
    constraints = options.constraints or ResourceConstraints.unlimited()

    log = transform_cdfg(cdfg, options)

    if options.scheduler not in SCHEDULERS:
        raise HLSError(f"unknown scheduler {options.scheduler!r}")
    allocator_factory = ALLOCATORS.get(options.allocator)
    if allocator_factory is None:
        raise HLSError(f"unknown allocator {options.allocator!r}")

    design = SynthesizedDesign(
        cdfg=cdfg,
        model=model,
        constraints=constraints,
        scheduler_name=options.scheduler,
        allocator_name=options.allocator,
        log=log,
    )
    conditions = _region_condition_values(cdfg)
    # The CDFG is only read from here on, so one solve serves every
    # block: its live-out set rides on the block's problem to the
    # allocator, the allocation checker and the datapath planner.
    liveness = variable_liveness(cdfg)

    bindings = []
    binder = ModuleBinder(options.library)
    for block in cdfg.blocks():
        if not block.ops:
            continue
        schedule, replayed = schedule_block(
            block, options.scheduler, model, constraints, memo
        )
        schedule.problem.live_out = liveness.live_out[block.id]
        if replayed:
            metrics().counter("engine.blocks.replayed").inc()
        # Magnitude-class counters: deterministic shape signal for the
        # coverage fingerprint (repro.obs.coverage) — a constrained
        # schedule that stretches 4x or an allocation squeezed onto
        # one FU is a different pipeline path, and should count as
        # new coverage even when no branch counter says so.
        metrics().counter(
            "engine.schedule.steps",
            bucket=str(pow2_bucket(schedule.length)),
        ).inc()
        with trace_span("allocate", block=block.name,
                        allocator=options.allocator) as span, \
                memory_span("allocate"):
            allocation = allocator_factory(schedule).allocate()
            allocation.validate()
            span.set(fus=allocation.fu_count(),
                     registers=allocation.register_count)
        metrics().counter(
            "allocator.invocations", allocator=options.allocator
        ).inc()
        metrics().counter(
            "engine.allocation.fus",
            bucket=str(pow2_bucket(allocation.fu_count())),
        ).inc()
        with trace_span("datapath", block=block.name), \
                memory_span("datapath"):
            plan = plan_block(
                block, schedule, allocation,
                live_out_values=conditions.get(block.id, set()),
            )
        design.schedules[block.id] = schedule
        design.allocations[block.id] = allocation
        design.plans[block.id] = plan
        with trace_span("bind", block=block.name), \
                memory_span("bind"):
            binding = binder.bind(allocation)
        bindings.append(binding)
        usage = ", ".join(
            f"{cls}={count}"
            for cls, count in sorted(schedule.resource_usage().items())
        )
        log.append(
            f"schedule[{options.scheduler}] {block.name}: "
            f"{schedule.length} steps, peak usage {{{usage or '-'}}}"
            + (" (replayed)" if replayed else "")
        )
        log.append(
            f"allocate[{options.allocator}] {block.name}: "
            f"{allocation.fu_count()} FUs, "
            f"{allocation.register_count} registers"
        )

    if options.verify:
        _verify_stages(design, ("scheduling", "allocation"), log)

    with trace_span("bind", phase="merge"):
        design.binding = binder.merge(bindings)
    for fu in sorted(design.binding.components,
                     key=lambda f: (f.cls, f.index)):
        component = design.binding.components[fu]
        log.append(
            f"bind: {fu} -> {component.name} "
            f"({design.binding.widths[fu]} bits)"
        )
    if options.verify:
        _verify_stages(design, ("binding",), log)
    with trace_span("controller") as span, memory_span("controller"):
        design.fsm = synthesize_fsm(cdfg, design.plans)
        span.set(states=design.fsm.state_count)
    log.append(f"control: FSM with {design.fsm.state_count} states")
    if options.verify:
        _verify_stages(design, ("controller", "netlist"), log)
    return design


def _ledger_tier():
    """The :mod:`repro.obs.ledger` module iff this run should append a
    record, else None.

    Imported lazily for the same reason as :func:`_store_tier`, and
    None whenever no ledger is active or a multi-run driver (a DSE
    sweep, the fuzzer) has claimed the record via ``ledger_scope()``.
    """
    from ..obs import ledger

    if ledger.active_ledger() is None or ledger.in_ledger_scope():
        return None
    return ledger


def synthesize(source: str, procedure: str | None = None,
               options: SynthesisOptions | None = None,
               use_cache: bool = False,
               **option_kwargs) -> SynthesizedDesign:
    """Compile behavioral source and synthesize it.

    Args:
        source: BSL program text.
        procedure: entry procedure (default: last defined).
        options: a full :class:`SynthesisOptions`; otherwise
            ``option_kwargs`` are forwarded to its constructor
            (``scheduler=``, ``allocator=``, ``constraints=``, …).
        use_cache: look the design up in (and store it into) the
            two-tier design cache — the process-global
            :class:`SynthesisCache`, backed by the persistent
            :mod:`repro.store` tier when one is active.  Cached
            designs are shared objects — callers must not mutate them.

    When a run ledger is active (:func:`repro.obs.ledger.active_ledger`)
    and no enclosing driver holds a ``ledger_scope()``, exactly one
    :class:`~repro.obs.ledger.RunRecord` is appended per call — cache
    hits included (they are runs too; ``extra.cached`` marks them).
    """
    if options is None:
        options = SynthesisOptions(**option_kwargs)
    elif option_kwargs:
        raise HLSError("pass either options or keyword options, not both")
    ledger = _ledger_tier()
    with maybe_tracing(options.trace), maybe_memory(options.memory):
        metrics_before = metrics().snapshot() if ledger else None
        span_base = len(tracer()) if ledger else 0
        started = time.perf_counter()
        cached = False
        with trace_span("synthesize", scheduler=options.scheduler,
                        allocator=options.allocator) as span:
            digest: str | None = None
            if use_cache or ledger is not None:
                digest = source_digest(source)
            design: SynthesizedDesign | None = None
            if use_cache:
                design = lookup_design(digest, procedure, options)
                if design is not None:
                    cached = True
                    span.set(cached=True)
            if design is None:
                with memory_span("compile"):
                    cdfg = compile_source(source, procedure)
                span.set(design=cdfg.name)
                design = synthesize_cdfg(cdfg, options)
                if use_cache:
                    record_design(digest, procedure, options, design)
        if ledger is not None:
            span_records = (tracer().records()[span_base:]
                            if tracing_enabled() else ())
            record = ledger.build_record(
                "synth", design.cdfg.name,
                design=design,
                source_digest=digest,
                options=options,
                metrics_before=metrics_before,
                span_records=span_records,
                wall_s=time.perf_counter() - started,
                extra={
                    "cached": cached,
                    "scheduler": options.scheduler,
                    "allocator": options.allocator,
                },
            )
            ledger.active_ledger().append(
                record, fault_spec=options.fault_spec
            )
        return design
