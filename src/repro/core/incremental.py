"""Incremental re-synthesis: redo only what a source edit touched.

The flow (ScaleHLS-style cheap re-evaluation, applied to the paper's
pipeline): compile the edited source and run the engine's transforms
stage on it exactly as a full synthesis would (optimization, then
range narrowing when asked), diff the resulting CDFG against the
baseline design's CDFG with :func:`~repro.analysis.impact.diff_cdfgs`,
then seed a :class:`~repro.core.engine.ScheduleMemo` of the new CDFG
with the baseline's schedule of every content-unchanged block.  Each
seed is rebuilt on the fresh block (start times carried over by op
position) and validated under the baseline's own model and
constraints, and recorded under the baseline's scheduler, model and
constraints — so the engine takes it only when the run's options are
the same.  Dirty and added blocks, and every block of a run under
other options, are scheduled for real.  Allocation, binding, datapath
and controller synthesis always re-run — they are deterministic
functions of (CDFG, schedules) and fast compared to scheduling, and
re-running them keeps the produced design indistinguishable from a
full resynthesis.

Replay is *provably safe* per block (the replayed schedule is
re-validated) but exact output equality with a from-scratch run
additionally assumes the scheduler is deterministic on unchanged
content — true for every built-in scheduler.  The escape hatch for
doubt is ``verify=True``: it runs the full pipeline from scratch and
compares stage signatures, raising
:class:`~repro.errors.VerificationError` naming the first diverging
stage.  Benchmarks keep it on once per workload so the reported
speedups are certified equivalent.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from ..analysis.impact import CDFGDelta, diff_cdfgs
from ..errors import SchedulingError, VerificationError
from ..ir.values import BasicBlock
from ..lang import compile_source
from ..obs import metrics, trace_span
from ..scheduling import Schedule, SchedulingProblem
from .design import SynthesizedDesign
from .engine import (
    ScheduleMemo,
    SynthesisOptions,
    lookup_design,
    record_design,
    source_digest,
    synthesize,
    synthesize_cdfg,
    transform_cdfg,
)


@dataclass
class ResynthesisReport:
    """The incrementally re-synthesized design plus what was reused."""

    design: SynthesizedDesign
    delta: CDFGDelta
    #: Block names whose baseline schedule was replayed.
    replayed_blocks: list[str] = field(default_factory=list)
    #: Block names scheduled from scratch.
    scheduled_blocks: list[str] = field(default_factory=list)
    #: True after a passing differential verification; None when
    #: verification was not requested.
    verified: bool | None = None


def differential_verify(design: SynthesizedDesign, source: str,
                        procedure: str | None = None,
                        options: SynthesisOptions | None = None) -> bool:
    """Prove ``design`` equivalent to a full resynthesis of ``source``.

    Runs the whole pipeline from scratch (no hints, no caches) and
    compares per-stage decision signatures.  Returns True; raises
    :class:`~repro.errors.VerificationError` naming the first
    diverging stage otherwise.
    """
    options = options or SynthesisOptions()
    with trace_span("resynthesize.verify"):
        reference = synthesize(source, procedure, options)
    ours = design.stage_signatures()
    theirs = reference.stage_signatures()
    for stage in ours:
        if ours[stage] != theirs[stage]:
            raise VerificationError(
                f"incremental resynthesis diverged from full "
                f"resynthesis at the {stage} stage"
            )
    return True


def _replay_schedule(block: BasicBlock, baseline: SynthesizedDesign,
                     schedule: Schedule) -> Schedule | None:
    """Rebuild a baseline schedule on ``block``'s fresh problem, under
    the baseline's own model and constraints.

    Start times carry over by op position (the
    :meth:`~repro.scheduling.Schedule.signature` format).  Returns the
    validated schedule, or None when it does not fit the block.
    """
    problem = SchedulingProblem.from_block(block, baseline.model,
                                           baseline.constraints)
    ops = problem.ops
    start: dict[int, int] = {}
    for index, begin in schedule.signature():
        if not 0 <= index < len(ops):
            return None
        start[ops[index].id] = begin
    if len(start) != len(ops):
        return None
    replayed = Schedule(problem, start, scheduler=baseline.scheduler_name)
    try:
        replayed.validate()
    except SchedulingError:
        return None
    return replayed


def resynthesize(baseline: SynthesizedDesign, source: str,
                 procedure: str | None = None,
                 options: SynthesisOptions | None = None,
                 verify: bool = False) -> ResynthesisReport:
    """Re-synthesize an edited ``source`` against a baseline design.

    Args:
        baseline: a design previously synthesized from a close
            ancestor of ``source``; its per-block schedules seed the
            replay.  They are recorded under the baseline's own
            scheduler, model and constraints, so they are reused only
            when ``options`` match them; a baseline built under other
            options is not an error — every block is scheduled fresh.
        source: the edited BSL program text.
        procedure: entry procedure (default: last defined).
        options: pipeline knobs (default: baseline-compatible
            defaults).
        verify: also run a full from-scratch resynthesis and raise
            :class:`~repro.errors.VerificationError` unless the stage
            signatures match (the differential escape hatch).
    """
    options = options or SynthesisOptions()
    with trace_span("resynthesize", procedure=procedure or "") as span:
        cdfg = compile_source(source, procedure)
        transform_cdfg(cdfg, options)
        delta = diff_cdfgs(baseline.cdfg, cdfg)
        memo = ScheduleMemo(cdfg)
        old_ids = {block.name: block.id for block in baseline.cdfg.blocks()}
        new_blocks = {block.name: block for block in cdfg.blocks()}
        seeds: dict[int, Schedule] = {}
        for name in delta.unchanged:
            schedule = baseline.schedules.get(old_ids[name])
            if schedule is None:
                continue
            block = new_blocks[name]
            seed = _replay_schedule(block, baseline, schedule)
            if seed is None:
                metrics().counter("engine.blocks.replay_rejected").inc()
                continue
            memo.put(block.id, baseline.scheduler_name, seed)
            seeds[block.id] = seed
        design = synthesize_cdfg(
            cdfg, replace(options, optimize_ir=False, narrow=False), memo
        )
        # A block was replayed iff the engine took its seed; a seed
        # recorded under other options than this run's never is.
        replayed: list[str] = []
        scheduled: list[str] = []
        for name, block in sorted(new_blocks.items()):
            schedule = design.schedules.get(block.id)
            if schedule is not None:
                taken = seeds.get(block.id) is schedule
                (replayed if taken else scheduled).append(name)
        metrics().counter("resynthesize.runs").inc()
        metrics().counter("resynthesize.blocks.dirty").inc(
            len(delta.dirty) + len(delta.added)
        )
        span.set(dirty=len(delta.dirty), replayed=len(replayed))
    report = ResynthesisReport(
        design=design,
        delta=delta,
        replayed_blocks=replayed,
        scheduled_blocks=scheduled,
    )
    if verify:
        report.verified = differential_verify(design, source,
                                              procedure, options)
    return report


def resynthesize_from_cache(old_source: str, new_source: str,
                            procedure: str | None = None,
                            options: SynthesisOptions | None = None,
                            verify: bool = False) -> ResynthesisReport:
    """Incremental re-synthesis seeded from the two-tier design cache.

    The baseline for ``old_source`` comes from
    :func:`~repro.core.engine.lookup_design` — in a fresh process with
    an active :mod:`repro.store` this loads the template a previous
    process persisted, so an edit-compile-resynthesize loop stays warm
    across CLI invocations.  When the baseline is not cached it is
    synthesized (and recorded) first.

    The incremental result is recorded under ``new_source``'s key only
    after a **passing** differential verification: the store must only
    ever serve designs indistinguishable from a full synthesis.
    """
    options = options or SynthesisOptions()
    digest = source_digest(old_source)
    baseline = lookup_design(digest, procedure, options)
    if baseline is None:
        baseline = synthesize(old_source, procedure, options,
                              use_cache=True)
    report = resynthesize(baseline, new_source, procedure, options,
                          verify=verify)
    if report.verified:
        record_design(source_digest(new_source), procedure, options,
                      report.design)
    return report
