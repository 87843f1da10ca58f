"""Directive-space design exploration with an estimator-pruned funnel.

The FU sweep of :mod:`repro.explore.dse` varies one axis the paper's
§3.1.1 loop iterates on — the resource budget.  The transform
*directives* the paper itself motivates (loop unrolling §2,
if-conversion, tree-height reduction) plus the scheduler/allocator
choice span a much larger space; crossing all of them with FU limits
exhaustively would run the full synthesize+measure pipeline per cell.

:func:`explore_directives` searches that cross-product through a
ScaleHLS-style multi-level funnel instead:

1. **Estimate** — each transform variant is compiled and transformed
   once into a template; structurally identical templates are deduped
   (a directive that does not fire produces the very same graph), and
   the cheap :class:`~repro.estimation.QoRModel` bounds prune
   (config, limit) cells whose estimate is dominated.
2. **Schedule-only** — survivors run the pipeline to the schedule
   stage: the engine's :func:`~repro.core.engine.schedule_block` on
   every block of the template, into the template's
   :class:`~repro.core.engine.ScheduleMemo` (no allocation, binding,
   controller or simulation).  They are pruned again on (scheduled
   latency, estimated area); a cell whose scheduler cannot meet its
   limit is dropped as ``schedule_failed``.
3. **Full pipeline** — finalists run synthesize+measure through the
   regular :class:`~repro.explore.dse._PointBuilder` machinery over
   the same template and memo, so the full build reuses level 2's
   schedules instead of making them again; then the two-tier design
   cache, measurement memoization, and — with ``n_jobs > 1`` — the
   fault-tolerant :mod:`repro.exec` fan-out (workers schedule on
   their own templates).

Pruning at levels 1–2 is *heuristic* (the area figure is not a bound,
and estimates cannot see scheduler quality); ``prune_margin`` trades
exploration completeness against full-pipeline runs.  Dedup at level 1
is exact — identical graphs synthesize identically.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Sequence

from ..core.engine import (
    SCHEDULERS,
    ScheduleMemo,
    SynthesisOptions,
    schedule_block,
)
from ..errors import HLSError, SchedulingError
from ..estimation import DEFAULT_RANKING_TRIPS, QoRModel
from ..ir.cdfg import (
    CDFG,
    BlockRegion,
    IfRegion,
    LoopRegion,
    Region,
    SeqRegion,
)
from ..obs import histogram_deltas, metrics, trace_span
from ..obs import ledger as run_ledger
from ..scheduling import ResourceConstraints, UniversalFUModel
from .dse import (
    DesignPoint,
    ExplorationResult,
    _map_points,
    _PointBuilder,
)

#: Scheduler/allocator axes the default directive space sweeps.  Kept
#: deliberately small: every entry multiplies the cross-product the
#: funnel must prune back down.
DEFAULT_SCHEDULERS = ("list", "force-directed")
DEFAULT_ALLOCATORS = ("left-edge",)


@dataclass(frozen=True)
class DirectiveConfig:
    """One point of the directive axis: transform switches plus the
    scheduler/allocator pair (the knobs of
    :class:`~repro.core.engine.SynthesisOptions` a pragma could set)."""

    unroll: bool = False
    tree_height: bool = False
    if_conversion: bool = False
    scheduler: str = "list"
    allocator: str = "left-edge"

    @property
    def transforms(self) -> tuple[bool, bool, bool]:
        """The template-shaping switches (scheduler excluded)."""
        return (self.unroll, self.tree_height, self.if_conversion)

    def apply(self, base: SynthesisOptions) -> SynthesisOptions:
        """``base`` with this configuration's knobs applied."""
        return replace(
            base,
            unroll=self.unroll,
            tree_height=self.tree_height,
            if_conversion=self.if_conversion,
            scheduler=self.scheduler,
            allocator=self.allocator,
        )

    def label(self) -> str:
        parts = [
            name
            for enabled, name in (
                (self.unroll, "unroll"),
                (self.tree_height, "tree"),
                (self.if_conversion, "ifconv"),
            )
            if enabled
        ]
        transforms = "+".join(parts) or "plain"
        return f"{transforms}/{self.scheduler}/{self.allocator}"


def default_directive_space(
    schedulers: Sequence[str] = DEFAULT_SCHEDULERS,
    allocators: Sequence[str] = DEFAULT_ALLOCATORS,
) -> list[DirectiveConfig]:
    """The full cross-product: 8 transform combinations × schedulers ×
    allocators, in deterministic order."""
    return [
        DirectiveConfig(
            unroll=unroll,
            tree_height=tree_height,
            if_conversion=if_conversion,
            scheduler=scheduler,
            allocator=allocator,
        )
        for unroll in (False, True)
        for tree_height in (False, True)
        for if_conversion in (False, True)
        for scheduler in schedulers
        for allocator in allocators
    ]


@dataclass
class DirectivePoint(DesignPoint):
    """A design point that remembers which directives produced it."""

    config: DirectiveConfig = field(default_factory=DirectiveConfig)

    def row(self) -> str:
        return f"{self.config.label():<32} {super().row()}"


@dataclass
class DirectiveExplorationResult(ExplorationResult):
    """Exploration result plus the funnel's pruning accounting."""

    #: Cell bookkeeping: ``exhaustive`` (config × limit cells),
    #: ``duplicates_pruned`` / ``estimate_pruned`` /
    #: ``schedule_pruned`` / ``schedule_failed`` per funnel level,
    #: ``configs_pruned`` (their sum) and ``configs_evaluated`` (cells
    #: that ran the full pipeline).
    funnel: dict = field(default_factory=dict)

    def table(self) -> str:
        lines = [super().table()]
        if self.funnel:
            f = self.funnel
            lines.append(
                f" funnel: {f['exhaustive']} cells -> "
                f"{f['configs_evaluated']} full evaluations "
                f"({f['duplicates_pruned']} duplicate, "
                f"{f['estimate_pruned']} estimate-pruned, "
                f"{f['schedule_pruned']} schedule-pruned)"
            )
        return "\n".join(lines)


def _region_signature(region: Region, block_pos: dict[int, int]) -> tuple:
    if isinstance(region, BlockRegion):
        return ("b", block_pos[region.block.id])
    if isinstance(region, SeqRegion):
        return ("s",) + tuple(
            _region_signature(item, block_pos) for item in region.items
        )
    if isinstance(region, IfRegion):
        return (
            "if",
            block_pos[region.cond_block.id],
            _region_signature(region.then_region, block_pos),
            _region_signature(region.else_region, block_pos)
            if region.else_region is not None else None,
        )
    if isinstance(region, LoopRegion):
        return (
            "loop",
            block_pos[region.test_block.id],
            region.test_in_body,
            region.exit_on_true,
            region.trip_count,
            _region_signature(region.body, block_pos),
        )
    raise TypeError(f"unknown region {region!r}")


def _cdfg_signature(cdfg: CDFG) -> tuple:
    """Position-based structural identity of an optimized CDFG.

    Two CDFGs with equal signatures are the same graph up to the
    process-global id counters, and the deterministic pipeline
    synthesizes them identically — the funnel's exact dedup relies on
    this.  Conservative by construction: every op kind, attribute,
    type, operand wiring and the whole region tree participate.
    """
    blocks = list(cdfg.blocks())
    block_pos = {block.id: index for index, block in enumerate(blocks)}
    op_pos: dict[int, tuple[int, int]] = {}
    for b, block in enumerate(blocks):
        for i, op in enumerate(block.ops):
            op_pos[op.id] = (b, i)

    def value_ref(value) -> tuple:
        producer = value.producer
        position = op_pos.get(producer.id)
        if position is not None:
            return ("op", *position)
        return ("ext", str(getattr(value, "name", "")),
                str(getattr(value, "type", "")))

    body = []
    for block in blocks:
        ops = tuple(
            (
                op.kind.value,
                tuple(sorted(
                    (key, str(val)) for key, val in op.attrs.items()
                )) if op.attrs else (),
                str(getattr(getattr(op, "result", None), "type", "")),
                tuple(value_ref(operand) for operand in op.operands),
            )
            for op in block.ops
        )
        body.append((block.name, ops))
    return (
        tuple(body),
        _region_signature(cdfg.body, block_pos),
        tuple((port.name, str(port.type)) for port in cdfg.inputs),
        tuple((port.name, str(port.type)) for port in cdfg.outputs),
    )


def _cell_dominates(best: tuple[float, float], other: tuple[float, float],
                    margin: float) -> bool:
    scale = 1.0 + margin
    latency, area = best
    other_latency, other_area = other
    if latency * scale > other_latency or area * scale > other_area:
        return False
    return latency < other_latency or area < other_area


def explore_directives(
    source: str,
    fu_limits: Sequence[int],
    configs: Sequence[DirectiveConfig] | None = None,
    resource_class: str = "fu",
    options: SynthesisOptions | None = None,
    vectors: Sequence[dict] | None = None,
    n_jobs: int | None = 1,
    use_cache: bool = True,
    report: bool = False,
    task_timeout_s: float | None = None,
    prune_margin: float = 0.0,
    ranking_trips: int = DEFAULT_RANKING_TRIPS,
) -> DirectiveExplorationResult:
    """Search directive configurations × FU limits through the funnel.

    Args:
        source: BSL program text (directive DSE needs the compile-once
            template machinery, so unlike :func:`explore_fu_range` a
            CDFG factory is not accepted).
        fu_limits: unit counts to try for ``resource_class``.
        configs: directive configurations (default:
            :func:`default_directive_space`).
        resource_class: the constrained class (default "fu").
        options: base options; each cell derives its own via
            :meth:`DirectiveConfig.apply` plus the constraint.
        vectors: measurement inputs shared by *every* cell (default:
            generated once from the first template, honoring
            ``options.assume_ranges``) — comparable measurements
            across configs require identical vectors.
        n_jobs / use_cache / report / task_timeout_s: exactly as in
            :func:`explore_fu_range`; they govern the full-pipeline
            level only.
        prune_margin: estimate-dominance slack — a cell is pruned only
            when another cell beats it by this relative margin on both
            axes.  0 prunes on any strict dominance; raise it to keep
            near-dominated cells in play.
        ranking_trips: trip count the ranking latency assumes for
            unknown-trip loops.

    Returns a :class:`DirectiveExplorationResult`; its ``funnel`` dict
    carries the per-level pruning accounting that also lands in the
    ``dse.configs.pruned`` / ``dse.configs.evaluated`` metrics and the
    ledger record (kind ``explore-directives``).
    """
    if not isinstance(source, str):
        raise HLSError(
            "explore_directives needs behavioral source text, not a "
            "CDFG factory"
        )
    base = options or SynthesisOptions()
    configs = list(configs) if configs is not None else \
        default_directive_space()
    for config in configs:
        if config.scheduler not in SCHEDULERS:
            raise HLSError(f"unknown scheduler {config.scheduler!r}")
    limits = list(fu_limits)
    exhaustive = len(configs) * len(limits)
    model = base.model or UniversalFUModel()

    result = DirectiveExplorationResult()
    ledger = (None if run_ledger.in_ledger_scope()
              else run_ledger.active_ledger())
    before = (metrics().snapshot()
              if report or ledger is not None else None)
    started = time.perf_counter()

    with run_ledger.ledger_scope():
        with trace_span("dse.directives", configs=len(configs),
                        limits=len(limits)):
            funnel = _run_funnel(
                source, limits, configs, resource_class, base, vectors,
                n_jobs, use_cache, task_timeout_s, prune_margin,
                ranking_trips, model, result,
            )
    wall_s = time.perf_counter() - started

    funnel["exhaustive"] = exhaustive
    funnel["configs_pruned"] = (
        funnel["duplicates_pruned"] + funnel["estimate_pruned"]
        + funnel["schedule_pruned"] + funnel["schedule_failed"]
    )
    result.funnel = funnel
    metrics().counter("dse.configs.pruned").inc(funnel["configs_pruned"])
    metrics().counter("dse.configs.evaluated").inc(
        funnel["configs_evaluated"]
    )

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
        best = min(result.points, key=lambda p: (p.latency_ns, p.area))
        from ..core.engine import source_digest

        record = run_ledger.build_record(
            "explore-directives", best.design.cdfg.name,
            design=best.design,
            source_digest=source_digest(source),
            options=base,
            metrics_before=before,
            wall_s=wall_s,
            extra={
                "resource_class": resource_class,
                "limits": list(limits),
                "configs": len(configs),
                "exhaustive": exhaustive,
                "configs_pruned": funnel["configs_pruned"],
                "configs_evaluated": funnel["configs_evaluated"],
                "funnel": {
                    key: funnel[key]
                    for key in ("duplicates_pruned", "estimate_pruned",
                                "schedule_pruned", "schedule_failed")
                },
                "pareto": len(result.pareto),
                "failures": len(result.failures),
                "points": [
                    {
                        "config": p.config.label(),
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


def _run_funnel(source, limits, configs, resource_class, base, vectors,
                n_jobs, use_cache, task_timeout_s, prune_margin,
                ranking_trips, model,
                result: DirectiveExplorationResult) -> dict:
    """Levels 1–3; fills ``result`` and returns the funnel counters."""
    # ---- Level 1a: one template per transform combination, deduped
    # by structure (a directive that does not fire changes nothing).
    builders: dict[tuple, _PointBuilder] = {}
    signature_of: dict[tuple, tuple] = {}
    canonical: dict[tuple, tuple] = {}  # signature -> owning transforms
    for config in configs:
        transforms = config.transforms
        if transforms in builders:
            continue
        builder = _PointBuilder(
            source, resource_class, config.apply(base), vectors,
            use_cache,
        )
        signature = _cdfg_signature(builder.template().cdfg)
        builders[transforms] = builder
        signature_of[transforms] = signature
        canonical.setdefault(signature, transforms)

    # Shared measurement vectors: one batch for every cell.
    first = builders[configs[0].transforms]
    first.ensure_vectors()
    shared_vectors = first.vectors

    # Level 1b: claim one config per (signature, scheduler, allocator)
    # — the rest are exact duplicates.
    claimed: dict[tuple, DirectiveConfig] = {}
    duplicates = 0
    for config in configs:
        signature = signature_of[config.transforms]
        key = (canonical[signature], config.scheduler, config.allocator)
        if key in claimed:
            duplicates += len(limits)
            continue
        claimed[key] = config

    # Level 1c: estimate-dominance pruning over (config, limit) cells.
    qor_models: dict[tuple, QoRModel] = {}
    estimates: dict[tuple, tuple] = {}
    cells = []
    for (transforms, _, _), config in claimed.items():
        if transforms not in qor_models:
            qor_models[transforms] = QoRModel(
                builders[transforms].template().cdfg,
                model=model, library=base.library,
                ranking_trips=ranking_trips,
            )
        for limit in limits:
            cell_key = (transforms, limit)
            if cell_key not in estimates:
                constraints = ResourceConstraints(
                    {resource_class: limit}
                )
                estimate = qor_models[transforms].estimate(constraints)
                estimates[cell_key] = (
                    float(estimate.latency_csteps), estimate.area
                )
            cells.append((config, transforms, limit))
    distinct = sorted(set(estimates.values()))
    survivors, estimate_pruned = [], 0
    for cell in cells:
        _, transforms, limit = cell
        mine = estimates[(transforms, limit)]
        if any(_cell_dominates(other, mine, prune_margin)
               for other in distinct):
            estimate_pruned += 1
            continue
        survivors.append(cell)

    # ---- Level 2: schedule-only evaluation of the survivors.  The
    # schedules land in the template's memo, where level 3 finds them.
    metrics().counter("dse.configs.schedule_evaluated").inc(
        len(survivors)
    )
    scheduled: dict[tuple, float] = {}
    schedule_failed = 0
    finalists = []
    for config, transforms, limit in survivors:
        key = (transforms, limit, config.scheduler)
        if key not in scheduled:
            scheduled[key] = _scheduled_latency(
                builders[transforms].template(), qor_models[transforms],
                config.scheduler, model,
                ResourceConstraints({resource_class: limit}),
            )
        latency = scheduled[key]
        if latency is None:
            schedule_failed += 1
            continue
        finalists.append((config, transforms, limit, latency))
    level2 = [
        (latency, estimates[(transforms, limit)][1])
        for _, transforms, limit, latency in finalists
    ]
    distinct2 = sorted(set(level2))
    kept, schedule_pruned = [], 0
    for (config, transforms, limit, latency), mine in zip(finalists,
                                                          level2):
        if any(_cell_dominates(other, mine, prune_margin)
               for other in distinct2):
            schedule_pruned += 1
            continue
        kept.append((config, transforms, limit))

    # ---- Level 3: full synthesize+measure per surviving cell, per
    # config, through the regular point-builder machinery (two-tier
    # cache, measurement memoization, repro.exec fan-out).
    evaluated = 0
    by_config: dict[DirectiveConfig, tuple[tuple, list]] = {}
    for config, transforms, limit in kept:
        by_config.setdefault(config, (transforms, []))[1].append(limit)
    for config, (transforms, config_limits) in by_config.items():
        # Each transform combination owns exactly one template: every
        # config riding on it shares its CDFG and schedule memo.
        cfg_builder = _PointBuilder(
            source, resource_class, config.apply(base),
            shared_vectors, use_cache,
            template=builders[transforms].template(),
        )
        points, failures = _map_points(
            cfg_builder, config_limits, n_jobs, task_timeout_s
        )
        evaluated += len(config_limits)
        result.points.extend(
            DirectivePoint(
                constraints=point.constraints,
                design=point.design,
                area=point.area,
                cycles=point.cycles,
                clock_ns=point.clock_ns,
                config=config,
            )
            for point in points
        )
        result.failures.extend(failures)
    return {
        "configs": len(configs),
        "limits": len(limits),
        "duplicates_pruned": duplicates,
        "estimate_pruned": estimate_pruned,
        "schedule_pruned": schedule_pruned,
        "schedule_failed": schedule_failed,
        "configs_evaluated": evaluated,
    }


def _scheduled_latency(memo: ScheduleMemo, qor_model: QoRModel,
                       scheduler: str, model,
                       constraints: ResourceConstraints) -> float | None:
    """Rank one (template, limit, scheduler) cell by scheduling every
    block of the template through the engine's schedule step — no
    allocation, binding, controller or simulation.

    Returns None when the scheduler cannot produce a legal schedule
    under the constraint (e.g. ASAP under a resource limit).
    """
    lengths: dict[int, int] = {}
    for block in memo.cdfg.blocks():
        if not block.ops:
            continue
        try:
            schedule, _ = schedule_block(block, scheduler, model,
                                         constraints, memo)
        except (SchedulingError, HLSError):
            return None
        lengths[block.id] = schedule.length
    return float(qor_model.aggregate_latency(lengths, minimum=False))
