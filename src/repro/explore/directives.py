"""Directive-space design exploration with an estimator-pruned funnel.

The FU sweep of :mod:`repro.explore.dse` varies one axis the paper's
§3.1.1 loop iterates on — the resource budget.  The transform
*directives* the paper itself motivates (loop unrolling §2,
if-conversion, tree-height reduction) plus the scheduler/allocator
choice span a much larger space; crossing all of them with FU limits
exhaustively would run the full synthesize+measure pipeline per cell.

:func:`explore_directives` searches that cross-product through a
ScaleHLS-style multi-level funnel instead:

1. **Estimate** — each distinct transform variant is compiled and
   transformed once into a template.  Variants with more directives
   are built first, and a variant's template also serves every variant
   that only drops directives which never fired in its run (a pass
   that does not fire leaves the graph untouched, so the run without
   it makes the very same graph): on sqrt, diffeq and FIR-8 the eight
   variants take two builds.  Structurally identical templates are
   then deduped, and the cheap :class:`~repro.estimation.QoRModel`
   bounds prune (config, limit) cells whose estimate is dominated.
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
   cache, measurement memoization — one memo per template, so a
   design another config already made on it is simulated once — and,
   with ``n_jobs > 1``, the fault-tolerant :mod:`repro.exec` fan-out:
   every finalist cell in one batch, each built by the same builder
   in a worker, over that worker's own template (so without level 2's
   schedules), measuring every point it builds.

Pruning at levels 1–2 is *heuristic* (the area figure is not a bound,
and estimates cannot see scheduler quality); ``prune_margin`` trades
exploration completeness against full-pipeline runs.  Template sharing
and dedup at level 1 are exact — identical graphs synthesize
identically.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Sequence

from ..core.engine import (
    SCHEDULERS,
    ScheduleMemo,
    SynthesisOptions,
    schedule_block,
    source_digest,
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
from ..obs import metrics, trace_span
from ..obs.ledger import recorded_run
from ..scheduling import ResourceConstraints, UniversalFUModel
from ..transforms import IfConversion, LoopUnrolling, TreeHeightReduction
from .dse import (
    DesignPoint,
    ExplorationResult,
    _compile_template,
    _map_points,
    _PointBuilder,
    _sweep_telemetry,
)

#: Scheduler/allocator axes the default directive space sweeps.  Kept
#: deliberately small: every entry multiplies the cross-product the
#: funnel must prune back down.
DEFAULT_SCHEDULERS = ("list", "force-directed")
DEFAULT_ALLOCATORS = ("left-edge",)

#: The pass each switch of :attr:`DirectiveConfig.transforms` adds to
#: the optimizer, in the same order.
_DIRECTIVE_PASSES = (LoopUnrolling.name, TreeHeightReduction.name,
                     IfConversion.name)


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

    def ledger_row(self) -> dict:
        return {"config": self.config.label(), **super().ledger_row()}


@dataclass
class DirectiveExplorationResult(ExplorationResult):
    """Exploration result plus the funnel's pruning accounting."""

    #: Cell bookkeeping: ``exhaustive`` (config × limit cells),
    #: ``duplicates_pruned`` / ``estimate_pruned`` /
    #: ``schedule_pruned`` / ``schedule_failed`` per funnel level,
    #: ``configs_pruned`` (their sum) and ``configs_evaluated`` (cells
    #: that ran the full pipeline).
    funnel: dict = field(default_factory=dict)
    #: The config of each full-evaluation cell, in batch order.  A
    #: failure's task label is the cell's bare limit (what fault
    #: selectors match); its ``index`` finds the config here.
    cell_configs: list = field(default_factory=list)

    def failure_row(self, failure) -> str:
        config = self.cell_configs[failure.index]
        return f"{config.label()}: {failure.render()}"

    def ledger_extra(self) -> dict:
        f = self.funnel
        return {
            "configs": f["configs"],
            "exhaustive": f["exhaustive"],
            "configs_pruned": f["configs_pruned"],
            "configs_evaluated": f["configs_evaluated"],
            "funnel": {
                key: f[key]
                for key in ("duplicates_pruned", "estimate_pruned",
                            "schedule_pruned", "schedule_failed")
            },
        }

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

    Two CDFGs with equal signatures are the same graph up to op, value
    and block ids, and the deterministic pipeline synthesizes them
    identically — the funnel's exact dedup relies on this.  Ids are
    numbered per CDFG, so two compiles of one source agree on them,
    but transforms, unrolling and cloning renumber them: two directive
    variants can make one graph under different ids, so positions
    name ops here.  Conservative by construction: every op kind,
    attribute, type, operand wiring and the whole region tree
    participate.
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
            near-dominated cells in play (``inf`` never prunes).  A
            negative or NaN margin raises :class:`HLSError`, as do an
            empty ``configs`` and an empty ``fu_limits``.
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
    if not configs:
        raise HLSError("explore_directives needs at least one "
                       "directive configuration")
    limits = list(fu_limits)
    if not limits:
        raise HLSError("explore_directives needs at least one unit "
                       "limit")
    # Negated so that NaN is refused too: a negative or NaN margin
    # prunes cells that nothing dominates.  inf never prunes.
    if not prune_margin >= 0:
        raise HLSError(
            f"prune margin must be 0 or more, got {prune_margin!r}"
        )
    for config in configs:
        if config.scheduler not in SCHEDULERS:
            raise HLSError(f"unknown scheduler {config.scheduler!r}")
    model = base.model or UniversalFUModel()

    result = DirectiveExplorationResult()
    with recorded_run("explore-directives", options=base,
                      source_digest=source_digest(source)) as run, \
            _sweep_telemetry(result, report):
        with trace_span("dse.directives", configs=len(configs),
                        limits=len(limits)):
            result.funnel = _run_funnel(
                source, limits, configs, resource_class, base, vectors,
                n_jobs, use_cache, task_timeout_s, prune_margin,
                ranking_trips, model, result,
            )
        result.name_run(run, resource_class, limits)
    return result


def _run_funnel(source, limits, configs, resource_class, base, vectors,
                n_jobs, use_cache, task_timeout_s, prune_margin,
                ranking_trips, model,
                result: DirectiveExplorationResult) -> dict:
    """Levels 1–3; fills ``result`` and returns the funnel counters."""
    # ---- Level 1a: one template per transform combination, each
    # distinct graph built once, then deduped by structure.  The owner
    # of a signature is the first combination in config order.
    templates = _share_templates(source, configs, base)
    signature_of: dict[tuple, tuple] = {}
    canonical: dict[tuple, tuple] = {}  # signature -> owning transforms
    signatures: dict[ScheduleMemo, tuple] = {}
    for config in configs:
        transforms = config.transforms
        if transforms in signature_of:
            continue
        memo = templates[transforms]
        if memo not in signatures:
            signatures[memo] = _cdfg_signature(memo.cdfg)
        signature_of[transforms] = signatures[memo]
        canonical.setdefault(signatures[memo], transforms)

    # Shared measurement vectors: one batch for every cell.
    first = _PointBuilder(
        source, resource_class, configs[0].apply(base), vectors,
        use_cache, template=templates[configs[0].transforms],
    )
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
                templates[transforms].cdfg,
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
                templates[transforms], qor_models[transforms],
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

    # ---- Level 3: full synthesize+measure of every kept cell, in one
    # batch, through the regular point-builder machinery (two-tier
    # cache, measurement memoization, repro.exec fan-out).  Kept cells
    # come grouped by config, one builder per config.
    builders: dict[DirectiveConfig, _PointBuilder] = {}
    measurements: dict[tuple, dict] = {}
    for config, transforms, _ in kept:
        if config not in builders:
            # Every config riding on a template shares its CDFG,
            # schedule memo and measurement memo: a design another
            # config already made on it (same schedules and
            # allocations) is measured once.
            builders[config] = _PointBuilder(
                source, resource_class, config.apply(base),
                shared_vectors, use_cache,
                template=templates[transforms],
                measurements=measurements.setdefault(transforms, {}),
            )
    result.cell_configs = [config for config, _, _ in kept]
    points, failures = _map_points(
        [(builders[config], limit) for config, _, limit in kept],
        n_jobs, task_timeout_s,
    )
    result.points.extend(
        DirectivePoint(**vars(point), config=config)
        for (config, _, _), point in zip(kept, points)
        if point is not None
    )
    result.failures.extend(failures)
    pruned = duplicates + estimate_pruned + schedule_pruned + schedule_failed
    metrics().counter("dse.configs.pruned").inc(pruned)
    metrics().counter("dse.configs.evaluated").inc(len(kept))
    return {
        "configs": len(configs),
        "limits": len(limits),
        "duplicates_pruned": duplicates,
        "estimate_pruned": estimate_pruned,
        "schedule_pruned": schedule_pruned,
        "schedule_failed": schedule_failed,
        "configs_evaluated": len(kept),
        "exhaustive": len(configs) * len(limits),
        "configs_pruned": pruned,
    }


def _share_templates(source: str, configs: Sequence[DirectiveConfig],
                     base: SynthesisOptions) -> dict[tuple, ScheduleMemo]:
    """The template of every transform combination in ``configs``,
    compiling and transforming each distinct graph once.

    Combinations with more directives are built first.  A directive
    pass that never fired left the CDFG untouched (the
    :class:`~repro.transforms.Pass` contract), so the run without it
    makes the very same sequence of graphs, op ids included: a
    combination's template serves every combination that differs from
    it only by dropping directives that never fired in its run.
    """
    options: dict[tuple, SynthesisOptions] = {}
    for config in configs:
        options.setdefault(config.transforms, config.apply(base))
    templates: dict[tuple, ScheduleMemo] = {}
    for transforms in sorted(options, key=sum, reverse=True):
        if transforms in templates:
            continue
        memo, fired = _compile_template(source, options[transforms])
        needed = tuple(name in fired for name in _DIRECTIVE_PASSES)
        for other in options:
            if other not in templates and all(
                need <= wanted <= have
                for need, wanted, have in zip(needed, other, transforms)
            ):
                templates[other] = memo
    return templates


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
