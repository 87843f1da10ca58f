"""Pre-scheduling QoR estimation: cheap latency/area figures straight
from an optimized CDFG — no scheduling, no allocation, no binding.

§1.2's "search the design space … in a reasonable amount of time"
needs a filter much cheaper than the pipeline it steers.  This module
plays the role BUD's area/performance estimator (and ScaleHLS's QoR
estimator) play: given an optimized CDFG and a resource budget, bound
what any schedule could achieve, so the directive-DSE funnel
(:func:`repro.explore.explore_directives`) can discard dominated
configurations before spending a single scheduler invocation.

Two latency figures are produced:

* ``latency_lb_csteps`` — a **sound lower bound** on the control steps
  (and therefore RTL cycles) of any activation of any legal schedule:
  per block, the max of the chaining-aware dependence bound (longest
  path over :meth:`SchedulingProblem.edge_offset`) and the resource
  bound (``ceil(busy-steps / limit)`` per constrained class); across
  the region tree, branches take their *shorter* arm and unknown-trip
  loops their minimum execution (zero body trips for a pre-test loop,
  one for a post-test loop).  Known trip counts are exact — the
  frontend and :class:`~repro.transforms.tripcount.TripCountAnalysis`
  only record provable counts.  The admissibility property
  ``latency_lb_csteps <= measured cycles`` is pinned by tests.
* ``latency_csteps`` — a **ranking estimate** that mirrors
  :func:`~repro.scheduling.total_steps` instead: branches take their
  longer arm and unknown-trip loops run ``ranking_trips`` iterations.
  Useful for comparing configurations (a lower bound with zero-trip
  loops would blind the funnel to loop-body differences), but neither
  a bound nor a prediction.

The area figure is a coarse structural estimate (cheapest library
component per class × plausible unit count, plus register and
controller terms, no multiplexers — allocation decides those), *not* a
sound bound in either direction; see docs/performance.md for the
caveats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..binding.library import (
    CONTROLLER_AREA_PER_STATE_BIT,
    REGISTER_AREA_PER_BIT,
    ComponentLibrary,
)
from ..errors import BindingError
from ..ir.cdfg import (
    CDFG,
    BlockRegion,
    IfRegion,
    LoopRegion,
    Region,
    SeqRegion,
)
from ..scheduling import (
    ResourceConstraints,
    ResourceModel,
    SchedulingProblem,
    UniversalFUModel,
)
from .timing import REGISTER_SETUP_NS

#: Trip count the *ranking* latency assumes for loops whose count is
#: unknown (the sound lower bound instead assumes minimum execution).
DEFAULT_RANKING_TRIPS = 4


@dataclass(frozen=True)
class QoREstimate:
    """Pre-scheduling quality figures for one (CDFG, constraints) pair.

    ``latency_lb_csteps`` is a sound lower bound on activation cycles;
    ``latency_csteps`` and ``area`` are ranking estimates (see module
    docstring); ``clock_ns`` is an optimistic clock period.
    """

    latency_csteps: int
    latency_lb_csteps: int
    area: float
    clock_ns: float

    @property
    def latency_ns(self) -> float:
        return self.latency_csteps * self.clock_ns

    def dominates(self, other: "QoREstimate",
                  margin: float = 0.0) -> bool:
        """Is this estimate better-or-equal on both axes — with at
        least one strict — even after being inflated by ``margin``?

        ``margin`` is the funnel's pruning slack: with 0.1, this
        estimate must beat ``other`` by ≥10% on both axes before
        ``other`` is considered dominated.  Equal estimates never
        dominate each other, so ties (e.g. two configs the estimator
        cannot tell apart) all survive to the next funnel level.
        """
        scale = 1.0 + margin
        if self.latency_csteps * scale > other.latency_csteps:
            return False
        if self.area * scale > other.area:
            return False
        return (self.latency_csteps < other.latency_csteps
                or self.area < other.area)


def _dependence_bound(problem: SchedulingProblem) -> int:
    """Chaining-aware longest-path bound on the block's schedule length.

    ``critical_path()`` is delay-weighted and ignores chaining, so it
    can *overshoot* a legal schedule (free ops chain for 0 steps) —
    not admissible.  This walk instead accumulates the exact
    per-edge minimum start separations every legal schedule must
    respect (:meth:`SchedulingProblem.edge_offset`), then adds the
    final op's busy window, matching :attr:`Schedule.length`.
    """
    earliest: dict[int, int] = {}
    bound = 0
    for op_id in problem.topological():
        start = 0
        for pred in problem.graph.predecessors(op_id):
            start = max(start,
                        earliest[pred] + problem.edge_offset(pred, op_id))
        earliest[op_id] = start
        bound = max(bound, start + max(problem.delay(op_id), 1))
    return bound


def _op_width(op) -> int:
    """Result width of an op, falling back to its widest operand."""
    result = getattr(op, "result", None)
    width = getattr(getattr(result, "type", None), "width", None)
    if width is None:
        widths = [
            getattr(getattr(value, "type", None), "width", 0)
            for value in op.operands
        ]
        width = max(widths, default=0)
    return max(int(width or 0), 1)


class QoRModel:
    """Per-CDFG precomputation behind the QoR estimate.

    Build once per optimized CDFG, then call :meth:`estimate` per
    resource budget — the directive funnel scores one transform
    variant under many FU limits, and everything
    constraint-independent (dependence bounds, busy-step totals,
    class/width inventory) is computed exactly once here.
    """

    def __init__(self, cdfg: CDFG,
                 model: ResourceModel | None = None,
                 library: ComponentLibrary | None = None,
                 ranking_trips: int = DEFAULT_RANKING_TRIPS) -> None:
        self.cdfg = cdfg
        self.model = model or UniversalFUModel()
        self.library = library or ComponentLibrary()
        self.ranking_trips = ranking_trips
        #: block id → dependence lower bound on schedule length.
        self._dep_lb: dict[int, int] = {}
        #: block id → {class: total busy steps (occupancy sum)}.
        self._busy: dict[int, dict[str, int]] = {}
        #: class → (kinds seen, widest op, max ops in any one block).
        self._classes: dict[str, tuple[set, int, int]] = {}
        for block in cdfg.blocks():
            if not block.ops:
                continue
            problem = SchedulingProblem.from_block(block, self.model)
            self._dep_lb[block.id] = _dependence_bound(problem)
            busy: dict[str, int] = {}
            counts: dict[str, int] = {}
            for op in block.ops:
                cls = self.model.op_class(op)
                if cls is None:
                    continue
                busy[cls] = busy.get(cls, 0) + max(
                    self.model.occupancy(op), 1
                )
                counts[cls] = counts.get(cls, 0) + 1
                kinds, width, peak = self._classes.get(
                    cls, (set(), 1, 0)
                )
                kinds.add(op.kind)
                self._classes[cls] = (
                    kinds,
                    max(width, _op_width(op)),
                    peak,
                )
            self._busy[block.id] = busy
            for cls, count in counts.items():
                kinds, width, peak = self._classes[cls]
                self._classes[cls] = (kinds, width, max(peak, count))

    # Latency -----------------------------------------------------------

    def _block_lb(self, block_id: int,
                  constraints: ResourceConstraints) -> int:
        bound = self._dep_lb[block_id]
        for cls, busy in self._busy[block_id].items():
            limit = constraints.limit(cls)
            if limit:
                bound = max(bound, math.ceil(busy / limit))
        return bound

    def _latency(self, region: Region, lengths: dict[int, int],
                 minimum: bool) -> int:
        """Region-tree aggregation of per-block step bounds.

        ``minimum=True`` gives the sound lower bound (shorter branch
        arm, minimum loop execution); ``minimum=False`` mirrors
        :func:`~repro.scheduling.total_steps` for ranking.
        """
        if isinstance(region, BlockRegion):
            return lengths.get(region.block.id, 0)
        if isinstance(region, SeqRegion):
            return sum(
                self._latency(item, lengths, minimum)
                for item in region.items
            )
        if isinstance(region, IfRegion):
            cond = lengths.get(region.cond_block.id, 0)
            then_steps = self._latency(region.then_region, lengths,
                                       minimum)
            else_steps = (
                self._latency(region.else_region, lengths, minimum)
                if region.else_region is not None else 0
            )
            arm = min if minimum else max
            return cond + arm(then_steps, else_steps)
        if isinstance(region, LoopRegion):
            body = self._latency(region.body, lengths, minimum)
            if region.trip_count is not None:
                trips = region.trip_count
            elif minimum:
                # A pre-test loop may exit on its first test; a
                # post-test body always runs at least once.
                trips = 1 if region.test_in_body else 0
            else:
                trips = self.ranking_trips
            if region.test_in_body:
                return trips * body
            test = lengths.get(region.test_block.id, 0)
            return (trips + 1) * test + trips * body
        raise TypeError(f"unknown region {region!r}")

    def aggregate_latency(self, lengths: dict[int, int],
                          minimum: bool = False) -> int:
        """Aggregate per-block step counts over the region tree.

        The funnel's schedule-only level feeds *actual* schedule
        lengths through the same region arithmetic the estimates use
        (``minimum=False`` mirrors :func:`~repro.scheduling.total_steps`
        with ``ranking_trips`` for unknown-trip loops).
        """
        return self._latency(self.cdfg.body, lengths, minimum)

    # Area --------------------------------------------------------------

    def _fu_area(self, constraints: ResourceConstraints) -> float:
        total = 0.0
        for cls, (kinds, width, peak) in sorted(self._classes.items()):
            units = peak
            limit = constraints.limit(cls)
            if limit is not None:
                units = min(units, limit)
            supported = {
                kind for kind in kinds
                if any(kind in component.kinds
                       for component in self.library)
            }
            if not supported:
                # Pure register transfers (bare moves) — no FU needed.
                continue
            component = self.library.cheapest_for(supported, width)
            total += units * component.area(width)
        return total

    def _clock_ns(self) -> float:
        """Optimistic single-phase clock: the slowest class's cheapest
        component plus register setup (no multiplexing term —
        allocation decides muxes)."""
        slowest = 0.0
        for cls, (kinds, width, _) in self._classes.items():
            supported = {
                kind for kind in kinds
                if any(kind in component.kinds
                       for component in self.library)
            }
            if not supported:
                continue
            try:
                component = self.library.cheapest_for(supported, width)
            except BindingError:  # pragma: no cover - defensive
                continue
            slowest = max(slowest, component.delay_ns)
        return slowest + REGISTER_SETUP_NS

    # Entry point -------------------------------------------------------

    def estimate(self, constraints: ResourceConstraints | None = None,
                 ) -> QoREstimate:
        """Bound/estimate QoR under ``constraints`` (None = unlimited)."""
        constraints = constraints or ResourceConstraints.unlimited()
        lengths = {
            block_id: self._block_lb(block_id, constraints)
            for block_id in self._dep_lb
        }
        ranking = self._latency(self.cdfg.body, lengths, minimum=False)
        lower = self._latency(self.cdfg.body, lengths, minimum=True)
        # Registers for every declared port and variable, controller
        # states for every structurally distinct step.
        storage_bits = sum(
            getattr(port.type, "width", 0)
            for port in (*self.cdfg.inputs, *self.cdfg.outputs)
        ) + sum(
            getattr(type_, "width", 0)
            for type_ in self.cdfg.variables.values()
        )
        states = max(sum(lengths.values()), 1)
        state_bits = max(1, math.ceil(math.log2(states + 1)))
        area = (
            self._fu_area(constraints)
            + REGISTER_AREA_PER_BIT * storage_bits
            + CONTROLLER_AREA_PER_STATE_BIT * state_bits * states
        )
        return QoREstimate(
            latency_csteps=ranking,
            latency_lb_csteps=lower,
            area=area,
            clock_ns=self._clock_ns(),
        )
