"""Scheduling substrate: resource models, problems, schedules, checker.

Terminology follows the paper's §2: scheduling "consists in assigning
the operations to so-called control steps", where "a control step is
the fundamental sequencing unit in synchronous systems; it corresponds
to a clock cycle".

Model of time used throughout the package:

* An operation with delay ``d >= 1`` occupies control steps
  ``[start, start + d - 1]`` on its resource class (multicycle
  operations hold their functional unit for every step — non-pipelined
  units).
* An operation with delay ``0`` is *free*: it consumes no resource and
  is chained combinationally inside the step where its inputs settle.
  The paper's example: "the shift operation is free" — a constant
  shift is pure wiring.
* A data edge ``u -> v``: a free producer's value is available within
  its own step, so ``start(v) >= start(u)``.  A computing producer's
  value settles at the end of step ``end(u) = start(u) + delay(u) - 1``;
  a free consumer may chain into that same step
  (``start(v) >= end(u)``), while a computing consumer needs the next
  one (``start(v) >= end(u) + 1``).  :func:`dependence_offset` encodes
  this rule once for every scheduler and for the checker.

Every scheduler returns a :class:`Schedule`; :meth:`Schedule.validate`
is the single source of truth for legality, shared by all tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

from ..errors import SchedulingError
from ..ir.cdfg import CDFG, LoopRegion
from ..ir.dfg import dependence_graph, topological_order
from ..ir.graph import DiGraph, has_cycle
from ..ir.opcodes import OpKind, op_info
from ..ir.values import BasicBlock, Operation

# ----------------------------------------------------------------------
# Resource models
# ----------------------------------------------------------------------

_PLUMBING_KINDS = frozenset(
    {OpKind.CONST, OpKind.VAR_READ, OpKind.NOP, OpKind.MUX}
)


class ResourceModel:
    """Maps operations to resource classes and delays.

    ``op_class(op)`` returns the resource class the op competes for, or
    None when the op is free.  ``delay(op)`` returns the op's latency in
    control steps (0 for free ops).  Subclasses define concrete cost
    models; tests and benches use them to reproduce specific figures.
    """

    def op_class(self, op: Operation) -> str | None:
        raise NotImplementedError

    def delay(self, op: Operation) -> int:
        raise NotImplementedError

    def occupancy(self, op: Operation) -> int:
        """Control steps the op *holds its functional unit* for.

        Defaults to the full delay (non-pipelined units).  A pipelined
        unit accepts a new operation every ``occupancy`` steps while
        each result still takes ``delay`` steps to appear — the
        distinction Sehwa's pipelined datapaths rely on.
        """
        return self.delay(op)

    def cache_token(self) -> tuple | None:
        """Value-level identity for persistent cache keys.

        In-memory caches key models by object identity; the disk store
        (:mod:`repro.store`) needs a token that is equal across
        processes for models that behave identically.  The default —
        None — marks the model *unstorable*: designs built with it are
        cached in memory only, which is always safe.  Subclasses whose
        behavior is fully determined by plain-data configuration
        override this.
        """
        return None

    # Convenience -------------------------------------------------------

    def is_free(self, op: Operation) -> bool:
        return self.op_class(op) is None and self.delay(op) == 0

    def classes_used(self, ops: Iterable[Operation]) -> list[str]:
        """Sorted resource classes appearing among ``ops``."""
        found = {
            cls
            for op in ops
            if (cls := self.op_class(op)) is not None
        }
        return sorted(found)


def _shift_by_constant(op: Operation) -> bool:
    return (
        op.kind in (OpKind.SHL, OpKind.SHR)
        and op.operands[1].producer.kind is OpKind.CONST
    )


def _is_bare_move(op: Operation) -> bool:
    """A VAR_WRITE whose value comes straight from a CONST or VAR_READ —
    a pure register transfer with no computation attached."""
    if op.kind is not OpKind.VAR_WRITE:
        return False
    producer = op.operands[0].producer
    return producer.kind in (OpKind.CONST, OpKind.VAR_READ)


class UniversalFUModel(ResourceModel):
    """The paper's §2 cost model: one kind of functional unit.

    Every computational operation runs on a universal FU in one control
    step.  Shifts by constants are free ("the shift operation is
    free").  Bare register moves (``I := 0``) cost a step on the FU
    when ``count_bare_moves`` is set — that is the paper's "trivial
    special case [with] just one functional unit and one memory" in
    which *every* operation, moves included, lands in its own step
    (3 + 4x5 = 23); with two FUs the same model gives 2 + 4x2 = 10.

    Memory LOAD/STORE ops occupy the ``mem`` class (one step).
    """

    def __init__(self, count_bare_moves: bool = True,
                 memory_class: str = "mem") -> None:
        self._count_bare_moves = count_bare_moves
        self._memory_class = memory_class

    def op_class(self, op: Operation) -> str | None:
        if op.kind in _PLUMBING_KINDS:
            return None
        if op.kind in (OpKind.LOAD, OpKind.STORE):
            return self._memory_class
        if op.kind is OpKind.VAR_WRITE:
            if self._count_bare_moves and _is_bare_move(op):
                return "fu"
            return None
        if _shift_by_constant(op):
            return None
        return "fu"

    def delay(self, op: Operation) -> int:
        return 0 if self.op_class(op) is None else 1

    def cache_token(self) -> tuple:
        return ("universal", self._count_bare_moves, self._memory_class)


DEFAULT_TYPED_DELAYS: dict[str, int] = {
    "add": 1,
    "mul": 2,
    "div": 4,
    "shift": 1,
    "logic": 1,
    "cmp": 1,
    "mem": 1,
}


class TypedFUModel(ResourceModel):
    """Typed functional units (adders, multipliers, …) with per-class
    delays — the model used by the classic HAL/EWF benchmark results.

    Args:
        delays: control-step latency per class; unlisted classes get 1.
        single_cycle: force every delay to 1 (many published baselines
            assume unit delays).
        free_const_shifts: constant shifts are wiring (default True).
    """

    def __init__(self, delays: Mapping[str, int] | None = None,
                 single_cycle: bool = False,
                 free_const_shifts: bool = True,
                 pipelined_classes: Iterable[str] = ()) -> None:
        self._delays = dict(DEFAULT_TYPED_DELAYS)
        if delays:
            self._delays.update(delays)
        if single_cycle:
            self._delays = {key: 1 for key in self._delays}
        self._free_const_shifts = free_const_shifts
        self._pipelined = frozenset(pipelined_classes)

    def op_class(self, op: Operation) -> str | None:
        if op.kind in _PLUMBING_KINDS or op.kind is OpKind.VAR_WRITE:
            return None
        if self._free_const_shifts and _shift_by_constant(op):
            return None
        return op_info(op.kind).fu_class

    def delay(self, op: Operation) -> int:
        cls = self.op_class(op)
        if cls is None:
            return 0
        return self._delays.get(cls, 1)

    def occupancy(self, op: Operation) -> int:
        cls = self.op_class(op)
        if cls is None:
            return 0
        if cls in self._pipelined:
            return 1
        return self._delays.get(cls, 1)

    def cache_token(self) -> tuple:
        return (
            "typed",
            tuple(sorted(self._delays.items())),
            self._free_const_shifts,
            tuple(sorted(self._pipelined)),
        )


# ----------------------------------------------------------------------
# Problems
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ResourceConstraints:
    """Per-class unit counts available to the scheduler.

    ``limits[cls]`` is the number of units of that class; classes not
    present are unlimited.  ``unlimited()`` builds the empty constraint.
    Every limit must be an integer of at least 1: no schedule fits a
    class with no units, so such a budget is rejected up front rather
    than left to each scheduler's search.
    """

    limits: Mapping[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for resource_class, count in self.limits.items():
            if (isinstance(count, bool) or not isinstance(count, int)
                    or count < 1):
                raise SchedulingError(
                    f"unit limit for class {resource_class!r} must be "
                    f"an integer >= 1, got {count!r}"
                )

    @classmethod
    def unlimited(cls) -> "ResourceConstraints":
        return cls({})

    def limit(self, resource_class: str) -> int | None:
        return self.limits.get(resource_class)

    def __str__(self) -> str:
        if not self.limits:
            return "unlimited"
        return ", ".join(f"{k}={v}" for k, v in sorted(self.limits.items()))


def dependence_offset(delay_u: int, delay_v: int) -> int:
    """Minimum ``start(v) - start(u)`` along a dependence edge.

    Encodes the chaining rule documented in the module docstring.
    """
    if delay_u == 0:
        return 0
    if delay_v == 0:
        return delay_u - 1
    return delay_u


@dataclass(frozen=True)
class TimingConstraint:
    """A designer-imposed bound between two operations' start steps.

    ``min_offset <= start(to_op) - start(from_op) <= max_offset``
    (either bound may be None).  These model the paper's §4 "local
    timing constraints" (Nestor, Borriello): interface protocols that
    require two operations a fixed distance apart.

    Minimum offsets (>= 0) are folded into the dependence graph so
    constructive schedulers honour them natively; maximum offsets are
    enforced by the checker and by the branch-and-bound search.
    """

    from_op: int
    to_op: int
    min_offset: int | None = None
    max_offset: int | None = None

    def __post_init__(self) -> None:
        if self.min_offset is None and self.max_offset is None:
            raise SchedulingError("timing constraint with no bounds")
        if (
            self.min_offset is not None
            and self.max_offset is not None
            and self.min_offset > self.max_offset
        ):
            raise SchedulingError(
                f"empty timing window [{self.min_offset}, "
                f"{self.max_offset}]"
            )


class SchedulingProblem:
    """One scheduling region: ops + dependences + model + constraints.

    A region is normally one basic block (loop boundaries delimit
    regions, as in the paper's Fig. 2 where dummy nodes mark the loop).

    The dependence graph, model and constraints are fixed after
    construction, so derived queries (topological order, per-op delays
    and classes, per-edge offsets, critical path) are memoized.  The
    cached topological order is shared — treat the returned list as
    immutable.

    ``live_out`` holds the variables live out of the region when the
    synthesis engine has solved liveness for its CDFG (None otherwise);
    :func:`repro.analysis.liveness.live_out_variables` reads it.
    """

    def __init__(self, ops: list[Operation], model: ResourceModel,
                 constraints: ResourceConstraints | None = None,
                 time_limit: int | None = None,
                 label: str = "region",
                 timing_constraints: list[TimingConstraint] | None = None,
                 ) -> None:
        self.ops = list(ops)
        self.model = model
        self.constraints = constraints or ResourceConstraints.unlimited()
        self.time_limit = time_limit
        self.label = label
        self.graph: DiGraph = dependence_graph(self.ops)
        self._by_id = {op.id: op for op in self.ops}
        self.timing_constraints = list(timing_constraints or [])
        self._topo_cache: list[int] | None = None
        self._critical_cache: int | None = None
        self._path_lengths_cache: dict[int, int] | None = None
        self._delay_cache: dict[int, int] = {}
        self._occupancy_cache: dict[int, int] = {}
        self._class_cache: dict[int, str | None] = {}
        self._offset_cache: dict[tuple[int, int], int] = {}
        self.live_out: frozenset[str] | None = None
        self._fold_min_offsets()

    def _fold_min_offsets(self) -> None:
        """Fold non-negative minimum offsets into the dependence graph
        so every constructive scheduler honours them natively."""
        for constraint in self.timing_constraints:
            for op_id in (constraint.from_op, constraint.to_op):
                if op_id not in self._by_id:
                    raise SchedulingError(
                        f"timing constraint names unknown op{op_id}"
                    )
            if constraint.min_offset is None or constraint.min_offset < 0:
                continue
            u, v = constraint.from_op, constraint.to_op
            existing = self.graph.get_edge_data(u, v)
            if existing is None:
                self.graph.add_edge(
                    u, v, reason="timing",
                    min_offset=constraint.min_offset,
                )
            else:
                existing["min_offset"] = max(
                    existing.get("min_offset", 0), constraint.min_offset
                )
            if has_cycle(self.graph):
                raise SchedulingError(
                    f"timing constraint op{u}->op{v} creates a cycle"
                )

    # Constructors ------------------------------------------------------

    @classmethod
    def from_block(cls, block: BasicBlock, model: ResourceModel,
                   constraints: ResourceConstraints | None = None,
                   time_limit: int | None = None) -> "SchedulingProblem":
        return cls(list(block.ops), model, constraints, time_limit,
                   label=block.name)

    def with_constraints(
        self, constraints: ResourceConstraints | None
    ) -> "SchedulingProblem":
        """A problem over the same region under different constraints.

        Shares the dependence graph, every structure-derived memo and
        the live-out set with the original (none of them depend on the
        constraints); design-space exploration uses this to rescore one
        region under many budgets without rebuilding it.  The shared
        graph must be treated as immutable.
        """
        clone = object.__new__(SchedulingProblem)
        clone.ops = self.ops
        clone.model = self.model
        clone.constraints = constraints or ResourceConstraints.unlimited()
        clone.time_limit = self.time_limit
        clone.label = self.label
        clone.graph = self.graph
        clone._by_id = self._by_id
        clone.timing_constraints = self.timing_constraints
        # Warm the scalar memos so every sibling problem inherits them
        # (the dict memos are shared live either way).
        self.topological()
        self.critical_path()
        clone._topo_cache = self._topo_cache
        clone._critical_cache = self._critical_cache
        clone._path_lengths_cache = self._path_lengths_cache
        clone._delay_cache = self._delay_cache
        clone._occupancy_cache = self._occupancy_cache
        clone._class_cache = self._class_cache
        clone._offset_cache = self._offset_cache
        clone.live_out = self.live_out
        return clone

    # Queries -----------------------------------------------------------

    def op(self, op_id: int) -> Operation:
        return self._by_id[op_id]

    def edge_offset(self, u: int, v: int) -> int:
        """Minimum ``start(v) - start(u)`` for graph edge ``u -> v``:
        the chaining rule, raised by any folded timing minimum."""
        cached = self._offset_cache.get((u, v))
        if cached is not None:
            return cached
        data = self.graph.edges[u, v]
        if data.get("reason") == "timing":
            base = 0
        else:
            base = dependence_offset(self.delay(u), self.delay(v))
        offset = max(base, data.get("min_offset", 0))
        self._offset_cache[(u, v)] = offset
        return offset

    def delay(self, op_id: int) -> int:
        try:
            return self._delay_cache[op_id]
        except KeyError:
            pass
        delay = self.model.delay(self._by_id[op_id])
        self._delay_cache[op_id] = delay
        return delay

    def occupancy(self, op_id: int) -> int:
        try:
            return self._occupancy_cache[op_id]
        except KeyError:
            pass
        occupancy = self.model.occupancy(self._by_id[op_id])
        self._occupancy_cache[op_id] = occupancy
        return occupancy

    def op_class(self, op_id: int) -> str | None:
        try:
            return self._class_cache[op_id]
        except KeyError:
            pass
        cls = self.model.op_class(self._by_id[op_id])
        self._class_cache[op_id] = cls
        return cls

    def topological(self) -> list[int]:
        """Deterministic topological order (cached — do not mutate)."""
        if self._topo_cache is None:
            self._topo_cache = topological_order(self.graph)
        return self._topo_cache

    def compute_op_ids(self) -> list[int]:
        """Ids of ops that consume a resource (non-free), sorted."""
        return sorted(
            op.id for op in self.ops if self.op_class(op.id) is not None
        )

    def path_lengths_to_sink(self) -> dict[int, int]:
        """Delay-weighted longest path from each op to any sink
        (cached — the list scheduler's priority and the critical path
        both read it)."""
        if self._path_lengths_cache is None:
            from ..ir.dfg import path_length_to_sink

            self._path_lengths_cache = path_length_to_sink(
                self.graph, self.model.delay, order=self.topological()
            )
        return self._path_lengths_cache

    def critical_path(self) -> int:
        if self._critical_cache is None:
            self._critical_cache = max(
                self.path_lengths_to_sink().values(), default=0
            )
        return self._critical_cache


# ----------------------------------------------------------------------
# Schedules
# ----------------------------------------------------------------------


class Schedule:
    """An assignment of every operation to a start control step."""

    # Sweeps hold one Schedule per (block, design point); slots keep
    # the per-instance cost to the three fields.  Subclasses that add
    # state (PipelineSchedule) get a __dict__ as usual.
    __slots__ = ("problem", "start", "scheduler")

    def __init__(self, problem: SchedulingProblem,
                 start: Mapping[int, int],
                 scheduler: str = "?") -> None:
        self.problem = problem
        self.start = dict(start)
        self.scheduler = scheduler

    # Time accounting ---------------------------------------------------

    def end(self, op_id: int) -> int:
        """Last control step the op is active in."""
        return self.start[op_id] + max(self.problem.delay(op_id), 1) - 1

    @property
    def length(self) -> int:
        """Number of control steps used (0 for an empty region)."""
        if not self.start:
            return 0
        return max(self.end(op_id) for op_id in self.start) + 1

    def ops_in_step(self, step: int) -> list[int]:
        """Ids of ops active during ``step`` (sorted)."""
        return sorted(
            op_id
            for op_id in self.start
            if self.start[op_id] <= step <= self.end(op_id)
        )

    def steps(self) -> list[list[int]]:
        """Op ids active in each step, index = control step."""
        return [self.ops_in_step(step) for step in range(self.length)]

    def busy_usage(self) -> dict[tuple[int, str], int]:
        """Units held per (step, class): pipelined units are only
        busy for their occupancy window, not their full latency."""
        usage: dict[tuple[int, str], int] = {}
        for op_id in self.start:
            cls = self.problem.op_class(op_id)
            if cls is None:
                continue
            begin = self.start[op_id]
            for k in range(self.problem.occupancy(op_id)):
                usage[(begin + k, cls)] = usage.get(
                    (begin + k, cls), 0
                ) + 1
        return usage

    def resource_usage(self) -> dict[str, int]:
        """Peak simultaneous units used per resource class."""
        peak: dict[str, int] = {}
        for (_, cls), used in self.busy_usage().items():
            peak[cls] = max(peak.get(cls, 0), used)
        return peak

    # Legality ----------------------------------------------------------

    def validate(self) -> None:
        """Raise :class:`SchedulingError` unless the schedule is legal:

        * every op scheduled, at a non-negative step;
        * every dependence respected (with free-op chaining);
        * no step uses more units of a class than the constraints allow;
        * the time limit (when given) is met.
        """
        problem = self.problem
        for op in problem.ops:
            if op.id not in self.start:
                raise SchedulingError(
                    f"[{self.scheduler}] op{op.id} not scheduled"
                )
            if self.start[op.id] < 0:
                raise SchedulingError(
                    f"[{self.scheduler}] op{op.id} at negative step"
                )
        for u, v in problem.graph.edges:
            earliest = self.start[u] + problem.edge_offset(u, v)
            if self.start[v] < earliest:
                raise SchedulingError(
                    f"[{self.scheduler}] dependence violated: "
                    f"op{u}@{self.start[u]} -> op{v}@{self.start[v]} "
                    f"(earliest legal start {earliest})"
                )
        for constraint in problem.timing_constraints:
            distance = (
                self.start[constraint.to_op]
                - self.start[constraint.from_op]
            )
            if (
                constraint.min_offset is not None
                and distance < constraint.min_offset
            ):
                raise SchedulingError(
                    f"[{self.scheduler}] timing minimum violated: "
                    f"op{constraint.from_op}->op{constraint.to_op} "
                    f"distance {distance} < {constraint.min_offset}"
                )
            if (
                constraint.max_offset is not None
                and distance > constraint.max_offset
            ):
                raise SchedulingError(
                    f"[{self.scheduler}] timing maximum violated: "
                    f"op{constraint.from_op}->op{constraint.to_op} "
                    f"distance {distance} > {constraint.max_offset}"
                )
        for (step, cls), used in sorted(self.busy_usage().items()):
            limit = problem.constraints.limit(cls)
            if limit is not None and used > limit:
                raise SchedulingError(
                    f"[{self.scheduler}] step {step} uses {used} "
                    f"{cls!r} units, limit {limit}"
                )
        if problem.time_limit is not None and self.length > problem.time_limit:
            raise SchedulingError(
                f"[{self.scheduler}] schedule length {self.length} exceeds "
                f"time limit {problem.time_limit}"
            )

    def signature(self) -> tuple:
        """Hashable identity of the schedule's decisions (op → start),
        for caching and for stage-level differential comparison.

        Ops are identified by their *position* in the problem's op
        order, not their raw id.  Ids are numbered per CDFG, so two
        compiles of one source agree on them, but transforms,
        unrolling, cloning and source edits renumber them — and
        signatures must compare equal across graphs that differ only
        in numbering.
        """
        return tuple(
            (index, self.start[op.id])
            for index, op in enumerate(self.problem.ops)
            if op.id in self.start
        )

    # Rendering ---------------------------------------------------------

    def table(self) -> str:
        """Human-readable step table (for reports and benches)."""
        lines = [f"schedule[{self.scheduler}] for {self.problem.label}: "
                 f"{self.length} steps"]
        for step, op_ids in enumerate(self.steps()):
            cells = []
            for op_id in op_ids:
                if self.start[op_id] != step:
                    continue  # show multicycle ops at their start only
                op = self.problem.op(op_id)
                cls = self.problem.op_class(op_id)
                tag = f"[{cls}]" if cls else "[free]"
                cells.append(f"op{op_id}:{op.describe()}{tag}")
            lines.append(f"  step {step}: " + "; ".join(cells))
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"<Schedule {self.scheduler} {self.problem.label}: "
            f"{self.length} steps, {len(self.start)} ops>"
        )


class Scheduler:
    """Base class: construct with a problem, call :meth:`schedule`."""

    name = "scheduler"

    def __init__(self, problem: SchedulingProblem) -> None:
        self.problem = problem

    def schedule(self) -> Schedule:
        raise NotImplementedError


# ----------------------------------------------------------------------
# Whole-procedure accounting
# ----------------------------------------------------------------------


def total_steps(cdfg: CDFG, block_lengths: Mapping[int, int],
                default_trips: int = 1) -> int:
    """Total control steps for one activation of the procedure.

    Sums block schedule lengths over the region tree, multiplying loop
    bodies by their trip counts (``default_trips`` when unknown) —
    the paper's ``3 + 4x5 = 23`` arithmetic.  Branches contribute the
    *longer* arm (worst case).
    """
    from ..ir.cdfg import BlockRegion, IfRegion, Region, SeqRegion

    def steps_of(region: Region) -> int:
        if isinstance(region, BlockRegion):
            return block_lengths.get(region.block.id, 0)
        if isinstance(region, SeqRegion):
            return sum(steps_of(item) for item in region.items)
        if isinstance(region, IfRegion):
            cond = block_lengths.get(region.cond_block.id, 0)
            then_steps = steps_of(region.then_region)
            else_steps = (
                steps_of(region.else_region)
                if region.else_region is not None
                else 0
            )
            return cond + max(then_steps, else_steps)
        if isinstance(region, LoopRegion):
            trips = region.trip_count or default_trips
            body = steps_of(region.body)
            if region.test_in_body:
                return trips * body
            test = block_lengths.get(region.test_block.id, 0)
            return (trips + 1) * test + trips * body
        raise SchedulingError(f"unknown region {region!r}")

    return steps_of(cdfg.body)
