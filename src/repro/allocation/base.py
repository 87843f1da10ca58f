"""Allocation substrate: the result container and the legality checker.

§2: "Allocation consists in assigning the operations to hardware, i.e.
allocating functional units, storage and communication paths."  An
:class:`Allocation` records the first two (operation → FU instance,
value → register); communication paths are derived from it by
:mod:`repro.allocation.interconnect`.

As with scheduling, a single checker (:meth:`Allocation.validate`) is
the source of truth all allocators and tests share.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..analysis.liveness import live_out_variables
from ..errors import AllocationError
from ..scheduling.base import Schedule
from .lifetimes import ValueLifetime, compute_lifetimes


@dataclass(frozen=True)
class FUInstance:
    """One functional-unit instance: a resource class plus an index."""

    cls: str
    index: int

    def __str__(self) -> str:
        return f"{self.cls}{self.index}"


@dataclass
class Allocation:
    """Operation→FU and value→register assignment for one schedule.

    Attributes:
        schedule: the schedule this allocation implements.
        fu_map: op id → FU instance, for every resource-using op.
        register_map: value id → register index, for every
            register-needing value.
        allocator: name of the algorithm that produced it.
    """

    schedule: Schedule
    fu_map: dict[int, FUInstance] = field(default_factory=dict)
    register_map: dict[int, int] = field(default_factory=dict)
    allocator: str = "?"

    # Summary metrics ---------------------------------------------------

    def fu_count(self, cls: str | None = None) -> int:
        instances = set(self.fu_map.values())
        if cls is not None:
            instances = {fu for fu in instances if fu.cls == cls}
        return len(instances)

    def fu_instances(self) -> list[FUInstance]:
        return sorted(set(self.fu_map.values()),
                      key=lambda fu: (fu.cls, fu.index))

    @property
    def register_count(self) -> int:
        return len(set(self.register_map.values()))

    def ops_on(self, fu: FUInstance) -> list[int]:
        return sorted(
            op_id for op_id, unit in self.fu_map.items() if unit == fu
        )

    def values_in(self, register: int) -> list[int]:
        return sorted(
            value_id
            for value_id, reg in self.register_map.items()
            if reg == register
        )

    def signature(self) -> tuple:
        """Hashable identity of the allocation's decisions (op → FU,
        value → register), for caching and for stage-level differential
        comparison.

        Ops and values are identified by the producing op's position in
        the problem's op order, not by raw ids.  Ids are numbered per
        CDFG, so two compiles of one source agree on them, but
        transforms, unrolling, cloning and source edits renumber them —
        and signatures must compare equal across graphs that differ
        only in numbering.
        """
        problem = self.schedule.problem
        op_index = {op.id: index for index, op in enumerate(problem.ops)}
        value_index = {
            op.result.id: index
            for index, op in enumerate(problem.ops)
            if op.result is not None
        }
        return (
            tuple(sorted(
                (op_index[op_id], (fu.cls, fu.index))
                for op_id, fu in self.fu_map.items()
            )),
            tuple(sorted(
                (value_index.get(value_id, -1), register)
                for value_id, register in self.register_map.items()
            )),
        )

    # Legality ----------------------------------------------------------

    def validate(self) -> None:
        """Raise :class:`AllocationError` unless:

        * every resource-using op is mapped to an FU of its class;
        * no FU instance runs two ops in overlapping steps;
        * every register-needing value is mapped to a register;
        * no register holds two values with overlapping lifetimes.
        """
        schedule = self.schedule
        problem = schedule.problem

        for op in problem.ops:
            cls = problem.op_class(op.id)
            if cls is None:
                continue
            fu = self.fu_map.get(op.id)
            if fu is None:
                raise AllocationError(
                    f"[{self.allocator}] op{op.id} has no functional unit"
                )
            if fu.cls != cls:
                raise AllocationError(
                    f"[{self.allocator}] op{op.id} ({cls}) bound to "
                    f"{fu} of wrong class"
                )

        by_unit: dict[FUInstance, list[int]] = {}
        for op_id, fu in self.fu_map.items():
            by_unit.setdefault(fu, []).append(op_id)
        for fu, op_ids in by_unit.items():
            spans = sorted(
                (schedule.start[op_id], busy_end(schedule, op_id), op_id)
                for op_id in op_ids
            )
            for (s1, e1, op1), (s2, e2, op2) in zip(spans, spans[1:]):
                if s2 <= e1:
                    raise AllocationError(
                        f"[{self.allocator}] {fu} runs op{op1} "
                        f"[{s1},{e1}] and op{op2} [{s2},{e2}] "
                        f"simultaneously"
                    )

        lifetimes = compute_lifetimes(schedule,
                                      live_out_variables(schedule))
        for lifetime in lifetimes:
            if lifetime.value.id not in self.register_map:
                raise AllocationError(
                    f"[{self.allocator}] {lifetime.value!r} needs a "
                    f"register but has none"
                )
        by_register: dict[int, list[ValueLifetime]] = {}
        for lifetime in lifetimes:
            register = self.register_map[lifetime.value.id]
            by_register.setdefault(register, []).append(lifetime)
        for register, held in by_register.items():
            held.sort(key=lambda lt: (lt.def_step, lt.value.id))
            for first, second in zip(held, held[1:]):
                if first.conflicts_with(second):
                    raise AllocationError(
                        f"[{self.allocator}] register r{register} holds "
                        f"overlapping values {first.value!r} and "
                        f"{second.value!r}"
                    )

    def report(self) -> str:
        """Human-readable summary (used by examples and benches)."""
        lines = [
            f"allocation[{self.allocator}] for "
            f"{self.schedule.problem.label}:"
        ]
        for fu in self.fu_instances():
            ops = ", ".join(f"op{i}" for i in self.ops_on(fu))
            lines.append(f"  {fu}: {ops}")
        registers = sorted(set(self.register_map.values()))
        for register in registers:
            values = ", ".join(f"v{i}" for i in self.values_in(register))
            lines.append(f"  r{register}: {values}")
        return "\n".join(lines)


class Allocator:
    """Base class: construct with a schedule, call :meth:`allocate`."""

    name = "allocator"

    def __init__(self, schedule: Schedule) -> None:
        self.schedule = schedule

    def allocate(self) -> Allocation:
        raise NotImplementedError


def busy_end(schedule: Schedule, op_id: int) -> int:
    """Last step the op *holds* its unit (its occupancy window end —
    equal to ``end()`` for non-pipelined units)."""
    occupancy = max(schedule.problem.occupancy(op_id), 1)
    return schedule.start[op_id] + occupancy - 1


def ops_compatible(schedule: Schedule, op_a: int, op_b: int) -> bool:
    """Two ops can share an FU iff same class and disjoint *occupancy*
    windows ("mutually exclusive operations … clearly can share
    functional units"; pipelined units overlap in latency but not in
    occupancy)."""
    problem = schedule.problem
    if problem.op_class(op_a) != problem.op_class(op_b):
        return False
    return (
        busy_end(schedule, op_a) < schedule.start[op_b]
        or busy_end(schedule, op_b) < schedule.start[op_a]
    )
