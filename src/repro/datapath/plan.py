"""Datapath planning: mapping scheduled/allocated values onto physical
storage, and deriving the per-step micro-operations the controller must
drive.

Physical storage model:

* every scalar **variable** owns an architectural register (the value a
  variable carries between blocks and across loop iterations lives
  there — what the paper calls assigning values to storage);
* intra-block temporaries use **temp registers**, one per allocation
  register index (the allocators already guarantee lifetime-disjoint
  sharing within a block; across blocks temps are trivially reusable
  because temporaries never cross block boundaries);
* every **memory** (array variable) is an addressable RAM.

A value written to a variable is latched straight into the variable's
register at the end of its defining step whenever that is safe (the
variable's incoming value has no later readers); otherwise it is kept
in its temp register and copied into the variable register at the end
of the block's final step — a deferred write-back.  This resolves the
read/write hazard without constraining the scheduler.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..allocation.base import Allocation
from ..allocation.lifetimes import ValueLifetime, compute_lifetimes
from ..analysis.liveness import live_out_variables
from ..errors import AllocationError
from ..ir.opcodes import OpKind
from ..ir.values import BasicBlock, Operation, Value
from ..scheduling.base import Schedule

StorageRef = tuple
# ("var", name) | ("tmp", index)


@dataclass(frozen=True)
class Latch:
    """A register load at the end of a control step.

    Attributes:
        target: destination storage.
        value: the value latched (source resolved by the simulator:
            this step's wire if freshly produced, else the value's
            storage for deferred copies).
        step: control step at whose end the load-enable fires.
    """

    target: StorageRef
    value: Value
    step: int


@dataclass(frozen=True)
class MemoryWrite:
    """A memory store committed at the end of a control step."""

    memory: str
    op: Operation  # the STORE op (operands: index, value)
    step: int


@dataclass
class BlockPlan:
    """Micro-operation table for one scheduled, allocated block."""

    block: BasicBlock
    schedule: Schedule
    allocation: Allocation
    #: value id -> physical storage, for every registered value.
    storage_of: dict[int, StorageRef] = field(default_factory=dict)
    #: ops starting at each step, topologically ordered within the step.
    starts: list[list[Operation]] = field(default_factory=list)
    latches: list[Latch] = field(default_factory=list)
    memory_writes: list[MemoryWrite] = field(default_factory=list)
    #: ``latches`` and ``memory_writes`` grouped by step, each group in
    #: list order; the emitters and the RTL simulator read one step at
    #: a time.
    latches_by_step: dict[int, list[Latch]] = field(default_factory=dict)
    memory_writes_by_step: dict[int, list[MemoryWrite]] = field(
        default_factory=dict)

    @property
    def steps(self) -> int:
        return max(len(self.starts), 1) if self.block.ops else 0

    def latches_at(self, step: int) -> list[Latch]:
        return self.latches_by_step.get(step, [])

    def memory_writes_at(self, step: int) -> list[MemoryWrite]:
        return self.memory_writes_by_step.get(step, [])


def plan_block(block: BasicBlock, schedule: Schedule,
               allocation: Allocation,
               live_out_values: set[int] | None = None) -> BlockPlan:
    """Derive the micro-operation table for one block.

    Args:
        block: the block (must be the one the schedule covers).
        schedule: a validated schedule of the block.
        allocation: a validated allocation of that schedule.
        live_out_values: ids of values the controller reads at the end
            of the block (region conditions); they are kept readable
            through the final step.
    """
    plan = BlockPlan(block, schedule, allocation)
    live_out_values = live_out_values or set()
    length = schedule.length
    if not block.ops:
        return plan

    # Step -> ops starting there, in block (topological) order.
    plan.starts = [[] for _ in range(length)]
    for op in block.ops:
        plan.starts[schedule.start[op.id]].append(op)

    live_out_vars = live_out_variables(schedule)
    lifetimes = compute_lifetimes(schedule, live_out_vars)
    by_value: dict[int, ValueLifetime] = {
        lt.value.id: lt for lt in lifetimes
    }

    # Ensure region conditions survive to the final step.
    for value_id in live_out_values:
        if value_id in by_value:
            lifetime = by_value[value_id]
            lifetime.last_use = max(lifetime.last_use, length - 1)
        else:
            value = _find_value(block, value_id)
            def_step = (
                -1
                if value.producer.kind is OpKind.VAR_READ
                else schedule.end(value.producer.id)
            )
            if def_step < length - 1:
                lifetime = ValueLifetime(value, def_step, length - 1)
                lifetimes.append(lifetime)
                by_value[value_id] = lifetime
                if value_id not in allocation.register_map:
                    # Give the condition its own register slot.
                    next_reg = (
                        max(allocation.register_map.values(), default=-1)
                        + 1
                    )
                    allocation.register_map[value_id] = next_reg

    incoming_last_use = _incoming_last_uses(block, schedule)

    # Storage assignment per registered value.
    for lifetime in lifetimes:
        value = lifetime.value
        producer = value.producer
        if producer.kind is OpKind.VAR_READ:
            plan.storage_of[value.id] = ("var", producer.attrs["var"])
            continue
        register = allocation.register_map.get(value.id)
        if register is None:
            raise AllocationError(
                f"value {value!r} needs storage but is unallocated"
            )
        plan.storage_of[value.id] = ("tmp", register)
        plan.latches.append(
            Latch(("tmp", register), value, lifetime.def_step)
        )

    # Variable write-backs.
    for op in block.ops:
        if op.kind is not OpKind.VAR_WRITE:
            continue
        var = op.attrs["var"]
        value = op.operands[0]
        avail = (
            0
            if value.producer.kind in (OpKind.VAR_READ, OpKind.CONST)
            else schedule.end(value.producer.id)
        )
        avail = max(avail, schedule.start[op.id])
        hazard_until = incoming_last_use.get(var, -1)
        write_step = max(avail, hazard_until, 0)
        write_step = min(write_step, length - 1) if length else 0
        if write_step < avail:
            raise AllocationError(
                f"variable {var!r} write cannot fit in block "
                f"{block.name}"
            )
        if write_step > avail and value.id not in plan.storage_of:
            if live_out_vars is not None and var not in live_out_vars:
                # A dead store whose deferral slot has no backing
                # register: nothing downstream reads the variable, so
                # the write-back is simply dropped.
                continue
            raise AllocationError(
                f"deferred write of {var!r} needs {value!r} stored, "
                f"but it has no register"
            )
        plan.latches.append(Latch(("var", var), value, write_step))

    # If a value's only storage purpose was carrying into its variable
    # and the variable latch happens at the same step, drop the
    # redundant temp latch (keeps the register count honest).
    plan.latches = _prune_redundant_temp_latches(plan, by_value, length)

    # Memory stores commit at the end of their step.
    for op in block.ops:
        if op.kind is OpKind.STORE:
            plan.memory_writes.append(
                MemoryWrite(op.attrs["memory"], op, schedule.end(op.id))
            )
    for latch in plan.latches:
        plan.latches_by_step.setdefault(latch.step, []).append(latch)
    for write in plan.memory_writes:
        plan.memory_writes_by_step.setdefault(write.step, []).append(write)
    return plan


def _find_value(block: BasicBlock, value_id: int) -> Value:
    for op in block.ops:
        if op.result is not None and op.result.id == value_id:
            return op.result
    raise AllocationError(f"value v{value_id} not found in {block.name}")


def _incoming_last_uses(block: BasicBlock,
                        schedule: Schedule) -> dict[str, int]:
    """Per variable, the last step its *incoming* value is read at
    (from ops that consume the VAR_READ result)."""
    last_use: dict[str, int] = {}
    for op in block.ops:
        if op.kind is not OpKind.VAR_READ:
            continue
        var = op.attrs["var"]
        latest = -1
        for user, _ in op.result.uses:
            if user.kind is OpKind.VAR_WRITE:
                continue
            latest = max(latest, schedule.start[user.id])
        last_use[var] = max(last_use.get(var, -1), latest)
    return last_use


def _prune_redundant_temp_latches(
    plan: BlockPlan, by_value: dict[int, ValueLifetime], length: int
) -> list[Latch]:
    """Drop temp latches for values whose every read is served by the
    wire or by the variable register they are written back to."""
    # Per value, its earliest variable latch (the first one in list
    # order among those at that step).
    var_latch_step: dict[int, int] = {}
    var_latch_target: dict[int, StorageRef] = {}
    for latch in plan.latches:
        if latch.target[0] == "var":
            step = var_latch_step.get(latch.value.id)
            if step is None or latch.step < step:
                var_latch_step[latch.value.id] = latch.step
                var_latch_target[latch.value.id] = latch.target

    kept: list[Latch] = []
    for latch in plan.latches:
        if latch.target[0] != "tmp":
            kept.append(latch)
            continue
        lifetime = by_value.get(latch.value.id)
        var_step = var_latch_step.get(latch.value.id)
        # The temp is redundant if the variable register receives the
        # value at its definition step and no in-block reader needs the
        # temp before the variable copy lands.
        if (
            lifetime is not None
            and var_step is not None
            and var_step == lifetime.def_step
            and len(var_latch_step) > 0
        ):
            # Readers can use the variable register instead.
            plan.storage_of[latch.value.id] = (
                var_latch_target[latch.value.id])
            continue
        kept.append(latch)
    return kept
