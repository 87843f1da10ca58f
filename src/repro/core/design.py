"""The synthesized design: everything the flow produced, in one object.

A :class:`SynthesizedDesign` bundles the optimized CDFG, the per-block
schedules/allocations/plans, the module binding and the FSM controller.
It is what the RTL simulator executes, what the Verilog emitter prints,
and what the estimators measure.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..allocation.base import Allocation
from ..binding.binder import Binding
from ..controller.fsm import FSM
from ..datapath.plan import BlockPlan, StorageRef
from ..ir.cdfg import CDFG
from ..ir.types import bit_width
from ..scheduling.base import (
    ResourceConstraints,
    ResourceModel,
    Schedule,
)


@dataclass
class SynthesizedDesign:
    """Complete output of one synthesis run."""

    cdfg: CDFG
    model: ResourceModel
    constraints: ResourceConstraints
    schedules: dict[int, Schedule] = field(default_factory=dict)
    allocations: dict[int, Allocation] = field(default_factory=dict)
    plans: dict[int, BlockPlan] = field(default_factory=dict)
    binding: Binding | None = None
    fsm: FSM | None = None
    scheduler_name: str = "?"
    allocator_name: str = "?"
    #: Decision log — the paper's §1.2 "self-documenting design
    #: process": what each stage did and why, appended by the engine.
    log: list[str] = field(default_factory=list)

    # ------------------------------------------------------------------
    # Storage inventory
    # ------------------------------------------------------------------

    def storage_registers(self) -> dict[StorageRef, int]:
        """Every physical register with its width in bits.

        Variable registers take their declared width; each temp index
        takes the widest value ever stored in it (temps are shared
        across blocks — their lifetimes never cross block boundaries).
        """
        registers: dict[StorageRef, int] = {
            ("var", name): bit_width(type_)
            for name, type_ in self.cdfg.variables.items()
        }
        for plan in self.plans.values():
            results = {
                op.result.id: op.result
                for op in plan.block.ops if op.result is not None
            }
            for value_id, storage in plan.storage_of.items():
                if storage[0] != "tmp":
                    continue
                value = results.get(value_id)
                width = bit_width(value.type) if value is not None else 1
                registers[storage] = max(registers.get(storage, 0), width)
        return registers

    @property
    def register_count(self) -> int:
        return len(self.storage_registers())

    @property
    def temp_register_count(self) -> int:
        return sum(
            1 for ref in self.storage_registers() if ref[0] == "tmp"
        )

    @property
    def fu_count(self) -> int:
        instances = set()
        for allocation in self.allocations.values():
            instances.update(allocation.fu_map.values())
        return len(instances)

    @property
    def state_count(self) -> int:
        return self.fsm.state_count if self.fsm is not None else 0

    def stage_signatures(self) -> dict[str, tuple]:
        """Per-stage decision signatures, in pipeline order.

        Two designs synthesized from the same CDFG along different code
        paths (cached vs uncached, serial vs parallel, incremental vs
        reference) must produce *equal* signatures stage by stage; the
        differential engine compares them in order to name the first
        stage where two paths diverged.
        """
        # Blocks are keyed by their name (the problem label), not their
        # id — like op/value ids, block ids are process-local counters
        # and signatures must compare equal across processes.
        return {
            "scheduling": tuple(sorted(
                (schedule.problem.label, schedule.signature())
                for schedule in self.schedules.values()
            )),
            "allocation": tuple(sorted(
                (allocation.schedule.problem.label,
                 allocation.signature())
                for allocation in self.allocations.values()
            )),
            "binding": (
                () if self.binding is None else self.binding.signature()
            ),
            "controller": (
                () if self.fsm is None else self.fsm.signature()
            ),
        }

    def report(self) -> str:
        """A compact human-readable design summary."""
        lines = [f"design {self.cdfg.name}:"]
        lines.append(
            f"  scheduler={self.scheduler_name} "
            f"allocator={self.allocator_name} "
            f"constraints=({self.constraints})"
        )
        lines.append(
            f"  controller: {self.state_count} states; "
            f"datapath: {self.fu_count} FUs, "
            f"{self.register_count} registers "
            f"({self.temp_register_count} temps)"
        )
        if self.binding is not None:
            lines.append("  " + self.binding.report().replace("\n", "\n  "))
        return "\n".join(lines)

    def log_text(self) -> str:
        """The design-process log as one printable block."""
        return "\n".join(self.log)

    def to_dict(self) -> dict:
        """A JSON-serializable summary of the design (for tooling).

        Contains the structural inventory, per-block schedules (step →
        op descriptions) and the process log; no object references.
        """
        schedules = {}
        for block_id, schedule in sorted(self.schedules.items()):
            steps = []
            for step in range(schedule.length):
                cells = [
                    {
                        "op": op_id,
                        "what": schedule.problem.op(op_id).describe(),
                        "class": schedule.problem.op_class(op_id),
                    }
                    for op_id in schedule.ops_in_step(step)
                    if schedule.start[op_id] == step
                ]
                steps.append(cells)
            schedules[schedule.problem.label] = steps
        binding = {}
        if self.binding is not None:
            binding = {
                str(fu): {
                    "component": component.name,
                    "width": self.binding.widths[fu],
                }
                for fu, component in self.binding.components.items()
            }
        return {
            "name": self.cdfg.name,
            "scheduler": self.scheduler_name,
            "allocator": self.allocator_name,
            "constraints": str(self.constraints),
            "states": self.state_count,
            "functional_units": self.fu_count,
            "registers": self.register_count,
            "schedules": schedules,
            "binding": binding,
            "log": list(self.log),
        }
