"""Cycle-accurate simulation of a synthesized design (FSM + datapath).

The simulator executes the controller state by state.  Within a state
it evaluates exactly the operations the schedule started there, reading
operands from this cycle's wires (chained values), from physical
registers (stored values) or from hardwired constants; at the end of
the state it commits register latches and memory writes, then follows
the FSM transition.  Values are computed by the *same* semantics module
as the behavioral interpreter, so any output divergence observed by the
equivalence checker is a scheduling/allocation/control bug, never an
arithmetic modelling difference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..errors import SimulationError
from ..ir.opcodes import OpKind
from ..ir.types import Type
from .semantics import Number, coerce, evaluate

# Annotation only: importing repro.core here would make the transforms
# package (constant folding evaluates through repro.sim.semantics)
# reach the engine before it has finished loading.
if TYPE_CHECKING:  # pragma: no cover
    from ..core.design import SynthesizedDesign

DEFAULT_MAX_CYCLES = 10_000_000


@dataclass(frozen=True)
class TraceEntry:
    """One cycle of a recorded execution: the state just executed and
    the post-edge register file contents."""

    cycle: int
    state_id: int
    registers: dict


class RTLSimulator:
    """Executes a :class:`SynthesizedDesign` cycle by cycle.

    After :meth:`run`, ``cycles`` holds the number of control steps the
    activation took — directly comparable to the paper's step counts.
    With ``trace=True``, ``trace`` records per-cycle register snapshots
    (consumed by :func:`repro.sim.vcd.write_vcd`).
    """

    def __init__(self, design: SynthesizedDesign,
                 max_cycles: int = DEFAULT_MAX_CYCLES,
                 trace: bool = False) -> None:
        if design.fsm is None:
            raise SimulationError("design has no controller")
        self._design = design
        self._max_cycles = max_cycles
        self._tracing = trace
        self.trace: list[TraceEntry] = []
        self.cycles = 0
        self._registers: dict[tuple, Number] = {}
        self._memories: dict[str, list[Number]] = {}

    # ------------------------------------------------------------------

    def run(self, inputs: dict[str, Number],
            memories: dict[str, list[Number]] | None = None
            ) -> dict[str, Number]:
        """One activation: load inputs, run to halt, return outputs."""
        design = self._design
        cdfg = design.cdfg
        self.cycles = 0

        self._registers = {}
        for name, type_ in cdfg.variables.items():
            self._registers[("var", name)] = coerce(0, type_)
        for ref in design.storage_registers():
            if ref[0] == "tmp":
                self._registers[ref] = 0
        for port in cdfg.inputs:
            if port.name not in inputs:
                raise SimulationError(f"missing input {port.name!r}")
            self._registers[("var", port.name)] = coerce(
                inputs[port.name], port.type
            )

        self._memories = {}
        memories = memories or {}
        for name, array_type in cdfg.memories.items():
            if name in memories:
                contents = [
                    coerce(v, array_type.element) for v in memories[name]
                ]
            else:
                contents = [coerce(0, array_type.element)] * array_type.length
            if len(contents) != array_type.length:
                raise SimulationError(
                    f"memory {name!r} expects {array_type.length} entries"
                )
            self._memories[name] = contents

        fsm = design.fsm
        assert fsm is not None
        state_id = fsm.entry
        pending: dict[int, list[tuple[int, Number]]] = {}

        self.trace = []
        while state_id is not None:
            if self.cycles >= self._max_cycles:
                raise SimulationError(
                    f"exceeded {self._max_cycles} cycles (runaway FSM?)"
                )
            state = fsm.state(state_id)
            state_id = self._execute_state(state, pending)
            self.cycles += 1
            if self._tracing:
                self.trace.append(
                    TraceEntry(
                        cycle=self.cycles,
                        state_id=state.id,
                        registers=dict(self._registers),
                    )
                )

        return {
            port.name: self._registers[("var", port.name)]
            for port in cdfg.outputs
        }

    def memory_contents(self, name: str) -> list[Number]:
        return list(self._memories[name])

    # ------------------------------------------------------------------

    def _execute_state(self, state, pending) -> int | None:
        plan = state.plan
        step = state.step
        schedule = plan.schedule
        wires: dict[int, Number] = {}

        # Multicycle results maturing this cycle.
        for value_id, number in pending.pop(self.cycles, []):
            wires[value_id] = number

        def read_value(value) -> Number:
            if value.id in wires:
                return wires[value.id]
            storage = plan.storage_of.get(value.id)
            if storage is not None:
                return self._registers[storage]
            if value.producer.kind is OpKind.CONST:
                return coerce(
                    value.producer.attrs["value"], value.type
                )
            raise SimulationError(
                f"value {value!r} not available in state S{state.id} "
                f"({plan.block.name}#{step}) — allocation or control bug"
            )

        for op in plan.starts[step] if step < len(plan.starts) else []:
            if op.kind is OpKind.VAR_READ:
                assert op.result is not None
                wires[op.result.id] = self._registers[
                    ("var", op.attrs["var"])
                ]
            elif op.kind in (OpKind.VAR_WRITE, OpKind.NOP, OpKind.STORE):
                continue  # handled at commit time
            elif op.kind is OpKind.CONST:
                assert op.result is not None
                wires[op.result.id] = coerce(
                    op.attrs["value"], op.result.type
                )
            elif op.kind is OpKind.LOAD:
                memory = self._memories[op.attrs["memory"]]
                index = int(read_value(op.operands[0]))
                if not 0 <= index < len(memory):
                    raise SimulationError(
                        f"load index {index} out of range for "
                        f"{op.attrs['memory']!r}"
                    )
                self._deliver(op, memory[index], schedule, wires, pending)
            else:
                operands = [read_value(v) for v in op.operands]
                types = [v.type for v in op.operands]
                result_type = op.result.type if op.result else None
                number = evaluate(
                    op.kind, operands, types, result_type, op.attrs
                )
                if op.result is not None:
                    self._deliver(op, number, schedule, wires, pending)

        # Commit phase.  Everything latched or stored on this clock
        # edge samples its *pre-edge* value first — registers update
        # simultaneously in hardware, so no commit may observe another
        # commit of the same cycle.
        sampled_latches = [
            (latch, read_value(latch.value))
            for latch in plan.latches_at(step)
        ]
        sampled_stores = []
        for memory_write in plan.memory_writes_at(step):
            store = memory_write.op
            sampled_stores.append(
                (
                    memory_write,
                    int(read_value(store.operands[0])),
                    read_value(store.operands[1]),
                )
            )
        transition = state.transition
        if transition.unconditional:
            next_state = transition.if_true
        else:
            assert transition.cond is not None
            taken = bool(read_value(transition.cond))
            next_state = (
                transition.if_true if taken else transition.if_false
            )

        for latch, number in sampled_latches:
            target_type = self._target_type(latch.target, latch.value.type)
            self._registers[latch.target] = coerce(number, target_type)
        for memory_write, index, number in sampled_stores:
            memory = self._memories[memory_write.memory]
            if not 0 <= index < len(memory):
                raise SimulationError(
                    f"store index {index} out of range for "
                    f"{memory_write.memory!r}"
                )
            element = self._design.cdfg.memories[memory_write.memory].element
            memory[index] = coerce(number, element)
        return next_state

    def _deliver(self, op, number: Number, schedule, wires,
                 pending) -> None:
        """Publish a result now (delay ≤ 1) or when it matures."""
        assert op.result is not None
        delay = schedule.problem.delay(op.id)
        if delay <= 1:
            wires[op.result.id] = number
        else:
            due = self.cycles + delay - 1
            pending.setdefault(due, []).append((op.result.id, number))

    def _target_type(self, target: tuple, value_type: Type) -> Type:
        if target[0] == "var":
            return self._design.cdfg.variables[target[1]]
        return value_type
