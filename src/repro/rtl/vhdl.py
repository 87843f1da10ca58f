"""VHDL emission of a synthesized design.

The VHDL twin of :mod:`repro.rtl.verilog`: one entity with a
``clk``/``rst``/``start``/``done`` handshake, registers as signals,
the controller as a single clocked process with a case over an
enumerated state type, and Q-format fixed-point arithmetic on
``signed`` vectors.  Emitted for downstream synthesis tools; the
library's own simulator remains the verification reference.
"""

from __future__ import annotations

from ..core.design import SynthesizedDesign
from ..errors import HLSError
from ..ir.opcodes import OpKind
from ..ir.types import FixedType, IntType, Type, bit_width
from ..ir.values import Value


def _storage_name(ref: tuple) -> str:
    if ref[0] == "var":
        return f"r_{ref[1]}"
    return f"t_{ref[1]}"


def _const_bits(value, type_: Type) -> int:
    if isinstance(type_, FixedType):
        stored = int(round(float(value) * type_.scale))
        return stored & ((1 << type_.width) - 1)
    assert isinstance(type_, IntType)
    return int(value) & ((1 << type_.width) - 1)


def _resize(expression: str, width: int) -> str:
    return f"resize({expression}, {width})"


class VHDLEmitter:
    """Renders one :class:`SynthesizedDesign` as a VHDL entity."""

    def __init__(self, design: SynthesizedDesign) -> None:
        if design.fsm is None:
            raise HLSError("design has no controller to emit")
        self._design = design
        self._registers = design.storage_registers()

    # ------------------------------------------------------------------

    def emit(self) -> str:
        design = self._design
        cdfg = design.cdfg
        lines: list[str] = []
        out = lines.append

        out(f"-- generated by repro-hls from procedure {cdfg.name}")
        out("library ieee;")
        out("use ieee.std_logic_1164.all;")
        out("use ieee.numeric_std.all;")
        out("")
        out(f"entity {cdfg.name} is")
        out("  port (")
        out("    clk   : in  std_logic;")
        out("    rst   : in  std_logic;")
        out("    start : in  std_logic;")
        out("    done  : out std_logic;")
        port_lines = []
        for port in cdfg.inputs:
            port_lines.append(
                f"    in_{port.name} : in  signed"
                f"({bit_width(port.type)-1} downto 0)"
            )
        for port in cdfg.outputs:
            port_lines.append(
                f"    out_{port.name} : out signed"
                f"({bit_width(port.type)-1} downto 0)"
            )
        out(";\n".join(port_lines))
        out("  );")
        out(f"end entity {cdfg.name};")
        out("")
        out(f"architecture rtl of {cdfg.name} is")

        fsm = design.fsm
        assert fsm is not None
        state_names = ["S_IDLE"] + [f"S{s.id}" for s in fsm.states]
        out(f"  type state_t is ({', '.join(state_names)});")
        out("  signal state : state_t := S_IDLE;")
        registers = self._registers
        for ref in sorted(registers, key=str):
            out(
                f"  signal {_storage_name(ref)} : "
                f"signed({registers[ref]-1} downto 0) := "
                f"(others => '0');"
            )
        for name, array_type in cdfg.memories.items():
            element_bits = bit_width(array_type.element)
            out(
                f"  type {name}_mem_t is array (0 to "
                f"{array_type.length - 1}) of "
                f"signed({element_bits - 1} downto 0);"
            )
            out(
                f"  signal mem_{name} : {name}_mem_t := "
                f"(others => (others => '0'));"
            )
        out("begin")
        out("")
        for port in cdfg.outputs:
            out(f"  out_{port.name} <= r_{port.name};")
        out("")
        out("  process (clk)")
        out("  begin")
        out("    if rising_edge(clk) then")
        out("      if rst = '1' then")
        out("        state <= S_IDLE;")
        out("        done  <= '0';")
        out("      else")
        out("        case state is")
        out("          when S_IDLE =>")
        out("            if start = '1' then")
        for port in cdfg.inputs:
            out(f"              r_{port.name} <= in_{port.name};")
        entry = f"S{fsm.entry}" if fsm.entry is not None else "S_IDLE"
        out("              done  <= '0';")
        out(f"              state <= {entry};")
        out("            end if;")
        for state in fsm.states:
            out(f"          when S{state.id} =>"
                f"  -- {state.block_name}#{state.step}")
            for text in self._state_body(state):
                out(f"            {text}")
        out("        end case;")
        out("      end if;")
        out("    end if;")
        out("  end process;")
        out("")
        out("end architecture rtl;")
        return "\n".join(lines) + "\n"

    # ------------------------------------------------------------------

    def _state_body(self, state) -> list[str]:
        plan = state.plan
        step = state.step
        lines: list[str] = []

        for latch in plan.latches_at(step):
            target_ref = latch.target
            width = self._registers[target_ref]
            source = self._value_expr(plan, latch.value, step)
            lines.append(
                f"{_storage_name(target_ref)} <= "
                f"{_resize(source, width)};"
            )

        for memory_write in plan.memory_writes_at(step):
            store = memory_write.op
            index = self._value_expr(plan, store.operands[0], step)
            element_bits = bit_width(
                self._design.cdfg.memories[memory_write.memory].element
            )
            data = self._value_expr(plan, store.operands[1], step)
            lines.append(
                f"mem_{memory_write.memory}"
                f"(to_integer({index})) <= "
                f"{_resize(data, element_bits)};"
            )

        transition = state.transition
        if transition.unconditional:
            lines.extend(self._goto(transition.if_true))
        else:
            assert transition.cond is not None
            cond = self._value_expr(plan, transition.cond, step)
            lines.append(f"if {cond} /= 0 then")
            lines.extend(
                f"  {text}" for text in self._goto(transition.if_true)
            )
            lines.append("else")
            lines.extend(
                f"  {text}" for text in self._goto(transition.if_false)
            )
            lines.append("end if;")
        return lines

    def _goto(self, target: int | None) -> list[str]:
        if target is None:
            return ["done  <= '1';", "state <= S_IDLE;"]
        return [f"state <= S{target};"]

    # Expression rendering ------------------------------------------------

    def _value_expr(self, plan, value: Value, step: int,
                    depth: int = 0) -> str:
        if depth > 64:
            raise HLSError("expression nesting too deep")
        producer = value.producer
        schedule = plan.schedule
        if producer.kind is OpKind.CONST:
            bits = _const_bits(producer.attrs["value"], value.type)
            return (
                f"signed'(to_signed({self._as_signed(bits, value)}, "
                f"{bit_width(value.type)}))"
            )
        storage = plan.storage_of.get(value.id)
        produced_now = (
            producer.id in schedule.start
            and schedule.end(producer.id) == step
        )
        if storage is not None and not produced_now:
            return _storage_name(storage)
        if producer.kind is OpKind.VAR_READ:
            return f"r_{producer.attrs['var']}"
        if producer.kind is OpKind.LOAD:
            index = self._value_expr(plan, producer.operands[0], step,
                                     depth + 1)
            return (
                f"mem_{producer.attrs['memory']}(to_integer({index}))"
            )
        return self._op_expr(plan, producer, step, depth + 1)

    @staticmethod
    def _as_signed(bits: int, value: Value) -> int:
        width = bit_width(value.type)
        if bits >= 1 << (width - 1):
            return bits - (1 << width)
        return bits

    def _op_expr(self, plan, op, step: int, depth: int) -> str:
        operands = [
            self._value_expr(plan, operand, step, depth)
            for operand in op.operands
        ]
        assert op.result is not None
        result_type = op.result.type
        width = bit_width(result_type)
        frac = (
            result_type.frac_bits
            if isinstance(result_type, FixedType)
            else 0
        )
        kind = op.kind

        def bool_expr(comparison: str) -> str:
            return (
                f"signed'(to_signed(1, 1)) when {comparison} "
                f"else signed'(to_signed(0, 1))"
            )

        if kind is OpKind.ADD:
            return f"({operands[0]} + {operands[1]})"
        if kind is OpKind.SUB:
            return f"({operands[0]} - {operands[1]})"
        if kind is OpKind.INC:
            return f"({operands[0]} + 1)"
        if kind is OpKind.DEC:
            return f"({operands[0]} - 1)"
        if kind is OpKind.NEG:
            return f"(-{operands[0]})"
        if kind is OpKind.MUL:
            product = f"({operands[0]} * {operands[1]})"
            if frac:
                return f"shift_right({product}, {frac})"
            return product
        if kind is OpKind.DIV:
            if frac:
                left = _resize(operands[0], width + frac)
                return (
                    f"(shift_left({left}, {frac}) / {operands[1]})"
                )
            return f"({operands[0]} / {operands[1]})"
        if kind is OpKind.MOD:
            return f"({operands[0]} mod {operands[1]})"
        if kind is OpKind.SHL:
            return (
                f"shift_left({operands[0]}, "
                f"to_integer({operands[1]}))"
            )
        if kind is OpKind.SHR:
            return (
                f"shift_right({operands[0]}, "
                f"to_integer({operands[1]}))"
            )
        if kind is OpKind.AND:
            return f"({operands[0]} and {operands[1]})"
        if kind is OpKind.OR:
            return f"({operands[0]} or {operands[1]})"
        if kind is OpKind.XOR:
            return f"({operands[0]} xor {operands[1]})"
        if kind is OpKind.NOT:
            return f"(not {operands[0]})"
        if kind is OpKind.EQ:
            return bool_expr(f"{operands[0]} = {operands[1]}")
        if kind is OpKind.NE:
            return bool_expr(f"{operands[0]} /= {operands[1]}")
        if kind is OpKind.LT:
            return bool_expr(f"{operands[0]} < {operands[1]}")
        if kind is OpKind.LE:
            return bool_expr(f"{operands[0]} <= {operands[1]}")
        if kind is OpKind.GT:
            return bool_expr(f"{operands[0]} > {operands[1]}")
        if kind is OpKind.GE:
            return bool_expr(f"{operands[0]} >= {operands[1]}")
        if kind is OpKind.MUX:
            return (
                f"{operands[1]} when {operands[0]} /= 0 "
                f"else {operands[2]}"
            )
        raise HLSError(f"cannot render {kind} in VHDL")


def emit_vhdl(design: SynthesizedDesign) -> str:
    """One-shot helper: VHDL text for a synthesized design."""
    return VHDLEmitter(design).emit()
