"""VCD (Value Change Dump) emission of a recorded RTL simulation.

Turns a traced :class:`~repro.sim.rtl_sim.RTLSimulator` run into a
standard VCD file viewable in GTKWave and friends: one signal per
physical register (variables and temps, raw bit patterns in the
design's Q-format), plus the controller state register.
"""

from __future__ import annotations

from typing import Iterable

from ..core.design import SynthesizedDesign
from ..errors import SimulationError
from ..ir.types import FixedType, IntType
from .rtl_sim import TraceEntry

_ID_ALPHABET = "".join(chr(c) for c in range(33, 127))


def _identifier(index: int) -> str:
    """Short printable VCD identifier for signal ``index``."""
    if index < len(_ID_ALPHABET):
        return _ID_ALPHABET[index]
    head, tail = divmod(index, len(_ID_ALPHABET))
    return _ID_ALPHABET[head - 1] + _ID_ALPHABET[tail]


def _signal_name(ref: tuple) -> str:
    if ref[0] == "var":
        return str(ref[1])
    return f"tmp{ref[1]}"


def _bits(value, type_) -> str:
    if isinstance(type_, FixedType):
        stored = int(round(float(value) * type_.scale))
        width = type_.width
    else:
        assert isinstance(type_, IntType)
        stored = int(value)
        width = type_.width
    return format(stored & ((1 << width) - 1), f"0{width}b")


def write_vcd(design: SynthesizedDesign,
              trace: Iterable[TraceEntry],
              module_name: str | None = None) -> str:
    """Render a recorded trace as VCD text.

    Args:
        design: the simulated design (provides register types/widths).
        trace: ``RTLSimulator(..., trace=True).trace`` after a run.
        module_name: VCD scope name (default: the procedure name).
    """
    trace = list(trace)
    if not trace:
        raise SimulationError(
            "empty trace — construct RTLSimulator(design, trace=True) "
            "and run it first"
        )
    cdfg = design.cdfg
    widths = design.storage_registers()
    registers = sorted(widths, key=str)

    def type_of(ref: tuple):
        if ref[0] == "var":
            return cdfg.variables[ref[1]]
        return IntType(max(widths[ref], 1), signed=False)

    state_bits = max(design.state_count.bit_length(), 1)

    lines: list[str] = []
    out = lines.append
    out("$date repro-hls simulation $end")
    out("$version repro 1.0 $end")
    out("$timescale 1ns $end")
    out(f"$scope module {module_name or cdfg.name} $end")
    identifiers: dict[tuple, str] = {}
    state_id = _identifier(0)
    out(f"$var wire {state_bits} {state_id} fsm_state $end")
    for index, ref in enumerate(registers, start=1):
        identifier = _identifier(index)
        identifiers[ref] = identifier
        out(f"$var wire {widths[ref]} {identifier} {_signal_name(ref)} $end")
    out("$upscope $end")
    out("$enddefinitions $end")

    previous: dict[tuple, str] = {}
    previous_state: str | None = None
    for entry in trace:
        changes: list[str] = []
        state_bits_value = format(entry.state_id, f"0{state_bits}b")
        if state_bits_value != previous_state:
            changes.append(f"b{state_bits_value} {state_id}")
            previous_state = state_bits_value
        for ref in registers:
            if ref not in entry.registers:
                continue
            rendered = _bits(entry.registers[ref], type_of(ref))
            if previous.get(ref) != rendered:
                changes.append(f"b{rendered} {identifiers[ref]}")
                previous[ref] = rendered
        if changes:
            out(f"#{entry.cycle * 10}")
            lines.extend(changes)
    out(f"#{(trace[-1].cycle + 1) * 10}")
    return "\n".join(lines) + "\n"
