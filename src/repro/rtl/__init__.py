"""RTL output: Verilog/VHDL emission, testbench generation, DOT."""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports
from .verilog import VerilogEmitter, emit_verilog

# VHDL and testbenches load with their first use.
if TYPE_CHECKING:  # pragma: no cover
    from .testbench import emit_testbench
    from .vhdl import VHDLEmitter, emit_vhdl

__getattr__ = lazy_exports(__name__, {
    "testbench": ("emit_testbench",),
    "vhdl": ("VHDLEmitter", "emit_vhdl"),
})

__all__ = [
    "VHDLEmitter",
    "VerilogEmitter",
    "emit_testbench",
    "emit_verilog",
    "emit_vhdl",
]
