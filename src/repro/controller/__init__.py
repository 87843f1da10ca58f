"""Controller synthesis: FSM construction, state encoding, microcode."""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports
from .encoding import StateEncoding, encode_states
from .fsm import FSM, ControlState, Transition, synthesize_fsm

# Logic minimization and microcode load with their first use.
if TYPE_CHECKING:  # pragma: no cover
    from .logic import (
        LogicSummary,
        literal_count,
        minimize_next_state_logic,
        minimum_cover,
        prime_implicants,
    )
    from .microcode import ControlField, Microcode, MicrocodeGenerator

__getattr__ = lazy_exports(__name__, {
    "logic": ("LogicSummary", "literal_count", "minimize_next_state_logic",
              "minimum_cover", "prime_implicants"),
    "microcode": ("ControlField", "Microcode", "MicrocodeGenerator"),
})

__all__ = [
    "ControlField",
    "ControlState",
    "FSM",
    "LogicSummary",
    "Microcode",
    "MicrocodeGenerator",
    "StateEncoding",
    "Transition",
    "encode_states",
    "literal_count",
    "minimize_next_state_logic",
    "minimum_cover",
    "prime_implicants",
    "synthesize_fsm",
]
