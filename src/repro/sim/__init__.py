"""Simulation: behavioral interpreter, RTL simulator, equivalence."""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports
from .behavior import BehavioralSimulator, ExecutionStats, run_behavior
from .rtl_sim import RTLSimulator, TraceEntry
from .semantics import coerce, evaluate

# Equivalence checking and VCD dumps load with their first use.
if TYPE_CHECKING:  # pragma: no cover
    from .equivalence import (
        EquivalenceReport,
        VectorResult,
        check_behavioral_equivalence,
        check_equivalence,
        default_vectors,
    )
    from .vcd import write_vcd

__getattr__ = lazy_exports(__name__, {
    "equivalence": ("EquivalenceReport", "VectorResult",
                    "check_behavioral_equivalence", "check_equivalence",
                    "default_vectors"),
    "vcd": ("write_vcd",),
})

__all__ = [
    "BehavioralSimulator",
    "EquivalenceReport",
    "ExecutionStats",
    "RTLSimulator",
    "TraceEntry",
    "VectorResult",
    "write_vcd",
    "check_behavioral_equivalence",
    "check_equivalence",
    "coerce",
    "default_vectors",
    "evaluate",
    "run_behavior",
]
