"""Simulation: behavioral interpreter, RTL simulator, equivalence."""

from .behavior import BehavioralSimulator, ExecutionStats, run_behavior
from .equivalence import (
    EquivalenceReport,
    VectorResult,
    check_behavioral_equivalence,
    check_equivalence,
    default_vectors,
)
from .rtl_sim import RTLSimulator, TraceEntry
from .semantics import coerce, evaluate
from .vcd import write_vcd

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
