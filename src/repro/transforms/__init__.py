"""High-level transformations (the paper's §2 optimization step).

:func:`standard_pipeline` assembles the default optimizer: constant
folding, CSE, strength reduction, counter narrowing, trip-count
analysis and DCE, run to a fixpoint.  Loop unrolling and tree-height
reduction are opt-in (they trade area/register pressure for speed, a
design-space decision rather than an always-win).
"""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports
from .base import Pass, PassManager, PassReport
from .clone import RegionCloner, clone_cdfg
from .constprop import ConstantFolding
from .counter import CounterNarrowing
from .cse import CommonSubexpressionElimination
from .dce import DeadCodeElimination
from .if_conversion import IfConversion
from .strength import StrengthReduction
from .tree_height import TreeHeightReduction
from .tripcount import TripCountAnalysis, match_counter, simulate_trip_count
from .unroll import LoopUnrolling

# Bitwidth narrowing (and the interval analysis under it) loads with
# the first synthesis that asks for it.
if TYPE_CHECKING:  # pragma: no cover
    from .narrow import RangeNarrowing, narrowed_type

__getattr__ = lazy_exports(__name__, {
    "narrow": ("RangeNarrowing", "narrowed_type"),
})

__all__ = [
    "CommonSubexpressionElimination",
    "ConstantFolding",
    "CounterNarrowing",
    "DeadCodeElimination",
    "IfConversion",
    "LoopUnrolling",
    "Pass",
    "PassManager",
    "PassReport",
    "RangeNarrowing",
    "narrowed_type",
    "RegionCloner",
    "StrengthReduction",
    "clone_cdfg",
    "TreeHeightReduction",
    "TripCountAnalysis",
    "match_counter",
    "optimize",
    "simulate_trip_count",
    "standard_pipeline",
]


def standard_pipeline(unroll: bool = False,
                      tree_height: bool = False,
                      if_conversion: bool = False) -> PassManager:
    """The default optimization pipeline.

    Args:
        unroll: also fully unroll constant-trip loops.
        tree_height: also rebalance associative chains.
        if_conversion: also convert small branches to mux selection.
    """
    passes: list[Pass] = [
        ConstantFolding(),
        CommonSubexpressionElimination(),
        StrengthReduction(),
        CounterNarrowing(),
        TripCountAnalysis(),
        DeadCodeElimination(),
    ]
    if tree_height:
        passes.append(TreeHeightReduction())
    if if_conversion:
        passes.append(IfConversion())
    if unroll:
        passes.append(LoopUnrolling())
    return PassManager(passes)


def optimize(cdfg, unroll: bool = False,
             tree_height: bool = False,
             if_conversion: bool = False) -> PassReport:
    """Run the standard pipeline on ``cdfg`` in place."""
    from ..obs import trace_span

    with trace_span("transforms", design=cdfg.name) as span:
        report = standard_pipeline(
            unroll=unroll, tree_height=tree_height,
            if_conversion=if_conversion,
        ).run(cdfg)
        span.set(iterations=report.iterations,
                 applied=len(report.applied))
    return report
