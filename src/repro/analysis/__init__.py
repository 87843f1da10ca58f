"""Dataflow analyses and the whole-pipeline linter (``repro.analysis``).

The core of the package is a generic worklist solver
(:mod:`~repro.analysis.dataflow`) over the flattened control-flow graph
(:mod:`~repro.analysis.cfg`), with the classic analyses built on top:

* :func:`variable_liveness` / :func:`live_out_variables` — backward
  may-analysis; consumed by register lifetime computation and the
  dead-store lint;
* :func:`reaching_definitions` / :func:`def_use_chains` — forward
  may-analysis; consumed by the read-before-write lint;
* :func:`available_expressions` — forward must-analysis over
  variable-leaf expression trees;
* :func:`constant_lattice` / :func:`evaluated_conditions` — the
  three-level constant lattice, evaluated with the simulator's own
  semantics;
* :func:`range_analysis` — the sound interval lattice (widening at
  loop heads, branch-condition refinement, constant seeding); consumed
  by the bitwidth-narrowing transform and the ``range.*`` lints;
* :mod:`~repro.analysis.usage` — the flow-insensitive summaries the
  transforms share (:func:`variable_usage`,
  :func:`transitively_dead_ops`).

:mod:`repro.analysis.lint` (imported explicitly, **not** re-exported
here: it depends on the downstream pipeline packages, which themselves
import these analyses) drives every rule family over a design and
reports :class:`Diagnostic` records through a :class:`DiagnosticSink`.
"""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports
from .cfg import ENTRY, EXIT, ControlFlowGraph, build_cfg
from .constants import (
    BOTTOM,
    TOP,
    ConstantsResult,
    constant_lattice,
    constant_of,
    evaluated_conditions,
)
from .dataflow import (
    UNIVERSE,
    DataflowAnalysis,
    DataflowResult,
    SetIntersectAnalysis,
    SetUnionAnalysis,
    solve,
)
from .expressions import (
    EXPRESSION_KINDS,
    AvailableResult,
    available_expressions,
    expression_key,
    expression_tree,
)
from .impact import (
    CDFGDelta,
    block_digest,
    cdfg_digests,
    diff_cdfgs,
)
from .liveness import (
    LivenessResult,
    block_uses_defs,
    live_out_variables,
    variable_liveness,
)
from .usage import (
    SIDE_EFFECT_KINDS,
    VariableUsage,
    region_condition_values,
    transitively_dead_ops,
    variable_usage,
)

# The interval analysis (bitwidth narrowing, lint), reaching
# definitions and diagnostics (lint) load with their first use.
if TYPE_CHECKING:  # pragma: no cover
    from .diagnostics import SEVERITIES, Diagnostic, DiagnosticSink
    from .ranges import (
        Interval,
        RangesResult,
        coerce_interval,
        fits_type,
        op_interval,
        range_analysis,
        refine_interval,
        type_interval,
    )
    from .reaching import (
        DefUseChains,
        ReachingResult,
        def_use_chains,
        definition_is_uninitialized,
        reaching_definitions,
    )

__getattr__ = lazy_exports(__name__, {
    "diagnostics": ("SEVERITIES", "Diagnostic", "DiagnosticSink"),
    "ranges": ("Interval", "RangesResult", "coerce_interval", "fits_type",
               "op_interval", "range_analysis", "refine_interval",
               "type_interval"),
    "reaching": ("DefUseChains", "ReachingResult", "def_use_chains",
                 "definition_is_uninitialized", "reaching_definitions"),
})

__all__ = [
    "ENTRY",
    "EXIT",
    "ControlFlowGraph",
    "build_cfg",
    "DataflowAnalysis",
    "DataflowResult",
    "SetUnionAnalysis",
    "SetIntersectAnalysis",
    "UNIVERSE",
    "solve",
    "LivenessResult",
    "block_uses_defs",
    "variable_liveness",
    "live_out_variables",
    "ReachingResult",
    "DefUseChains",
    "reaching_definitions",
    "def_use_chains",
    "definition_is_uninitialized",
    "AvailableResult",
    "EXPRESSION_KINDS",
    "available_expressions",
    "expression_key",
    "expression_tree",
    "CDFGDelta",
    "block_digest",
    "cdfg_digests",
    "diff_cdfgs",
    "ConstantsResult",
    "TOP",
    "BOTTOM",
    "constant_lattice",
    "constant_of",
    "evaluated_conditions",
    "Interval",
    "RangesResult",
    "range_analysis",
    "op_interval",
    "refine_interval",
    "coerce_interval",
    "type_interval",
    "fits_type",
    "VariableUsage",
    "SIDE_EFFECT_KINDS",
    "variable_usage",
    "region_condition_values",
    "transitively_dead_ops",
    "Diagnostic",
    "DiagnosticSink",
    "SEVERITIES",
]
