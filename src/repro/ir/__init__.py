"""Behavioral intermediate representation (CDFG) of the repro library.

The public surface re-exports the types, opcodes and graph containers
that the rest of the flow (and library users building CDFGs by hand)
need.
"""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports
from .cdfg import (
    CDFG,
    BlockRegion,
    IfRegion,
    LoopRegion,
    Port,
    Region,
    SeqRegion,
)
from .dfg import (
    critical_path_length,
    dependence_graph,
    path_length_from_source,
    path_length_to_sink,
    topological_order,
)
from .opcodes import COMMUTATIVE, COMPARISONS, OpKind, op_info
from .types import (
    BOOL,
    ArrayType,
    FixedType,
    IntType,
    Type,
    bit_width,
    common_type,
    is_scalar,
)
from .values import BasicBlock, Operation, Value

# DOT rendering loads with its first use.
if TYPE_CHECKING:  # pragma: no cover
    from .dot import cdfg_dot, dataflow_dot

__getattr__ = lazy_exports(__name__, {"dot": ("cdfg_dot", "dataflow_dot")})

__all__ = [
    "BOOL",
    "ArrayType",
    "BasicBlock",
    "BlockRegion",
    "CDFG",
    "COMMUTATIVE",
    "COMPARISONS",
    "FixedType",
    "IfRegion",
    "IntType",
    "LoopRegion",
    "OpKind",
    "Operation",
    "Port",
    "Region",
    "SeqRegion",
    "Type",
    "Value",
    "bit_width",
    "cdfg_dot",
    "common_type",
    "critical_path_length",
    "dataflow_dot",
    "dependence_graph",
    "is_scalar",
    "op_info",
    "path_length_from_source",
    "path_length_to_sink",
    "topological_order",
]
