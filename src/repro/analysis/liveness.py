"""Variable liveness over the CDFG.

The IR's arc-per-value form makes the block-local transfer trivial:
``VAR_READ`` ops are exactly the upward-exposed uses and ``VAR_WRITE``
ops are exactly the downward-exposed definitions (the frontend renames
everything in between), so ``live_in = reads ∪ (live_out − writes)``.

Where it is solved:

* once per synthesis, by the engine (:mod:`repro.core.engine`), after
  the transforms; the CDFG is only read from there on.  Each block's
  live-out set rides on its
  :class:`~repro.scheduling.SchedulingProblem` (``problem.live_out``)
  to the per-block consumers, which read it through
  :func:`live_out_variables`: register lifetime analysis
  (:mod:`repro.allocation.lifetimes` — a value written to a variable
  only needs to survive the block when the variable is live out of it)
  in left-edge allocation and the allocators it seeds, the allocation
  checker (:meth:`~repro.allocation.Allocation.validate`) and datapath
  planning (:func:`~repro.datapath.plan.plan_block`);
* once per design, by the stage contracts (:mod:`repro.verify`) and
  the design linter (:func:`repro.analysis.lint.lint_design`), which
  index their own solve with :func:`region_live_out` and never read the
  hand-off, so they stay an independent check of it;
* once per CDFG by the dead-store lint (a ``VAR_WRITE`` whose variable
  is not live out of its block);
* per call, for problems built outside the engine (hand-built
  fixtures, Sehwa's pipelined regions), by :func:`live_out_variables`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from ..ir.cdfg import CDFG
from ..ir.opcodes import OpKind
from ..ir.values import BasicBlock, Operation
from .cfg import ControlFlowGraph, build_cfg
from .dataflow import SetUnionAnalysis, solve


def block_uses_defs(block: BasicBlock) -> tuple[frozenset[str],
                                                frozenset[str]]:
    """(upward-exposed reads, written variables) of one block."""
    uses = frozenset(
        op.attrs["var"] for op in block.ops if op.kind is OpKind.VAR_READ
    )
    defs = frozenset(
        op.attrs["var"] for op in block.ops if op.kind is OpKind.VAR_WRITE
    )
    return uses, defs


@dataclass
class LivenessResult:
    """Live variable sets per block id."""

    live_in: dict[int, frozenset[str]]
    live_out: dict[int, frozenset[str]]


class _Liveness(SetUnionAnalysis):
    direction = "backward"

    def __init__(self, outputs: frozenset[str]) -> None:
        self._outputs = outputs

    def boundary(self) -> frozenset:
        return self._outputs

    def transfer(self, block: BasicBlock, live_out: frozenset) -> frozenset:
        uses, defs = block_uses_defs(block)
        return uses | (live_out - defs)


def variable_liveness(cdfg: CDFG,
                      cfg: ControlFlowGraph | None = None) -> LivenessResult:
    """Solve liveness for every block of ``cdfg``.

    Output ports are live at procedure exit.
    """
    cfg = cfg or build_cfg(cdfg)
    outputs = frozenset(port.name for port in cdfg.outputs)
    result = solve(cfg, _Liveness(outputs))
    live_in: dict[int, frozenset[str]] = {}
    live_out: dict[int, frozenset[str]] = {}
    for block_id in cfg.blocks:
        # Backward analysis: the flow-entry fact of a node is its
        # control-exit fact.
        live_out[block_id] = result.entry_facts.get(block_id, frozenset())
        live_in[block_id] = result.exit_facts.get(block_id, frozenset())
    return LivenessResult(live_in, live_out)


def region_live_out(ops: Iterable[Operation],
                    liveness: LivenessResult | None = None,
                    ) -> frozenset[str] | None:
    """Variables live out of the block(s) ``ops`` belong to.

    Returns None when the ops belong to blocks outside their CDFG's
    region tree (hand-built test fixtures), in which case the caller
    must assume every written variable is live — the conservative
    pre-analysis behaviour.

    Args:
        ops: the operations of one scheduling region.
        liveness: a solve of the ops' CDFG to index; when omitted the
            whole procedure is solved here.
    """
    blocks = {op.block for op in ops}
    if not blocks:
        return None
    cdfg = next(iter(blocks)).cdfg
    attached = {block.id for block in cdfg.blocks()}
    if any(block.id not in attached for block in blocks):
        return None
    if liveness is None:
        liveness = variable_liveness(cdfg)
    live: frozenset[str] = frozenset()
    for block in blocks:
        live |= liveness.live_out[block.id]
    return live


def live_out_variables(schedule) -> frozenset[str] | None:
    """Variables live out of the block(s) a schedule covers.

    Reads the set the engine handed over on the schedule's problem;
    problems built outside the engine carry none, and get it from a
    whole-procedure solve (:func:`region_live_out`).
    """
    problem = schedule.problem
    if problem.live_out is not None:
        return problem.live_out
    return region_live_out(problem.ops)
