"""Common subexpression elimination (block-local).

Pure operations computing the same function of the same values are
merged; commutative operations are canonicalized by sorting operand
ids, so ``a+b`` and ``b+a`` merge.  Memory and variable operations are
excluded — ``LOAD`` results may change between stores, and the frontend
already de-duplicates ``VAR_READ``s within a block.

The merge criterion is :func:`repro.analysis.expressions.expression_key`
— one definition shared with the available-expression analysis.
"""

from __future__ import annotations

from ..analysis.expressions import expression_key
from ..ir.cdfg import CDFG, IfRegion, LoopRegion, Region
from ..ir.values import BasicBlock, Operation, Value
from .base import Pass


class CommonSubexpressionElimination(Pass):
    """Merge identical pure computations within each block."""

    name = "cse"

    def run(self, cdfg: CDFG) -> bool:
        # The regions each loop or if condition steers, indexed once per
        # run: a merged value may be one of those conditions.
        conditions: dict[Value, list[Region]] = {}
        for region in cdfg.body.walk():
            if isinstance(region, (IfRegion, LoopRegion)):
                conditions.setdefault(region.cond, []).append(region)
        changed = False
        for block in cdfg.blocks():
            if self._run_block(block, conditions):
                changed = True
        return changed

    @staticmethod
    def _run_block(block: BasicBlock,
                   conditions: dict[Value, list[Region]]) -> bool:
        seen: dict[tuple, Value] = {}
        merged: list[Operation] = []
        for op in block.ops:
            key = expression_key(op)
            if key is None:
                continue
            existing = seen.get(key)
            if existing is None:
                seen[key] = op.result
                continue
            block.replace_all_uses(op.result, existing)
            for region in conditions.pop(op.result, ()):
                region.cond = existing
                conditions.setdefault(existing, []).append(region)
            if not op.result.uses:
                merged.append(op)
        # Merged ops leave together, not one list scan at a time.
        if merged:
            block.remove_ops(merged)
        return bool(merged)
