"""Tree-height reduction: balance chains of associative operations.

A left-leaning chain ``(((a+b)+c)+d)`` has critical path 3 additions;
rebalancing to ``(a+b)+(c+d)`` cuts it to 2, exposing parallelism for
the scheduler.  This is one of the "high level transformations on the
behavior" the paper discusses (§4 notes when/in-what-order to apply
such transforms is an open problem — we simply apply it greedily to
maximal single-use chains).

Only ADD and MUL chains are rebalanced, only when every intermediate
value is used exactly once (so no other consumer observes the
intermediate), and only when all values share one type (so fixed-point
rounding is unaffected by reassociation — each partial sum is quantized
to the same grid either way; exact equality of results is guaranteed
for integers and for fixed-point values that do not overflow
intermediate widths differently, which tests verify on the library's
workloads).
"""

from __future__ import annotations

from ..ir.cdfg import CDFG
from ..ir.opcodes import OpKind
from ..ir.values import BasicBlock, Operation, Value
from .base import Pass

_ASSOCIATIVE = (OpKind.ADD, OpKind.MUL)


class TreeHeightReduction(Pass):
    """Rebalance single-use ADD/MUL chains into minimal-depth trees."""

    name = "tree-height"

    def run(self, cdfg: CDFG) -> bool:
        changed = False
        for block in cdfg.blocks():
            if self._run_block(block):
                changed = True
        return changed

    def _run_block(self, block: BasicBlock) -> bool:
        changed = False
        consumed: set[int] = set()  # internal ops of rebalanced chains
        for op in list(block.ops):
            if op.id in consumed:
                continue  # removed by an earlier rebalance
            if op.kind not in _ASSOCIATIVE or op.result is None:
                continue
            if self._is_chain_internal(op):
                continue  # only rebalance from the root of a chain
            leaves, internals = self._collect_chain(op)
            if len(internals) < 2 or len(leaves) < 3:
                continue  # depth already minimal
            depth = self._chain_depth(op)
            balanced_depth = (len(leaves) - 1).bit_length()
            if depth <= balanced_depth:
                continue
            self._rebuild(block, op, leaves, internals)
            consumed.update(internal.id for internal in internals)
            changed = True
        return changed

    # ------------------------------------------------------------------

    def _is_chain_internal(self, op: Operation) -> bool:
        """True when ``op`` feeds a same-kind op as a single-use value."""
        assert op.result is not None
        if len(op.result.uses) != 1:
            return False
        user, _ = op.result.uses[0]
        return user.kind is op.kind and user.block is op.block and \
            user.result is not None and user.result.type == op.result.type

    def _collect_chain(
        self, root: Operation
    ) -> tuple[list[Value], list[Operation]]:
        """Leaves and internal ops of the maximal same-kind chain rooted
        at ``root`` (internal = same kind, single use, same type)."""
        assert root.result is not None
        leaves: list[Value] = []
        internals: list[Operation] = [root]
        stack = [root]
        while stack:
            op = stack.pop()
            for value in op.operands:
                producer = value.producer
                if (
                    producer.kind is root.kind
                    and producer.block is root.block
                    and producer.result is value
                    and len(value.uses) == 1
                    and value.type == root.result.type
                ):
                    internals.append(producer)
                    stack.append(producer)
                else:
                    leaves.append(value)
        return leaves, internals[1:]  # root not counted as reusable

    def _chain_depth(self, root: Operation) -> int:
        """Height of the current chain (ops along the deepest path)."""
        assert root.result is not None
        height = 0
        stack = [(value, 1) for value in root.operands]
        while stack:
            value, depth = stack.pop()
            producer = value.producer
            if (
                producer.kind is root.kind
                and producer.block is root.block
                and producer.result is value
                and len(value.uses) == 1
                and value.type == root.result.type
            ):
                stack.extend((operand, depth + 1)
                             for operand in producer.operands)
            else:
                height = max(height, depth)
        return height

    def _rebuild(self, block: BasicBlock, root: Operation,
                 leaves: list[Value], internals: list[Operation]) -> None:
        """Replace the chain with a balanced tree over ``leaves``."""
        assert root.result is not None
        result_type = root.result.type
        kind = root.kind

        # Detach the old internal ops and the root from their operands,
        # one pass over each operand's uses (a leaf value may feed
        # thousands of chain ops).
        chain = [root, *internals]
        detached = {id(op) for op in chain}
        operands = {id(value): value for op in chain for value in op.operands}
        for value in operands.values():
            value.uses[:] = [use for use in value.uses
                             if id(use[0]) not in detached]
        for op in chain:
            op.operands = []

        # Pair leaves round by round (stable order: by value id).
        level = sorted(leaves, key=lambda v: v.id)
        while len(level) > 2:
            next_level: list[Value] = []
            for i in range(0, len(level) - 1, 2):
                op = block.emit(
                    kind, [level[i], level[i + 1]], result_type
                )
                assert op.result is not None
                next_level.append(op.result)
            if len(level) % 2:
                next_level.append(level[-1])
            level = next_level

        # The root op is reused for the final combine so its result
        # value (and every existing use of it) survives unchanged.
        root.operands = [level[0], level[1]]
        level[0].uses.append((root, 0))
        level[1].uses.append((root, 1))

        block.remove_ops(internals)
        block.retopo()
