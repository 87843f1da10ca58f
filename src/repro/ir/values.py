"""Core IR objects: values, operations and basic blocks.

The representation follows the tutorial's description of graph-based
internal forms: within a basic block, operations form a data-flow graph
whose arcs are :class:`Value` objects — "each value produced by one
operation and consumed by another is represented uniquely by an arc".
A value therefore has exactly one producer and any number of consumers.

Variables of the source program only appear at block boundaries, as
``VAR_READ`` sources (upward-exposed uses) and ``VAR_WRITE`` sinks (the
final assignment in the block).  Inside a block the builder renames
through values directly, which "removes the dependence on the way
internal variables are used in the specification" (paper §2) and is what
lets schedulers and allocators reorder freely.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterator

from ..errors import IRError
from .opcodes import OpKind, op_info
from .types import BOOL, Type

if TYPE_CHECKING:  # pragma: no cover
    from .cdfg import CDFG


class Value:
    """A dataflow arc: produced once, consumed anywhere in the block.

    Attributes:
        id: unique (per CDFG) integer identity; tie-break key everywhere.
        type: the value's scalar type.
        producer: the operation whose result this is.
        name: optional source-level name hint for diagnostics.
        uses: list of (operation, operand index) pairs consuming it.
    """

    __slots__ = ("id", "type", "producer", "name", "uses")

    def __init__(self, id: int, type_: Type, producer: "Operation",
                 name: str | None = None) -> None:
        self.id = id
        self.type = type_
        self.producer = producer
        self.name = name
        self.uses: list[tuple[Operation, int]] = []

    def __getstate__(self):
        # Without ``uses``: the producer's block restores them.
        return (None, {"id": self.id, "type": self.type,
                       "producer": self.producer, "name": self.name})

    def __repr__(self) -> str:
        hint = f":{self.name}" if self.name else ""
        return f"v{self.id}{hint}"


class Operation:
    """One node of a block's data-flow graph.

    Attributes:
        id: unique (per CDFG) integer identity.
        kind: the :class:`OpKind`.
        operands: input values, in positional order.
        result: the produced value, or None for sinks (writes, stores).
        block: owning basic block.
        attrs: kind-specific attributes — ``value`` for CONST, ``var``
            for VAR_READ/VAR_WRITE, ``memory`` for LOAD/STORE.
    """

    __slots__ = ("id", "kind", "operands", "result", "block", "attrs")

    def __init__(self, id: int, kind: OpKind, operands: list[Value],
                 block: "BasicBlock", attrs: dict[str, Any] | None = None) -> None:
        self.id = id
        self.kind = kind
        self.operands = list(operands)
        self.result: Value | None = None
        self.block = block
        self.attrs: dict[str, Any] = dict(attrs or {})

    def __getstate__(self):
        # Without ``operands``: the block restores them.
        return (None, {"id": self.id, "kind": self.kind,
                       "result": self.result, "block": self.block,
                       "attrs": self.attrs})

    @property
    def info(self):
        return op_info(self.kind)

    def replace_operand(self, index: int, new_value: Value) -> None:
        """Rewire operand ``index`` to ``new_value``, keeping use lists."""
        old = self.operands[index]
        old.uses.remove((self, index))
        self.operands[index] = new_value
        new_value.uses.append((self, index))

    def describe(self) -> str:
        """A one-line human-readable rendering for dumps and DOT labels."""
        if self.kind is OpKind.CONST:
            return f"const {self.attrs['value']}"
        if self.kind is OpKind.VAR_READ:
            return f"read {self.attrs['var']}"
        if self.kind is OpKind.VAR_WRITE:
            return f"{self.attrs['var']} := {self.operands[0]!r}"
        if self.kind in (OpKind.LOAD, OpKind.STORE):
            return f"{self.kind.value} {self.attrs['memory']}"
        return self.info.symbol

    def __repr__(self) -> str:
        res = f"{self.result!r} = " if self.result is not None else ""
        args = ", ".join(repr(v) for v in self.operands)
        return f"op{self.id}<{res}{self.kind.value}({args})>"


class BasicBlock:
    """A straight-line region: a bag of operations forming one DFG.

    Operations are stored in emission (program) order, but that order is
    only a *valid* topological order of the DFG — the data-flow graph is
    the authoritative source of ordering constraints, exactly as in the
    paper's Fig. 1 discussion.
    """

    __slots__ = ("id", "cdfg", "name", "ops")

    def __init__(self, id: int, cdfg: "CDFG", name: str | None = None) -> None:
        self.id = id
        self.cdfg = cdfg
        self.name = name or f"bb{id}"
        self.ops: list[Operation] = []

    # ------------------------------------------------------------------
    # Pickling.  Operands and uses link the ops of a block into chains
    # as long as the block; pickled through the objects themselves they
    # nest one level per link, so a long chain exceeded the recursion
    # limit.  Ops and values therefore pickle without their links, and
    # their block carries them, in their exact order, after its ops: an
    # op or value pickled on its own reaches the block through
    # ``block``/``producer``.
    # ------------------------------------------------------------------

    def __getstate__(self):
        links = [
            (op.operands, op.result,
             None if op.result is None else op.result.uses)
            for op in self.ops
        ]
        return self.id, self.cdfg, self.name, self.ops, links

    def __setstate__(self, state) -> None:
        self.id, self.cdfg, self.name, self.ops, links = state
        for op, (operands, result, uses) in zip(self.ops, links):
            op.operands = operands
            if result is not None:
                result.uses = uses

    # ------------------------------------------------------------------
    # Emission API (used by the frontend lowering and by workloads that
    # build CDFGs programmatically).
    # ------------------------------------------------------------------

    def emit(self, kind: OpKind, operands: list[Value] | None = None,
             result_type: Type | None = None, name: str | None = None,
             **attrs: Any) -> Operation:
        """Append an operation; create and return it.

        ``result_type`` must be given exactly when the kind produces a
        result.  Comparison kinds may omit it (defaults to BOOL).
        """
        operands = operands or []
        info = op_info(kind)
        if info.arity >= 0 and len(operands) != info.arity:
            raise IRError(
                f"{kind} expects {info.arity} operands, got {len(operands)}"
            )
        op = Operation(self.cdfg.next_op_id(), kind, operands, self, attrs)
        for index, value in enumerate(operands):
            value.uses.append((op, index))
        if info.has_result:
            if result_type is None:
                if not info.is_compare:
                    raise IRError(f"{kind} needs an explicit result type")
                result_type = BOOL
            op.result = Value(self.cdfg.next_value_id(), result_type, op, name)
        self.ops.append(op)
        return op

    def const(self, value, type_: Type, name: str | None = None) -> Value:
        """Emit a CONST op and return its value."""
        op = self.emit(OpKind.CONST, [], type_, name=name, value=value)
        assert op.result is not None
        return op.result

    def read(self, var: str, type_: Type) -> Value:
        """Emit a VAR_READ of ``var`` and return its value."""
        op = self.emit(OpKind.VAR_READ, [], type_, name=var, var=var)
        assert op.result is not None
        return op.result

    def write(self, var: str, value: Value) -> Operation:
        """Emit the VAR_WRITE sink assigning ``value`` to ``var``."""
        return self.emit(OpKind.VAR_WRITE, [value], var=var)

    # ------------------------------------------------------------------
    # Mutation helpers used by the transform passes.
    # ------------------------------------------------------------------

    def remove_op(self, op: Operation) -> None:
        """Remove a dead operation (its result must be unused)."""
        if op.result is not None and op.result.uses:
            raise IRError(f"cannot remove {op!r}: result still has uses")
        for index, value in enumerate(op.operands):
            value.uses.remove((op, index))
        self.ops.remove(op)

    def remove_ops(self, ops: list[Operation]) -> None:
        """Remove dead operations (results unused) all at once: one pass
        over the block's ops and one over each operand's use list,
        however many of the removed ops read that operand."""
        dead = {id(op) for op in ops}
        operands: dict[int, Value] = {}
        for op in ops:
            if op.result is not None and op.result.uses:
                raise IRError(f"cannot remove {op!r}: result still has uses")
            for value in op.operands:
                operands[id(value)] = value
        for value in operands.values():
            value.uses[:] = [use for use in value.uses
                             if id(use[0]) not in dead]
        self.ops = [op for op in self.ops if id(op) not in dead]

    def replace_all_uses(self, old: Value, new: Value) -> None:
        """Redirect every use of ``old`` to ``new``."""
        if old is new:
            return
        for op, index in list(old.uses):
            op.replace_operand(index, new)

    def retopo(self) -> None:
        """Re-sort ``ops`` into a valid topological order of the DFG.

        Transform passes that rewire operands can leave the list order
        inconsistent with data dependences; this restores the invariant
        (stable: preserves current relative order among independent ops).
        """
        placed: set[int] = set()
        ordered: list[Operation] = []
        remaining = list(self.ops)
        while remaining:
            progressed = False
            still: list[Operation] = []
            for op in remaining:
                ready = all(
                    value.producer.block is not self
                    or value.producer.id in placed
                    for value in op.operands
                )
                if ready:
                    ordered.append(op)
                    placed.add(op.id)
                    progressed = True
                else:
                    still.append(op)
            if not progressed:
                raise IRError(f"cycle in block {self.name} data-flow graph")
            remaining = still
        self.ops = ordered

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def var_writes(self) -> dict[str, Operation]:
        """Map variable name -> its VAR_WRITE sink in this block."""
        return {
            op.attrs["var"]: op
            for op in self.ops
            if op.kind is OpKind.VAR_WRITE
        }

    def compute_ops(self) -> list[Operation]:
        """Operations other than the free data plumbing kinds."""
        plumbing = (OpKind.CONST, OpKind.VAR_READ, OpKind.VAR_WRITE, OpKind.NOP)
        return [op for op in self.ops if op.kind not in plumbing]

    def validate(self) -> None:
        """Check block-local IR invariants; raise :class:`IRError`."""
        seen: set[int] = set()
        # Use entries per operand value, by op identity: one pass over
        # each value's uses, however many ops in the block read it.
        use_entries: dict[int, set[tuple[int, int]]] = {}
        for op in self.ops:
            for index, value in enumerate(op.operands):
                entries = use_entries.get(id(value))
                if entries is None:
                    entries = use_entries[id(value)] = {
                        (id(user), position) for user, position in value.uses
                    }
                if (id(op), index) not in entries:
                    raise IRError(f"{op!r} operand {index} missing from uses")
                if value.producer.block is self and value.producer.id not in seen:
                    raise IRError(
                        f"{op!r} uses {value!r} before its producer in {self.name}"
                    )
            seen.add(op.id)
            if op.result is not None:
                for user, index in op.result.uses:
                    if user.operands[index] is not op.result:
                        raise IRError(f"stale use entry on {op.result!r}")

    def __iter__(self) -> Iterator[Operation]:
        return iter(self.ops)

    def __len__(self) -> int:
        return len(self.ops)

    def __repr__(self) -> str:
        return f"<BasicBlock {self.name} ({len(self.ops)} ops)>"
