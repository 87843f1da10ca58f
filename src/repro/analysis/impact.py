"""Edit-impact analysis: content digests and CDFG differencing.

Incremental re-synthesis (:mod:`repro.core.incremental`) needs to know,
after a source edit, which basic blocks of the freshly compiled CDFG
are *content-identical* to blocks of a previously synthesized template
— those can replay their cached schedules.  An unchanged block's
replayed schedule is legal whatever data flows into it, so no def-use
closure of the edit is computed.

Identity is structural, not positional: :func:`block_digest` hashes a
block's operation list with every value reference rewritten to a
process-independent coordinate (the producer's position within its
block, or ``(block name, position)`` for cross-block references), so
two compiles of the same text — in different processes, with different
id counters — digest equal.  Blocks are matched *by name*: the
frontend numbers blocks in emission order per CDFG, so unchanged
program prefixes keep their names across compiles.  A structural edit
(added/removed control flow) shifts names, which conservatively lands
blocks in ``dirty``/``added``/``removed`` — reuse degrades, soundness
does not: a replayed schedule is validated against its new block
before use and the whole pipeline still runs on the new CDFG.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from ..ir.cdfg import CDFG
from ..ir.values import BasicBlock


def _op_positions(cdfg: CDFG) -> dict[int, tuple[str, int]]:
    """Op id → (owning block name, position in that block)."""
    positions: dict[int, tuple[str, int]] = {}
    for block in cdfg.blocks():
        for index, op in enumerate(block.ops):
            positions[op.id] = (block.name, index)
    return positions


def _block_content(block: BasicBlock,
                   positions: dict[int, tuple[str, int]]) -> tuple:
    parts = []
    for op in block.ops:
        operands = []
        for value in op.operands:
            producer = value.producer
            where = positions.get(producer.id)
            if producer.block is block:
                ref = ("local", where[1] if where else -1)
            else:
                ref = ("ext",) + (where or ("?", -1))
            operands.append(ref + (str(value.type),))
        attrs = tuple(sorted(
            (name, repr(attr)) for name, attr in op.attrs.items()
        ))
        result = None if op.result is None else str(op.result.type)
        parts.append((op.kind.value, attrs, tuple(operands), result))
    return tuple(parts)


def block_digest(block: BasicBlock,
                 positions: dict[int, tuple[str, int]] | None = None,
                 ) -> str:
    """Process-independent content digest of one basic block."""
    if positions is None:
        positions = _op_positions(block.cdfg)
    payload = repr(_block_content(block, positions))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def cdfg_digests(cdfg: CDFG) -> dict[str, str]:
    """Block name → content digest for every non-empty block."""
    positions = _op_positions(cdfg)
    return {
        block.name: block_digest(block, positions)
        for block in cdfg.blocks()
    }


@dataclass
class CDFGDelta:
    """What changed between two compiles of (nearly) the same program.

    All lists hold block *names*.  ``unchanged`` blocks exist in both
    CDFGs with equal content digests — safe to replay per-block
    results onto; ``dirty`` blocks exist in both with different
    content, ``added`` only in the new CDFG, ``removed`` only in the
    old one.
    """

    unchanged: list[str] = field(default_factory=list)
    dirty: list[str] = field(default_factory=list)
    added: list[str] = field(default_factory=list)
    removed: list[str] = field(default_factory=list)


def diff_cdfgs(old: CDFG, new: CDFG) -> CDFGDelta:
    """Compare two compiled CDFGs block by block.

    ``old`` is typically a previously synthesized (and therefore
    already transformed) template; ``new`` the fresh compile of the
    edited source, transformed with the same pipeline so that unchanged
    program text yields byte-identical block content.
    """
    old_digests = cdfg_digests(old)
    new_digests = cdfg_digests(new)
    delta = CDFGDelta()
    for name, digest in new_digests.items():
        if name not in old_digests:
            delta.added.append(name)
        elif old_digests[name] == digest:
            delta.unchanged.append(name)
        else:
            delta.dirty.append(name)
    delta.removed = [
        name for name in old_digests if name not in new_digests
    ]
    return delta
