"""Purpose-built DFGs reproducing the paper's Figures 3-7.

Each builder returns a single-block CDFG whose scheduled behaviour
exhibits exactly the phenomenon the figure illustrates; the benches in
``benchmarks/`` assert the figure's numbers on them.
"""

from __future__ import annotations

from ..ir.cdfg import CDFG, BlockRegion
from ..ir.opcodes import OpKind
from ..ir.types import FixedType
from ..ir.values import BasicBlock

_WORD = FixedType(16, 8)


def _single_block_cdfg(name: str, inputs: list[str],
                       outputs: list[str]) -> tuple[CDFG, BasicBlock]:
    cdfg = CDFG(name)
    for port in inputs:
        cdfg.add_input(port, _WORD)
    for port in outputs:
        cdfg.add_output(port, _WORD)
    block = cdfg.new_block("body")
    cdfg.body = BlockRegion(block)
    return cdfg, block


def fig3_cdfg() -> CDFG:
    """The ASAP-suboptimality example of Figures 3 and 4.

    One non-critical multiplication (``m1``) precedes the critical
    multiply→add→add chain in the fixed selection order.  With one
    multiplier and one adder, ASAP schedules ``m1`` first and blocks
    the chain's multiply, giving 4 steps; list scheduling (priority =
    path length, Fig. 4) runs the chain first, giving the optimal 3.
    """
    cdfg, block = _single_block_cdfg(
        "fig3", ["a", "b", "c", "d"], ["p", "q"]
    )
    a = block.read("a", _WORD)
    b = block.read("b", _WORD)
    c = block.read("c", _WORD)
    d = block.read("d", _WORD)
    # Operation ids grow in emission order, so m1 precedes m2 in the
    # ASAP selection order — exactly the trap of Fig. 3.
    m1 = block.emit(OpKind.MUL, [a, b], _WORD)       # non-critical
    m2 = block.emit(OpKind.MUL, [c, d], _WORD)       # critical chain...
    a1 = block.emit(OpKind.ADD, [m2.result, a], _WORD)
    a2 = block.emit(OpKind.ADD, [a1.result, b], _WORD)
    block.write("p", m1.result)
    block.write("q", a2.result)
    cdfg.validate()
    return cdfg


def fig5_cdfg() -> CDFG:
    """The force-directed distribution-graph example of Figure 5.

    Under a 3-step time constraint the three additions have frames:
    a1 pinned to the first step (a multiply chain follows it), a2
    pinned to the second (a multiply precedes and follows it), and a3
    free across the last two.  The addition distribution graph is
    therefore [1, 1.5, 0.5], and balancing places a3 in the final step.
    """
    cdfg, block = _single_block_cdfg(
        "fig5", ["u", "v", "w", "x"], ["o1", "o2", "o3"]
    )
    u = block.read("u", _WORD)
    v = block.read("v", _WORD)
    w = block.read("w", _WORD)
    x = block.read("x", _WORD)
    # a1 -> m1 -> m2 pins a1 at step 0.
    a1 = block.emit(OpKind.ADD, [u, v], _WORD)
    m1 = block.emit(OpKind.MUL, [a1.result, w], _WORD)
    m2 = block.emit(OpKind.MUL, [m1.result, x], _WORD)
    # p1 -> a2 -> p2 pins a2 at step 1.
    p1 = block.emit(OpKind.MUL, [u, v], _WORD)
    a2 = block.emit(OpKind.ADD, [p1.result, w], _WORD)
    p2 = block.emit(OpKind.MUL, [a2.result, x], _WORD)
    # p3 -> a3 leaves a3 the frame {1, 2}.
    p3 = block.emit(OpKind.MUL, [w, x], _WORD)
    a3 = block.emit(OpKind.ADD, [p3.result, u], _WORD)
    block.write("o1", m2.result)
    block.write("o2", p2.result)
    block.write("o3", a3.result)
    cdfg.validate()
    return cdfg


def fig6_cdfg() -> CDFG:
    """The greedy datapath-allocation example of Figures 6 and 7.

    Four additions over three control steps (two adders): a1 and a2 in
    the first step, a3 in the second, a4 (consuming a3) in the third.
    Operand reuse is arranged so that interconnect-aware assignment
    (a3 onto the adder that already sees ``z``; a4 onto the adder with
    the existing register connection for ``y``) needs strictly fewer
    multiplexer inputs than cost-blind first-fit.
    """
    cdfg, block = _single_block_cdfg(
        "fig6", ["x", "y", "z", "w", "q"], ["o1", "o2", "o3", "o4"]
    )
    x = block.read("x", _WORD)
    y = block.read("y", _WORD)
    z = block.read("z", _WORD)
    w = block.read("w", _WORD)
    q = block.read("q", _WORD)
    a1 = block.emit(OpKind.ADD, [x, y], _WORD)
    a2 = block.emit(OpKind.ADD, [z, w], _WORD)
    a3 = block.emit(OpKind.ADD, [z, q], _WORD)
    a4 = block.emit(OpKind.ADD, [a3.result, y], _WORD)
    block.write("o1", a1.result)
    block.write("o2", a2.result)
    block.write("o3", a3.result)
    block.write("o4", a4.result)
    cdfg.validate()
    return cdfg
