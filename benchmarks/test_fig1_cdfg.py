"""F1 — Figure 1: the sqrt program's control-flow and data-flow graphs.

Reproduces the figure's content: the program compiles into a two-block
CDFG (initialization + loop body) whose data-flow graph encodes exactly
the essential orderings the paper points out — the multiplication must
precede the addition it feeds, while ``I + 1`` is independent of the
whole Y-chain and "may be done in parallel with those operations".
"""

from conftest import print_table
from repro.ir import OpKind, dependence_graph
from repro.ir.dfg import transitive_successors
from repro.workloads import sqrt_cdfg


def build():
    cdfg = sqrt_cdfg()
    cdfg.validate()
    return cdfg


def test_fig1_cdfg(benchmark):
    cdfg = benchmark(build)

    blocks = cdfg.blocks()
    assert len(blocks) == 2, "init block + loop body (Fig. 1 structure)"
    loop = cdfg.loops()[0]
    assert loop.test_in_body and loop.exit_on_true

    entry, body = blocks
    rows = []
    for block in blocks:
        graph = dependence_graph(block.ops)
        rows.append(
            f"{block.name}: {len(block.ops)} ops, "
            f"{graph.number_of_edges()} data-flow arcs"
        )

    # "the addition ... depends for its input on data produced by the
    # multiplication ... the multiplication must be done first."
    entry_graph = dependence_graph(entry.ops)
    mul = next(op for op in entry.ops if op.kind is OpKind.MUL)
    add = next(op for op in entry.ops if op.kind is OpKind.ADD)
    assert add.id in transitive_successors(entry_graph, mul.id)

    # "there is no dependence between the I + 1 operation ... and any of
    # the operations in the chain that calculates Y."
    body_graph = dependence_graph(body.ops)
    inc_add = next(
        op for op in body.ops
        if op.kind is OpKind.ADD
        and any(v.name == "I" for v in op.operands)
    )
    y_chain = [
        op for op in body.ops
        if op.kind in (OpKind.DIV, OpKind.MUL)
        or (op.kind is OpKind.ADD and op is not inc_add)
    ]
    inc_successors = transitive_successors(body_graph, inc_add.id)
    for y_op in y_chain:
        assert inc_add.id not in transitive_successors(body_graph, y_op.id)
        assert y_op.id not in inc_successors
    rows.append(
        "I+1 is independent of the Y-chain "
        f"({len(y_chain)} ops) — may run in parallel  [paper: check]"
    )
    print_table("Fig. 1 — sqrt CDFG", rows)
