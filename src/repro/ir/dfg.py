"""Dependence-graph views over IR operations.

Schedulers and allocators never walk ``Value.uses`` directly; they
operate on an explicit *dependence graph* built here.  The graph
contains one node per operation (keyed by the operation's id, with the
operation object attached) and one edge per ordering constraint:

* ``data`` edges — the producer of an operand must run first.  These
  are the "essential ordering of operations … imposed by the data
  relations" of the paper's Fig. 1.
* ``memory`` edges — loads and stores on the same memory are
  serialized conservatively (store→store, store→load, load→store),
  since the IR performs no alias analysis beyond the memory name.
* ``var`` edges — when several blocks are fused into one scheduling
  region, a write of a variable in an earlier block must precede reads
  of it in later blocks.

The graph is a :class:`~repro.ir.graph.DiGraph`, so every iteration
order is deterministic.  Nodes iterate in ``ops`` order.  An op's
predecessors and successors iterate in edge insertion order: all data
edges first (consumers in ``ops`` order, each by operand), then memory
edges, then variable edges, then any timing edges a
:class:`~repro.scheduling.SchedulingProblem` folds in.  Only
:func:`topological_order` goes by smallest operation id.
"""

from __future__ import annotations

from typing import Callable, Iterable

from ..errors import IRError
from .graph import (
    DiGraph,
    ancestors,
    descendants,
    has_cycle,
    topological_order,
)
from .opcodes import OpKind
from .values import Operation

DelayFn = Callable[[Operation], int]


def dependence_graph(ops: Iterable[Operation]) -> DiGraph:
    """Build the dependence DAG over ``ops``.

    ``ops`` must be in a valid execution order (block emission order, or
    concatenated block orders for fused regions); memory and variable
    edges are derived from that order.
    """
    ops = list(ops)
    graph = DiGraph()
    in_set = {op.id for op in ops}
    for op in ops:
        graph.add_node(op.id, op=op)

    # Data edges.
    for op in ops:
        for value in op.operands:
            producer = value.producer
            if producer.id in in_set and producer.id != op.id:
                graph.add_edge(producer.id, op.id, reason="data")

    # Memory serialization edges (per memory, in program order).
    last_store: dict[str, Operation] = {}
    loads_since_store: dict[str, list[Operation]] = {}
    for op in ops:
        if op.kind is OpKind.LOAD:
            memory = op.attrs["memory"]
            if memory in last_store:
                graph.add_edge(last_store[memory].id, op.id, reason="memory")
            loads_since_store.setdefault(memory, []).append(op)
        elif op.kind is OpKind.STORE:
            memory = op.attrs["memory"]
            if memory in last_store:
                graph.add_edge(last_store[memory].id, op.id, reason="memory")
            for load in loads_since_store.get(memory, []):
                graph.add_edge(load.id, op.id, reason="memory")
            last_store[memory] = op
            loads_since_store[memory] = []

    # Cross-block variable edges (only relevant for fused regions).
    last_write: dict[str, Operation] = {}
    for op in ops:
        if op.kind is OpKind.VAR_READ:
            var = op.attrs["var"]
            if var in last_write and last_write[var].block is not op.block:
                graph.add_edge(last_write[var].id, op.id, reason="var")
        elif op.kind is OpKind.VAR_WRITE:
            last_write[op.attrs["var"]] = op

    if has_cycle(graph):
        raise IRError("dependence graph has a cycle")
    return graph


def op_of(graph: DiGraph, op_id: int) -> Operation:
    """The operation object attached to node ``op_id``."""
    return graph.nodes[op_id]["op"]


def path_length_to_sink(graph: DiGraph, delay: DelayFn,
                        order: list[int] | None = None) -> dict[int, int]:
    """For each op, the longest delay-weighted path from it to any sink.

    This is the classic list-scheduling priority the paper attributes to
    BUD: "the length of the path from the operation to the end of the
    block".  The length *includes* the op's own delay.  ``order`` lets
    callers reuse an already-computed topological order.
    """
    if order is None:
        order = topological_order(graph)
    lengths: dict[int, int] = {}
    for op_id in reversed(order):
        op = op_of(graph, op_id)
        best_succ = max(
            (lengths[succ] for succ in graph.successors(op_id)), default=0
        )
        lengths[op_id] = delay(op) + best_succ
    return lengths


def path_length_from_source(graph: DiGraph, delay: DelayFn) -> dict[int, int]:
    """For each op, the longest delay-weighted path from any source up to
    (but not including) the op itself — i.e. its earliest possible start
    if resources were unlimited."""
    lengths: dict[int, int] = {}
    for op_id in topological_order(graph):
        best_pred = 0
        for pred in graph.predecessors(op_id):
            pred_op = op_of(graph, pred)
            best_pred = max(best_pred, lengths[pred] + delay(pred_op))
        lengths[op_id] = best_pred
    return lengths


def critical_path_length(graph: DiGraph, delay: DelayFn) -> int:
    """Delay of the longest path through the DAG (0 for an empty graph)."""
    to_sink = path_length_to_sink(graph, delay)
    return max(to_sink.values(), default=0)


def transitive_predecessors(graph: DiGraph, op_id: int) -> set[int]:
    """All ops that must execute before ``op_id``."""
    return ancestors(graph, op_id)


def transitive_successors(graph: DiGraph, op_id: int) -> set[int]:
    """All ops that must execute after ``op_id``."""
    return descendants(graph, op_id)
