"""Test-only oracles for the incremental Fig. 4, Fig. 5 and Fig. 7
algorithms and for the engine's one-per-synthesis liveness solve.

``reference_clique_partition`` is the textbook Tseng-Siewiorek loop:
it re-sorts every edge and recounts every common neighbourhood after
each merge.  ``repro.allocation.clique_partition`` must return the
same partitions.  ``reference_force_directed`` is the textbook HAL
loop: it recomputes every time frame, rebuilds every distribution
graph and rescores every pending operation after each placement;
``ReferenceForceDirectedScheduler`` runs it in place of the
incremental loop, and ``ForceDirectedScheduler`` must return the same
schedules.  ``reference_list_schedule`` is the rescanning list loop:
every pass re-filters every unscheduled op and re-derives the ready
step of each one whose predecessors are placed; ``ListScheduler``'s
ready-set loop must return the same schedules and count the same
deferrals.  ``reference_live_out_variables`` ignores the live-out set
the engine hands over on each scheduling problem and re-solves the
whole procedure on every call.  ``reference_dependence_graph`` builds
each scheduling problem's dependence graph as a networkx ``DiGraph``
through the same insertion sequence, checked and ordered by networkx's
own cycle check and lexicographic topological sort, in place of the
library's graph core (``repro.ir.graph``).

:func:`reference_algorithms` swaps all five oracles into every
synthesis path, so whole designs built with and without them can be
compared stage by stage.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Hashable, Iterable

import networkx as nx
import pytest

import repro.allocation.base as allocation_base
import repro.allocation.clique as clique_module
import repro.allocation.left_edge as left_edge_module
import repro.analysis.liveness as liveness_module
import repro.datapath.plan as plan_module
import repro.scheduling.base as scheduling_base
from repro.errors import IRError
from repro.ir import OpKind, Operation
from repro.obs import metrics
from repro.scheduling import ListScheduler, Schedule
from repro.scheduling.force_directed import (
    ForceDirectedScheduler,
    _DistributionState,
    _frames_with_fixed,
)


def reference_clique_partition(graph: nx.Graph) -> list[set[Hashable]]:
    """Partition nodes into cliques (Tseng-Siewiorek greedy merging).

    Nodes must be sortable for deterministic tie-breaking.  Returns
    cliques sorted by their smallest member.
    """
    work = nx.Graph()
    work.add_nodes_from(graph.nodes)
    work.add_edges_from(graph.edges)
    members: dict[Hashable, set[Hashable]] = {
        node: {node} for node in work.nodes
    }

    while work.number_of_edges() > 0:
        best_pair = None
        best_common = -1
        for u, v in sorted(work.edges, key=lambda e: tuple(sorted(e))):
            common = len(set(work[u]) & set(work[v]))
            if common > best_common:
                best_common = common
                best_pair = tuple(sorted((u, v)))
        assert best_pair is not None
        u, v = best_pair
        # Merge v into u: u stays adjacent only to common neighbours,
        # so every member of the super-node remains pairwise adjacent.
        common_neighbors = (set(work[u]) & set(work[v])) - {u, v}
        members[u] |= members.pop(v)
        work.remove_node(v)
        for neighbor in list(work[u]):
            if neighbor not in common_neighbors:
                work.remove_edge(u, neighbor)

    return sorted(members.values(), key=lambda clique: sorted(clique)[0])


def reference_force_directed(scheduler: ForceDirectedScheduler,
                             deadline: int) -> Schedule:
    """Pin one op per round at the placement of least total force,
    ties to the smallest (op id, step), rebuilding every frame and
    graph and rescoring every pending op each round.

    Scores through the scheduler's own ``_best_placement`` and
    ``_self_force``, so both loops add the same terms in the same
    order.
    """
    problem = scheduler.problem
    fixed: dict[int, int] = {}
    pending = set(problem.compute_op_ids())
    links = scheduler._links()
    while pending:
        frames = _frames_with_fixed(problem, deadline, fixed)
        graphs = _DistributionState(problem, deadline, frames).float_graphs()
        # Frames are fixed for one round, so the probability row of any
        # (op, frame) pair is evaluated once and shared by every
        # candidate placement that reads it.
        rows: dict[int, dict[tuple[int, int], dict[int, float]]] = {}

        def self_force(op_id: int, first: int, last: int) -> float:
            return scheduler._self_force(
                problem, frames, graphs, op_id, first, last,
                rows.setdefault(op_id, {}),
            )

        _, op_id, step = min(
            scheduler._best_placement(frames, links, op_id, self_force)
            for op_id in sorted(pending)
        )
        fixed[op_id] = step
        pending.discard(op_id)
    frames = _frames_with_fixed(problem, deadline, fixed)
    return scheduler._finish(fixed, frames)


class ReferenceForceDirectedScheduler(ForceDirectedScheduler):
    """``ForceDirectedScheduler`` on the textbook loop (same deadline
    default and the same legalization under unit caps)."""

    _schedule_incremental = reference_force_directed


def reference_list_schedule(scheduler: ListScheduler) -> Schedule:
    """List scheduling that rescans every unscheduled op on every pass
    and re-derives each candidate's ready step: the reference for
    ``ListScheduler.schedule``."""
    problem = scheduler.problem
    priority = scheduler._priority_fn(problem)
    start: dict[int, int] = {}
    usage: dict[tuple[int, str], int] = {}
    unscheduled = {op.id for op in problem.ops}
    unscheduled_preds = {
        op_id: set(problem.graph.predecessors(op_id))
        for op_id in unscheduled
    }

    step = 0
    guard = 0
    guard_limit = 10 * len(problem.ops) + problem.critical_path() + 100
    while unscheduled:
        guard += 1
        if guard > guard_limit:
            raise AssertionError("list scheduler failed to converge")
        progressed = True
        while progressed:
            progressed = False
            candidates = [
                op_id
                for op_id in unscheduled
                if not unscheduled_preds[op_id]
                and scheduler._ready_step(op_id, start) <= step
            ]
            candidates.sort(key=lambda op_id: (-priority[op_id], op_id))
            for op_id in candidates:
                placed_at = _reference_try_place(scheduler, op_id, step,
                                                 start, usage)
                if placed_at is None:
                    metrics().counter("scheduler.list.deferred").inc()
                    continue
                unscheduled.discard(op_id)
                for succ in problem.graph.successors(op_id):
                    if succ in unscheduled_preds:
                        unscheduled_preds[succ].discard(op_id)
                progressed = True
        step += 1

    return Schedule(problem, start, scheduler=scheduler.name)


def _reference_try_place(scheduler: ListScheduler, op_id: int, step: int,
                         start: dict[int, int],
                         usage: dict[tuple[int, str], int]) -> int | None:
    problem = scheduler.problem
    cls = problem.op_class(op_id)
    if cls is None:
        start[op_id] = scheduler._ready_step(op_id, start)
        return start[op_id]
    if scheduler._ready_step(op_id, start) > step:
        return None
    limit = problem.constraints.limit(cls)
    occupancy = problem.occupancy(op_id)
    if limit is not None and any(
        usage.get((step + k, cls), 0) >= limit
        for k in range(occupancy)
    ):
        return None
    for k in range(occupancy):
        usage[(step + k, cls)] = usage.get((step + k, cls), 0) + 1
    start[op_id] = step
    return step


def reference_live_out_variables(schedule) -> frozenset[str] | None:
    """Variables live out of the block(s) a schedule covers, from a
    whole-procedure solve made for this one call.

    None when the ops belong to blocks outside their CDFG's region
    tree, as in the library.
    """
    blocks = {op.block for op in schedule.problem.ops}
    if not blocks:
        return None
    cdfg = next(iter(blocks)).cdfg
    attached = {block.id for block in cdfg.blocks()}
    if any(block.id not in attached for block in blocks):
        return None
    liveness = liveness_module.variable_liveness(cdfg)
    live: frozenset[str] = frozenset()
    for block in blocks:
        live |= liveness.live_out[block.id]
    return live


def reference_dependence_graph(ops: Iterable[Operation]) -> nx.DiGraph:
    """``repro.ir.dependence_graph`` on a networkx ``DiGraph``: the same
    nodes, edges and insertion sequence, so neighbours iterate alike."""
    ops = list(ops)
    graph = nx.DiGraph()
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

    if not nx.is_directed_acyclic_graph(graph):
        raise IRError("dependence graph has a cycle")
    return graph


def _networkx_topological_order(graph: nx.DiGraph) -> list[int]:
    return list(nx.lexicographical_topological_sort(graph))


def _networkx_has_cycle(graph: nx.DiGraph) -> bool:
    return not nx.is_directed_acyclic_graph(graph)


@contextmanager
def reference_algorithms():
    """Run every synthesis inside the block on all five oracles: the
    rescanning list loop, the full-rescoring force-directed loop, the
    re-sorting clique loop, the per-call liveness solve in every
    consumer and networkx dependence graphs."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(scheduling_base, "dependence_graph",
                      reference_dependence_graph)
        patch.setattr(scheduling_base, "topological_order",
                      _networkx_topological_order)
        patch.setattr(scheduling_base, "has_cycle", _networkx_has_cycle)
        patch.setattr(ListScheduler, "schedule", reference_list_schedule)
        patch.setattr(ForceDirectedScheduler, "_schedule_incremental",
                      reference_force_directed)
        patch.setattr(clique_module, "clique_partition",
                      reference_clique_partition)
        for consumer in (left_edge_module, allocation_base, plan_module):
            patch.setattr(consumer, "live_out_variables",
                          reference_live_out_variables)
        yield
