"""Clique-partitioning allocation (Tseng & Siewiorek, paper Fig. 7).

§3.2.2: "creating graphs in which the elements to be assigned to
hardware … are represented by nodes, and there is an arc between two
nodes if and only if the corresponding elements can share the same
hardware.  The problem then becomes one of finding those sets of nodes
… all of whose members are connected to one another … the so-called
clique finding problem. … Unfortunately, finding the maximal cliques in
a graph is an NP-hard problem, so in practice, greedy heuristics are
employed."

The greedy heuristic implemented is Tseng & Siewiorek's: repeatedly
merge the compatible pair with the most common neighbours (ties broken
deterministically), shrinking the graph until no edges remain; each
super-node is one clique = one shared hardware unit.  For small graphs
an exact minimum clique cover (exponential) is available for tests.
"""

from __future__ import annotations

import heapq
from itertools import combinations
from typing import Hashable

from ..ir.graph import Graph
from .base import Allocation, Allocator, FUInstance, ops_compatible
from .lifetimes import compute_lifetimes


def _common_count(adjacency: dict[Hashable, set[Hashable]],
                  u: Hashable, v: Hashable) -> int:
    """Number of common neighbours of ``u`` and ``v``."""
    return len(adjacency[u] & adjacency[v])


def clique_partition(graph: Graph) -> list[set[Hashable]]:
    """Partition nodes into cliques (Tseng-Siewiorek greedy merging).

    Each step merges the edge with the most common neighbours, ties to
    the smallest sorted pair.  Self-loops are ignored: a node always
    shares hardware with itself.  Nodes must be sortable for
    deterministic tie-breaking.  Returns cliques sorted by their
    smallest member.  Reads only ``graph.nodes`` and ``graph.edges``.

    A merge only shrinks neighbourhoods, so common-neighbour counts
    only fall.  The candidate edges therefore sit in a lazy max-heap
    whose keys are upper bounds on their counts: a popped edge is
    recounted, and if its key is still exact it is the greedy choice;
    otherwise it goes back with the lower count.
    """
    adjacency: dict[Hashable, set[Hashable]] = {
        node: set() for node in graph.nodes
    }
    for u, v in graph.edges:
        if u != v:
            adjacency[u].add(v)
            adjacency[v].add(u)
    members: dict[Hashable, set[Hashable]] = {
        node: {node} for node in adjacency
    }
    heap: list[tuple[int, Hashable, Hashable]] = []
    for u, neighbours in adjacency.items():
        for v in neighbours:
            if u < v:
                heap.append((-_common_count(adjacency, u, v), u, v))
    heapq.heapify(heap)

    while heap:
        key, u, v = heapq.heappop(heap)
        if v not in adjacency.get(u, ()):
            continue  # an endpoint was merged away or the edge dropped
        common = _common_count(adjacency, u, v)
        if common != -key:
            heapq.heappush(heap, (-common, u, v))
            continue
        # Merge v into u: u stays adjacent only to common neighbours,
        # so every member of the super-node remains pairwise adjacent.
        shared = adjacency[u] & adjacency[v]
        for neighbour in adjacency.pop(v):
            adjacency[neighbour].discard(v)
        for neighbour in adjacency[u] - shared:
            adjacency[neighbour].discard(u)
        adjacency[u] = shared
        members[u] |= members.pop(v)

    return sorted(members.values(), key=lambda clique: sorted(clique)[0])


def exact_minimum_clique_cover(graph: Graph,
                               max_nodes: int = 16) -> list[set[Hashable]]:
    """Optimal clique cover by exhaustive search (small graphs only).

    Equivalent to optimal coloring of the complement graph.  Used by
    tests to certify the greedy heuristic on the paper's examples.
    Reads only ``graph.nodes`` and ``graph.has_edge``.
    """
    nodes = sorted(graph.nodes)
    if len(nodes) > max_nodes:
        raise ValueError(f"exact cover limited to {max_nodes} nodes")
    if not nodes:
        return []

    best: list[set[Hashable]] | None = None

    def extend(index: int, cliques: list[set[Hashable]]) -> None:
        nonlocal best
        if best is not None and len(cliques) >= len(best):
            return
        if index == len(nodes):
            best = [set(c) for c in cliques]
            return
        node = nodes[index]
        for clique in cliques:
            if all(graph.has_edge(node, member) for member in clique):
                clique.add(node)
                extend(index + 1, cliques)
                clique.remove(node)
        cliques.append({node})
        extend(index + 1, cliques)
        cliques.pop()

    extend(0, [])
    assert best is not None
    return sorted(best, key=lambda clique: sorted(clique)[0])


def fu_compatibility_graph(schedule) -> Graph:
    """Fig. 7's graph: nodes = resource-using ops; edge ⇔ same class and
    disjoint active steps."""
    graph = Graph()
    op_ids = schedule.problem.compute_op_ids()
    graph.add_nodes_from(op_ids)
    for op_a, op_b in combinations(op_ids, 2):
        if ops_compatible(schedule, op_a, op_b):
            graph.add_edge(op_a, op_b)
    return graph


def register_compatibility_graph(schedule) -> Graph:
    """Nodes = register-needing values; edge ⇔ disjoint lifetimes."""
    lifetimes = compute_lifetimes(schedule)
    graph = Graph()
    graph.add_nodes_from(lt.value.id for lt in lifetimes)
    for lt_a, lt_b in combinations(lifetimes, 2):
        if not lt_a.conflicts_with(lt_b):
            graph.add_edge(lt_a.value.id, lt_b.value.id)
    return graph


class CliqueAllocator(Allocator):
    """FU and register allocation by greedy clique partitioning."""

    name = "clique"

    def allocate(self) -> Allocation:
        schedule = self.schedule
        problem = schedule.problem
        allocation = Allocation(schedule, allocator=self.name)

        # Functional units, class by class.
        fu_graph = fu_compatibility_graph(schedule)
        by_class: dict[str, list[int]] = {}
        for op_id in fu_graph.nodes:
            cls = problem.op_class(op_id)
            assert cls is not None
            by_class.setdefault(cls, []).append(op_id)
        for cls in sorted(by_class):
            subgraph = fu_graph.subgraph(by_class[cls])
            for index, clique in enumerate(clique_partition(subgraph)):
                for op_id in clique:
                    allocation.fu_map[op_id] = FUInstance(cls, index)

        # Registers.
        reg_graph = register_compatibility_graph(schedule)
        for index, clique in enumerate(clique_partition(reg_graph)):
            for value_id in clique:
                allocation.register_map[value_id] = index

        return allocation
