"""Register allocation by conflict-graph coloring.

The dual formulation of Fig. 7's clique approach: instead of cliques in
the *compatibility* graph, color the *conflict* graph (values connected
iff their lifetimes overlap); each color is a register.  Greedy
largest-degree-first coloring is used — on interval conflict graphs it
matches the left-edge optimum, which tests assert.
"""

from __future__ import annotations

from itertools import combinations

from ..ir.graph import Graph
from .base import Allocation, Allocator
from .left_edge import LeftEdgeRegisterAllocator
from .lifetimes import compute_lifetimes


def register_conflict_graph(schedule) -> Graph:
    """Nodes = register-needing values; edge ⇔ overlapping lifetimes."""
    lifetimes = compute_lifetimes(schedule)
    graph = Graph()
    graph.add_nodes_from(lt.value.id for lt in lifetimes)
    for lt_a, lt_b in combinations(lifetimes, 2):
        if lt_a.conflicts_with(lt_b):
            graph.add_edge(lt_a.value.id, lt_b.value.id)
    return graph


class ColoringRegisterAllocator(Allocator):
    """Conflict-graph-coloring registers; FU assignment as left-edge."""

    name = "coloring"

    def allocate(self) -> Allocation:
        seed = LeftEdgeRegisterAllocator(self.schedule).allocate()
        allocation = Allocation(
            self.schedule,
            fu_map=dict(seed.fu_map),
            allocator=self.name,
        )
        conflict = register_conflict_graph(self.schedule)
        order = sorted(
            conflict.nodes,
            key=lambda node: (-conflict.degree(node), node),
        )
        colors: dict[int, int] = {}
        for node in order:
            taken = {
                colors[neighbor]
                for neighbor in conflict[node]
                if neighbor in colors
            }
            color = 0
            while color in taken:
                color += 1
            colors[node] = color
        allocation.register_map = colors
        return allocation
