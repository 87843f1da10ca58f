"""Test-only oracles for the incremental Fig. 5 and Fig. 7 algorithms
and for the engine's one-per-synthesis liveness solve.

``reference_clique_partition`` is the textbook Tseng-Siewiorek loop:
it re-sorts every edge and recounts every common neighbourhood after
each merge.  ``repro.allocation.clique_partition`` must return the
same partitions.  The force-directed oracle is
``ForceDirectedScheduler(..., _reference=True)``.
``reference_live_out_variables`` ignores the live-out set the engine
hands over on each scheduling problem and re-solves the whole
procedure on every call.

:func:`reference_algorithms` swaps all three oracles into every
synthesis path, so whole designs built with and without them can be
compared stage by stage.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Hashable

import networkx as nx
import pytest

import repro.allocation.base as allocation_base
import repro.allocation.clique as clique_module
import repro.allocation.left_edge as left_edge_module
import repro.analysis.liveness as liveness_module
import repro.datapath.plan as plan_module
from repro.scheduling.force_directed import ForceDirectedScheduler


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


@contextmanager
def reference_algorithms():
    """Run every synthesis inside the block on all three oracles: the
    full-rescoring force-directed loop, the re-sorting clique loop and
    the per-call liveness solve in every consumer."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ForceDirectedScheduler, "_schedule_incremental",
                      ForceDirectedScheduler._schedule_reference)
        patch.setattr(clique_module, "clique_partition",
                      reference_clique_partition)
        for consumer in (left_edge_module, allocation_base, plan_module):
            patch.setattr(consumer, "live_out_variables",
                          reference_live_out_variables)
        yield
