"""Test-only oracles for the incremental Fig. 5 and Fig. 7 algorithms.

``reference_clique_partition`` is the textbook Tseng-Siewiorek loop:
it re-sorts every edge and recounts every common neighbourhood after
each merge.  ``repro.allocation.clique_partition`` must return the
same partitions.  The force-directed oracle is
``ForceDirectedScheduler(..., _reference=True)``.

:func:`reference_algorithms` swaps both oracles into every synthesis
path, so whole designs built with and without them can be compared
stage by stage.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Hashable

import networkx as nx
import pytest

import repro.allocation.clique as clique_module
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


@contextmanager
def reference_algorithms():
    """Run every synthesis inside the block on both oracles: the
    full-rescoring force-directed loop and the re-sorting clique
    loop."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ForceDirectedScheduler, "_schedule_incremental",
                      ForceDirectedScheduler._schedule_reference)
        patch.setattr(clique_module, "clique_partition",
                      reference_clique_partition)
        yield
