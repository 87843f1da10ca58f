"""``clique_partition`` against its test-only oracle.

The library's lazy-heap Tseng-Siewiorek loop must pick the same merge
as the textbook loop (``tests/oracles.py``) at every step — the edge
with the most common neighbours, ties to the smallest sorted pair — so
the partitions must be identical, not just equally large.  FU
compatibility graphs are complete multipartite (one part per control
step), so that family gets its own strategy.
"""

import random
from itertools import combinations

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.allocation.clique as clique_module
from repro.allocation import clique_partition

from .oracles import reference_clique_partition


@st.composite
def random_graphs(draw, max_nodes=14):
    n = draw(st.integers(0, max_nodes))
    pairs = list(combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs),
                         max_size=len(pairs)))
    graph = nx.Graph()
    graph.add_nodes_from(range(n))
    graph.add_edges_from(pair for pair, kept in zip(pairs, keep) if kept)
    return graph


def complete_graphs(max_nodes=12):
    return st.integers(0, max_nodes).map(nx.complete_graph)


def multipartite_graphs(max_parts=8):
    return st.lists(st.integers(1, 5), min_size=1, max_size=max_parts).map(
        lambda parts: nx.complete_multipartite_graph(*parts)
    )


def disconnected_graphs():
    component = st.one_of(random_graphs(6), complete_graphs(6),
                          multipartite_graphs(3))
    return st.lists(component, min_size=2, max_size=4).map(
        nx.disjoint_union_all
    )


@st.composite
def shuffled_ids(draw, graphs):
    """The graph with its nodes renamed to arbitrary distinct ids, so
    tie-breaks cannot lean on ids that follow construction order."""
    graph = draw(graphs)
    ids = draw(st.lists(st.integers(0, 10_000), unique=True,
                        min_size=len(graph), max_size=len(graph)))
    return nx.relabel_nodes(graph, dict(zip(graph.nodes, ids)))


FAMILIES = {
    "random": random_graphs(),
    "complete": complete_graphs(),
    "multipartite": multipartite_graphs(),
    "disconnected": disconnected_graphs(),
}


def test_empty_graph_matches_reference():
    assert clique_partition(nx.Graph()) == reference_clique_partition(
        nx.Graph()
    ) == []


@pytest.mark.parametrize("family", sorted(FAMILIES))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_partition_matches_reference(family, data):
    graph = data.draw(shuffled_ids(FAMILIES[family]))
    assert clique_partition(graph) == reference_clique_partition(graph)


def test_larger_multipartite_and_random_graphs_match_reference():
    rng = random.Random(11)
    for _ in range(6):
        parts = [rng.randint(1, 7) for _ in range(rng.randint(4, 10))]
        graph = nx.complete_multipartite_graph(*parts)
        assert clique_partition(graph) == reference_clique_partition(graph)
    for _ in range(6):
        graph = nx.gnp_random_graph(45, rng.random(),
                                    seed=rng.randrange(10 ** 6))
        assert clique_partition(graph) == reference_clique_partition(graph)


def test_self_loops_are_ignored():
    """A node always shares hardware with itself; a self-loop used to
    crash the merge loop with a bare ``KeyError``."""
    graph = nx.Graph([(1, 2), (2, 3), (1, 3), (3, 3)])
    assert clique_partition(graph) == [{1, 2, 3}]


@settings(max_examples=40, deadline=None)
@given(graph=random_graphs(10), loops=st.sets(st.integers(0, 9)))
def test_self_loops_do_not_change_the_partition(graph, loops):
    looped = graph.copy()
    looped.add_edges_from((node, node) for node in loops if node in graph)
    assert clique_partition(looped) == reference_clique_partition(graph)


def _recounts(monkeypatch, graph) -> int:
    """Common-neighbour counts ``clique_partition`` takes on ``graph``."""
    calls = 0
    original = clique_module._common_count

    def counted(*args):
        nonlocal calls
        calls += 1
        return original(*args)

    with monkeypatch.context() as patch:
        patch.setattr(clique_module, "_common_count", counted)
        clique_partition(graph)
    return calls


def test_merges_recount_only_stale_heap_tops(monkeypatch):
    """Work guard, deterministic: recounting every live edge after every
    merge takes 18,195 counts on this complete-multipartite graph and
    12,732 on the random one; the lazy heap takes about 4,200 and
    1,900.  A return to full rescoring fails the bounds."""
    multipartite = nx.complete_multipartite_graph(*[5] * 10)
    rng = random.Random(7)
    coin_flip = nx.Graph()
    coin_flip.add_nodes_from(range(60))
    coin_flip.add_edges_from(
        (u, v) for u, v in combinations(range(60), 2) if rng.random() < 0.5
    )
    assert _recounts(monkeypatch, multipartite) <= 6_000
    assert _recounts(monkeypatch, coin_flip) <= 3_000
