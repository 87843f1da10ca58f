"""``repro.ir.graph`` against networkx, its test-only oracle.

The library's graphs must behave as networkx's do for everything the
flow reads: iteration orders (force sums and scheduler tie-breaks read
them, so designs depend on them), the smallest-id-first topological
order, the cycle check, ancestors, descendants and strongly connected
components.  Each property replays one random insertion sequence into
both graphs.
"""

import networkx as nx
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ir.graph import (
    DiGraph,
    Graph,
    ancestors,
    descendants,
    has_cycle,
    strongly_connected_components,
    topological_order,
)

NODES = st.integers(0, 11)
ATTRS = st.dictionaries(st.sampled_from(["reason", "min_offset", "op"]),
                        st.integers(0, 3), max_size=2)
STEPS = st.lists(
    st.one_of(
        st.tuples(st.just("node"), NODES, ATTRS),
        st.tuples(st.just("edge"), st.tuples(NODES, NODES), ATTRS),
    ),
    max_size=40,
)


def _replay(steps, graph, reference):
    for kind, target, attrs in steps:
        if kind == "node":
            graph.add_node(target, **attrs)
            reference.add_node(target, **attrs)
        else:
            graph.add_edge(*target, **attrs)
            reference.add_edge(*target, **attrs)
    return graph, reference


@st.composite
def digraphs(draw):
    """Any directed graph: cycles and self-loops included."""
    return _replay(draw(STEPS), DiGraph(), nx.DiGraph())


@st.composite
def dags(draw):
    """A DAG: edges run forward in a random ranking of arbitrary ids,
    added in random order, so ids say nothing about the order."""
    ids = draw(st.lists(st.integers(0, 10_000), unique=True, max_size=14))
    pairs = draw(st.lists(
        st.tuples(st.integers(0, 13), st.integers(0, 13)), max_size=40))
    steps = [("node", node, {}) for node in draw(st.permutations(ids))]
    steps += [("edge", (ids[min(a, b)], ids[max(a, b)]), {})
              for a, b in pairs if a != b and max(a, b) < len(ids)]
    return _replay(steps, DiGraph(), nx.DiGraph())


@st.composite
def rings(draw):
    """A directed cycle through 3 to 12 nodes among random other
    insertions, in random order: components larger than 2-cycles."""
    ring = draw(st.permutations(range(12)))[:draw(st.integers(3, 12))]
    steps = [("edge", edge, {}) for edge in zip(ring, ring[1:] + ring[:1])]
    steps = draw(st.permutations(steps + draw(STEPS)))
    return _replay(steps, DiGraph(), nx.DiGraph())


ANY_DIGRAPH = st.one_of(digraphs(), dags(), rings())


@settings(max_examples=150, deadline=None)
@given(graphs=digraphs())
def test_iteration_orders_and_data_match_networkx(graphs):
    graph, reference = graphs
    assert list(graph.nodes) == list(reference.nodes)
    assert list(graph.edges) == list(reference.edges)
    assert graph.number_of_edges() == reference.number_of_edges()
    for node in reference.nodes:
        assert graph.nodes[node] == reference.nodes[node]
        assert list(graph.successors(node)) == list(reference.successors(node))
        assert (list(graph.predecessors(node))
                == list(reference.predecessors(node)))
        assert graph.in_degree(node) == reference.in_degree(node)
    for u in range(-1, 12):
        for v in range(-1, 12):
            assert graph.has_edge(u, v) == reference.has_edge(u, v)
            assert graph.get_edge_data(u, v) == reference.get_edge_data(u, v)
    for u, v in reference.edges:
        assert graph.edges[u, v] == reference.edges[u, v]


def test_edge_data_is_shared_by_both_directions():
    graph = DiGraph()
    graph.add_edge(1, 2, reason="data")
    graph.get_edge_data(1, 2)["min_offset"] = 3
    graph.add_edge(1, 2, reason="timing")
    assert graph._pred[2][1] is graph._succ[1][2]
    assert graph.edges[1, 2] == {"reason": "timing", "min_offset": 3}


@settings(max_examples=150, deadline=None)
@given(graphs=dags())
def test_topological_order_is_networkx_lexicographic(graphs):
    graph, reference = graphs
    assert (topological_order(graph)
            == list(nx.lexicographical_topological_sort(reference)))


@settings(max_examples=150, deadline=None)
@given(graphs=ANY_DIGRAPH)
def test_cycle_check_matches_networkx(graphs):
    graph, reference = graphs
    cyclic = not nx.is_directed_acyclic_graph(reference)
    assert has_cycle(graph) == cyclic
    if cyclic:
        try:
            topological_order(graph)
        except ValueError:
            pass
        else:
            raise AssertionError("topological_order accepted a cycle")


def test_self_loop_is_a_cycle():
    graph = DiGraph()
    graph.add_edge(1, 2)
    graph.add_edge(2, 2)
    assert has_cycle(graph)


@settings(max_examples=150, deadline=None)
@given(graphs=ANY_DIGRAPH)
def test_ancestors_and_descendants_match_networkx(graphs):
    graph, reference = graphs
    for node in reference.nodes:
        assert ancestors(graph, node) == nx.ancestors(reference, node)
        assert descendants(graph, node) == nx.descendants(reference, node)


@settings(max_examples=150, deadline=None)
@given(graphs=ANY_DIGRAPH)
def test_strongly_connected_components_match_networkx(graphs):
    graph, reference = graphs
    ours = [frozenset(scc) for scc in strongly_connected_components(graph)]
    theirs = [frozenset(scc)
              for scc in nx.strongly_connected_components(reference)]
    assert set(ours) == set(theirs)
    assert ours == theirs  # same order, so lint reports keep theirs


@st.composite
def undirected(draw):
    """Any undirected graph, self-loops included, built in one random
    sequence of ``add_nodes_from`` and ``add_edge`` calls."""
    graph, reference = Graph(), nx.Graph()
    steps = draw(st.lists(st.one_of(
        st.lists(NODES, max_size=4), st.tuples(NODES, NODES)), max_size=40))
    for step in steps:
        if isinstance(step, list):
            graph.add_nodes_from(step)
            reference.add_nodes_from(step)
        else:
            graph.add_edge(*step)
            reference.add_edge(*step)
    return graph, reference


def _edge_set(graph):
    return {frozenset(edge) for edge in graph.edges}


@settings(max_examples=150, deadline=None)
@given(graphs=undirected(), keep=st.lists(st.integers(-1, 12), max_size=10))
def test_undirected_graph_matches_networkx(graphs, keep):
    graph, reference = graphs
    assert list(graph.nodes) == list(reference.nodes)
    assert _edge_set(graph) == _edge_set(reference)
    assert graph.number_of_nodes() == reference.number_of_nodes()
    assert graph.number_of_edges() == reference.number_of_edges()
    for node in reference.nodes:
        assert graph.degree(node) == reference.degree(node)
        assert list(graph[node]) == list(reference[node])
    for u in range(-1, 13):
        for v in range(-1, 13):
            assert graph.has_edge(u, v) == reference.has_edge(u, v)
    # networkx's subgraph view may iterate a small node set in set
    # order, so the induced subgraphs compare as sets.
    sub, reference_sub = graph.subgraph(keep), reference.subgraph(keep)
    assert set(sub.nodes) == set(reference_sub.nodes)
    assert _edge_set(sub) == _edge_set(reference_sub)
    for node in reference_sub.nodes:
        assert set(sub[node]) == set(reference_sub[node])
        assert sub.degree(node) == reference_sub.degree(node)
