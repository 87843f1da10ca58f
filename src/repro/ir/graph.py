"""The graph core: the directed and undirected graphs the flow runs on.

The paper's schedulers (Figs. 4 and 5) and its clique-partitioning
allocator (Fig. 7) need adjacency, one topological order and a cycle
check; the netlist lint needs strongly connected components.  This
module holds exactly that, iteratively and on the standard library.

Iteration orders are part of the contract.  Nodes, successors,
predecessors and edges iterate in insertion order: force sums and
scheduler tie-breaks read those orders, so designs depend on them.
:func:`topological_order` is the one place that picks among valid
orders; it takes the smallest ready node first.
"""

from __future__ import annotations

import heapq
from collections.abc import Iterable, Iterator, KeysView, Mapping
from types import MappingProxyType
from typing import Any, Hashable


class DiGraph:
    """A directed graph with node and edge attribute dicts.

    ``_succ[u][v]`` and ``_pred[v][u]`` hold the same edge-data dict,
    so an attribute written through one side is seen from the other.
    """

    __slots__ = ("_node", "_succ", "_pred")

    def __init__(self) -> None:
        self._node: dict[Hashable, dict[str, Any]] = {}
        self._succ: dict[Hashable, dict[Hashable, dict[str, Any]]] = {}
        self._pred: dict[Hashable, dict[Hashable, dict[str, Any]]] = {}

    def add_node(self, node: Hashable, **attrs: Any) -> None:
        """Add ``node`` (or update its attributes if present)."""
        if node in self._node:
            self._node[node].update(attrs)
            return
        self._node[node] = attrs
        self._succ[node] = {}
        self._pred[node] = {}

    def add_edge(self, u: Hashable, v: Hashable, **attrs: Any) -> None:
        """Add edge ``u -> v`` (adding missing endpoints, ``u`` first),
        or update its attributes if present."""
        for node in (u, v):
            if node not in self._node:
                self.add_node(node)
        data = self._succ[u].get(v)
        if data is None:
            data = self._succ[u][v] = self._pred[v][u] = {}
        data.update(attrs)

    @property
    def nodes(self) -> Mapping[Hashable, dict[str, Any]]:
        """Nodes in insertion order; ``nodes[n]`` is n's attribute dict."""
        return MappingProxyType(self._node)

    @property
    def edges(self) -> "_EdgeView":
        """``(u, v)`` pairs, by ``u`` in node order and then ``v`` in
        the order ``u``'s out-edges were added; ``edges[u, v]`` is the
        edge's data dict."""
        return _EdgeView(self._succ)

    def successors(self, node: Hashable) -> Iterator[Hashable]:
        return iter(self._succ[node])

    def predecessors(self, node: Hashable) -> Iterator[Hashable]:
        return iter(self._pred[node])

    def in_degree(self, node: Hashable) -> int:
        return len(self._pred[node])

    def has_edge(self, u: Hashable, v: Hashable) -> bool:
        return u in self._succ and v in self._succ[u]

    def get_edge_data(self, u: Hashable, v: Hashable,
                      default: Any = None) -> Any:
        if self.has_edge(u, v):
            return self._succ[u][v]
        return default

    def number_of_edges(self) -> int:
        return sum(len(targets) for targets in self._succ.values())


class _EdgeView:
    __slots__ = ("_succ",)

    def __init__(self, succ: dict[Hashable, dict[Hashable, Any]]) -> None:
        self._succ = succ

    def __iter__(self) -> Iterator[tuple[Hashable, Hashable]]:
        for u, targets in self._succ.items():
            for v in targets:
                yield u, v

    def __getitem__(self, edge: tuple[Hashable, Hashable]) -> dict[str, Any]:
        u, v = edge
        return self._succ[u][v]


class Graph:
    """An undirected graph without attributes: allocation's
    compatibility and conflict graphs.  Nodes and each node's
    neighbours iterate in insertion order."""

    __slots__ = ("_adj",)

    def __init__(self) -> None:
        self._adj: dict[Hashable, dict[Hashable, None]] = {}

    def add_nodes_from(self, nodes: Iterable[Hashable]) -> None:
        for node in nodes:
            self._adj.setdefault(node, {})

    def add_edge(self, u: Hashable, v: Hashable) -> None:
        self._adj.setdefault(u, {})[v] = None
        self._adj.setdefault(v, {})[u] = None

    @property
    def nodes(self) -> KeysView[Hashable]:
        return self._adj.keys()

    @property
    def edges(self) -> Iterator[tuple[Hashable, Hashable]]:
        """Each edge once, from the endpoint added first."""
        seen: set[Hashable] = set()
        for u, neighbours in self._adj.items():
            for v in neighbours:
                if v not in seen:
                    yield u, v
            seen.add(u)

    def __getitem__(self, node: Hashable) -> KeysView[Hashable]:
        """The neighbours of ``node``."""
        return self._adj[node].keys()

    def has_edge(self, u: Hashable, v: Hashable) -> bool:
        return u in self._adj and v in self._adj[u]

    def degree(self, node: Hashable) -> int:
        """Incident edges, a self-loop counting twice."""
        neighbours = self._adj[node]
        return len(neighbours) + (node in neighbours)

    def subgraph(self, nodes: Iterable[Hashable]) -> "Graph":
        """A copy induced on those of ``nodes`` that are in the graph."""
        keep = dict.fromkeys(node for node in nodes if node in self._adj)
        sub = Graph()
        sub._adj = {
            node: dict.fromkeys(v for v in self._adj[node] if v in keep)
            for node in keep
        }
        return sub

    def number_of_nodes(self) -> int:
        return len(self._adj)

    def number_of_edges(self) -> int:
        return sum(self.degree(node) for node in self._adj) // 2


# ----------------------------------------------------------------------
# Algorithms on DiGraph
# ----------------------------------------------------------------------


def topological_order(graph: DiGraph) -> list[Hashable]:
    """The topological order that takes the smallest ready node first
    (Kahn's algorithm over a heap): the lexicographically smallest one.

    Every scheduler's tie-breaks start from this order.  Raises
    ValueError if the graph has a cycle.
    """
    indegree = {node: len(preds) for node, preds in graph._pred.items()}
    ready = [node for node, count in indegree.items() if not count]
    heapq.heapify(ready)
    order = []
    while ready:
        node = heapq.heappop(ready)
        order.append(node)
        for succ in graph._succ[node]:
            indegree[succ] -= 1
            if not indegree[succ]:
                heapq.heappush(ready, succ)
    if len(order) != len(indegree):
        raise ValueError("graph has a cycle")
    return order


def has_cycle(graph: DiGraph) -> bool:
    """True when some node reaches itself (a self-loop counts)."""
    indegree = {node: len(preds) for node, preds in graph._pred.items()}
    ready = [node for node, count in indegree.items() if not count]
    removed = 0
    while ready:
        removed += 1
        for succ in graph._succ[ready.pop()]:
            indegree[succ] -= 1
            if not indegree[succ]:
                ready.append(succ)
    return removed != len(indegree)


def ancestors(graph: DiGraph, node: Hashable) -> set[Hashable]:
    """Every node with a path to ``node``, other than ``node``."""
    return _reachable(graph._pred, node)


def descendants(graph: DiGraph, node: Hashable) -> set[Hashable]:
    """Every node ``node`` has a path to, other than ``node``."""
    return _reachable(graph._succ, node)


def _reachable(adjacency: dict[Hashable, dict[Hashable, Any]],
               source: Hashable) -> set[Hashable]:
    seen = {source}
    stack = [source]
    while stack:
        for neighbour in adjacency[stack.pop()]:
            if neighbour not in seen:
                seen.add(neighbour)
                stack.append(neighbour)
    seen.discard(source)
    return seen


def strongly_connected_components(graph: DiGraph) -> Iterator[set[Hashable]]:
    """Strongly connected components by Nuutila's iterative variant of
    Tarjan's algorithm, searching from nodes in insertion order.

    A component comes out when its search closes, so the order is fixed
    by the insertion order and reports built from it keep their order.
    """
    succ = graph._succ
    preorder: dict[Hashable, int] = {}
    lowlink: dict[Hashable, int] = {}
    found: set[Hashable] = set()
    pending: list[Hashable] = []  # closed, but their component is not
    unexamined = {node: iter(targets) for node, targets in succ.items()}
    for source in succ:
        if source in found:
            continue
        path = [source]
        while path:
            node = path[-1]
            if node not in preorder:
                preorder[node] = len(preorder) + 1
            for child in unexamined[node]:
                if child not in preorder:
                    path.append(child)
                    break
            else:
                path.pop()
                low = preorder[node]
                for w in succ[node]:
                    if w not in found:
                        low = min(low, lowlink[w]
                                  if preorder[w] > preorder[node]
                                  else preorder[w])
                lowlink[node] = low
                if low != preorder[node]:
                    pending.append(node)
                    continue
                component = {node}
                while pending and preorder[pending[-1]] > preorder[node]:
                    component.add(pending.pop())
                found.update(component)
                yield component
