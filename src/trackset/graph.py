"""Graph and digraph representations plus the traversal primitives.

Vertices are dense integer ids 0..n-1. Both graph types are immutable
after construction and all operations here are pure, except that
:func:`topological_order` keeps the order it finds on the digraph.
"""

from __future__ import annotations

from itertools import repeat
from operator import add, eq, mul
from typing import Iterable, Optional, Sequence, Tuple

from .errors import CycleError, EdgeError, InternalError


def _sorted_pairs(n: int, pairs: Iterable[Tuple[int, int]], undirected: bool) -> list:
    """Check the pairs; return them ascending, undirected ones as (min, max).

    The checks run as C-level passes over the two columns: ends in range and
    no self-loop, then each pair becomes the int key u * n + v (u < v for a
    graph) and no key may occur twice. As 0 <= v < n, key order is (u, v)
    order, so sorting the ints and mapping them back with divmod sorts the
    pairs; a derived graph's pairs come sorted, or nearly, and ints sort in
    about linear time. A failed bulk check tells that some pair is bad, not
    which comes first, so the per-pair loop then runs in input order only to
    raise EdgeError with that pair's index. It never returns: a loop that
    accepts what the bulk checks refused is a bug, raised as InternalError.
    """
    pairs = list(pairs)
    if not pairs:
        return []
    try:
        us, vs = zip(*pairs, strict=True)
    except ValueError:  # a pair that is not two ids: the loop raises as unpacking does
        us = vs = ()
    if us and min(us) >= 0 and min(vs) >= 0 and max(us) < n and max(vs) < n \
            and not any(map(eq, us, vs)):
        if undirected:
            keys = [u * n + v if u < v else v * n + u for u, v in zip(us, vs)]
        else:
            keys = list(map(add, map(mul, us, repeat(n)), vs))
        if len(set(keys)) == len(keys):
            keys.sort()
            return list(map(divmod, keys, repeat(n)))
    seen = set()
    for i, (u, v) in enumerate(pairs):
        if not (0 <= u < n and 0 <= v < n):
            raise EdgeError(i, f"endpoint out of range: {u} {v}")
        if u == v:
            raise EdgeError(i, f"self-loop at vertex {u}")
        e = (v, u) if undirected and v < u else (u, v)
        if e in seen:
            raise EdgeError(i, f"duplicate {'edge' if undirected else 'arc'} {u} {v}")
        seen.add(e)
    raise InternalError("the bulk edge check rejected pairs that the per-pair loop accepts")


def _check_ends(n: int, s: int, t: int):
    if n < 2:
        raise ValueError("need at least two vertices (s and t)")
    if not (0 <= s < n and 0 <= t < n):
        raise ValueError("s and t must be vertex ids below n")
    if s == t:
        raise ValueError("s and t must differ")


class Graph:
    """Simple undirected s-t graph.

    Rejects self-loops, duplicate edges, out-of-range endpoints and s == t
    at construction time; edges are checked first, in input order.
    """

    __slots__ = ("n", "edges", "s", "t", "adj")

    def __init__(self, n: int, edges: Iterable[Tuple[int, int]], s: int, t: int):
        self.edges = tuple(_sorted_pairs(n, edges, undirected=True))
        _check_ends(n, s, t)
        self.n = n
        self.s = s
        self.t = t
        # edges ascend with u < v, so adj[x] gets its smaller neighbours (edges
        # (u, x)) in order before its larger ones: no list needs a sort
        adj = [[] for _ in range(n)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        self.adj = tuple(map(tuple, adj))

    def __repr__(self):
        return f"Graph(n={self.n}, m={len(self.edges)}, s={self.s}, t={self.t})"


class Digraph:
    """Simple directed s-t graph with in/out adjacency, validated as Graph is.

    Acyclicity is not enforced here; use :func:`topological_order`, which
    reports a cycle, so that parsers can reject cyclic input explicitly, and
    keeps the order it finds in ``_order`` for later calls.
    """

    __slots__ = ("n", "arcs", "s", "t", "out_adj", "in_adj", "_order")

    def __init__(self, n: int, arcs: Iterable[Tuple[int, int]], s: int, t: int):
        self.arcs = tuple(_sorted_pairs(n, arcs, undirected=False))
        _check_ends(n, s, t)
        self.n = n
        self.s = s
        self.t = t
        # arcs ascend, so every list fills in ascending order and needs no sort
        out_adj = [[] for _ in range(n)]
        in_adj = [[] for _ in range(n)]
        for u, v in self.arcs:
            out_adj[u].append(v)
            in_adj[v].append(u)
        self.out_adj = tuple(map(tuple, out_adj))
        self.in_adj = tuple(map(tuple, in_adj))
        self._order = None

    def __repr__(self):
        return f"Digraph(n={self.n}, m={len(self.arcs)}, s={self.s}, t={self.t})"


class VertexRelabeling:
    """Injective map from reduced-graph vertex ids back to original ids."""

    __slots__ = ("to_original",)

    def __init__(self, to_original: Sequence[int]):
        self.to_original = tuple(to_original)
        if len(set(self.to_original)) != len(self.to_original):
            raise ValueError("relabeling must be injective")

    def map_set(self, vertices: Iterable[int]) -> frozenset:
        return frozenset(self.to_original[v] for v in vertices)

    def from_original(self, vertices: Iterable[int]) -> frozenset:
        """The reduced ids of those original ``vertices`` that the reduction kept."""
        inv = {old: new for new, old in enumerate(self.to_original)}
        return frozenset(inv[v] for v in vertices if v in inv)

    def __repr__(self):
        return f"VertexRelabeling({list(self.to_original)})"


def bfs_distances(g: Graph, source: int) -> list[Optional[int]]:
    """Shortest-path distance from ``source`` to every vertex, None if unreachable."""
    dist: list[Optional[int]] = [None] * g.n
    dist[source] = 0
    adj, frontier, level = g.adj, [source], 0
    while frontier:  # one BFS level per round
        level += 1
        reached = []
        for u in frontier:
            for v in adj[u]:
                if dist[v] is None:
                    dist[v] = level
                    reached.append(v)
        frontier = reached
    return dist


def topological_order(d: Digraph) -> list[int]:
    """Kahn's algorithm; raises CycleError if the digraph is not a DAG.

    The order is kept on ``d``, so a parse's cycle check pays for the order
    that a later path count reads; a cyclic digraph keeps none and raises on
    every call.
    """
    if d._order is None:
        d._order = tuple(_kahn(d))
    return list(d._order)


def _kahn(d: Digraph) -> list[int]:
    indeg = list(map(len, d.in_adj))
    order = [v for v in range(d.n) if not indeg[v]]
    out_adj = d.out_adj
    for u in order:  # order grows while it is read, as Kahn's FIFO queue
        for v in out_adj[u]:
            indeg[v] -= 1
            if not indeg[v]:
                order.append(v)
    if len(order) != d.n:
        raise CycleError("digraph contains a cycle")
    return order
