"""Graph and digraph representations plus the traversal primitives.

Vertices are dense integer ids 0..n-1. The constructors fill each
adjacency list once, in ascending order, and no route mutates it; ``edges``
and ``arcs`` are rebuilt from the sorted int keys on each read. All
operations here are pure, except that :func:`topological_order` keeps the
order it finds on the digraph.
"""

from __future__ import annotations

from functools import partial
from itertools import islice, repeat
from operator import add, eq, is_not, mul

from .errors import CycleError, EdgeError, InternalError

TYPE_CHECKING = False
if TYPE_CHECKING:  # annotations only, so a cold start never imports them
    from collections.abc import Iterable, Sequence


def _checked_keys(n: int, us: Sequence[int], vs: Sequence[int], undirected: bool) -> list:
    """Check the pairs (us[i], vs[i]); return their keys u * n + v (u < v if undirected)
    ascending, so that ``divmod(key, n)`` gives them back in (u, v) order.

    The checks run as C-level passes over the columns: ends in range, no self-loop,
    then no sorted key equal to the next. A failed bulk check tells that some pair
    is bad, not which comes first, so the per-pair loop then runs in input order to
    raise EdgeError with that pair's index; if it accepts them, that is a bug.
    """
    if not us:
        return []
    if min(us) >= 0 and min(vs) >= 0 and max(us) < n and max(vs) < n \
            and not any(map(eq, us, vs)):
        if undirected:
            keys = [u * n + v if u < v else v * n + u for u, v in zip(us, vs)]
        else:
            keys = list(map(add, map(mul, us, repeat(n)), vs))
        keys.sort()
        if not any(map(eq, keys, islice(keys, 1, None))):
            return keys
    seen = set()
    for i, (u, v) in enumerate(zip(us, vs)):
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


class _Checked:
    """The checking constructors of Graph and Digraph; each fills itself in ``_fill``."""

    __slots__ = ()

    def __init__(self, n: int, pairs: Iterable[tuple[int, int]], s: int, t: int):
        # a pair that is not two ids raises ValueError here, before any pair is checked
        us, vs = tuple(zip(*pairs, strict=True)) or ((), ())
        self._fill(n, _checked_keys(n, us, vs, isinstance(self, Graph)), s, t)

    @classmethod
    def from_columns(cls, n: int, us: Sequence[int], vs: Sequence[int], s: int, t: int):
        """The instance with the pairs (us[i], vs[i]), checked as the constructor checks them."""
        x = cls.__new__(cls)
        x._fill(n, _checked_keys(n, us, vs, issubclass(cls, Graph)), s, t)
        return x


class Graph(_Checked):
    """Simple undirected s-t graph.

    Rejects self-loops, duplicate edges, out-of-range endpoints and s == t
    at construction time; edges are checked first, in input order.
    """

    __slots__ = ("n", "_keys", "s", "t", "adj")

    def _fill(self, n: int, keys: list, s: int, t: int):
        _check_ends(n, s, t)
        self.n, self.s, self.t, self._keys = n, s, t, keys
        # edges ascend with u < v, so adj[x] gets its smaller neighbours (edges
        # (u, x)) in order before its larger ones: no list needs a sort
        self.adj = adj = [[] for _ in range(n)]
        for u, v in map(divmod, keys, repeat(n)):
            adj[u].append(v)
            adj[v].append(u)

    @property
    def edges(self) -> tuple:
        """The edges (u, v), u < v, ascending, rebuilt from the sorted keys."""
        return tuple(map(divmod, self._keys, repeat(self.n)))

    def __repr__(self):
        return f"Graph(n={self.n}, m={len(self._keys)}, s={self.s}, t={self.t})"


class Digraph(_Checked):
    """Simple directed s-t graph with in/out adjacency, validated as Graph is.

    Acyclicity is not enforced here; use :func:`topological_order`, which
    reports a cycle, so that parsers can reject cyclic input explicitly, and
    keeps the order it finds in ``_order`` for later calls.
    """

    __slots__ = ("n", "_keys", "s", "t", "out_adj", "in_adj", "_order")

    @classmethod
    def _derived(cls, relab: VertexRelabeling, arcs: Iterable[tuple[int, int]], s: int, t: int,
                 order: Iterable[int] | None) -> Digraph:
        """The one builder of a digraph that a rule derived from a checked graph: ``arcs``,
        s, t and ``order`` in the parent's ids, renumbered through ``relab.index``; the keys
        are sorted, not checked. ``order``, unless None, is the parent's topological order,
        which restricted to the kept ids must be one of the result's; it is kept as
        :func:`topological_order` keeps one."""
        index, n = relab.index, len(relab.to_original)
        keys = [index[u] * n + index[v] for u, v in arcs]
        keys.sort()
        if order is not None:
            order = tuple(filter(partial(is_not, None), map(index.get, order)))
        d = cls.__new__(cls)
        d._fill(n, keys, index[s], index[t], order)
        return d

    def _fill(self, n: int, keys: list, s: int, t: int, order: tuple | None = None):
        _check_ends(n, s, t)
        self.n, self.s, self.t, self._keys = n, s, t, keys
        # arcs ascend, so every list fills in ascending order and needs no sort
        self.out_adj = out_adj = [[] for _ in range(n)]
        self.in_adj = in_adj = [[] for _ in range(n)]
        for u, v in map(divmod, keys, repeat(n)):
            out_adj[u].append(v)
            in_adj[v].append(u)
        self._order = order

    @property
    def arcs(self) -> tuple:
        """The arcs (u, v), ascending, rebuilt from the sorted keys."""
        return tuple(map(divmod, self._keys, repeat(self.n)))

    def __repr__(self):
        return f"Digraph(n={self.n}, m={len(self._keys)}, s={self.s}, t={self.t})"


class VertexRelabeling:
    """Injective map from reduced-graph vertex ids back to original ids, and its inverse
    ``index``, built once; rules 1, 2 and 4 hand theirs to :meth:`Digraph._derived`."""

    __slots__ = ("to_original", "index")

    def __init__(self, to_original: Sequence[int]):
        self.to_original = tuple(to_original)
        self.index = dict(zip(self.to_original, range(len(self.to_original))))
        if len(self.index) != len(self.to_original):
            raise ValueError("relabeling must be injective")

    def map_set(self, vertices: Iterable[int]) -> frozenset:
        return frozenset(self.to_original[v] for v in vertices)

    def from_original(self, vertices: Iterable[int]) -> frozenset:
        """The reduced ids of those original ``vertices`` that the reduction kept."""
        return frozenset(filter(partial(is_not, None), map(self.index.get, vertices)))

    def __repr__(self):
        return f"VertexRelabeling({list(self.to_original)})"


def bfs_distances(g: Graph, source: int) -> list[int | None]:
    """Shortest-path distance from ``source`` to every vertex, None if unreachable."""
    dist: list[int | None] = [None] * g.n
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
