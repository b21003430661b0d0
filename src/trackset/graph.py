"""Graph and digraph representations plus the traversal primitives.

Vertices are dense integer ids 0..n-1. The constructors fill each adjacency
list from the two id columns of the pairs, which they do not keep, and sort it
in place; no route mutates a list after that. A graph keeps one list per
vertex, a digraph its out-list and in-degree, and builds its in-lists on their
first read. ``edges`` and ``arcs`` are rebuilt from the lists on each read. All
operations here are pure, except that a digraph keeps the topological order
and the in-lists it builds on their first read.
"""

from __future__ import annotations

from functools import partial
from operator import eq, is_not

from .errors import CycleError, EdgeError, InternalError

TYPE_CHECKING = False
if TYPE_CHECKING:  # annotations only, so a cold start never imports them
    from collections.abc import Iterable, Sequence


def _pair_error(n: int, us: Sequence[int], vs: Sequence[int], undirected: bool
                ) -> EdgeError | None:
    """The EdgeError of the first bad pair (us[i], vs[i]) in input order, None if none is."""
    seen = set()
    for i, (u, v) in enumerate(zip(us, vs)):
        if not (0 <= u < n and 0 <= v < n):
            return EdgeError(i, f"endpoint out of range: {u} {v}")
        if u == v:
            return EdgeError(i, f"self-loop at vertex {u}")
        e = (v, u) if undirected and v < u else (u, v)
        if e in seen:
            return EdgeError(i, f"duplicate {'edge' if undirected else 'arc'} {u} {v}")
        seen.add(e)
    return None


def _check_ends(n: int, s: int, t: int):
    if n < 2:
        raise ValueError("need at least two vertices (s and t)")
    if not (0 <= s < n and 0 <= t < n):
        raise ValueError("s and t must be vertex ids below n")
    if s == t:
        raise ValueError("s and t must differ")


class _Checked:
    """The one checking constructor of Graph and Digraph; each fills itself in ``_fill``."""

    __slots__ = ()

    def __init__(self, n: int, pairs: Iterable[tuple[int, int]], s: int, t: int):
        # a pair that is not two ids raises ValueError here, before any pair is checked
        us, vs = tuple(zip(*pairs, strict=True)) or ((), ())
        self._fill_checked(n, us, vs, s, t)

    @classmethod
    def _checked(cls, n: int, us: Sequence[int], vs: Sequence[int], s: int, t: int):
        """The instance with the pairs (us[i], vs[i]), checked as the constructor checks them."""
        x = cls.__new__(cls)
        x._fill_checked(n, us, vs, s, t)
        return x

    def _fill_checked(self, n: int, us: Sequence[int], vs: Sequence[int], s: int, t: int):
        """``_fill`` with the pairs checked by C-level passes: over the columns before the
        lists fill (ends in range, no self-loop), and over the sorted lists after, where a
        repeated pair, or in a graph a pair and its reverse, puts one id twice into a list.
        A failed pass, or a bad s or t, tells that something is bad, not which pair comes
        first, so the per-pair loop then raises EdgeError for the first bad pair in input
        order, if there is one: the pairs are checked before s and t. If it finds none
        after a failed pass, that is a bug."""
        undirected = isinstance(self, Graph)
        good = not us or (min(us) >= 0 and min(vs) >= 0 and max(us) < n and max(vs) < n
                          and not any(map(eq, us, vs)))
        if good:
            try:
                self._fill(n, us, vs, s, t)
            except ValueError as exc:  # s or t
                raise _pair_error(n, us, vs, undirected) or exc from None
            # a list of fewer than two ids holds no repeat; skipping them pays where most
            # lists are that short, as a DAG's out-lists are, but not a graph's
            lists = self.adj if undirected else [a for a in self.out_adj if len(a) > 1]
            good = sum(map(len, map(set, lists))) == sum(map(len, lists))
        if not good:
            raise _pair_error(n, us, vs, undirected) or InternalError(
                "the bulk edge check rejected pairs that the per-pair loop accepts")


class Graph(_Checked):
    """Simple undirected s-t graph.

    Rejects self-loops, duplicate edges, out-of-range endpoints and s == t
    at construction time; edges are checked first, in input order.
    """

    __slots__ = ("n", "s", "t", "adj")

    def _fill(self, n: int, us: Iterable[int], vs: Iterable[int], s: int, t: int):
        _check_ends(n, s, t)
        self.n, self.s, self.t = n, s, t
        self.adj = adj = [[] for _ in range(n)]
        for u, v in zip(us, vs):
            adj[u].append(v)
            adj[v].append(u)
        any(map(list.sort, adj))  # each sort returns None: one C-level pass sorts them all

    @property
    def edges(self) -> tuple:
        """The edges (u, v), u < v, ascending, rebuilt from the ascending lists."""
        return tuple([(u, v) for u, a in enumerate(self.adj) for v in a if u < v])

    def __repr__(self):
        return f"Graph(n={self.n}, m={sum(map(len, self.adj)) // 2}, s={self.s}, t={self.t})"


class Digraph(_Checked):
    """Simple directed s-t graph, validated as Graph is.

    It holds its out-lists ``out_adj`` and in-degrees ``indeg``; ``in_adj``, read by
    few routes, is built from the out-lists on first read. Acyclicity is not
    enforced here; read ``order``, which reports a cycle, so that parsers can
    reject cyclic input explicitly, and keeps the order it finds for later reads.
    """

    __slots__ = ("n", "s", "t", "out_adj", "indeg", "_in_adj", "_order")

    @classmethod
    def _derived(cls, relab: VertexRelabeling, us: Iterable[int], vs: Iterable[int], s: int,
                 t: int, order: Iterable[int] | None) -> Digraph:
        """The one builder of a digraph that a rule derived from a checked graph: the arcs
        (us[i], vs[i]), s, t and ``order`` in the parent's ids, renumbered through
        ``relab.index``, not checked. ``order``, unless None, is the parent's topological
        order, which restricted to the kept ids must be one of the result's; it is kept as
        the result's ``order``."""
        index = relab.index
        if order is not None:
            order = tuple(filter(partial(is_not, None), map(index.get, order)))
        x = cls.__new__(cls)
        x._fill(len(relab.to_original), map(index.__getitem__, us), map(index.__getitem__, vs),
                index[s], index[t], order)
        return x

    def _fill(self, n: int, us: Iterable[int], vs: Iterable[int], s: int, t: int,
              order: tuple | None = None):
        _check_ends(n, s, t)
        self.n, self.s, self.t = n, s, t
        self.out_adj = out_adj = [[] for _ in range(n)]
        self.indeg = indeg = [0] * n
        for u, v in zip(us, vs):
            out_adj[u].append(v)
            indeg[v] += 1
        any(map(list.sort, out_adj))  # each sort returns None: one C-level pass sorts them all
        self._in_adj, self._order = None, order

    @property
    def in_adj(self) -> list[list[int]]:
        """The in-lists, built on first read by one pass over the out-lists by ascending
        tail, so each comes out ascending, and kept."""
        if self._in_adj is None:
            self._in_adj = in_adj = [[] for _ in range(self.n)]
            for u, a in enumerate(self.out_adj):
                for v in a:
                    in_adj[v].append(u)
        return self._in_adj

    @property
    def order(self) -> tuple:
        """A topological order by Kahn's algorithm, found on first read and kept; raises
        CycleError, and keeps none, if the digraph is not a DAG."""
        if self._order is None:
            self._order = tuple(_kahn(self))
        return self._order

    @property
    def arcs(self) -> tuple:
        """The arcs (u, v), ascending, rebuilt from the ascending out-lists."""
        return tuple([(u, v) for u, a in enumerate(self.out_adj) for v in a])

    def __repr__(self):
        return f"Digraph(n={self.n}, m={sum(map(len, self.out_adj))}, s={self.s}, t={self.t})"


class VertexRelabeling:
    """Injective map from reduced-graph vertex ids back to original ids, and its inverse
    ``index``, built once; rules 1, 2 and 4 hand theirs to :meth:`Digraph._derived`. The
    identity on n ids, from :meth:`identity`, builds neither until one is read, and maps
    ids as they are."""

    __slots__ = ("_to_original", "_index", "_n")  # _n: an identity's id count, else None

    def __init__(self, to_original: Sequence[int]):
        self._to_original = tuple(to_original)
        self._index = dict(zip(self._to_original, range(len(self._to_original))))
        self._n = None
        if len(self._index) != len(self._to_original):
            raise ValueError("relabeling must be injective")

    @classmethod
    def identity(cls, n: int) -> VertexRelabeling:
        x = cls.__new__(cls)
        x._to_original, x._index, x._n = None, None, n
        return x

    @property
    def to_original(self) -> tuple:
        if self._to_original is None:
            self._to_original = tuple(range(self._n))
        return self._to_original

    @property
    def index(self) -> dict:
        if self._index is None:
            self._index = dict(zip(self.to_original, self.to_original))
        return self._index

    def map_set(self, vertices: Iterable[int]) -> frozenset:
        if self._n is not None:
            return frozenset(vertices)
        return frozenset(self._to_original[v] for v in vertices)

    def from_original(self, vertices: Iterable[int]) -> frozenset:
        """The reduced ids of those original ``vertices`` that the reduction kept."""
        if self._n is not None:
            return frozenset(filter(range(self._n).__contains__, vertices))
        return frozenset(filter(partial(is_not, None), map(self._index.get, vertices)))

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
    """A copy of ``d.order``: Kahn's algorithm; raises CycleError if the digraph is not a DAG.

    The order is kept on ``d``, so a parse's cycle check pays for the order
    that a later path count reads; a cyclic digraph keeps none and raises on
    every call.
    """
    return list(d.order)


def _kahn(d: Digraph) -> list[int]:
    indeg = d.indeg.copy()
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
