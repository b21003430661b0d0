"""Tracking all s-t paths in a DAG.

Pipeline: prune to the fixpoint of three reduction rules, gate on path
count lower bounds, then turn the s-t paths into vertex bitmasks for the
decision core :func:`trackset.setsystem.solve_masks`. For a candidate set,
the tracking condition gives an equivalent check, one DFS per tracker and
s: what each reaches through non-trackers must be an out-tree. Where it is
not, a count pass from that source builds a violating pair of paths.
"""

from __future__ import annotations

from collections import namedtuple
from functools import partial
from operator import is_not

from .errors import InternalError
from .graph import Digraph, VertexRelabeling, topological_order
from .report import NO_PATH_REASON, SolveReport
from .setsystem import solve_masks

TYPE_CHECKING = False
if TYPE_CHECKING:  # annotations only, so a cold start never imports them
    from collections.abc import Callable


class ReducedDag:
    """A DAG at the fixpoint of the three reduction rules.

    Invariants: every vertex and arc lies on an s-t path, deg(s) >= 2 and
    deg(t) >= 2, and no two adjacent interior degree-2 vertices remain.
    ``n`` is its vertex count and ``relabeling`` maps its vertex ids back to
    the pre-reduction ids. ``base``, the DAG itself, is built by ``build`` on
    first read, so a gate on ``n`` builds no digraph.
    """

    __slots__ = ("n", "relabeling", "build", "_base")

    def __init__(self, n: int, relabeling: VertexRelabeling, build: Callable[[], Digraph]):
        self.n, self.relabeling, self.build = n, relabeling, build

    @property
    def base(self) -> Digraph:
        try:
            return self._base
        except AttributeError:
            self._base = self.build()
            return self._base


# an s-t path count: value is exact unless saturated, then cap + 1; equal counts compare equal
PathCount = namedtuple("PathCount", "value saturated")


def _reach(adj: tuple[tuple[int, ...], ...], src: int, stop: int, allowed: bytearray) -> bytearray:
    """Marks of the vertices reached from ``src`` through allowed ones, not going past ``stop``."""
    seen = bytearray(len(adj))
    seen[src] = 1
    stack = [src]
    while stack:
        for x in adj[stack.pop()]:
            if allowed[x] and not seen[x]:
                seen[x] = 1
                if x != stop:
                    stack.append(x)
    return seen


def _pruned(d: Digraph) -> tuple[list[int], dict[int, list[int]]] | None:
    """Rule 2 as reachability: the vertices of the DAG ``d`` on s-t paths plus s and t,
    ascending, and each one's out-neighbours along s-t paths; None if that is all of ``d``.

    A vertex lies on an s-t path iff s reaches it without passing t and it
    reaches t without passing s; the backward search goes only through the
    forward one's vertices, so it marks exactly those. In a DAG every arc
    between marked vertices, except one into s or out of t, lies on an s-t
    path. O(n + m) time, unless the test of :func:`reduce_rule_2` holds.
    """
    s, t = d.s, d.t
    if d.in_adj.count(()) == 1 == d.out_adj.count(()) and not (d.in_adj[s] or d.out_adj[t]):
        return None
    on = _reach(d.in_adj, t, s, _reach(d.out_adj, s, t, bytearray(b"\1") * d.n))
    keep = [v for v in range(d.n) if on[v] or v == s]
    return keep, {u: [v for v in d.out_adj[u] if on[v] and v != s] if u != t else []
                  for u in keep}


def _digraph(d: Digraph, keep: list[int], arcs: list[tuple[int, int]], s: int, t: int
             ) -> Digraph:
    """The digraph on ``keep`` (ascending ids of ``d``) with ``arcs``, s and t in those ids,
    built unchecked; it inherits d's kept topological order, if any, restricted to ``keep``,
    which :func:`reduce_dag` shows is one of its own."""
    n, newid = len(keep), {old: i for i, old in enumerate(keep)}
    order = d._order and tuple(filter(partial(is_not, None), map(newid.get, d._order)))
    return Digraph._derived(n, [newid[u] * n + newid[v] for u, v in arcs],
                            newid[s], newid[t], order)


def reduce_rule_2(d: Digraph) -> tuple[Digraph, VertexRelabeling]:
    """Delete vertices and arcs on no s-t path of the DAG ``d`` (s and t always survive).

    If s alone has no in-arc and t alone no out-arc (two C-level counts), walking back
    from any vertex ends at s and on at t, so in a DAG every vertex and arc lies on an
    s-t path: ``d`` comes back, with the identity relabeling. Not exact if d has a cycle.
    """
    if (pruned := _pruned(d)) is None:
        return d, VertexRelabeling(range(d.n))
    keep, out = pruned
    return (_digraph(d, keep, [(u, v) for u in keep for v in out[u]], d.s, d.t),
            VertexRelabeling(keep))


def reduce_dag(d: Digraph) -> tuple[ReducedDag | None, int]:
    """Apply rules 2, 3 and 4 once each, in that order, which reaches their fixpoint.

    Rule 2 leaves only vertices on s-t paths, so s has no in-arc and t no out-arc;
    if they are the only such ends already, walking back from any vertex ends at s
    and on at t, so rule 2 searches nothing. Rule 3 walks s forward while it has one
    out-neighbour and t back while it has one in-neighbour; in a DAG each vertex
    passed has no other in-arc (out-arc), so the walks change no interior degree.
    Rule 4 maps each maximal chain of interior in-1/out-1 vertices to its least id,
    which keeps witnesses lex-least as a chain's vertices lie on the same paths, and
    drops the arcs left inside a chain. It changes neither deg(s) nor deg(t) nor any
    other vertex's degree: no rule fires again.

    The result inherits d's topological order restricted to the kept vertices, and
    that is one of its own. Every rule keeps ids in ascending order, and rule 4 keeps
    each chain's least id, so an arc (x, y) of the result comes from an arc (u, v) of
    ``d`` with x = u unless u is in a chain, and then u is its last member, the one
    with an out-arc off the chain, while x, a member, comes at or before u in d's
    order; likewise y = v or y comes at or after v, the chain's first member. As u
    comes before v, x comes before y.

    Returns (reduced, vertices_deleted); reduced is None when the graph collapsed
    to a singleton (trivially YES), and holds ``d`` itself if nothing is deleted.
    """
    pruned = _pruned(d)
    keep, out = pruned or (range(d.n), d.out_adj)
    inc = d.in_adj if pruned is None else {v: [] for v in keep}  # in_adj ascends as well
    for u in (keep if pruned else ()):
        for v in out[u]:
            inc[v].append(u)
    s, t, gone = d.s, d.t, set()
    while s != t and len(out[s]) == 1:
        gone.add(s)
        s = out[s][0]
    while t != s and len(inc[t]) == 1:
        gone.add(t)
        t = inc[t][0]
    if s == t:
        return None, d.n - 1

    live = [v for v in keep if v not in gone]
    inner = {v for v in live if len(inc[v]) == 1 == len(out[v])} - {s, t}
    least: dict[int, int] = {}
    for head in inner:  # a chain's head is the member whose in-neighbour is no member
        if inc[head][0] not in inner:
            chain = [head]
            while (z := out[chain[-1]][0]) in inner:
                chain.append(z)
            least.update(dict.fromkeys(chain, min(chain)))
    kept = [v for v in live if least.get(v, v) == v]
    if pruned is None and len(kept) == d.n:
        return ReducedDag(d.n, VertexRelabeling(range(d.n)), lambda: d), 0

    def build() -> Digraph:
        arcs = [(a, b) for u in live for v in out[u] if v not in gone
                if (a := least.get(u, u)) != (b := least.get(v, v))]
        reduced = _digraph(d, kept, arcs, s, t)
        # each chain's least id, kept[i], is vertex i of the result: one arc in, one out
        bad = [x for i, x in enumerate(kept)
               if x in least and not len(reduced.in_adj[i]) == 1 == len(reduced.out_adj[i])]
        if bad:
            raise InternalError(f"rule 4 left chain vertices {bad} off a single in- and out-arc")
        return reduced

    return ReducedDag(len(kept), VertexRelabeling(kept), build), d.n - len(kept)


def count_paths(d: Digraph, cap: int | None = None) -> PathCount:
    """Exact s-t path count by topological DP, saturating at ``cap``."""
    counts = [0] * d.n
    counts[d.s] = 1
    for u in topological_order(d):
        if counts[u] == 0:
            continue
        for v in d.out_adj[u]:
            counts[v] += counts[u]
            if cap is not None and counts[v] > cap:
                counts[v] = cap + 1
    total = counts[d.t]
    return PathCount(total, cap is not None and total > cap)


def verify_tracking_condition(d: Digraph, trackers: frozenset[int]) -> bool:
    """True iff ``trackers`` track every s-t path of the DAG ``d``; see :func:`violating_pair`."""
    pruned, relab = reduce_rule_2(d)  # trackers off every s-t path tell no path apart
    return violating_pair(pruned, relab.from_original(trackers)) is None


def violating_pair(d: Digraph, trackers: frozenset[int]
                   ) -> tuple[list[int], list[int]] | None:
    """Two s-t paths of ``d`` that meet ``trackers`` in the same set, or None.

    ``d`` is a DAG whose every vertex lies on an s-t path. Two s-t paths meet
    the trackers in the same set iff, for some u in trackers + {s}, two u-v
    paths with no tracker inside end at a v in trackers + {t}. Every vertex
    leads on to t, so a vertex with two such paths from u passes them on to
    the first tracker or t it meets: that holds iff the vertices reached
    from u through non-trackers do not form an out-tree. A DFS per u,
    ascending, walks through non-trackers only (trackers are leaves, and so
    is t, which has no out-arc) and stops at the first vertex it enters
    twice; one stamp array serves every u. Only for the first u whose DFS
    fails does a saturating count pass count those u-v paths, and the least
    v with two of them gives the pair. The cost is the sum of the regions
    walked, O(n + m) per u, so O(|trackers| (n + m)) in the worst case, when
    the regions overlap; a true answer builds no topological order and no
    count array."""
    out_adj, entered = d.out_adj, [-1] * d.n
    for u in sorted(trackers | {d.s}):
        stack, tree = [u], True
        while stack and tree:
            for x in out_adj[stack.pop()]:
                if entered[x] == u:
                    tree = False
                    break
                entered[x] = u
                if x not in trackers:
                    stack.append(x)
        if tree:
            continue
        counts = [0] * d.n
        counts[u] = 1
        for w in topological_order(d):
            if counts[w] and (w == u or w not in trackers):
                for x in out_adj[w]:
                    counts[x] = min(2, counts[x] + counts[w])
        v = next((v for v in sorted(trackers | {d.t}) if counts[v] == 2), None)
        if v is not None:
            p, q = _pair_through(d, counts, trackers, u, v)
            if p == q or trackers.intersection(p) != trackers.intersection(q):
                raise InternalError(f"built pair {p} / {q} is not a violating pair")
            return p, q
    return None


def _pair_through(d: Digraph, counts: list[int], trackers: frozenset[int],
                  u: int, v: int) -> tuple[list[int], ...]:
    """Two s-t paths with a shared s-u prefix and v-t suffix whose u-v parts
    differ and avoid the trackers inside, from a pass out of u that gave v two."""
    def carriers(x):  # in-neighbours that passed u-paths on to x
        return [w for w in d.in_adj[x] if counts[w] and (w == u or w not in trackers)]

    def walk(path, step, stop):
        while path[-1] != stop:
            path.append(step(path[-1]))
        return path

    # a lone carrier of a vertex with two paths has two paths itself, so
    # walking back from v reaches a vertex where two carriers branch off
    join = [v]
    while len(branch := carriers(join[-1])) == 1:
        join.append(branch[0])
    # in a pruned DAG any in-arc leads back to s and any out-arc on to t
    head = walk([u], lambda x: d.in_adj[x][0], d.s)[:0:-1]
    tail = walk(join[::-1], lambda x: d.out_adj[x][0], d.t)
    return tuple(head + walk([w], lambda x: carriers(x)[0], u)[::-1] + tail
                 for w in branch[:2])


def path_masks(d: Digraph) -> list[int]:
    """All s-t paths of the DAG ``d`` as vertex bitmasks, in no set order: one
    sweep of the topological order hands each vertex's s-path masks on to its
    out-neighbours, each with that neighbour's bit added."""
    ends: list[list[int]] = [[] for _ in range(d.n)]
    ends[d.s].append(1 << d.s)
    for u in topological_order(d):
        if masks := ends[u]:
            for w in d.out_adj[u]:
                ends[w] += map((1 << w).__or__, masks)
    return ends[d.t]


def solve_dag(d: Digraph, k: int) -> SolveReport:
    """Tracking set of size <= k for all s-t paths of a DAG, or NO.

    After reduction, more than 2^k paths (or n > 5 * 2^k, which implies it)
    is an immediate NO. Otherwise :func:`trackset.setsystem.solve_masks`
    decides on the paths as vertex bitmasks; as 2 <= p <= 2^k, neither of
    its early answers fires. The witness is the minimum tracking set that
    is lexicographically least among the reduced DAG's vertices, reported
    in the input graph's vertex ids.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    reduced, deleted = reduce_dag(d)
    if reduced is None:
        return SolveReport("YES", witness=(), reductions=deleted,
                           reason="reduced to a singleton")
    n = reduced.n
    k = min(k, n)  # all n vertices always track, so a larger k changes nothing
    cap = 2 ** k
    if n > 5 * cap:  # decided before the reduced digraph is built
        return SolveReport("NO", reductions=deleted, paths=-(-n // 5),
                           paths_saturated=True,
                           reason=f"n/5 = {n}/5 paths exceed 2^{k}")
    base = reduced.base
    pc = count_paths(base, cap=cap)
    if pc.value == 0:
        return SolveReport("YES", witness=(), paths=0, reductions=deleted,
                           reason=NO_PATH_REASON)
    if pc.saturated:
        return SolveReport("NO", paths=pc.value, paths_saturated=True,
                           reductions=deleted,
                           reason=f"more than 2^{k} paths need more than {k} trackers")
    masks = path_masks(base)
    if len(masks) != pc.value:
        raise InternalError(f"{len(masks)} paths enumerated but {pc.value} counted")
    report = solve_masks(masks, k)
    report.relabel(reduced.relabeling)
    report.reductions = deleted
    return report
