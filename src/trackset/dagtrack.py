"""Tracking all s-t paths in a DAG.

Pipeline: prune to the fixpoint of three reduction rules, gate on path
count lower bounds, split in series and in parallel, and hand each rigid
block's paths as vertex bitmasks to :func:`trackset.setsystem.tracking_search`.
For a candidate set, the tracking condition gives an equivalent check, one
DFS per tracker and s: what each reaches through non-trackers must be an
out-tree. Where it is not, a count pass from that source builds a violating
pair of paths.
"""

from __future__ import annotations

from functools import reduce
from itertools import compress
from operator import or_

from .errors import InternalError
from .graph import Digraph, VertexRelabeling, topological_order
from .report import NO_PATH_REASON, SEARCH_EXHAUSTED, SolveReport
from .setsystem import from_mask, to_mask, tracking_search

TYPE_CHECKING = False
if TYPE_CHECKING:  # annotations only, so a cold start never imports them
    from collections.abc import Callable, Iterable, Mapping, Sequence


class ReducedDag:
    """A DAG at the fixpoint of the three reduction rules.

    Invariants: every vertex and arc lies on an s-t path, deg(s) >= 2 and
    deg(t) >= 2, and no two adjacent interior degree-2 vertices remain.
    ``n`` is its vertex count and ``relabeling`` maps its vertex ids back to
    the pre-reduction ids. ``base``, the DAG itself, is built by ``build`` on
    first read, so a gate on ``n`` builds no digraph; then ``build`` is
    dropped, and with it whatever of the input it held.
    """

    __slots__ = ("n", "relabeling", "build", "_base")

    def __init__(self, n: int, relabeling: VertexRelabeling, build: Callable[[], Digraph]):
        self.n, self.relabeling, self.build = n, relabeling, build

    @property
    def base(self) -> Digraph:
        if self.build is not None:
            self._base, self.build = self.build(), None
        return self._base


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


def _pruned(d: Digraph) -> tuple[list[int], bytearray] | None:
    """Rule 2 as reachability: the vertices of the DAG ``d`` on s-t paths plus s and t,
    ascending, and the marks of those on s-t paths; None if that is all of ``d``.

    A vertex lies on an s-t path iff s reaches it without passing t and it
    reaches t without passing s; the backward search goes only through the
    forward one's vertices, so it marks exactly those. In a DAG every arc
    between marked vertices lies on an s-t path; only a cycle puts an arc into
    s or out of t between them. O(n + m) time, unless the test of
    :func:`reduce_rule_2` holds.
    """
    s, t = d.s, d.t
    if d.in_adj.count([]) == 1 == d.out_adj.count([]) and not (d.in_adj[s] or d.out_adj[t]):
        return None
    on = _reach(d.in_adj, t, s, _reach(d.out_adj, s, t, bytearray(b"\1") * d.n))
    keep = list(compress(range(d.n), on))  # s is marked unless t is out of its reach
    return (keep if on[s] else sorted((s, t))), on


def reduce_rule_2(d: Digraph) -> tuple[Digraph, VertexRelabeling]:
    """Delete vertices and arcs on no s-t path of the DAG ``d`` (s and t always survive).

    If s alone has no in-arc and t alone no out-arc (two C-level counts), walking back
    from any vertex ends at s and on at t, so in a DAG every vertex and arc lies on an
    s-t path: ``d`` comes back, with the identity relabeling. Else the one builder of
    derived digraphs, :meth:`Digraph._derived`, renumbers it. Not exact if d has a cycle,
    but an arc into s or out of t, which only a cycle puts on marked ends, is dropped.
    """
    if (pruned := _pruned(d)) is None:
        return d, VertexRelabeling(range(d.n))
    keep, on = pruned
    relab, s, t = VertexRelabeling(keep), d.s, d.t
    arcs = ((u, v) for u in keep if u != t for v in d.out_adj[u] if on[v] and v != s)
    return Digraph._derived(relab, arcs, s, t, d._order), relab


def reduce_dag(d: Digraph) -> tuple[ReducedDag | None, int]:
    """Apply rules 2, 3 and 4 once each, in that order, which reaches their fixpoint.

    Rule 2 leaves only vertices on s-t paths, so s has no in-arc and t no out-arc; if they
    are the only such ends already, walking back from any vertex ends at s and on at t, so
    rule 2 searches nothing. Rule 3 walks s forward while it has one out-neighbour and t
    back while it has one in-neighbour; in a DAG each vertex passed has no other in-arc
    (out-arc), so the walks change no interior degree; s stops at an out-degree and t at
    an in-degree other than 1, so neither is an in-1/out-1 vertex. Rule 4 maps each
    maximal chain of in-1/out-1 vertices to its least id, which keeps witnesses lex-least as a
    chain's vertices lie on the same paths, and drops the arcs left inside a chain; a chain
    of one vertex keeps its id, with no map entry. It changes neither deg(s) nor deg(t) nor
    any other vertex's degree: no rule fires again.

    The result inherits d's topological order restricted to the kept vertices, and
    that is one of its own. Every rule keeps ids in ascending order, and rule 4 keeps
    each chain's least id, so an arc (x, y) of the result comes from an arc (u, v) of
    ``d`` with x = u unless u is in a chain, and then u is its last member, the one
    with an out-arc off the chain, while x, a member, comes at or before u in d's
    order; likewise y = v or y comes at or after v, the chain's first member. As u
    comes before v, x comes before y.

    Rules 3 and 4 are special cases of the series-parallel recurrence of :func:`solve_dag`:
    an s or t walk is a series split whose cut vertices are leaves, and a chain is a
    one-path part, whose hit is its least id, the one rule 4 keeps. They stay, as
    ``reduce`` prints them.

    A list that rule 2 keeps whole is d's own, which no route mutates. The builder of
    ``base`` holds only d's order and what it reads of the rules' results, not d.

    Returns (reduced, vertices_deleted); reduced is None when the graph collapsed
    to a singleton (trivially YES), and holds ``d`` itself if nothing is deleted; else
    its ``base`` comes from :meth:`Digraph._derived`, the one builder of derived digraphs.
    """
    if (pruned := _pruned(d)) is None:
        keep, out, inc = range(d.n), d.out_adj, d.in_adj
    else:
        keep, on = pruned
        out, inc = ({v: a if all(map(on.__getitem__, a)) else [x for x in a if on[x]]
                     for v, a in zip(keep, map(adj.__getitem__, keep))}
                    for adj in (d.out_adj, d.in_adj))
    s, t, gone = d.s, d.t, set()
    while s != t and len(out[s]) == 1:
        gone.add(s)
        s = out[s][0]
    while t != s and len(inc[t]) == 1:
        gone.add(t)
        t = inc[t][0]
    if s == t:
        return None, d.n - 1

    live = [v for v in keep if v not in gone] if gone else keep
    inner = {v for v in live if len(inc[v]) == 1 == len(out[v])}
    least: dict[int, int] = {}  # the members of chains of two or more, to their least id
    for head in inner:  # a chain's head is the member whose in-neighbour is no member
        if inc[head][0] not in inner and (z := out[head][0]) in inner:
            chain = [head, z]
            while (z := out[z][0]) in inner:
                chain.append(z)
            least.update(dict.fromkeys(chain, min(chain)))
    kept = [v for v in live if least.get(v, v) == v] if least else live
    if pruned is None and len(kept) == d.n:
        return ReducedDag(d.n, VertexRelabeling(range(d.n)), lambda: d), 0
    relab, order = VertexRelabeling(kept), d._order

    def build() -> Digraph:
        arcs = ((a, b) for u in live for v in out[u] if v not in gone
                if (a := least.get(u, u)) != (b := least.get(v, v)))
        reduced = Digraph._derived(relab, arcs, s, t, order)
        # each chain's kept id, kept[i], is vertex i of the result: one arc in, one out
        bad = [x for i, x in enumerate(kept)
               if x in inner and not len(reduced.in_adj[i]) == 1 == len(reduced.out_adj[i])]
        if bad:
            raise InternalError(f"rule 4 left chain vertices {bad} off a single in- and out-arc")
        return reduced

    return ReducedDag(len(kept), relab, build), d.n - len(kept)


def count_paths(d: Digraph, cap: int | None = None) -> int:
    """The s-t path count by topological DP: exact up to ``cap``, else ``cap + 1``."""
    counts = [0] * d.n
    counts[d.s] = 1
    for u in topological_order(d):
        if counts[u] == 0:
            continue
        for v in d.out_adj[u]:
            counts[v] += counts[u]
            if cap is not None and counts[v] > cap:
                counts[v] = cap + 1
    return counts[d.t]


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


def path_masks(d: Digraph, s: int, inner: Sequence[int], last: Iterable[int],
               bit: Sequence[int] | Mapping[int, int]) -> list[int]:
    """The paths of the DAG ``d`` from s through ``inner``, a topological order holding
    every in-neighbour but s of its members, to a vertex of ``last`` (in ``inner`` + s),
    each as the mask with bit ``bit[v]`` for each of its vertices v in ``inner``: for a
    block from s to t and ``last`` its in-neighbours of t, its s-t paths but s and t."""
    ends = {s: [0]}
    for v in inner:
        b = 1 << bit[v]
        ends[v] = [m | b for u in d.in_adj[v] for m in ends[u]]
    return [m for u in last for m in ends[u]]


def _least(a: int | None, b: int | None) -> int | None:
    """The smaller of two vertex masks, then the lexicographically least (of two sets
    of one size, the one holding the least id of their symmetric difference); None is none."""
    if a is None or b is None:
        return b if a is None else a
    if (size := a.bit_count()) != b.bit_count():
        return a if size < b.bit_count() else b
    return a if (a ^ b) & -(a ^ b) & a else b


def _combine(parts: list, a: int, b: int) -> tuple[int | None, int | None]:
    """(the union of every part's entry ``a``, the least union of one part's entry ``b``
    with the other parts' ``a``); a union that needs an entry that is None is None."""
    entries = [part[a] for part in parts]
    union, missing = reduce(or_, filter(None, entries), 0), entries.count(None)
    best = None
    for part in parts:
        if part[b] is not None and missing == (part[a] is None):
            best = _least(best, union & ~(part[a] or 0) | part[b])
    return None if missing else union, best


def _series_parallel(d: Digraph, k: int) -> tuple[int | None, int]:
    """Solve the reduced DAG ``d`` by its series and parallel splits: (its lex-least
    minimum tracking set as a vertex mask, or None if that needs more than k; the
    candidates the core tested).

    A block is (s, t, its inner vertices in topological order, whether it has the arc s-t);
    its counts are d's, f(v) over f(s) and b(v) over b(t). tr is its least tracking set of
    inner vertices, hit the least that also meets every path (least: smallest, then
    lexicographically least). An inner vertex with f(v) b(v) = p cuts a block in series,
    each cut vertex c a leaf part with tr {} and hit {c}; else the weak components of its
    inner vertices split it in parallel, a lone vertex v (the path s-v-t) a leaf part as a
    cut vertex is, the arc s-t a leaf part with tr {} and no hit. The rules are duals, both
    from :func:`_combine`: in series tr is the union of the parts' tr, hit the least of one
    part's hit plus the others' tr; in parallel, as paths in two parts meet the trackers
    alike only if both meet none, hit is the union of the parts' hit, tr the least of one
    part's tr plus the others' hit. The parts share only their ends, so for fixed part sizes
    the union of their least sets is the least union; two such leaves' candidates differ
    only in their vertex, so the least one wins. A one-path block has tr {} and hit its
    least inner id; the core solves a rigid block, ``d`` included, on the inner-vertex masks
    of its p over f(s) b(t) paths from :func:`path_masks`, bit i for its i-th least inner
    id, plus the empty mask for hit. A set over k counts as none, as every union holding it
    is over k: leaves need no cap. A series part has no cut vertex and a parallel part is
    connected, so each tests the other split alone. An explicit stack holds the blocks, so
    nesting is not bounded by the recursion limit."""
    n, in_adj, out_adj = d.n, d.in_adj, d.out_adj
    order = topological_order(d)
    fwd, bwd, up = [0] * n, [0] * n, list(range(n))
    # s alone has no in-arc and t alone no out-arc: their counts are 1. Plain loops, as a
    # sum over a map costs more at these degrees
    for count, adj, walk in ((fwd, in_adj, order), (bwd, out_adj, reversed(order))):
        for v in walk:
            for u in adj[v]:
                count[v] += count[u]
            count[v] = count[v] or 1

    def root(x: int) -> int:  # union-find with path halving
        while up[x] != x:
            up[x] = x = up[up[x]]
        return x

    inner = [v for v in order if v != d.s and v != d.t]
    stack = [(d.s, d.t, inner, d.t in out_adj[d.s], False, [], None)]
    nodes, tried = [], 0  # pre-order: [tr, hit, split, parts]
    while stack:
        s, t, inner, direct, need_hit, siblings, only = stack.pop()
        into_t = [v for v in inner if t in out_adj[v]]  # t's in-neighbours in it, s aside
        # a block's counts are d's over fwd[s] and bwd[t]; q is its path count times both
        q = (direct * fwd[s] + sum(map(fwd.__getitem__, into_t))) * bwd[t]
        node = [0, None, None, []]
        siblings.append(node)
        nodes.append(node)
        if q == fwd[s] * bwd[t]:  # one path
            node[1] = 1 << min(inner) if inner else None
            continue
        if only != "parallel" and (
                cuts := [i for i, v in enumerate(inner) if fwd[v] * bwd[v] == q]):
            joints, at = [s, *(inner[i] for i in cuts), t], [-1, *cuts, len(inner)]
            node[2:] = "series", [[0, 1 << inner[i]] for i in cuts]  # cut vertex leaves
            stack += [(a, b, inner[at[j] + 1:at[j + 1]], b in out_adj[a], need_hit, node[3],
                       "parallel") for j, (a, b) in enumerate(zip(joints, joints[1:]))]
            continue
        if only != "series":
            for v in inner:
                up[v] = v
            for v in inner:
                for w in out_adj[v]:
                    if w != t:
                        up[root(w)] = root(v)
            comps: dict[int, list[int]] = {}
            for v in inner:
                comps.setdefault(root(v), []).append(v)
            if len(comps) + direct > 1:
                node[2:] = "parallel", [[0, None]] * direct  # the arc s-t as a leaf
                for comp in comps.values():  # a one-vertex part s-v-t is a leaf
                    if len(comp) == 1:
                        node[3].append([0, 1 << comp[0]])
                    else:
                        stack.append((s, t, comp, False, True, node[3], "series"))
                continue
        ids = sorted(inner)  # the core's bit i is ids[i], so its least set is the least
        masks = path_masks(d, s, inner, into_t, dict(zip(ids, range(len(ids)))))
        if len(masks) != (p := q // (fwd[s] * bwd[t])):
            raise InternalError(f"{len(masks)} paths listed but {p} counted from {s} to {t}")
        node[0], lower = None, 0
        for i, family in enumerate([masks, masks + [0]] if need_hit else [masks]):
            found, tested = tracking_search(family, k, lower)
            tried += tested
            if found is None:  # over k; a hit tracks too, so it is no smaller than tr
                break
            node[i] = to_mask(v for j, v in enumerate(ids) if found >> j & 1)
            lower = found.bit_count()
    for node in reversed(nodes):
        tr, hit, split, parts = node
        if split == "series":
            tr, hit = _combine(parts, 0, 1)
        elif split == "parallel":
            hit, tr = _combine(parts, 1, 0)
        node[0] = None if tr is None or tr.bit_count() > k else tr
        node[1] = None if hit is None or hit.bit_count() > k else hit
    return nodes[0][0], tried


def solve_dag(d: Digraph, k: int) -> SolveReport:
    """Tracking set of size <= k for all s-t paths of a DAG, or NO.

    After reduction, more than 2^k paths (or n > 5 * 2^k, which implies it)
    is an immediate NO. Then :func:`_series_parallel` splits the DAG in series
    and in parallel and runs the decision core's search only on the rigid
    blocks, which do not split; ``subsets_tried`` sums what it tested there, and
    the witness gets the definition-level check of :func:`violating_pair`.
    The witness is the minimum tracking set that is lexicographically least among
    the reduced DAG's vertices, reported in the input graph's vertex ids.
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
    paths = count_paths(base, cap=cap)
    if paths == 0:
        return SolveReport("YES", witness=(), paths=0, reductions=deleted,
                           reason=NO_PATH_REASON)
    if paths > cap:
        return SolveReport("NO", paths=paths, paths_saturated=True,
                           reductions=deleted,
                           reason=f"more than 2^{k} paths need more than {k} trackers")
    found, tried = _series_parallel(base, k)
    if found is None:
        report = SolveReport("NO", paths=paths, subsets_tried=tried,
                             reason=SEARCH_EXHAUSTED.format(k))
    else:
        witness = from_mask(found)
        if violating_pair(base, witness) is not None:
            raise InternalError("series-parallel witness does not track the DAG")
        report = SolveReport("YES", witness=tuple(sorted(witness)), paths=paths,
                             subsets_tried=tried)
    report.relabel(reduced.relabeling)
    report.reductions = deleted
    return report
