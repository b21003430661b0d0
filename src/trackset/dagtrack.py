"""Tracking all s-t paths in a DAG.

Pipeline: prune to the fixpoint of three reduction rules, gate on path
count lower bounds, then turn the s-t paths into vertex bitmasks and hand
their minimal pairwise symmetric differences to the hitting-set search in
:mod:`trackset.setsystem`: a vertex set tracks the paths iff it hits every
difference. For a candidate set, the tracking condition gives an
equivalent polynomial check that also builds a violating pair of paths.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, List, Optional, Tuple

from .errors import InternalError
from .graph import Digraph, VertexRelabeling, topological_order
from .report import SolveReport
from .setsystem import (from_mask, hitting_search, minimal_differences,
                        tracking_lower_bound)


@dataclass
class ReducedDag:
    """A DAG at the fixpoint of the three reduction rules.

    Invariants: every vertex and arc lies on an s-t path, deg(s) >= 2 and
    deg(t) >= 2, and no two adjacent interior degree-2 vertices remain.
    ``relabeling`` maps its vertex ids back to the pre-reduction ids.
    """

    base: Digraph
    relabeling: VertexRelabeling


@dataclass
class PathCount:
    value: int            # exact unless saturated, then cap + 1
    saturated: bool


class _Work:
    """Mutable arc-set view of a digraph used while applying rules."""

    def __init__(self, d: Digraph):
        self.alive = set(range(d.n))
        self.out = {v: set(d.out_adj[v]) for v in range(d.n)}
        self.inc = {v: set(d.in_adj[v]) for v in range(d.n)}
        self.s = d.s
        self.t = d.t

    def remove_arc(self, u: int, v: int):
        self.out[u].discard(v)
        self.inc[v].discard(u)

    def add_arc(self, u: int, v: int):
        self.out[u].add(v)
        self.inc[v].add(u)

    def remove_vertex(self, v: int):
        for u in list(self.inc[v]):
            self.remove_arc(u, v)
        for w in list(self.out[v]):
            self.remove_arc(v, w)
        self.alive.discard(v)

    def degree(self, v: int) -> int:
        return len(self.out[v]) + len(self.inc[v])

    def to_digraph(self) -> Tuple[Digraph, VertexRelabeling]:
        keep = sorted(self.alive)
        newid = {old: i for i, old in enumerate(keep)}
        arcs = [(newid[u], newid[v]) for u in keep for v in self.out[u]]
        d = Digraph(len(keep), arcs, newid[self.s], newid[self.t])
        return d, VertexRelabeling(keep)


def _apply_rule_2(w: _Work) -> bool:
    """Delete everything not on an s-t path. Returns True if anything changed."""
    changed = False
    for u in list(w.inc[w.s]):
        w.remove_arc(u, w.s)
        changed = True
    for v in list(w.out[w.t]):
        w.remove_arc(w.t, v)
        changed = True
    queue = [v for v in w.alive
             if v not in (w.s, w.t) and (not w.out[v] or not w.inc[v])]
    while queue:
        v = queue.pop()
        if v not in w.alive:
            continue
        neighbors = w.inc[v] | w.out[v]
        w.remove_vertex(v)
        changed = True
        for u in neighbors:
            if u in w.alive and u not in (w.s, w.t) and (not w.out[u] or not w.inc[u]):
                queue.append(u)
    return changed


def _apply_rule_3(w: _Work) -> Tuple[bool, bool]:
    """Move a degree-1 endpoint onto its neighbor.

    Returns (changed, singleton); singleton means the graph collapsed to
    one vertex, which is a trivial YES instance.
    """
    changed = False
    while True:
        if w.s == w.t:
            return changed, True
        if w.degree(w.s) == 1 and w.out[w.s]:
            u = next(iter(w.out[w.s]))
            w.remove_vertex(w.s)
            w.s = u
            changed = True
            continue
        if w.degree(w.t) == 1 and w.inc[w.t]:
            v = next(iter(w.inc[w.t]))
            w.remove_vertex(w.t)
            w.t = v
            changed = True
            continue
        return changed, False


def _apply_rule_4(w: _Work) -> bool:
    """Contract adjacent interior degree-2 vertices into the smaller id."""
    changed = False
    progress = True
    while progress:
        progress = False
        for x in sorted(w.alive):
            if x in (w.s, w.t) or w.degree(x) != 2 or len(w.out[x]) != 1:
                continue
            y = next(iter(w.out[x]))
            if y in (w.s, w.t) or w.degree(y) != 2 or not w.out[y]:
                continue
            a, z = next(iter(w.inc[x])), next(iter(w.out[y]))
            # x and y lie on the same paths: keep the smaller id, as witnesses are lex-least
            drop, (u, v) = (y, (x, z)) if x < y else (x, (a, y))
            w.remove_vertex(drop)
            # no u-v arc can pre-exist: it would imply a cycle or an
            # unpruned in-degree-0 vertex
            if v in w.out[u]:
                raise InternalError(f"rule 4 found arc {u}-{v} beside {a}-{x}-{y}-{z}")
            w.add_arc(u, v)
            changed = True
            progress = True
    return changed


def reduce_rule_2(d: Digraph) -> Tuple[Digraph, VertexRelabeling]:
    """Delete vertices and arcs on no s-t path (s and t always survive)."""
    w = _Work(d)
    _apply_rule_2(w)
    return w.to_digraph()


def reduce_rule_3(d: Digraph) -> Tuple[Optional[Digraph], VertexRelabeling]:
    """Collapse degree-1 endpoints; None means reduced to a singleton."""
    w = _Work(d)
    _, singleton = _apply_rule_3(w)
    if singleton:
        return None, VertexRelabeling([w.s])
    return w.to_digraph()


def reduce_rule_4(d: Digraph) -> Tuple[Digraph, VertexRelabeling]:
    """Contract adjacent interior degree-2 vertices, keeping the smaller id."""
    w = _Work(d)
    _apply_rule_4(w)
    return w.to_digraph()


def reduce_dag(d: Digraph) -> Tuple[Optional[ReducedDag], int]:
    """Apply rules 2, 3, 4 in a loop until a full pass changes nothing.

    Returns (reduced, vertices_deleted); reduced is None when the graph
    collapsed to a singleton (trivially YES).
    """
    w = _Work(d)
    while True:
        c2 = _apply_rule_2(w)
        c3, singleton = _apply_rule_3(w)
        if singleton:
            return None, d.n - 1
        c4 = _apply_rule_4(w)
        if not (c2 or c3 or c4):
            break
    base, relab = w.to_digraph()
    return ReducedDag(base, relab), d.n - base.n


def count_paths(d: Digraph, cap: Optional[int] = None) -> PathCount:
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


def path_lower_bound(rd: ReducedDag) -> int:
    """Larger of the out-degree bound and the n/5 bound on the path count."""
    d = rd.base
    degree_bound = 1 + sum(d.out_degree(v) - 1 for v in range(d.n) if v != d.t)
    return max(degree_bound, -(-d.n // 5))


def verify_tracking_condition(d: Digraph, trackers: FrozenSet[int]) -> bool:
    """True iff ``trackers`` track every s-t path of ``d``; see :func:`violating_pair`."""
    return violating_pair(d, frozenset(trackers)) is None


def violating_pair(d: Digraph, trackers: FrozenSet[int]
                   ) -> Optional[Tuple[List[int], List[int]]]:
    """Two s-t paths of ``d`` that meet ``trackers`` in the same set, or None.

    ``d`` is a DAG whose every vertex lies on an s-t path. A saturating count
    pass per u in trackers + {s} counts the u-v paths with no tracker inside;
    two for a v in trackers + {t} is a violation. O(|trackers| (n + m)) time."""
    topo, ends = topological_order(d), sorted(trackers | {d.t})
    for u in sorted(trackers | {d.s}):
        counts = [0] * d.n
        counts[u] = 1
        for w in topo:
            if counts[w] and (w == u or w not in trackers):
                for x in d.out_adj[w]:
                    counts[x] = min(2, counts[x] + counts[w])
        v = next((v for v in ends if counts[v] == 2), None)
        if v is not None:
            p, q = _pair_through(d, counts, trackers, u, v)
            if p == q or trackers.intersection(p) != trackers.intersection(q):
                raise InternalError(f"built pair {p} / {q} is not a violating pair")
            return p, q
    return None


def _pair_through(d: Digraph, counts: List[int], trackers: FrozenSet[int],
                  u: int, v: int) -> Tuple[List[int], ...]:
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


def _path_masks(d: Digraph) -> List[int]:
    """All s-t paths as vertex bitmasks, DFS order."""
    masks: List[int] = []
    stack = [(d.s, 1 << d.s)]
    while stack:
        v, mask = stack.pop()
        if v == d.t:
            masks.append(mask)
            continue
        for w in reversed(d.out_adj[v]):
            stack.append((w, mask | (1 << w)))
    return masks


def solve_dag(d: Digraph, k: int) -> SolveReport:
    """Tracking set of size <= k for all s-t paths of a DAG, or NO.

    After reduction, more than 2^k paths (or n > 5 * 2^k, which implies it)
    is an immediate NO. Otherwise the paths become vertex bitmasks, and the
    hitting-set search over their minimal pairwise symmetric differences
    deepens from ceil(lg p). The witness is the minimum tracking set that
    is lexicographically least among the reduced DAG's vertices, reported
    in the input graph's vertex ids.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    reduced, deleted = reduce_dag(d)
    if reduced is None:
        return SolveReport("YES", witness=(), reductions=deleted,
                           reason="reduced to a singleton")
    base = reduced.base
    k = min(k, base.n)  # all n vertices always track, so a larger k changes nothing
    cap = 2 ** k
    if base.n > 5 * cap:
        return SolveReport("NO", reductions=deleted, paths=-(-base.n // 5),
                           paths_saturated=True,
                           reason=f"n/5 = {base.n}/5 paths exceed 2^{k}")
    pc = count_paths(base, cap=cap)
    if pc.value == 0:
        return SolveReport("YES", witness=(), paths=0, reductions=deleted,
                           reason="no s-t path; zero paths are vacuously tracked")
    if pc.saturated:
        return SolveReport("NO", paths=pc.value, paths_saturated=True,
                           reductions=deleted,
                           reason=f"more than 2^{k} paths need more than {k} trackers")
    masks = _path_masks(base)
    p = len(masks)
    if p != pc.value:
        raise InternalError(f"{p} paths enumerated but {pc.value} counted")
    found, tried = hitting_search(minimal_differences(masks), k,
                                  lower=tracking_lower_bound(p))
    if found is None:
        return SolveReport("NO", paths=p, reductions=deleted, subsets_tried=tried,
                           reason=f"no tracking set of size <= {k} (search exhausted)")
    trackers = from_mask(found)
    if not verify_tracking_condition(base, trackers):
        raise InternalError("search witness fails the tracking condition")
    witness = tuple(sorted(reduced.relabeling.map_set(trackers)))
    return SolveReport("YES", witness=witness, paths=p,
                       reductions=deleted, subsets_tried=tried)
