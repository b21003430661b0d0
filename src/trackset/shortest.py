"""Tracking shortest s-t paths in undirected graphs.

The pipeline prunes everything off shortest paths (which leaves a layered
graph) and orients the edges towards t, for the DAG solver or, in
set-system mode, straight to the decision core as path bitmasks.
"""

from __future__ import annotations

from . import oracle
from .dagtrack import count_paths, path_masks, solve_dag
from .errors import CapExceeded
from .graph import Digraph, Graph, VertexRelabeling, bfs_distances, topological_order
from .report import NO_PATH_REASON, SolveReport
from .setsystem import SetSystem, solve_masks


class LayeredGraph:
    """A graph pruned to its shortest s-t paths, each edge oriented to climb one BFS
    level from s: the s-t paths of ``base`` are the shortest s-t paths of the graph."""

    __slots__ = ("base",)

    def __init__(self, base: Digraph):
        self.base = base


def reduce_rule_1(g: Graph) -> tuple[LayeredGraph, VertexRelabeling] | None:
    """Delete every vertex and edge not on a shortest s-t path and orient the rest.

    After one BFS from s, an edge ab lies on a shortest s-t path iff b does and a
    sits one level below it, so a walk back from t over such level predecessors
    meets exactly the kept vertices and edges, each arc climbing one level. Returns
    None when t is unreachable. :meth:`Digraph._derived`, the one builder of derived
    digraphs, renumbers the DAG to the kept ids, ascending, and keeps the walk's order
    reversed, by ascending level, as its topological order."""
    ds = bfs_distances(g, g.s)
    if ds[g.t] is None:
        return None
    adj, us, vs, seen = g.adj, [], [], bytearray(g.n)
    seen[g.t] = 1
    walk = [g.t]
    for v in walk:  # grows while it is read, so by descending level
        below = ds[v] - 1
        for u in adj[v]:
            if ds[u] == below:
                us.append(u)
                vs.append(v)
                if not seen[u]:
                    seen[u] = 1
                    walk.append(u)
    relab = VertexRelabeling(sorted(walk))
    return LayeredGraph(Digraph._derived(relab, us, vs, g.s, g.t, reversed(walk))), relab


def enumerate_shortest_paths(lg: LayeredGraph, cap: int | None = None) -> list[tuple]:
    """The oracle's lister on ``lg.base``, whose s-t paths are the shortest paths. Kept
    only as perfbench's tracer looks the name up (ROADMAP items 1 and 5)."""
    return oracle.enumerate_all_paths(lg.base, cap)


def to_set_system(paths: list[tuple[int, ...]], n: int) -> SetSystem:
    """One family set per shortest path's vertex set, over an n-element universe."""
    return SetSystem(n, (frozenset(p) for p in paths))


def to_dag(lg: LayeredGraph) -> Digraph:
    """The layered graph's DAG, which rule 1 already oriented towards t.

    The s-t paths of the result are exactly the shortest s-t paths of the
    input.
    """
    return lg.base


def solve_shortest_paths(g: Graph, k: int) -> SolveReport:
    """Tracking set of size <= k for all shortest s-t paths, or NO.

    Rule 1, then the DAG solver on the orientation towards t. Witness ids
    are original.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    if (pruned := reduce_rule_1(g)) is None:
        return SolveReport("YES", witness=(), paths=0, reason=NO_PATH_REASON)
    lg, relab = pruned
    report = solve_dag(to_dag(lg), k)
    report.relabel(relab)
    report.reductions += g.n - lg.base.n
    return report


def solve_via_set_system(g: Graph, k: int, cap: int | None = None) -> SolveReport:
    """:func:`solve_shortest_paths` with every shortest path handed to the decision core.

    Rules 2-4 are skipped and ``reductions`` reads 0. More than ``cap``
    paths raise CapExceeded; without a cap, more than 2^k + 1 (k clamped to
    n) answer NO. A path's mask holds its vertices but s and t, which drop out
    of every difference, as bits of their own ids. Witness ids are original.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    if (pruned := reduce_rule_1(g)) is None:
        return SolveReport("YES", witness=(), paths=0, reason=NO_PATH_REASON)
    lg, relab = pruned
    d = to_dag(lg)
    clamped = min(k, g.n)  # all n vertices always track
    limit = 2 ** clamped + 1 if cap is None else cap
    if (paths := count_paths(d, cap=limit)) > limit:
        if cap is not None:
            raise CapExceeded(paths)
        return SolveReport("NO", paths=paths, paths_saturated=True,
                           reason=f"more than 2^{clamped} shortest paths need more "
                                  f"than {clamped} trackers")
    inner = [v for v in topological_order(d) if v != d.s and v != d.t]
    report = solve_masks(path_masks(d, d.s, inner, d.in_adj[d.t], range(d.n)), k)
    report.relabel(relab)
    return report
