"""Tracking shortest s-t paths in undirected graphs.

The pipeline prunes everything off shortest paths (which leaves a layered
graph) and orients the edges towards t, for the DAG solver or, in
set-system mode, straight to the decision core as path bitmasks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from . import oracle
from .dagtrack import count_paths, path_masks, solve_dag
from .errors import CapExceeded, NoPathError
from .graph import Digraph, Graph, VertexRelabeling, bfs_distances
from .report import NO_PATH_REASON, SolveReport
from .setsystem import SetSystem, solve_masks


@dataclass
class LayeredGraph:
    """A graph pruned to its shortest s-t paths.

    Every edge joins consecutive BFS levels and every vertex and edge lies
    on some shortest s-t path.
    """

    base: Graph
    levels: Tuple[int, ...]


def reduce_rule_1(g: Graph) -> Tuple[LayeredGraph, VertexRelabeling]:
    """Delete every vertex and edge not on a shortest s-t path.

    An edge ab survives iff dis(s,a) + dis(b,t) + 1 equals the shortest
    s-t distance (in either orientation). Raises NoPathError when t is
    unreachable from s.
    """
    ds = bfs_distances(g, g.s)
    dt = bfs_distances(g, g.t)
    length = ds[g.t]
    if length is None:
        raise NoPathError("t is unreachable from s")

    # t is reachable, so ds and dt read None at the same vertices, and so do
    # both ends of an edge or neither: one test guards all four reads
    last = length - 1
    kept = [(a, b) for a, b in g.edges
            if ds[a] is not None and (ds[a] + dt[b] == last or ds[b] + dt[a] == last)]
    alive = sorted({v for e in kept for v in e})
    newid = {old: i for i, old in enumerate(alive)}
    base = Graph(len(alive), [(newid[a], newid[b]) for a, b in kept],
                 newid[g.s], newid[g.t])
    levels = tuple(ds[old] for old in alive)
    return LayeredGraph(base, levels), VertexRelabeling(alive)


def enumerate_shortest_paths(lg: LayeredGraph, cap: Optional[int] = None) -> List[tuple]:
    """The oracle's lister on ``lg.base``. Kept only as perfbench's tracer looks the
    name up; ROADMAP item 5 deletes it once item 1 drops it from the tracer."""
    return oracle.enumerate_shortest_paths(lg.base, cap)


def to_set_system(paths: List[Tuple[int, ...]], n: int) -> SetSystem:
    """One family set per shortest path's vertex set, over an n-element universe."""
    return SetSystem(n, (frozenset(p) for p in paths))


def to_dag(lg: LayeredGraph) -> Digraph:
    """Orient every edge of the layered graph towards t (lower to higher level).

    The s-t paths of the result are exactly the shortest s-t paths of the
    input.
    """
    g = lg.base
    arcs = []
    for a, b in g.edges:
        if lg.levels[a] < lg.levels[b]:
            arcs.append((a, b))
        else:
            arcs.append((b, a))
    return Digraph(g.n, arcs, g.s, g.t)


def solve_shortest_paths(g: Graph, k: int) -> SolveReport:
    """Tracking set of size <= k for all shortest s-t paths, or NO.

    Rule 1, then the DAG solver on the orientation towards t. Witness ids
    are original.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    try:
        lg, relab = reduce_rule_1(g)
    except NoPathError:
        return SolveReport("YES", witness=(), paths=0, reason=NO_PATH_REASON)
    report = solve_dag(to_dag(lg), k)
    report.relabel(relab)
    report.reductions += g.n - lg.base.n
    return report


def solve_via_set_system(g: Graph, k: int, cap: Optional[int] = None) -> SolveReport:
    """:func:`solve_shortest_paths` with every shortest path handed to the decision core.

    Rules 2-4 are skipped and ``reductions`` reads 0. More than ``cap``
    paths raise CapExceeded; without a cap, more than 2^k + 1 (k clamped to
    n) answer NO. Witness ids are original.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    try:
        lg, relab = reduce_rule_1(g)
    except NoPathError:
        return SolveReport("YES", witness=(), paths=0, reason=NO_PATH_REASON)
    d = to_dag(lg)
    clamped = min(k, g.n)  # all n vertices always track
    pc = count_paths(d, cap=2 ** clamped + 1 if cap is None else cap)
    if pc.saturated:
        if cap is not None:
            raise CapExceeded(pc.value)
        return SolveReport("NO", paths=pc.value, paths_saturated=True,
                           reason=f"more than 2^{clamped} shortest paths need more "
                                  f"than {clamped} trackers")
    report = solve_masks(path_masks(d), k)
    report.relabel(relab)
    return report
