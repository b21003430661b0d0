"""Brute-force ground truth, independent of the solver pipelines: its own BFS
and DFS list the paths of the raw input, and the O(2^n) minimum refuses universes
larger than 20 elements. Used only by the test suite and the CLI's --oracle mode.
"""

from __future__ import annotations

from itertools import combinations

from .errors import CapExceeded
from .graph import Digraph, Graph

TYPE_CHECKING = False
if TYPE_CHECKING:  # annotations only, so a cold start never imports them
    from collections.abc import Sequence

MAX_UNIVERSE = 20


def _paths(adj: Sequence[Sequence[int]], s: int, t: int, cap: int | None) -> list[tuple]:
    """All s-t paths along ``adj`` (no cycle reachable from s), by DFS with an explicit stack."""
    paths: list[tuple[int, ...]] = []
    path, todo = [s], [iter(adj[s])]
    while todo:
        w = next(todo[-1], None)
        if w is None:
            todo.pop()
            path.pop()
        elif w == t:
            paths.append(tuple(path) + (w,))
            if cap is not None and len(paths) > cap:
                raise CapExceeded(len(paths))
        else:
            path.append(w)
            todo.append(iter(adj[w]))
    return paths


def enumerate_all_paths(d: Digraph, cap: int | None = None) -> list[tuple[int, ...]]:
    """All s-t paths of a DAG as vertex tuples; CapExceeded once more than ``cap`` exist."""
    return _paths(d.out_adj, d.s, d.t, cap)


def enumerate_shortest_paths(g: Graph, cap: int | None = None) -> list[tuple[int, ...]]:
    """All shortest s-t paths of a graph as vertex tuples, none if t is unreachable.

    A BFS from t levels the graph; the DFS from s steps only to a neighbour
    one level closer to t, so each walk it ends at t is a shortest path.
    Raises CapExceeded once more than ``cap`` paths exist.
    """
    dist = [-1] * g.n  # -1 off t's component, where no neighbour is one level closer
    dist[g.t], queue = 0, [g.t]
    for u in queue:  # grows while it is read: a FIFO queue
        for v in g.adj[u]:
            if dist[v] < 0:
                dist[v] = dist[u] + 1
                queue.append(v)
    closer = [[w for w in a if dist[w] == dist[v] - 1] for v, a in enumerate(g.adj)]
    return _paths(closer, g.s, g.t, cap)


def check_universe(universe_size: int) -> None:
    """Raise ValueError if the brute-force minimum would refuse this universe."""
    if universe_size > MAX_UNIVERSE:
        raise ValueError(f"oracle refuses universes larger than {MAX_UNIVERSE}")


def _distinct_intersections(family: Sequence[frozenset[int]],
                            trackers: frozenset[int]) -> bool:
    # Definition-level check, deliberately duplicated from the solver side.
    return len({s & trackers for s in family}) == len(family)


def brute_min_tracking(family: Sequence, universe_size: int,
                       max_k: int | None = None) -> int | None:
    """Smallest tracking-set size for a materialized family, or None.

    ``family`` may hold sets or vertex sequences; each member is taken as
    a vertex/element set. Scans all subsets by increasing size up to
    ``max_k`` (default: the whole universe).
    """
    check_universe(universe_size)
    sets = [frozenset(s) for s in family]
    if max_k is None:
        max_k = universe_size
    for size in range(min(max_k, universe_size) + 1):
        for combo in combinations(range(universe_size), size):
            if _distinct_intersections(sets, frozenset(combo)):
                return size
    return None


def brute_is_tracking(family: Sequence, trackers) -> bool:
    """Definition check: does ``trackers`` intersect every set distinctly?"""
    return _distinct_intersections([frozenset(s) for s in family], frozenset(trackers))
