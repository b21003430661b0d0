import random

import pytest

from trackset.dagtrack import path_masks
from trackset.graph import Digraph, Graph, topological_order


def diamond_graph():
    # s=0, middles 1,2, t=3
    return Graph(4, [(0, 1), (0, 2), (1, 3), (2, 3)], 0, 3)


def diamond_dag():
    return Digraph(4, [(0, 1), (0, 2), (1, 3), (2, 3)], 0, 3)


def serial_diamond_graph(d):
    """d diamonds in series; 2^d shortest s-t paths, n = 3d + 1."""
    edges = []
    junction = 0
    nxt = 1
    for _ in range(d):
        a, b, j2 = nxt, nxt + 1, nxt + 2
        edges += [(junction, a), (junction, b), (a, j2), (b, j2)]
        junction = j2
        nxt = j2 + 1
    return Graph(junction + 1, edges, 0, junction)


def serial_diamond_dag(d, widths=None):
    """d diamonds in series, diamond i with widths[i] middle vertices."""
    widths = widths or [2] * d
    arcs = []
    junction = 0
    nxt = 1
    for w in widths:
        mids = list(range(nxt, nxt + w))
        j2 = nxt + w
        for m in mids:
            arcs += [(junction, m), (m, j2)]
        junction = j2
        nxt = j2 + 1
    return Digraph(junction + 1, arcs, 0, junction)


def dag_path_masks(d):
    """The s-t paths of a DAG whose every vertex lies on one, as masks of their
    vertices but s and t with vertex ids as bits: what the set-system route hands
    the decision core for a graph's rule-1 DAG."""
    inner = [v for v in topological_order(d) if v != d.s and v != d.t]
    return path_masks(d, d.s, inner, d.in_adj[d.t], range(d.n))


def brute_shortest_path_sets(g):
    """All shortest s-t paths of an undirected graph by exhaustive DFS."""
    best = []
    best_len = [None]

    def dfs(v, path, on_path):
        if v == g.t:
            if best_len[0] is None or len(path) < best_len[0]:
                best_len[0] = len(path)
                best.clear()
                best.append(tuple(path))
            elif len(path) == best_len[0]:
                best.append(tuple(path))
            return
        if best_len[0] is not None and len(path) >= best_len[0]:
            return
        for w in g.adj[v]:
            if w not in on_path:
                path.append(w)
                on_path.add(w)
                dfs(w, path, on_path)
                on_path.discard(w)
                path.pop()

    dfs(g.s, [g.s], {g.s})
    return best


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)
