"""Differential property tests: every solve route against brute force.

For each random instance and every k, the decision must match
``brute_min_tracking``, and a YES witness must be the first tracking set
of minimum size in ``itertools.combinations`` order, found here by brute
force over the instance's own family.

The DAG solver reports the least witness among the vertices its
reductions keep. Rule 4 keeps the first vertex of each chain of interior
degree-2 vertices, and every vertex of a chain lies on the same paths. So
when every arc points from a smaller id to a larger one, the kept vertex
is the chain's smallest, and the witness is also the least over all ids.
The DAGs below are drawn with such ids, and the graphs are relabelled in
breadth-first order from s, which gives their oriented DAGs such ids.
"""

import contextlib
import io
import json
import os
import tempfile
from itertools import combinations

from hypothesis import given, settings
from hypothesis import strategies as st

from trackset.cli import main
from trackset.dagtrack import solve_dag
from trackset.graph import Digraph, Graph, bfs_distances
from trackset.instance_io import format_graph
from trackset.oracle import brute_min_tracking, enumerate_all_paths
from trackset.setsystem import SetSystem, reduce_to_hitting, solve_tracking_set
from trackset.shortest import solve_shortest_paths

from conftest import brute_shortest_path_sets

SETTINGS = settings(max_examples=150, deadline=None)


def least_tracking_set(family, universe):
    """First tracking set in combinations order, over the smallest size."""
    sets = [frozenset(s) for s in family]
    for size in range(universe + 1):
        for combo in combinations(range(universe), size):
            t = frozenset(combo)
            if len({s & t for s in sets}) == len(sets):
                return combo
    return None


def check_route(family, universe, solve):
    """``solve(k)`` gives (decided YES, witness); compare it for every k."""
    best = brute_min_tracking(family, universe)
    least = least_tracking_set(family, universe)
    assert best == len(least)
    for k in range(universe + 1):
        yes, witness = solve(k)
        assert yes == (best <= k), k
        if yes:
            assert tuple(witness) == least, k


@st.composite
def forward_dags(draw):
    """DAGs on at most 12 vertices whose arcs all point to a larger id."""
    n = draw(st.integers(2, 12))
    pairs = list(combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    s, t = sorted(draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2,
                                unique=True)))
    return Digraph(n, [a for a, k in zip(pairs, keep) if k], s, t)


@st.composite
def bfs_labelled_graphs(draw):
    """Graphs on at most 10 vertices, ids in breadth-first order from s."""
    n = draw(st.integers(2, 10))
    pairs = list(combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    edges = [a for a, k in zip(pairs, keep) if k]
    t = draw(st.integers(1, n - 1))
    dist = bfs_distances(Graph(n, edges, 0, t), 0)
    order = sorted(range(n), key=lambda v: (dist[v] is None, dist[v] or 0, v))
    new = {old: i for i, old in enumerate(order)}
    return Graph(n, [(new[u], new[v]) for u, v in edges], 0, new[t])


@st.composite
def set_systems(draw):
    universe = draw(st.integers(0, 10))
    masks = draw(st.lists(st.integers(0, 2 ** universe - 1), min_size=1,
                          max_size=14, unique=True))
    return SetSystem(universe, [[e for e in range(universe) if m >> e & 1]
                                for m in masks])


@SETTINGS
@given(forward_dags())
def test_dag_route_matches_brute_force(d):
    def solve(k):
        rep = solve_dag(d, k)
        return rep.result == "YES", rep.witness

    check_route(enumerate_all_paths(d), d.n, solve)


@SETTINGS
@given(bfs_labelled_graphs())
def test_shortest_route_matches_brute_force(g):
    def solve(k):
        rep = solve_shortest_paths(g, k)
        return rep.result == "YES", rep.witness

    check_route(brute_shortest_path_sets(g), g.n, solve)


@SETTINGS
@given(bfs_labelled_graphs())
def test_cli_setsystem_route_on_graphs_matches_brute_force(g):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "g.txt")
        with open(path, "w") as f:
            f.write(format_graph(g))

        def solve(k):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = main(["solve", path, "--k", str(k), "--mode", "setsystem",
                             "--json"])
            doc = json.loads(out.getvalue())
            assert code == (0 if doc["result"] == "YES" else 1)
            return doc["result"] == "YES", doc["witness"]

        check_route(brute_shortest_path_sets(g), g.n, solve)


@SETTINGS
@given(set_systems())
def test_set_system_route_matches_brute_force(sys):
    def solve(k):
        witness = solve_tracking_set(sys, k)
        return witness is not None, sorted(witness or ())

    check_route(sys.family, sys.universe_size, solve)


@SETTINGS
@given(set_systems())
def test_hitting_family_is_superset_free(sys):
    family = reduce_to_hitting(sys).family
    for a, b in combinations(family, 2):
        assert not a <= b and not b <= a
