import random

import pytest

from trackset.dagtrack import count_paths, solve_dag
from trackset.errors import CapExceeded, NoPathError
from trackset.generate import random_connected_graph
from trackset.graph import Graph, topological_order
from trackset.oracle import brute_min_tracking
from trackset.setsystem import solve_tracking_set
from trackset.shortest import (enumerate_shortest_paths, reduce_rule_1,
                               solve_shortest_paths, to_dag, to_set_system)

from conftest import brute_shortest_path_sets, diamond_graph, serial_diamond_graph


class TestRule1:
    def test_pendant_vertex_deleted(self):
        # diamond plus pendant vertex 4 hanging off vertex 1
        g = Graph(5, [(0, 1), (0, 2), (1, 3), (2, 3), (1, 4)], 0, 3)
        lg, relab = reduce_rule_1(g)
        assert lg.base.n == 4
        assert 4 not in relab.to_original

    def test_line_graph_unchanged(self):
        g = Graph(3, [(0, 1), (1, 2)], 0, 2)
        lg, relab = reduce_rule_1(g)
        assert lg.base.n == 3 and len(lg.base.edges) == 2
        assert lg.length == 2

    def test_chord_deleted(self):
        # chord between the two level-1 middles fails the distance test
        g = Graph(4, [(0, 1), (0, 2), (1, 3), (2, 3), (1, 2)], 0, 3)
        lg, relab = reduce_rule_1(g)
        assert len(lg.base.edges) == 4

    def test_unreachable_t(self):
        g = Graph(4, [(0, 1), (2, 3)], 0, 3)
        with pytest.raises(NoPathError):
            reduce_rule_1(g)

    def test_layer_property(self, rng):
        for _ in range(100):
            g = random_connected_graph(rng, rng.randint(4, 12))
            lg, _ = reduce_rule_1(g)
            for u, v in lg.base.edges:
                assert abs(lg.levels[u] - lg.levels[v]) == 1

    def test_preserves_shortest_paths(self, rng):
        for _ in range(100):
            g = random_connected_graph(rng, rng.randint(4, 12))
            before = {frozenset(p) for p in brute_shortest_path_sets(g)}
            lg, relab = reduce_rule_1(g)
            after = {relab.map_set(p) for p in enumerate_shortest_paths(lg)}
            assert before == after


class TestEnumerate:
    def test_diamond(self):
        lg, _ = reduce_rule_1(diamond_graph())
        assert enumerate_shortest_paths(lg) == [(0, 1, 3), (0, 2, 3)]

    def test_line(self):
        lg, _ = reduce_rule_1(Graph(3, [(0, 1), (1, 2)], 0, 2))
        assert enumerate_shortest_paths(lg) == [(0, 1, 2)]

    def test_serial_diamonds(self):
        lg, _ = reduce_rule_1(serial_diamond_graph(3))
        paths = enumerate_shortest_paths(lg)
        assert len(paths) == 8
        assert count_paths(to_dag(lg)).value == 8

    def test_cap(self):
        lg, _ = reduce_rule_1(serial_diamond_graph(3))
        with pytest.raises(CapExceeded):
            enumerate_shortest_paths(lg, cap=7)

    def test_matches_brute_dfs(self, rng):
        for _ in range(100):
            g = random_connected_graph(rng, rng.randint(4, 12))
            lg, relab = reduce_rule_1(g)
            mine = sorted(tuple(sorted(relab.map_set(p)))
                          for p in enumerate_shortest_paths(lg))
            brute = sorted(tuple(sorted(p)) for p in brute_shortest_path_sets(g))
            assert mine == brute


class TestToSetSystem:
    def test_diamond_family(self):
        lg, _ = reduce_rule_1(diamond_graph())
        sys = to_set_system(enumerate_shortest_paths(lg), lg.base.n)
        assert set(sys.family) == {frozenset({0, 1, 3}), frozenset({0, 2, 3})}
        assert max(map(len, sys.family)) == 3

    def test_single_path(self):
        sys = to_set_system([(0, 1, 2)], 3)
        assert len(sys.family) == 1
        assert solve_tracking_set(sys, 0) == frozenset()

    def test_two_serial_diamonds(self):
        lg, _ = reduce_rule_1(serial_diamond_graph(2))
        sys = to_set_system(enumerate_shortest_paths(lg), lg.base.n)
        assert len(sys.family) == 4
        assert all(len(s) == 5 for s in sys.family)


class TestToDag:
    def test_diamond_arcs(self):
        lg, _ = reduce_rule_1(diamond_graph())
        d = to_dag(lg)
        assert set(d.arcs) == {(0, 1), (0, 2), (1, 3), (2, 3)}

    def test_line_arcs(self):
        lg, _ = reduce_rule_1(Graph(3, [(0, 1), (1, 2)], 0, 2))
        assert set(to_dag(lg).arcs) == {(0, 1), (1, 2)}

    def test_acyclic_and_counts_agree(self, rng):
        for _ in range(60):
            g = random_connected_graph(rng, rng.randint(4, 12))
            lg, _ = reduce_rule_1(g)
            d = to_dag(lg)
            topological_order(d)  # raises on a cycle
            assert count_paths(d).value == len(enumerate_shortest_paths(lg))


class TestSolveShortestPaths:
    def test_diamond_k1(self):
        rep = solve_shortest_paths(diamond_graph(), 1)
        assert rep.result == "YES" and len(rep.witness) == 1
        assert rep.witness[0] in (1, 2)

    def test_diamond_k0(self):
        assert solve_shortest_paths(diamond_graph(), 0).result == "NO"

    def test_line_k0(self):
        rep = solve_shortest_paths(Graph(3, [(0, 1), (1, 2)], 0, 2), 0)
        assert rep.result == "YES" and rep.witness == ()

    def test_no_path_is_yes_empty(self):
        rep = solve_shortest_paths(Graph(4, [(0, 1), (2, 3)], 0, 3), 0)
        assert rep.result == "YES" and rep.witness == () and rep.paths == 0

    def test_witness_in_original_ids(self):
        # pendant vertex shifts ids between original and reduced graphs
        g = Graph(6, [(0, 4), (4, 1), (0, 2), (2, 1), (0, 5), (3, 5)], 0, 1)
        rep = solve_shortest_paths(g, 1)
        assert rep.result == "YES"
        assert set(rep.witness) <= {2, 4}

    def test_route_equivalence(self, rng):
        # DAG route and set-system route agree on answer and minimum size
        for _ in range(60):
            g = random_connected_graph(rng, rng.randint(4, 12))
            lg, relab = reduce_rule_1(g)
            paths = enumerate_shortest_paths(lg)
            sys = to_set_system(paths, lg.base.n)
            for k in range(5):
                dag_rep = solve_dag(to_dag(lg), k)
                ss = solve_tracking_set(sys, k)
                assert (dag_rep.result == "YES") == (ss is not None), (g.edges, k)

    def test_diameter_two_law(self):
        # s and t adjacent to r middles: all but one middle must be tracked
        for r in range(1, 6):
            g = Graph(r + 2, [(0, m) for m in range(1, r + 1)]
                      + [(m, r + 1) for m in range(1, r + 1)], 0, r + 1)
            rep = solve_shortest_paths(g, r)
            assert rep.result == "YES" and len(rep.witness) == r - 1
            if r >= 2:
                assert solve_shortest_paths(g, r - 2).result == "NO"


def test_solve_shortest_paths_clamps_k_before_the_default_cap(monkeypatch):
    import trackset.dagtrack as dagtrack
    caps = []
    real = dagtrack.count_paths

    def spy(d, cap=None):
        caps.append(cap)
        return real(d, cap)

    monkeypatch.setattr(dagtrack, "count_paths", spy)
    rep = solve_shortest_paths(diamond_graph(), 100000)
    assert rep.result == "YES" and rep.witness == (1,)
    assert caps == [2 ** 4]
