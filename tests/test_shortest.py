import random

import pytest

from trackset.dagtrack import count_paths, path_masks
from trackset.errors import CapExceeded
from trackset.generate import random_connected_graph
from trackset.graph import Graph, bfs_distances, topological_order
from trackset.oracle import brute_min_tracking, enumerate_all_paths, enumerate_shortest_paths
from trackset.setsystem import to_mask
from trackset.shortest import (reduce_rule_1, solve_shortest_paths, solve_via_set_system,
                               to_dag)

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
        assert (lg.base.n, lg.base.arcs, lg.base.s, lg.base.t) == (3, ((0, 1), (1, 2)), 0, 2)
        assert relab.to_original == (0, 1, 2)
        # the DAG keeps rule 1's levels 0, 1, 2 as its topological order
        assert topological_order(lg.base) == [0, 1, 2]

    def test_chord_deleted(self):
        # chord between the two level-1 middles fails the distance test
        g = Graph(4, [(0, 1), (0, 2), (1, 3), (2, 3), (1, 2)], 0, 3)
        lg, relab = reduce_rule_1(g)
        assert lg.base.arcs == ((0, 1), (0, 2), (1, 3), (2, 3))

    def test_unreachable_t(self):
        g = Graph(4, [(0, 1), (2, 3)], 0, 3)
        assert reduce_rule_1(g) is None

    def test_layer_property(self, rng):
        for _ in range(100):
            g = random_connected_graph(rng, rng.randint(4, 12))
            lg, relab = reduce_rule_1(g)
            ds = bfs_distances(g, g.s)
            level = [ds[old] for old in relab.to_original]
            for u, v in lg.base.arcs:  # every arc climbs one level, towards t
                assert level[u] + 1 == level[v]
            order = topological_order(lg.base)  # the DAG keeps the levels as its order
            assert sorted(order) == list(range(lg.base.n))
            assert [level[v] for v in order] == sorted(level)

    def test_preserves_shortest_paths(self, rng):
        for _ in range(100):
            g = random_connected_graph(rng, rng.randint(4, 12))
            before = sorted(brute_shortest_path_sets(g))
            lg, relab = reduce_rule_1(g)
            after = sorted(tuple(relab.to_original[v] for v in p)
                           for p in enumerate_all_paths(lg.base))
            assert before == after


class TestEnumerate:
    """The oracle's lister, on the raw graph, against the exhaustive DFS."""

    def test_diamond(self):
        g = diamond_graph()
        assert enumerate_shortest_paths(g) == [(0, 1, 3), (0, 2, 3)]
        assert sorted(brute_shortest_path_sets(g)) == [(0, 1, 3), (0, 2, 3)]

    def test_line(self):
        g = Graph(3, [(0, 1), (1, 2)], 0, 2)
        assert enumerate_shortest_paths(g) == brute_shortest_path_sets(g) == [(0, 1, 2)]

    def test_serial_diamonds(self):
        g = serial_diamond_graph(3)
        paths = enumerate_shortest_paths(g)
        assert len(paths) == 8
        assert sorted(paths) == sorted(brute_shortest_path_sets(g))
        assert count_paths(to_dag(reduce_rule_1(g)[0])).value == 8

    def test_cap(self):
        g = serial_diamond_graph(3)
        with pytest.raises(CapExceeded) as exc:
            enumerate_shortest_paths(g, cap=7)
        assert exc.value.count == 8
        assert len(enumerate_shortest_paths(g, cap=8)) == 8

    def test_unreachable_t(self):
        g = Graph(5, [(0, 1), (1, 4), (2, 3)], 0, 3)
        assert enumerate_shortest_paths(g) == brute_shortest_path_sets(g) == []

    def test_matches_brute_dfs(self, rng):
        # the same vertex sequences, not only the same vertex sets
        for _ in range(100):
            g = random_connected_graph(rng, rng.randint(4, 12))
            assert sorted(enumerate_shortest_paths(g)) == sorted(brute_shortest_path_sets(g))


class TestToSetSystem:
    """The family the set-system route hands the decision core: one vertex
    mask per shortest path of the rule-1 DAG."""

    def test_diamond_family(self):
        lg, _ = reduce_rule_1(diamond_graph())
        masks = path_masks(to_dag(lg))
        assert sorted(masks) == [to_mask({0, 1, 3}), to_mask({0, 2, 3})]
        assert max(m.bit_count() for m in masks) == 3

    def test_single_path(self):
        rep = solve_via_set_system(Graph(3, [(0, 1), (1, 2)], 0, 2), 0)
        assert (rep.result, rep.witness, rep.paths) == ("YES", (), 1)

    def test_two_serial_diamonds(self):
        lg, _ = reduce_rule_1(serial_diamond_graph(2))
        masks = path_masks(to_dag(lg))
        assert len(set(masks)) == len(masks) == 4
        assert all(m.bit_count() == 5 for m in masks)


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
            assert count_paths(d).value == len(enumerate_shortest_paths(g))


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
        # DAG route and set-system route agree on answer and witness
        for _ in range(60):
            g = random_connected_graph(rng, rng.randint(4, 12))
            for k in range(5):
                dag_rep = solve_shortest_paths(g, k)
                ss_rep = solve_via_set_system(g, k)
                assert (dag_rep.result, dag_rep.witness) == \
                    (ss_rep.result, ss_rep.witness), (g.edges, k)

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
