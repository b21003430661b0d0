import random

import pytest

from trackset.dagtrack import (count_paths, reduce_dag, reduce_rule_2, solve_dag,
                               violating_pair)
from trackset.graph import Digraph
from trackset.generate import random_dag
from trackset.oracle import brute_is_tracking, brute_min_tracking, enumerate_all_paths

from conftest import diamond_dag, serial_diamond_dag


def as_original_arcs(d, relab):
    return {(relab.to_original[u], relab.to_original[v]) for u, v in d.arcs}


def reduced(d):
    """reduce_dag's graph and relabeling, or (None, None) for a singleton.

    Every rule 3 and rule 4 input below is already rule-2 pruned, and each
    rule 4 input has deg(s) >= 2 and deg(t) >= 2, so only the rule under
    test fires.
    """
    rd, _ = reduce_dag(d)
    return (None, None) if rd is None else (rd.base, rd.relabeling)


class TestRule2:
    def test_keeps_everything_on_paths(self):
        # diamond plus the chord (1,2): every arc extends to an s-t path
        d = Digraph(4, [(0, 1), (0, 2), (1, 3), (2, 3), (1, 2)], 0, 3)
        out, relab = reduce_rule_2(d)
        assert out.n == 4
        assert as_original_arcs(out, relab) == set(d.arcs)

    def test_deletes_dead_end(self):
        # sink vertex 4 hanging off the diamond
        d = Digraph(5, [(0, 1), (0, 2), (1, 3), (2, 3), (1, 4)], 0, 3)
        out, relab = reduce_rule_2(d)
        assert out.n == 4
        assert 4 not in relab.to_original

    def test_deletes_arc_into_source(self):
        d = Digraph(4, [(0, 1), (0, 2), (1, 3), (2, 3), (2, 0)], 0, 3)
        out, relab = reduce_rule_2(d)
        assert (2, 0) not in as_original_arcs(out, relab)
        assert out.n == 4

    def test_fixpoint_invariants(self):
        rng = random.Random(7)
        for _ in range(50):
            d = random_dag(rng, rng.randint(4, 12))
            out, _ = reduce_rule_2(d)
            for v in range(out.n):
                if v in (out.s, out.t):
                    continue
                assert len(out.in_adj[v]) >= 1 and len(out.out_adj[v]) >= 1


class TestRule3:
    def test_chain_collapses_onto_diamond(self):
        # s -> x -> diamond -> t: source moves twice
        arcs = [(0, 1), (1, 2), (2, 3), (2, 4), (3, 5), (4, 5)]
        out, relab = reduced(Digraph(6, arcs, 0, 5))
        assert out.n == 4
        assert relab.to_original[out.s] == 2

    def test_diamond_unchanged(self):
        out, relab = reduced(diamond_dag())
        assert out.n == 4

    def test_single_arc_collapses_to_singleton(self):
        out, relab = reduced(Digraph(2, [(0, 1)], 0, 1))
        assert out is None


class TestRule4:
    def test_contracts_degree_two_pair(self):
        # s->x->y->t parallel to s->z->t: y removed, arc (x,t) introduced
        arcs = [(0, 1), (1, 2), (2, 4), (0, 3), (3, 4)]
        out, relab = reduced(Digraph(5, arcs, 0, 4))
        assert out.n == 4
        assert 2 not in relab.to_original
        assert (1, 4) in as_original_arcs(out, relab)

    def test_diamond_unchanged(self):
        out, _ = reduced(diamond_dag())
        assert out.n == 4

    def test_long_chain_collapses_to_one_vertex(self):
        # degree-2 chain of length 5 beside a parallel branch
        chain = [0, 1, 2, 3, 4, 5, 7]
        arcs = list(zip(chain, chain[1:])) + [(0, 6), (6, 7)]
        out, relab = reduced(Digraph(8, arcs, 0, 7))
        originals = set(relab.to_original)
        assert originals == {0, 1, 6, 7}
        assert (1, 7) in as_original_arcs(out, relab)

    def test_chain_keeps_its_smallest_id(self):
        # chain 0-4-3-2-1 beside 0-5-1: 2 stays, whatever the path order
        arcs = [(0, 4), (4, 3), (3, 2), (2, 1), (0, 5), (5, 1)]
        out, relab = reduced(Digraph(6, arcs, 0, 1))
        assert set(relab.to_original) == {0, 1, 2, 5}
        assert {(0, 2), (2, 1)} <= set(as_original_arcs(out, relab))


def test_reduce_dag_invariants():
    rng = random.Random(11)
    checked = 0
    for _ in range(200):
        d = random_dag(rng, rng.randint(4, 14))
        rd, _ = reduce_dag(d)
        if rd is None:
            continue
        out = rd.base
        checked += 1
        if count_paths(out).value == 0:
            continue  # no-path instance: only s and t survive
        degree = [len(i) + len(o) for i, o in zip(out.in_adj, out.out_adj)]
        assert degree[out.s] >= 2 and degree[out.t] >= 2
        for v in range(out.n):
            if v in (out.s, out.t):
                continue
            assert len(out.in_adj[v]) >= 1 and len(out.out_adj[v]) >= 1
            if degree[v] == 2:
                for w in out.out_adj[v]:
                    if w not in (out.s, out.t):
                        assert degree[w] != 2
    assert checked > 50


class TestCountPaths:
    def test_diamond(self):
        assert count_paths(diamond_dag()).value == 2

    def test_serial_diamonds(self):
        assert count_paths(serial_diamond_dag(3)).value == 8

    def test_single_arc(self):
        assert count_paths(Digraph(2, [(0, 1)], 0, 1)).value == 1

    def test_saturation(self):
        pc = count_paths(serial_diamond_dag(4), cap=10)
        assert pc.saturated and pc.value == 11
        pc = count_paths(serial_diamond_dag(4), cap=16)
        assert not pc.saturated and pc.value == 16

    def test_matches_dfs_enumeration(self):
        rng = random.Random(3)
        for _ in range(100):
            d = random_dag(rng, rng.randint(4, 10))
            assert count_paths(d).value == len(enumerate_all_paths(d))


def assert_violating(pair, trackers, paths):
    """``pair`` is two distinct members of ``paths`` that meet the trackers alike."""
    p, q = pair
    assert p != q and p & trackers == q & trackers
    assert {p, q} <= set(map(frozenset, paths))


def verify_dag(d, trackers):
    """What ``verify`` decides on a DAG: rule 2, then the tracking condition; on
    false, its pair must violate the definition."""
    pruned, relab = reduce_rule_2(d)  # trackers off every s-t path tell no path apart
    pair = violating_pair(pruned, relab.from_original(trackers))
    if pair is not None:
        assert_violating(map(relab.map_set, pair), trackers, enumerate_all_paths(d))
    return pair is None


class TestVerifyCondition:
    def test_diamond_cases(self):
        d = diamond_dag()
        assert verify_dag(d, frozenset({1}))
        assert not verify_dag(d, frozenset())
        assert verify_dag(d, frozenset({1, 2}))

    def test_source_alone_insufficient(self):
        assert not verify_dag(diamond_dag(), frozenset({0}))

    def test_trackers_off_every_s_t_path(self):
        # 4-5-7 and 4-6-7 lie on no s-t path, so they are no two paths to tell apart
        d = Digraph(8, [(0, 1), (1, 3), (0, 2), (4, 5), (4, 6), (5, 7), (6, 7)], 0, 3)
        assert verify_dag(d, frozenset({4, 7}))
        assert verify_dag(d, frozenset())

    def test_matches_definition_on_unpruned_dags(self):
        rng = random.Random(6)
        for _ in range(100):
            d = random_dag(rng, rng.randint(4, 9))
            trackers = frozenset(rng.sample(range(d.n), rng.randint(0, d.n)))
            assert verify_dag(d, trackers) == \
                brute_is_tracking(enumerate_all_paths(d), trackers)

    def test_matches_definition_on_random_dags(self):
        rng = random.Random(5)
        for _ in range(100):
            d = random_dag(rng, rng.randint(4, 9))
            pruned, _ = reduce_rule_2(d)
            paths = enumerate_all_paths(pruned)
            sample = rng.sample(range(pruned.n), rng.randint(0, pruned.n))
            trackers = frozenset(sample)
            pair = violating_pair(pruned, trackers)
            assert (pair is None) == brute_is_tracking(paths, trackers)
            if pair is not None:
                assert_violating(map(frozenset, pair), trackers, paths)


class TestSolveDag:
    def test_diamond_k1(self):
        rep = solve_dag(diamond_dag(), 1)
        assert rep.result == "YES" and rep.witness == (1,)

    def test_diamond_k0(self):
        assert solve_dag(diamond_dag(), 0).result == "NO"

    def test_serial_diamonds_k2_no(self):
        rep = solve_dag(serial_diamond_dag(3), 2)
        assert rep.result == "NO"

    def test_serial_diamonds_k3_yes(self):
        rep = solve_dag(serial_diamond_dag(3), 3)
        assert rep.result == "YES" and len(rep.witness) == 3
        assert brute_min_tracking(enumerate_all_paths(serial_diamond_dag(3)), 10) == 3

    def test_singleton_instance(self):
        rep = solve_dag(Digraph(2, [(0, 1)], 0, 1), 0)
        assert rep.result == "YES" and rep.witness == ()

    def test_no_path_instance(self):
        rep = solve_dag(Digraph(3, [(0, 2)], 0, 1), 0)
        assert rep.result == "YES" and rep.witness == () and rep.paths == 0

    def test_minimum_matches_oracle(self):
        rng = random.Random(13)
        for _ in range(60):
            d = random_dag(rng, rng.randint(4, 10))
            rep = solve_dag(d, d.n)
            pruned, relab = reduce_rule_2(d)
            paths = [relab.map_set(p) for p in enumerate_all_paths(pruned)]
            best = brute_min_tracking(paths, d.n)
            assert rep.result == "YES"
            assert len(rep.witness) == best
            assert brute_is_tracking(paths, rep.witness)


def test_solve_dag_clamps_k_before_the_path_gate(monkeypatch):
    import trackset.dagtrack as dagtrack
    caps = []
    real = dagtrack.count_paths

    def spy(d, cap=None):
        caps.append(cap)
        return real(d, cap)

    monkeypatch.setattr(dagtrack, "count_paths", spy)
    rep = solve_dag(diamond_dag(), 100000)
    assert rep.result == "YES" and rep.witness == (1,)
    assert caps == [2 ** 4]
