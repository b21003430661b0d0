import random
import sys
import time
from itertools import combinations
from unittest import mock

import pytest

from trackset.dagtrack import (count_paths, reduce_dag, reduce_rule_2, solve_dag,
                               violating_pair)
from trackset.graph import Digraph, Graph
from trackset.generate import random_dag, random_layered_graph
from trackset.shortest import reduce_rule_1, solve_shortest_paths
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


def test_reduced_dag_drops_its_builder():
    # the chain 1-2 collapses, so base comes from the builder, which holds d's lists
    reduced, deleted = reduce_dag(Digraph(5, [(0, 1), (1, 2), (2, 4), (0, 3), (3, 4)], 0, 4))
    assert deleted == 1 and reduced.build is not None
    first = reduced.base
    assert reduced.build is None
    assert reduced.base is first


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
        if count_paths(out) == 0:
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
        assert count_paths(diamond_dag()) == 2

    def test_serial_diamonds(self):
        assert count_paths(serial_diamond_dag(3)) == 8

    def test_single_arc(self):
        assert count_paths(Digraph(2, [(0, 1)], 0, 1)) == 1

    def test_saturation(self):
        paths = count_paths(serial_diamond_dag(4), cap=10)
        assert paths > 10 and paths == 11
        paths = count_paths(serial_diamond_dag(4), cap=16)
        assert not paths > 16 and paths == 16

    def test_matches_dfs_enumeration(self):
        rng = random.Random(3)
        for _ in range(100):
            d = random_dag(rng, rng.randint(4, 10))
            assert count_paths(d) == len(enumerate_all_paths(d))


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


@pytest.mark.parametrize("widths,reason", [
    ([2, 2, 2], "more than 2^1 paths need more than 1 trackers"),
    ([3, 2, 2], "n/5 = 11/5 paths exceed 2^1"),
])
def test_n_over_5_gate_threshold(widths, reason):
    """Serial diamonds, already reduced, at k = 1: n = 10 is not over 5 * 2^1, so the
    path count answers; n = 11 is, so the n/5 gate answers first, with ceil(11/5)."""
    text = solve_dag(serial_diamond_dag(3, widths), 1).to_text().splitlines()
    assert "paths: 3+" in text and f"reason: {reason}" in text


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


# paths 0-1-3, 0-2-3 and 0-1-2-3: no cut vertex and one component, so one rigid block
RIGID = Digraph(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)], 0, 3)


def catalog_graph(seed):
    """A layered graph of the benchmark's catalog, drawn as the catalog draws it."""
    rng = random.Random(seed)
    layers, width = rng.randint(3, 6), rng.randint(2, 4)
    return random_layered_graph(rng, layers, width)


def in_series(graphs):
    """The graphs glued t to s, in order, and each one's id map: a graph's ids other
    than its s follow, in order, all ids of the graphs before it."""
    edges, maps, n, t = [], [], 0, None
    for g in graphs:
        new = {} if t is None else {g.s: t}
        for v in range(g.n):
            if v not in new:
                new[v], n = n, n + 1
        edges += [(new[u], new[v]) for u, v in g.edges]
        maps.append(new)
        t = new[g.t]
    return Graph(n, edges, maps[0][graphs[0].s], t), maps


def least_tracking_set(d):
    """The first tracking set of the DAG's s-t paths in combinations order."""
    paths = enumerate_all_paths(d)
    return next(combo for size in range(d.n + 1) for combo in combinations(range(d.n), size)
                if brute_is_tracking(paths, combo))


# (arcs, t, the least tracking set) of DAGs from s = 0 in which one branch of the
# series-parallel recurrence decides the witness; each has a one-path part 0-x-t
# in parallel with a part whose hit the recurrence must get right
RECURRENCE_CASES = {
    # part 0-1-{2,3}-4-6 cut at 1 and 4: its hit is {2} plus the least cut vertex, 1
    "series hit, least cut": ([(0, 1), (0, 5), (1, 2), (1, 3), (2, 4), (3, 4), (4, 6),
                               (5, 6)], 6, (1, 2)),
    # two diamonds cut at 3: {1, 2}, the first one's hit, plus {4}, the second one's tr
    "series hit, a part's hit": ([(0, 1), (0, 2), (0, 6), (1, 3), (2, 3), (3, 4), (3, 5),
                                  (4, 7), (5, 7), (6, 7)], 7, (1, 2, 4)),
    # part 0-3-{1,2}-5 cut at 3: its hit is the hit {1, 2} of the parallel part 3-{1,2}-5
    "parallel hit": ([(0, 3), (0, 4), (1, 5), (2, 5), (3, 1), (3, 2), (4, 5)], 5, (1, 2)),
    # three one-path parts: one of them may miss every path, the largest
    "parallel tr": ([(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)], 4, (1, 2)),
    # the arc 0-3 misses every tracker, so both other parts must meet their paths
    "arc s-t": ([(0, 1), (0, 2), (0, 3), (1, 3), (2, 3)], 3, (1, 2)),
    # a cut leaf and the arc leaf in one solve: the arc 0-6 makes both other parts take
    # their hit, so the series part 0-1-{2,3}-4-6 takes its tr {2} plus its least cut, 1
    "arc s-t over a series part": ([(0, 1), (0, 5), (0, 6), (1, 2), (1, 3), (2, 4), (3, 4),
                                    (4, 6), (5, 6)], 6, (1, 2, 5)),
}


@pytest.mark.parametrize("arcs,t,least", RECURRENCE_CASES.values(), ids=RECURRENCE_CASES)
def test_recurrence_branches_pick_the_least_set(arcs, t, least):
    d = Digraph(t + 1, arcs, 0, t)
    assert least_tracking_set(d) == least
    assert solve_dag(d, d.n).witness == least
    assert solve_dag(d, len(least) - 1).result == "NO"


def spy_masks(monkeypatch):
    """The number of masks each call of ``dagtrack.path_masks`` lists, in order."""
    import trackset.dagtrack as dagtrack
    listed, real = [], dagtrack.path_masks

    def spy(*args):
        masks = real(*args)
        listed.append(len(masks))
        return masks

    monkeypatch.setattr(dagtrack, "path_masks", spy)
    return listed


class TestSeriesParallel:
    def test_every_dag_takes_one_route(self, monkeypatch):
        """Rigid or not, a reduced DAG goes through the split: no call reaches
        ``solve_masks``, each YES gets one ``violating_pair`` check, and the masks
        listed are the rigid blocks' paths, the rigid DAG's 3 and none for the
        diamonds, whose parts each have one path."""
        import trackset.dagtrack as dagtrack
        from trackset import setsystem
        assert "solve_masks" not in vars(dagtrack)
        monkeypatch.setattr(setsystem, "solve_masks", mock.Mock(
            side_effect=AssertionError("the DAG route called solve_masks")))
        listed, checks, real = spy_masks(monkeypatch), [], dagtrack.violating_pair
        monkeypatch.setattr(dagtrack, "violating_pair",
                            lambda d, trackers: checks.append(trackers) or real(d, trackers))
        for d, k, paths in ((RIGID, 2, 3), (diamond_dag(), 1, 0),
                            (serial_diamond_dag(2, widths=[2, 3]), 3, 0)):
            listed.clear()
            checks.clear()
            rep = solve_dag(d, k)
            assert rep.result == "YES"
            assert (sum(listed), len(checks)) == (paths, 1), d

    def test_budget_on_serial_diamonds_and_catalog_graphs_in_series(self, monkeypatch):
        """Scaling smoke in the style of criterion 9. 40 serial diamonds (2^40 paths)
        need no search, and catalog graphs 0, 1 and 2 in series (24 * 12 * 15 paths,
        minima 5, 5 and 6 from the brute-force oracle) search only their rigid blocks:
        each solve at the minimum and one below takes well under the 2 s budget here,
        where the unsplit route took seconds on the second and cannot list the first's
        paths; only the rigid blocks list theirs, none for the diamonds and at most
        all 24 + 12 + 15 for the series. The witness of a series is the union of its
        parts' witnesses."""
        parts = [catalog_graph(seed) for seed in (0, 1, 3)]
        g, maps = in_series(parts)
        assert [count_paths(reduce_rule_1(p)[0].base) for p in parts] == [24, 12, 15]
        want = sorted(m[v] for m, p, k in zip(maps, parts, (5, 5, 6))
                      for v in solve_shortest_paths(p, k).witness)
        listed = spy_masks(monkeypatch)
        for solve, inst, minimum, witness, most in (
                (solve_dag, serial_diamond_dag(40), 40, list(range(1, 120, 3)), 0),
                (solve_shortest_paths, g, 16, want, 24 + 12 + 15)):
            for k in (minimum, minimum - 1):
                listed.clear()
                start = time.perf_counter()
                rep = solve(inst, k)
                elapsed = time.perf_counter() - start
                assert elapsed < 2.0, (inst, k, elapsed)
                assert sum(listed) <= most, (inst, k, listed)
                assert (rep.result, rep.witness) == (("YES", tuple(witness)) if k == minimum
                                                     else ("NO", None)), (inst, k)

    def test_nesting_deeper_than_the_recursion_limit(self):
        """Vertex i + 1 has arcs to i and to t = 0, and vertex 1 to t: each vertex
        opens a parallel split over a series one, so the splits nest 2L deep. The
        L + 1 paths are nested, and only all L inner vertices tell them apart."""
        levels = sys.getrecursionlimit() + 1
        d = Digraph(levels + 2, [(1, 0)] + [(i + 1, j) for i in range(1, levels + 1)
                                            for j in (0, i)], levels + 1, 0)
        rep = solve_dag(d, levels)
        assert (rep.result, rep.witness, rep.paths) == \
            ("YES", tuple(range(1, levels + 1)), levels + 1)
        assert solve_dag(d, levels - 1).result == "NO"
