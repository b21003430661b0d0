"""Acceptance suite: one test per criterion, printing a pass line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they pass.
"""

import random
import time

from trackset.cli import main
from trackset.dagtrack import (count_paths, reduce_dag, reduce_rule_2, solve_dag,
                               violating_pair)
from trackset.generate import (random_connected_graph, random_dag,
                               random_set_system)
from trackset.graph import Graph
from trackset.oracle import (brute_is_tracking, brute_min_tracking,
                             enumerate_all_paths, enumerate_shortest_paths)
from trackset.setsystem import (minimal_differences, solve_set_system, to_mask,
                                tracking_lower_bound)
from trackset.shortest import reduce_rule_1, solve_shortest_paths

from conftest import serial_diamond_dag


def _ok(num, text):
    print(f"criterion {num}: PASS - {text}")


def test_criterion_1_oracle_agreement_graphs():
    rng = random.Random(101)
    start = time.perf_counter()
    for _ in range(500):
        g = random_connected_graph(rng, rng.randint(4, 12))
        family = enumerate_shortest_paths(g)  # the oracle's own, without rule 1
        best = brute_min_tracking(family, g.n)
        rep = solve_shortest_paths(g, g.n)
        assert rep.result == "YES"
        assert len(rep.witness) == best
        # criterion 6 folded in: never beat the ceil(lg m) bound
        if family:
            assert len(rep.witness) >= tracking_lower_bound(len(family))
    elapsed = time.perf_counter() - start
    assert elapsed < 60
    _ok(1, f"500 graphs, solver minimum == oracle minimum ({elapsed:.1f}s)")


def _random_systems(seed, count):
    rng = random.Random(seed)
    systems = []
    for _ in range(count):
        universe = rng.randint(2, 10)
        m = rng.randint(1, min(8, 2 ** universe))
        systems.append(random_set_system(rng, universe, m))
    return systems


def test_criterion_2_oracle_agreement_set_systems():
    systems = _random_systems(202, 500)
    for sys in systems:
        best = brute_min_tracking(sys.family, sys.universe_size)
        for k in range(6):
            got = solve_set_system(sys, k).witness
            expect_yes = best is not None and best <= k
            assert (got is not None) == expect_yes
            if got is not None:
                assert len(got) == best
                assert brute_is_tracking(sys.family, frozenset(got))
                assert len(got) >= tracking_lower_bound(len(sys.family))
    _ok(2, "500 set systems, decisions match brute force for k in 0..5")


def test_criterion_3_symmetric_difference_equivalence():
    systems = _random_systems(202, 500)
    rng = random.Random(303)
    checked = 0
    for sys in systems:
        hitting = minimal_differences([to_mask(s) for s in sys.family])
        for _ in range(2):
            size = rng.randint(0, sys.universe_size)
            trackers = frozenset(rng.sample(range(sys.universe_size), size))
            is_tracking = brute_is_tracking(sys.family, trackers)
            hits_all = all(to_mask(trackers) & f for f in hitting)
            assert is_tracking == hits_all
            checked += 1
    assert checked == 1000
    _ok(3, "1000 random subsets, tracking iff hitting the symmetric differences")


def test_criterion_4_condition_equals_definition():
    rng = random.Random(404)
    done = 0
    while done < 500:
        d = random_dag(rng, rng.randint(4, 10))
        pruned, _ = reduce_rule_2(d)
        paths = enumerate_all_paths(pruned)
        for _ in range(20):
            size = rng.randint(0, pruned.n)
            trackers = frozenset(rng.sample(range(pruned.n), size))
            assert (violating_pair(pruned, trackers) is None) == \
                brute_is_tracking(paths, trackers)
        done += 1
    _ok(4, "500 DAGs x 20 subsets, tracking condition == definition check")


def _random_reduced_dags(seed, count, max_n):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.randint(5, max_n + 10)
        rd, _ = reduce_dag(random_dag(rng, n, arc_prob=rng.uniform(0.1, 0.6)))
        if rd is None or rd.base.n > max_n:
            continue
        if count_paths(rd.base) == 0:
            continue
        out.append(rd)
    return out


def test_criterion_5_path_count_lower_bounds():
    for rd in _random_reduced_dags(505, 1000, 100):
        p = count_paths(rd.base)
        d = rd.base
        degree_bound = 1 + sum(len(d.out_adj[v]) - 1 for v in range(d.n) if v != d.t)
        assert p >= degree_bound
        assert 5 * p >= d.n
    _ok(5, "1000 reduced DAGs, path count >= degree bound and >= n/5")


def test_criterion_6_lower_bound_gate_on_dags():
    rng = random.Random(606)
    for _ in range(200):
        d = random_dag(rng, rng.randint(4, 10))
        rep = solve_dag(d, d.n)
        if rep.result == "YES" and rep.paths and rep.paths >= 1:
            assert len(rep.witness) >= tracking_lower_bound(rep.paths)
    _ok(6, "no witness ever beats ceil(lg m) across fuzz runs")


def test_criterion_7_diameter_two_law():
    for r in range(1, 9):
        edges = [(0, mid) for mid in range(1, r + 1)] + \
                [(mid, r + 1) for mid in range(1, r + 1)]
        g = Graph(r + 2, edges, 0, r + 1)
        rep = solve_shortest_paths(g, r + 2)
        assert rep.result == "YES" and len(rep.witness) == r - 1
    _ok(7, "stars through r middles need exactly r-1 trackers, r in 1..8")


def test_criterion_8_reduction_safety():
    rng = random.Random(808)
    # undirected half: rule 1 preserves the brute-force minimum of the raw graph
    for _ in range(250):
        g = random_connected_graph(rng, rng.randint(4, 12))
        before = brute_min_tracking(enumerate_shortest_paths(g), g.n)
        lg, _ = reduce_rule_1(g)
        reduced_family = enumerate_all_paths(lg.base)  # rule 1's DAG: the shortest paths
        after = brute_min_tracking(reduced_family, lg.base.n)
        assert before == after
    # DAG half: rules 3 and 4 preserve the minimum of the zero-pruned graph
    for _ in range(250):
        d = random_dag(rng, rng.randint(4, 12))
        pruned, _ = reduce_rule_2(d)
        before = brute_min_tracking(enumerate_all_paths(pruned), pruned.n)
        rd, _ = reduce_dag(d)
        if rd is None:
            after = 0
        else:
            after = brute_min_tracking(enumerate_all_paths(rd.base), rd.base.n)
        assert before == after
    _ok(8, "rules 1-4 preserve the brute-force minimum on 500 instances")


def test_criterion_9_scaling_smoke():
    # reduced DAG on exactly 80 vertices: 26 serial diamonds, one widened
    d = serial_diamond_dag(26, widths=[3] + [2] * 25)
    assert d.n == 80
    rd, _ = reduce_dag(d)
    assert rd is not None and rd.base.n == 80
    start = time.perf_counter()
    rep = solve_dag(d, 4)
    elapsed = time.perf_counter() - start
    assert elapsed < 120
    assert rep.result == "NO"  # >= n/5 paths exceed 2^4 here
    _ok(9, f"n=80, k=4 decided in {elapsed:.2f}s via the lower-bound gate")


def test_criterion_10_cli_determinism(tmp_path, capsys):
    diamond = tmp_path / "d.graph"
    diamond.write_text("graph 4 0 3\n0 1\n0 2\n1 3\n2 3\n")
    dag = tmp_path / "d.dag"
    dag.write_text("dag 4 0 3\n0 1\n0 2\n1 3\n2 3\n")
    commands = [
        ["solve", str(diamond), "--k", "1"],
        ["solve", str(diamond), "--k", "1", "--json", "--mode", "setsystem"],
        ["solve", str(dag), "--k", "2", "--oracle"],
        ["reduce", str(dag)],
        ["count", str(diamond)],
        ["verify", str(diamond), "--trackers", "1"],
    ]
    for cmd in commands:
        outputs = []
        for threads in ("1", "8"):
            code = main(cmd + ["--threads", threads])
            outputs.append((code, capsys.readouterr().out))
        assert outputs[0] == outputs[1], cmd
    _ok(10, "CLI output byte-identical for --threads 1 and 8")
