"""Differential property tests: every solve route against brute force.

For each random instance and every k, the decision must match
``brute_min_tracking``, and a YES witness must be the first tracking set
of minimum size in ``itertools.combinations`` order, found here by brute
force over the instance's own family.

Rule 4 keeps the smallest id of each chain of interior degree-2
vertices, and every vertex of a chain lies on the same paths, so the
witness is the least over all input ids, whatever the labelling. The
``verify`` command is checked the same way: its exit code against the
definition, and a printed violating pair against the path family. The
pair finder itself must return what one count pass per source returns.
"""

import contextlib
import io
import json
import os
import tempfile
from itertools import combinations
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from trackset import setsystem
from trackset.cli import main
from trackset.dagtrack import (_pair_through, _pruned, count_paths, path_masks, reduce_dag,
                               reduce_rule_2, solve_dag, violating_pair)
from trackset.graph import Digraph, Graph, topological_order
from trackset.instance_io import format_digraph, format_graph
from trackset.oracle import (brute_is_tracking, brute_min_tracking, enumerate_all_paths,
                             enumerate_shortest_paths)
from trackset.setsystem import (SetSystem, hitting_search, minimal_differences,
                                solve_set_system, to_mask)
from trackset.shortest import reduce_rule_1, solve_shortest_paths, to_dag

from conftest import brute_shortest_path_sets, serial_diamond_dag

SETTINGS = settings(max_examples=150, deadline=None)


def least_tracking_set(family, universe):
    """First tracking set in combinations order, over the smallest size.

    Sets and candidates are int masks; combinations of distinct bits keep
    the order of the combinations of their ids, and their sum is their union."""
    masks = [sum(1 << v for v in set(s)) for s in family]
    for size in range(universe + 1):
        for combo in combinations([1 << v for v in range(universe)], size):
            if len(set(map(sum(combo).__and__, masks))) == len(masks):
                return tuple(b.bit_length() - 1 for b in combo)
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
def dags(draw):
    """DAGs on at most 12 vertices, topologically ordered by a random permutation."""
    n = draw(st.integers(2, 12))
    order = draw(st.permutations(range(n)))
    pairs = list(combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    s, t = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
    return Digraph(n, [(order[a], order[b]) for (a, b), k in zip(pairs, keep) if k], s, t)


@st.composite
def spanning_dags(draw):
    """DAGs on 2-14 vertices whose s and t come first and last in a random
    topological order, so that rule 2 leaves more of them."""
    n = draw(st.integers(2, 14))
    order = draw(st.permutations(range(n)))
    pairs = list(combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Digraph(n, [(order[a], order[b]) for (a, b), k in zip(pairs, keep) if k],
                   order[0], order[-1])


def any_dags():
    """Either kind: with s and t drawn at random rule 2 leaves at most four
    vertices of most DAGs, with s and t at the ends it leaves more."""
    return st.one_of(dags(), spanning_dags())


@st.composite
def graphs(draw):
    """Graphs on at most 10 vertices."""
    n = draw(st.integers(2, 10))
    pairs = list(combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    s, t = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
    return Graph(n, [a for a, k in zip(pairs, keep) if k], s, t)


@st.composite
def with_trackers(draw, instances):
    inst = draw(instances)
    return inst, draw(st.sets(st.integers(0, inst.n - 1)))


@st.composite
def set_systems(draw):
    universe = draw(st.integers(0, 10))
    masks = draw(st.lists(st.integers(0, 2 ** universe - 1), min_size=1,
                          max_size=14, unique=True))
    return SetSystem(universe, [[e for e in range(universe) if m >> e & 1]
                                for m in masks])


@SETTINGS
@given(any_dags())
@example(Digraph(6, [(0, 4), (4, 3), (3, 2), (2, 1), (0, 5), (5, 1)], 0, 1))
def test_dag_route_matches_brute_force(d):
    def solve(k):
        rep = solve_dag(d, k)
        return rep.result == "YES", rep.witness

    check_route(enumerate_all_paths(d), d.n, solve)


@SETTINGS
@given(any_dags())
def test_rule_2_keeps_exactly_the_path_vertices(d):
    out, relab = reduce_rule_2(d)
    paths = enumerate_all_paths(d)
    assert set(relab.to_original) == {d.s, d.t}.union(*paths)
    assert {(relab.to_original[u], relab.to_original[v]) for u, v in out.arcs} == \
        {arc for p in paths for arc in zip(p, p[1:])}


@SETTINGS
@given(any_dags())
@example(Digraph(2, [], 0, 1))
@example(Digraph(3, [(0, 1), (0, 2), (1, 2)], 0, 2))
def test_rule_2_degree_test_matches_the_path_vertices(d):
    """s alone has no in-arc and t alone no out-arc iff every vertex lies on
    an s-t path; exactly then rule 2 searches nothing and hands ``d`` back.
    (The reachability prune keeps s and t even when no path joins them, so
    on ``dag 2 0 1`` with no arc it keeps all n vertices, yet the test fails.)"""
    ends = (d.in_adj.count(()) == 1 == d.out_adj.count(())
            and not d.in_adj[d.s] and not d.out_adj[d.t])
    on_paths = set().union(*enumerate_all_paths(d)) == set(range(d.n))
    assert ends == on_paths
    assert (_pruned(d) is None) == on_paths
    out, relab = reduce_rule_2(d)
    assert (out is d) == on_paths
    if on_paths:
        assert relab.to_original == tuple(range(d.n))


@SETTINGS
@given(any_dags())
def test_rule_2_hands_back_its_own_output(d):
    """Rule 2 is idempotent, and on its own output builds nothing, unless no
    s-t path exists and it left s and t alone."""
    out, _ = reduce_rule_2(d)
    again, relab = reduce_rule_2(out)
    if out.arcs:
        assert again is out and relab.to_original == tuple(range(out.n))
    else:
        assert (again.n, again.arcs) == (2, ())


@SETTINGS
@given(any_dags())
@example(Digraph(6, [(0, 4), (4, 3), (3, 2), (2, 1), (0, 5), (5, 1)], 0, 1))
def test_reduce_dag_keeps_each_chains_least_id(d):
    """After rule 2, rule 3 deletes s (t) while it has one out-arc (in-arc)
    and no in-arc (out-arc); then each maximal chain of interior in-1/out-1
    vertices keeps only its least id, its arcs in and out go to that id, and
    the result is a fixpoint."""
    p, relab2 = reduce_rule_2(d)
    arcs, s, t = set(p.arcs), p.s, p.t

    def ins(v):
        return [a for a, b in arcs if b == v]

    def outs(v):
        return [b for a, b in arcs if a == v]

    live = set(range(p.n))
    while s != t:
        if len(outs(s)) == 1 and not ins(s):
            end, s = s, outs(s)[0]
        elif len(ins(t)) == 1 and not outs(t):
            end, t = t, ins(t)[0]
        else:
            break
        live.discard(end)
        arcs = {arc for arc in arcs if end not in arc}
    reduced, deleted = reduce_dag(d)
    if s == t:
        assert reduced is None and deleted == d.n - 1
        return
    inner = {v for v in live if v not in (s, t) and len(ins(v)) == 1 == len(outs(v))}
    chain = {v: {v} for v in inner}
    for u, v in arcs:
        if u in inner and v in inner:
            merged = chain[u] | chain[v]
            for x in merged:
                chain[x] = merged
    # relabelings keep the order of ids, so the least id is least in p too
    orig = [relab2.to_original[min(chain.get(v, {v}))] for v in range(p.n)]
    new = reduced.relabeling.to_original
    assert new == tuple(sorted({orig[v] for v in live}))
    assert {(new[u], new[v]) for u, v in reduced.base.arcs} == \
        {(orig[u], orig[v]) for u, v in arcs if orig[u] != orig[v]}
    assert (new[reduced.base.s], new[reduced.base.t]) == (orig[s], orig[t])
    assert deleted == d.n - len(new)
    again, deleted = reduce_dag(reduced.base)
    assert deleted == 0
    if reduced.base.arcs:  # else no s-t path, and rule 2 rebuilds the pair s, t
        assert again.base is reduced.base
        assert again.relabeling.to_original == tuple(range(reduced.base.n))


def shape(d):
    """Everything a digraph holds but the order it keeps."""
    return d.n, d.arcs, d.out_adj, d.in_adj, d.s, d.t


@SETTINGS
@given(st.one_of(any_dags(), graphs()), st.data())
def test_unchecked_digraph_path_matches_checking_constructor(inst, data):
    """Rules 1, 2 and 4 build their digraphs from a checked graph's pairs, as
    keys u * n + v in any order, without the checks: the result must be the
    digraph that the checking constructor builds from the same pairs."""
    pairs = data.draw(st.permutations(inst.arcs if isinstance(inst, Digraph) else inst.edges))
    keys = [u * inst.n + v for u, v in pairs]
    built = Digraph._derived(inst.n, keys, inst.s, inst.t, None)
    assert shape(built) == shape(Digraph(inst.n, pairs, inst.s, inst.t))


@st.composite
def derived_dags(draw):
    """A DAG that a rule built from a checked one, with the order it inherited:
    rule 1's level order, or the order of a parsed DAG (which the parse's cycle
    check keeps) or of rule 1's DAG, restricted by rule 2 or by rules 2-4."""
    kind = draw(st.sampled_from(["rule 1", "rule 2", "rules 2-4", "rules 1-4"]))
    if kind in ("rule 1", "rules 1-4"):
        pruned = reduce_rule_1(draw(graphs()))
        assume(pruned is not None)
        d = pruned[0].base
        if kind == "rule 1":
            return d
    else:
        d = draw(any_dags())
        topological_order(d)
    if kind == "rule 2":
        return reduce_rule_2(d)[0]
    reduced, _ = reduce_dag(d)
    assume(reduced is not None)
    return reduced.base


@SETTINGS
@given(derived_dags())
def test_derived_dags_count_with_their_inherited_order(d):
    """A derived DAG's order is a topological order of it, which it has without
    Kahn's loop, and it counts the paths of a fresh copy that runs that loop."""
    fresh = Digraph(d.n, d.arcs, d.s, d.t)
    assert shape(d) == shape(fresh)
    with mock.patch("trackset.graph._kahn", side_effect=AssertionError("Kahn's loop ran")):
        order = topological_order(d)
        counts = [count_paths(d, cap) for cap in (None, 0, 1, 2)]
    assert sorted(order) == list(range(d.n))
    at = {v: i for i, v in enumerate(order)}
    assert all(at[u] < at[v] for u, v in d.arcs)
    assert counts == [count_paths(fresh, cap) for cap in (None, 0, 1, 2)]


@SETTINGS
@given(graphs())
@example(Graph(7, [(0, 3), (0, 6), (2, 5), (2, 6), (3, 4), (4, 5)], 2, 3))
def test_shortest_route_matches_brute_force(g):
    def solve(k):
        rep = solve_shortest_paths(g, k)
        return rep.result == "YES", rep.witness

    check_route(brute_shortest_path_sets(g), g.n, solve)


@SETTINGS
@given(graphs())
@example(Graph(4, [(0, 1), (0, 2), (1, 3), (2, 3)], 0, 3))
@example(Graph(3, [(0, 1)], 0, 1))
def test_rule_1_hands_back_graphs_it_would_not_change(g):
    """Rule 1 keeps every id, with the identity relabeling, and every edge, as an
    arc towards t, iff every vertex and edge lies on a shortest s-t path; so it
    does on the graph of its own DAG, and orders that DAG the same way."""
    paths = brute_shortest_path_sets(g)
    if not paths:
        assert reduce_rule_1(g) is None
        return
    on_paths = (set().union(*paths) == set(range(g.n)) and
                {tuple(sorted(e)) for p in paths for e in zip(p, p[1:])} == set(g.edges))
    lg, relab = reduce_rule_1(g)
    d = lg.base
    edges = tuple(sorted((min(e), max(e)) for e in d.arcs))
    assert (relab.to_original == tuple(range(g.n)) and edges == g.edges) == on_paths
    if on_paths:
        assert (d.n, d.s, d.t) == (g.n, g.s, g.t)
    again, relab = reduce_rule_1(Graph(d.n, edges, d.s, d.t))
    assert (again.base.n, again.base.arcs, again.base.s, again.base.t) == (d.n, d.arcs, d.s, d.t)
    assert topological_order(again.base) == topological_order(d)
    assert relab.to_original == tuple(range(d.n))


@SETTINGS
@given(graphs())
def test_oracle_lists_the_shortest_paths(g):
    """The same vertex sequences as the exhaustive DFS, on raw graphs that
    may leave t unreachable."""
    assert sorted(enumerate_shortest_paths(g)) == sorted(brute_shortest_path_sets(g))


@SETTINGS
@given(graphs())
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
        rep = solve_set_system(sys, k)
        assert (rep.witness is not None) == (rep.result == "YES")
        return rep.result == "YES", rep.witness

    check_route(sys.family, sys.universe_size, solve)


@SETTINGS
@given(set_systems())
def test_hitting_family_is_superset_free(sys):
    family = minimal_differences([to_mask(s) for s in sys.family])
    for a, b in combinations(family, 2):
        assert a & ~b and b & ~a


@st.composite
def mask_lists(draw):
    """Distinct masks over a universe of at most 10: drawn freely, or as
    sums of a few generators, so that most differences repeat."""
    universe = draw(st.integers(0, 10))
    mask = st.integers(0, 2 ** universe - 1)
    if draw(st.booleans()):
        return draw(st.lists(mask, max_size=20, unique=True))
    gens = draw(st.lists(mask, min_size=1, max_size=4))
    masks = {0}
    for g in gens:
        masks |= {m ^ g for m in masks}
    return draw(st.permutations(sorted(masks)))


@st.composite
def wide_mask_lists(draw):
    """Distinct masks up to 70 bits wide, across the 30- and 60-bit digit
    boundaries of Python ints: free draws, or sums of a few sparse
    generators so that differences nest; the empty set is often among them."""
    bit = st.integers(0, 69)
    if draw(st.booleans()):
        masks = draw(st.lists(st.builds(sum, st.sets(bit.map(lambda e: 1 << e), max_size=6)),
                              max_size=16, unique=True))
    else:
        gens = draw(st.lists(st.sets(bit, min_size=1, max_size=4), min_size=1, max_size=4))
        masks = {0}
        for g in gens:
            masks |= {m ^ sum(1 << e for e in g) for m in masks}
        masks = draw(st.permutations(sorted(masks)))
    if draw(st.booleans()):
        masks = [0, *(m for m in masks if m)]
    return masks


def reference_minimal_differences(masks):
    diffs = {a ^ b for a, b in combinations(masks, 2)}
    minimal = [f for f in diffs if not any(g != f and g & f == g for g in diffs)]
    return sorted(minimal, key=lambda f: (f.bit_count(), f))


@pytest.mark.parametrize("patched", [False, True], ids=["as-is", "tiny-chunks"])
@SETTINGS
@given(masks=st.one_of(mask_lists(), wide_mask_lists()), chunk=st.integers(1, 3))
@example(masks=[0, 1, 2, 3], chunk=1)
@example(masks=[0], chunk=1)
@example(masks=[0, 1 << 29, 1 << 30, 1 << 59 | 1 << 30, 1 << 60, 1 << 69 | 1], chunk=1)
@example(masks=[0, (1 << 70) - 1], chunk=2)
def test_minimal_differences_matches_reference(patched, masks, chunk):
    """Chunks of 1-3 pairs make every chunk merge into the family so far."""
    with mock.patch.object(setsystem, "PAIR_CHUNK",
                           chunk if patched else setsystem.PAIR_CHUNK):
        assert minimal_differences(masks) == reference_minimal_differences(masks)


@SETTINGS
@given(rows=st.lists(st.integers(0, 2 ** 70 - 1), max_size=40), width=st.integers(0, 72))
@example(rows=[], width=0)
@example(rows=[], width=5)
@example(rows=[0], width=0)
@example(rows=[0], width=3)
@example(rows=[5, 1, 7, 0, 2], width=3)
def test_columns_match_a_per_bit_build(rows, width):
    """Rows in any order, cut to ``width`` bits: bit i of column e is bit e of row i."""
    sets = [r & ((1 << width) - 1) for r in rows]
    assert setsystem._columns(sets, width) == [
        sum(1 << i for i, s in enumerate(sets) if s >> e & 1) for e in range(width)]


@SETTINGS
@given(d=any_dags())
@example(d=serial_diamond_dag(5))
@example(d=serial_diamond_dag(3, widths=[3, 1, 4]))
def test_path_masks_are_the_oracle_paths(d):
    masks = path_masks(d)
    assert sorted(masks) == sorted(sum(1 << v for v in p) for p in enumerate_all_paths(d))
    assert len(masks) == count_paths(d).value


def least_hitting_set(sets, n):
    """First hitting set over elements 0..n-1 in combinations order, over
    the smallest size, as a mask; None if there is none."""
    for size in range(n + 1):
        for combo in combinations(range(n), size):
            t = sum(1 << e for e in combo)
            if all(s & t for s in sets):
                return t
    return None


@SETTINGS
@given(masks=mask_lists())
@example(masks=[0, 1, 2, 3])
@example(masks=[])
def test_hitting_search_matches_brute_force(masks):
    """On the minimal differences, on the raw masks (unsorted, and holding
    the empty set when it was drawn) and on the raw nonempty ones: for every
    k and for lower in {0, minimum}, the search finds no set exactly when
    none of size <= k exists, and else the first of minimum size in
    ``itertools.combinations`` order."""
    n = max(masks, default=0).bit_length()
    for sets in (minimal_differences(masks), masks, [m for m in masks if m]):
        best = least_hitting_set(sets, n)
        for k in range(n + 2):
            for lower in {0, 0 if best is None else best.bit_count()}:
                expect = best if best is not None and best.bit_count() <= k else None
                assert hitting_search(sets, k, lower)[0] == expect, (sets, k, lower)


def check_verify(text, paths, trackers):
    """``verify`` decides as the definition does, and on false prints two
    distinct members of ``paths`` that meet the trackers in the same set."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "x.txt")
        with open(path, "w") as f:
            f.write(text)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["verify", path, "--trackers", *map(str, sorted(trackers))])
    ok = brute_is_tracking(paths, trackers)
    assert code == (0 if ok else 1)
    if not ok:
        lines = out.getvalue().splitlines()
        pair = [frozenset(map(int, ln.split()))
                for ln in lines[lines.index("violating paths:") + 1:]]
        assert len(pair) == 2 and pair[0] != pair[1]
        assert set(pair) <= {frozenset(p) for p in paths}
        assert pair[0] & trackers == pair[1] & trackers


@SETTINGS
@given(with_trackers(any_dags()))
def test_cli_verify_on_dags_matches_definition(case):
    d, trackers = case
    check_verify(format_digraph(d), enumerate_all_paths(d), trackers)


@SETTINGS
@given(with_trackers(graphs()))
def test_cli_verify_on_graphs_matches_definition(case):
    g, trackers = case
    check_verify(format_graph(g), brute_shortest_path_sets(g), trackers)


def reference_violating_pair(d, trackers):
    """One saturating count pass per u in trackers + {s}, ascending: the
    first u, and then the least v in trackers + {t}, with two u-v paths
    avoiding the trackers inside give the pair."""
    topo, ends = topological_order(d), sorted(trackers | {d.t})
    for u in sorted(trackers | {d.s}):
        counts = [0] * d.n
        counts[u] = 1
        for w in topo:
            if counts[w] and (w == u or w not in trackers):
                for x in d.out_adj[w]:
                    counts[x] = min(2, counts[x] + counts[w])
        v = next((v for v in ends if counts[v] == 2), None)
        if v is not None:
            return _pair_through(d, counts, trackers, u, v)
    return None


@st.composite
def pruned_dags_with_trackers(draw):
    """What both verify routes hand the pair finder: a DAG pruned by rule 2,
    or the rule-1 DAG of a graph, with any set of trackers."""
    kind = draw(st.sampled_from(["dag", "spanning", "graph"]))
    if kind == "graph":
        pruned = reduce_rule_1(draw(graphs()))
        assume(pruned is not None)
        d = to_dag(pruned[0])
    else:
        d = reduce_rule_2(draw(dags() if kind == "dag" else spanning_dags()))[0]
    marks = draw(st.lists(st.booleans(), min_size=d.n, max_size=d.n))
    return d, frozenset(v for v, m in enumerate(marks) if m)


@SETTINGS
@given(pruned_dags_with_trackers())
@example((serial_diamond_dag(3, [2, 3, 2]), frozenset({0, 1, 4, 5, 8, 10})))
@example((serial_diamond_dag(3, [2, 3, 2]), frozenset({0, 1, 4, 8, 10})))
def test_violating_pair_matches_count_pass(case):
    """The same answer and, on false, the very same pair of paths."""
    d, trackers = case
    assert violating_pair(d, trackers) == reference_violating_pair(d, trackers)
