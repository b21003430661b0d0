"""Differential property tests: every solve route against brute force.

For each random instance and every k, the decision must match
``brute_min_tracking``, and a YES witness must be the first tracking set
of minimum size in ``itertools.combinations`` order, found here by brute
force over the instance's own family.

Rule 4 keeps the smallest id of each chain of interior degree-2
vertices, and every vertex of a chain lies on the same paths, so the
witness is the least over all input ids, whatever the labelling. The
``verify`` command is checked the same way: its exit code against the
definition, and a printed violating pair against the path family (on a
set system, against the first pair the definition gives). The
pair finder itself must return what one count pass per source returns.
"""

import contextlib
import io
import json
import os
import tempfile
from itertools import combinations, starmap
from operator import xor
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from trackset import setsystem
from trackset.cli import main
from trackset.dagtrack import (_pair_through, _pruned, count_paths, reduce_dag, reduce_rule_2,
                               solve_dag, violating_pair)
from trackset.errors import CycleError
from trackset.graph import Digraph, Graph, VertexRelabeling, topological_order
from trackset.instance_io import format_digraph, format_graph, format_setsystem
from trackset.oracle import (brute_is_tracking, brute_min_tracking, enumerate_all_paths,
                             enumerate_shortest_paths)
from trackset.setsystem import (SetSystem, hitting_search, minimal_differences,
                                solve_masks, solve_set_system, to_mask, violating_sets)
from trackset.shortest import reduce_rule_1, solve_shortest_paths, to_dag

from conftest import brute_shortest_path_sets, dag_path_masks, serial_diamond_dag

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
def spanning_dags(draw, max_n=14):
    """DAGs on 2-``max_n`` vertices whose s and t come first and last in a random
    topological order, so that rule 2 leaves more of them."""
    n = draw(st.integers(2, max_n))
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
def graphs(draw, max_n=10):
    """Graphs on at most ``max_n`` vertices."""
    n = draw(st.integers(2, max_n))
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


@st.composite
def compositions(draw):
    """2-4 pieces, each a random DAG, a graph's shortest-path DAG or the smallest
    rigid DAG, nested in series and in parallel at random, with the arc s-t added
    at some parallel steps, then with their ids shuffled; at most 15 vertices."""
    pieces = []
    for _ in range(draw(st.integers(2, 4))):
        kind = draw(st.sampled_from(["dag", "graph", "rigid"]))
        if kind == "dag":
            d = draw(spanning_dags(max_n=6))
        elif kind == "graph":
            assume((pruned := reduce_rule_1(draw(graphs(max_n=7)))) is not None)
            d = pruned[0].base
        else:  # paths 0-1-3, 0-2-3 and 0-1-2-3: no cut vertex, no parallel part
            d = Digraph(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)], 0, 3)
        pieces.append((d.n, set(d.arcs), d.s, d.t))
    while len(pieces) > 1:
        a = pieces.pop(draw(st.integers(0, len(pieces) - 1)))
        b = pieces.pop(draw(st.integers(0, len(pieces) - 1)))
        (na, arcs_a, sa, ta), (nb, arcs_b, sb, tb) = a, b
        series = draw(st.booleans())
        ends = {sb: ta} if series else {sb: sa, tb: ta}
        rest = [v for v in range(nb) if v not in ends]
        new = {**ends, **{v: na + i for i, v in enumerate(rest)}}
        arcs = arcs_a | {(new[u], new[v]) for u, v in arcs_b}
        if not series and draw(st.booleans()):
            arcs.add((sa, ta))
        pieces.append((na + nb - len(ends), arcs, sa, new[tb] if series else ta))
    n, arcs, s, t = pieces[0]
    assume(n <= 15)
    perm = draw(st.permutations(range(n)))
    return Digraph(n, [(perm[u], perm[v]) for u, v in arcs], perm[s], perm[t])


def is_rigid(d):
    """True iff the DAG ``d``, every vertex on an s-t path, splits neither way: it
    has two or more paths, no arc s-t, no vertex but s and t on every path, and its
    other vertices are weakly connected through the arcs between them."""
    paths = enumerate_all_paths(d)
    inner = set(range(d.n)) - {d.s, d.t}
    if len(paths) < 2 or (d.s, d.t) in d.arcs or inner.intersection(*paths):
        return False
    reached, stack = {min(inner)}, [min(inner)]
    while stack:
        v = stack.pop()
        for w in d.out_adj[v] + d.in_adj[v]:
            if w in inner and w not in reached:
                reached.add(w)
                stack.append(w)
    return reached == inner


@SETTINGS
@given(compositions())
@example(Digraph(7, [(0, 1), (1, 2), (0, 3), (3, 2), (2, 4), (2, 5), (4, 6), (5, 6), (0, 6)],
                 0, 6))
@example(Digraph(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)], 0, 3))
def test_series_parallel_compositions_match_brute_force(d):
    """The split route decides and picks the witness as brute force does, and prints
    what the unsplit route prints, but for ``subsets_tried``; when the reduced DAG is
    one rigid block, ``subsets_tried`` too."""
    reduced, deleted = reduce_dag(d)
    base = reduced and reduced.base
    rigid = base is not None and is_rigid(base)

    def unsplit(k):
        """All the reduced DAG's paths to ``solve_masks``, relabeled; None where the
        singleton or a gate decides, which the split does not reach."""
        k = min(k, base.n)
        if not 0 < count_paths(base) <= 2 ** k:  # n > 5 * 2^k has more paths
            return None
        rep = solve_masks(dag_path_masks(base), k)
        rep.relabel(reduced.relabeling)
        rep.reductions = deleted
        return rep

    def lines(rep):
        return [line for line in rep.to_text().splitlines() if "subsets_tried" not in line]

    def solve(k):
        rep = solve_dag(d, k)
        if base is not None and (eager := unsplit(k)) is not None:
            assert lines(rep) == lines(eager)
            if rigid:
                assert rep.subsets_tried == eager.subsets_tried
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
    ends = (d.in_adj.count([]) == 1 == d.out_adj.count([])
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
    """Rules 1, 2 and 4 hand the one builder, Digraph._derived, the relabeling of the
    ids they keep (s and t among them) and the arcs between those ids in the parent's
    ids, in any order, without the checks: the result must be the digraph that the
    checking constructor builds from the renumbered arcs, and it must keep the
    parent's order restricted to the kept ids, renumbered."""
    pairs = inst.arcs if isinstance(inst, Digraph) else inst.edges  # edges u < v: a DAG
    kept = data.draw(st.sets(st.integers(0, inst.n - 1))) | {inst.s, inst.t}
    keep = data.draw(st.permutations(sorted(kept)))
    new = {old: i for i, old in enumerate(keep)}
    arcs = data.draw(st.permutations([(u, v) for u, v in pairs if u in new and v in new]))
    order = data.draw(st.sampled_from([None, topological_order(Digraph(inst.n, pairs,
                                                                       inst.s, inst.t))]))
    built = Digraph._derived(VertexRelabeling(keep), [u for u, _ in arcs],
                             [v for _, v in arcs], inst.s, inst.t, order)
    fresh = Digraph(len(keep), [(new[u], new[v]) for u, v in arcs], new[inst.s], new[inst.t])
    assert shape(built) == shape(fresh)
    assert built._order == (order and tuple(new[v] for v in order if v in new))


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


@st.composite
def cycles_through_s(draw):
    """A DAG with arcs into s added, so that every cycle passes through s."""
    d = draw(any_dags())
    tails = draw(st.sets(st.sampled_from([v for v in range(d.n) if v != d.s]), min_size=1))
    return Digraph(d.n, sorted(set(d.arcs) | {(v, d.s) for v in tails}), d.s, d.t)


def in_lists(d):
    """The ascending in-lists of ``d``, rebuilt from its arcs."""
    return [sorted(u for u, v in d.arcs if v == x) for x in range(d.n)]


def _reach_both_ways(adj, src, stop, allowed):
    seen = bytearray(len(adj))
    seen[src] = 1
    stack = [src]
    while stack:
        for x in adj[stack.pop()]:
            if allowed[x] and not seen[x]:
                seen[x] = 1
                if x != stop:
                    stack.append(x)
    return seen


def rules_on_two_lists(d):
    """Rules 2-4 as they ran while a digraph kept two lists per vertex: rule 2 as a
    search forward from s and one back from t, rules 3 and 4 on dicts of copied in- and
    out-lists. Returns (rule 2's kept ids and arcs, rules 2-4's kept ids, arcs, s and t
    or None for a singleton, and the vertices they deleted), all in d's ids."""
    n, s, t, arcs = d.n, d.s, d.t, set(d.arcs)
    out_adj = [sorted(v for u, v in arcs if u == x) for x in range(n)]
    in_adj = [sorted(u for u, v in arcs if v == x) for x in range(n)]
    whole = in_adj.count([]) == 1 == out_adj.count([]) and not (in_adj[s] or out_adj[t])
    if whole:
        keep, out, inc = list(range(n)), out_adj, in_adj
        rule_2 = (keep, arcs)
    else:
        on = _reach_both_ways(in_adj, t, s,
                              _reach_both_ways(out_adj, s, t, bytearray(b"\1") * n))
        keep = [v for v in range(n) if on[v]] if on[s] else sorted((s, t))
        rule_2 = (keep, {(u, v) for u in keep if u != t for v in out_adj[u]
                         if on[v] and v != s})
        out, inc = ({v: [x for x in adj[v] if on[x]] for v in keep} for adj in (out_adj, in_adj))
    gone = set()
    while s != t and len(out[s]) == 1:
        gone.add(s)
        s = out[s][0]
    while t != s and len(inc[t]) == 1:
        gone.add(t)
        t = inc[t][0]
    if s == t:
        return rule_2, None, n - 1
    live = [v for v in keep if v not in gone]
    inner = {v for v in live if len(inc[v]) == 1 == len(out[v])}
    least = {}
    for head in inner:
        if inc[head][0] not in inner and (z := out[head][0]) in inner:
            chain = [head, z]
            while (z := out[z][0]) in inner:
                chain.append(z)
            least.update(dict.fromkeys(chain, min(chain)))
    kept = [v for v in live if least.get(v, v) == v]
    if whole and len(kept) == n:
        return rule_2, (kept, arcs, d.s, d.t), 0
    merged = {(least.get(u, u), least.get(v, v)) for u in live for v in out[u] if v not in gone}
    return rule_2, (kept, {(a, b) for a, b in merged if a != b}, s, t), n - len(kept)


@SETTINGS
@given(st.one_of(any_dags(), cycles_through_s()), st.integers(0, 3))
@example(Digraph(3, [(0, 1), (1, 0), (0, 2)], 0, 2), 0)
@example(Digraph(4, [(0, 1), (0, 2), (1, 3), (2, 3), (2, 0)], 0, 3), 3)
def test_in_lists_built_on_read_and_rules_on_out_lists(d, read_at):
    """A digraph keeps its out-lists and in-degrees, and builds its in-lists on first
    read: they are the ascending in-lists of its arcs whether read before or after a
    topological order, rule 2 or rules 2-4 ran on it, and so are those of the digraphs
    the rules derive. Rules 2-4, which read out-lists only, keep the ids, arcs, ends and
    deleted count that they kept on two lists per vertex, also on a digraph whose every
    cycle passes through s (where rule 2 is still exact)."""
    want = in_lists(d)
    assert d.indeg == list(map(len, want))
    if read_at == 0:
        assert d.in_adj == want
    with contextlib.suppress(CycleError):
        topological_order(d)
    if read_at == 1:
        assert d.in_adj == want
    out, relab = reduce_rule_2(d)
    if read_at == 2:
        assert d.in_adj == want
    reduced, deleted = reduce_dag(d)
    assert d.in_adj == want
    to = relab.to_original
    assert out.in_adj == in_lists(out) and out.indeg == list(map(len, out.in_adj))
    got = None
    if reduced is not None:
        base, new = reduced.base, reduced.relabeling.to_original
        assert base.in_adj == in_lists(base) and base.indeg == list(map(len, base.in_adj))
        got = (list(new), {(new[u], new[v]) for u, v in base.arcs}, new[base.s], new[base.t])
    assert ((list(to), {(to[u], to[v]) for u, v in out.arcs}), got, deleted) == \
        rules_on_two_lists(d)


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
    """Chunks of 1-3 pairs, through the popcount levels whatever the family's size,
    make every chunk merge into the family so far."""
    below, chunk = (0, chunk) if patched else (setsystem.PAIRWISE_BELOW, setsystem.PAIR_CHUNK)
    with mock.patch.object(setsystem, "PAIR_CHUNK", chunk), \
            mock.patch.object(setsystem, "PAIRWISE_BELOW", below):
        assert minimal_differences(masks) == reference_minimal_differences(masks)


@st.composite
def crossover_families(draw):
    """Distinct masks on either side of ``PAIRWISE_BELOW``: 0-40 free draws over 6-24
    elements, or every sum of 1-5 generators (2-32 masks), whose differences repeat."""
    mask = st.integers(0, 2 ** draw(st.integers(6, 24)) - 1)
    if draw(st.booleans()):
        size = draw(st.integers(0, 40))
        return draw(st.lists(mask, min_size=size, max_size=size, unique=True))
    masks = {0}
    for g in draw(st.lists(mask, min_size=1, max_size=5)):
        masks |= {m ^ g for m in masks}
    return draw(st.permutations(sorted(masks)))


@SETTINGS
@given(masks=crossover_families(), chunk=st.sampled_from([1, 3, setsystem.PAIR_CHUNK]))
@example(masks=[0, 1, 2, 3], chunk=1)  # 0^1 = 2^3 and 0^2 = 1^3
@example(masks=list(range(16)), chunk=setsystem.PAIR_CHUNK)  # every difference 8 times
@example(masks=[1 << e for e in range(20)], chunk=3)
def test_pairwise_filter_matches_column_elimination(masks, chunk):
    """Each of minimal_differences' two filters, forced on one family, gives the same
    list, sorted by size and then by value, whichever side of the crossover it is on."""
    with mock.patch.object(setsystem, "PAIR_CHUNK", chunk):
        with mock.patch.object(setsystem, "PAIRWISE_BELOW", len(masks) + 1):
            pairwise = minimal_differences(masks)
        with mock.patch.object(setsystem, "PAIRWISE_BELOW", 0):
            columns = minimal_differences(masks)
    assert pairwise == columns == sorted(set(columns), key=lambda f: (f.bit_count(), f))


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
    """On the DAG pruned by rule 2, every vertex on an s-t path: one mask per path
    the oracle lists, of its vertices but s and t, and as many as the count."""
    d = reduce_rule_2(d)[0]
    masks = dag_path_masks(d)
    assert sorted(masks) == sorted(sum(1 << v for v in p[1:-1]) for p in enumerate_all_paths(d))
    assert len(masks) == count_paths(d)


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


# Test-local references: the column transposition, the sorted-column filter and the
# search as they were before the popcount levels and the reversed set order, kept
# here to pin the kernels that replaced them to the same lists, trees and witnesses.

def reference_columns(sets, width):
    """Bit i of column e is bit e of ``sets[i]``, from one string of base-2 rows."""
    rows = "".join(map(bin, map((1 << width).__or__, reversed(sets))))
    return [int(rows[at::width + 3] or "0", 2) for at in range(width + 2, 2, -1)]


def reference_column_filter(masks):
    """The distinct differences, sorted by value: the lowest candidate still alive
    is minimal and kept, and the AND of its elements' columns leaves ``alive``."""
    cands = sorted(set(starmap(xor, combinations(masks, 2))))
    col = reference_columns(cands, max(cands, default=0).bit_length())
    alive, minimal = (1 << len(cands)) - 1, []
    while alive:
        low = alive & -alive
        f = cands[low.bit_length() - 1]
        minimal.append(f)
        supersets = alive
        while f:
            e = f & -f
            supersets &= col[e.bit_length() - 1]
            f ^= e
        alive &= ~supersets
    return sorted(sorted(minimal), key=int.bit_count)


def reference_tables(sets):
    """The search's tables with ``sets[i]`` at bit i and a dict cache per b."""
    col = reference_columns(sets, max(sets, default=0).bit_length())
    bylen = [0] * (len(col) + 1)
    for i, s in enumerate(sets):
        bylen[s.bit_length()] |= 1 << i
    return sets, col, bylen, [{} for _ in bylen]


def reference_search_size(tables, size):
    """One pass of the search, every node pushed and popped."""
    sets, col, bylen, nbr = tables
    nodes = 0
    stack = [((1 << len(sets)) - 1, 0, 0, size)]
    while stack:
        unhit, chosen, b, budget = stack.pop()
        nodes += 1
        if not unhit:
            return chosen, nodes
        if not budget:
            continue
        near, rest, need = nbr[b], unhit, 0
        while rest and need <= budget:
            low = rest & -rest
            hit = near.get(low)
            if hit is None:
                s, hit = sets[low.bit_length() - 1] >> b << b, 0
                while s:
                    e = s & -s
                    hit |= col[e.bit_length() - 1]
                    s ^= e
                near[low] = hit
            rest &= ~hit
            need += 1
        if need > budget:
            continue
        top = b + 1
        while not unhit & bylen[top]:
            top += 1
        for x in range(top - 1, b - 1, -1):
            left = unhit & ~col[x]
            if left != unhit and (budget > 1 or not left):
                stack.append((left, chosen | 1 << x, x + 1, budget - 1))
    return None, nodes


def deepened(passes, k, lower):
    """(witness, nodes) of passes ``lower``..k of one family, as the search deepens."""
    nodes = 0
    for size in range(lower, k + 1):
        found, tested = passes[size]
        nodes += tested
        if found is not None:
            return found, nodes
    return None, nodes


@st.composite
def core_families(draw):
    """What the decision core is handed, and a repeated mask: random families of 2-60
    masks over 1-72 elements (dense up to 16 elements, at most 5 elements a set
    above, so the searches stay small), or the path masks of a DAG pruned by rule 2,
    whose differences repeat heavily; then, at times, one mask drawn twice."""
    if draw(st.booleans()):
        width = draw(st.integers(1, 72))
        sparse = st.sets(st.integers(0, width - 1), max_size=5).map(lambda s: sum(1 << e for e in s))
        mask = st.integers(0, 2 ** width - 1) if width <= 16 else sparse
        size = draw(st.integers(2, min(60, 2 ** width)))
        masks = draw(st.lists(mask, min_size=size, max_size=size, unique=True))
    else:
        masks = dag_path_masks(reduce_rule_2(draw(any_dags()))[0])
    if masks and draw(st.booleans()):
        masks = [*masks, draw(st.sampled_from(masks))]
    return draw(st.permutations(masks))


@SETTINGS
@given(masks=core_families())
@example(masks=[5, 3, 5])  # 5 ^ 5 = 0 is a subset of every difference: [0]
@example(masks=list(range(24)))  # the first family filtered by levels
@example(masks=[1 << e for e in range(30)])  # 435 differences, every one minimal
def test_kernels_match_their_references(masks):
    """The minimal family, as-is and through the levels with chunks of 1, 3 and
    ``PAIR_CHUNK`` pairs (chunks of 1 and 3 merge the family found so far into every
    chunk), equals the reference filter's; and the search on it returns the
    reference's (witness, nodes) at every k <= width + 1 from every lower <= k. Each
    side runs each pass once per family: the passes are memoised by size, as only
    the neighbour cache outlives a pass, and it changes no count. One call deepens
    unmemoised from 0 to width + 1."""
    want = reference_column_filter(masks)
    assert minimal_differences(masks) == want
    for chunk in (1, 3, setsystem.PAIR_CHUNK):
        with mock.patch.object(setsystem, "PAIRWISE_BELOW", 0), \
                mock.patch.object(setsystem, "PAIR_CHUNK", chunk):
            assert minimal_differences(masks) == want, chunk
    width = max(masks, default=0).bit_length()
    tables = reference_tables(want)
    passes = [reference_search_size(tables, size) for size in range(width + 2)]
    assert hitting_search(want, width + 1) == deepened(passes, width + 1, 0)
    search_size, memo = setsystem._search_size, {}

    def once(tables, size):
        if size not in memo:
            memo[size] = search_size(tables, size)
        return memo[size]

    with mock.patch.object(setsystem, "_search_size", once):
        for k in range(width + 2):
            for lower in range(k + 1):
                assert hitting_search(want, k, lower) == deepened(passes, k, lower), (k, lower)


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


@SETTINGS
@given(set_systems(), st.integers(3, 10 ** 6 - 20), st.data())
def test_cli_verify_on_set_systems_names_the_first_pair(sys, offset, data):
    """``verify`` reads the family as masks over its union, yet prints the
    first pair of sets, by index, that meet the trackers in the same set, as
    the frozenset definition does. The ids are moved up by ``offset``, so
    most of the universe, and some trackers, lie outside the union."""
    family = [frozenset(e + offset for e in s) for s in sys.family]
    trackers = data.draw(st.sets(st.integers(offset - 3, offset + 19)))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "x.sets")
        with open(path, "w") as f:
            f.write(format_setsystem(SetSystem(offset + 20, family)))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["verify", path, "--trackers", *map(str, sorted(trackers))])
    pair = violating_sets(family, frozenset(trackers))
    assert (code, out.getvalue()) == ((0, "tracking: true\n") if pair is None else
                                      (1, f"tracking: false\nviolating sets: {pair[0]} {pair[1]}\n"))


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
