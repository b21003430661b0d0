import random
import time
from itertools import combinations, product

import pytest

from trackset import setsystem
from trackset.generate import random_layered_graph, random_set_system
from trackset.graph import Graph
from trackset.instance_io import ParseError, parse_instance
from trackset.oracle import brute_min_tracking
from trackset.setsystem import (SetSystem, _union_masks, hitting_search, minimal_differences,
                                solve_set_system, to_mask, tracking_lower_bound, tracks,
                                violating_sets)
from trackset.shortest import (reduce_rule_1, solve_shortest_paths, solve_via_set_system,
                               to_dag)

from conftest import dag_path_masks


def triangle_system():
    return SetSystem(4, [{1, 2}, {2, 3}, {1, 3}])


def differences(sys):
    """The hitting family the decision core searches: the minimal differences of the
    family's masks, in (size, value) order."""
    return minimal_differences([to_mask(s) for s in sys.family])


def test_reduce_to_hitting_triangle():
    assert differences(triangle_system()) == [to_mask({1, 2}), to_mask({1, 3}),
                                              to_mask({2, 3})]


def test_reduce_to_hitting_single_pair():
    assert differences(SetSystem(2, [set(), {1}])) == [to_mask({1})]


def test_reduce_to_hitting_single_set():
    assert differences(SetSystem(2, [{0}])) == []


def test_reduce_to_hitting_carries_2d_bound():
    # sets of size <= d differ in at most 2d elements
    sys = SetSystem(6, [{0, 1}, {2, 3}, {4, 5}, {0}])
    assert max(f.bit_count() for f in differences(sys)) == 4


def test_hitting_instance_rejects_empty_set():
    # a family that holds the empty set is infeasible: no set of any size hits it
    for sets in ([0], [0b11, 0], [0b1, 0b10, 0]):
        assert hitting_search(sets, 3)[0] is None, sets


def test_solve_hitting_triangle():
    fam = [to_mask({1, 3}), to_mask({2, 3}), to_mask({1, 2})]
    witness, _ = hitting_search(fam, 2)
    assert witness == to_mask({1, 2})
    assert all(witness & f for f in fam)
    assert hitting_search(fam, 1)[0] is None


def test_solve_hitting_empty_family():
    assert hitting_search([], 0)[0] == 0


def test_solve_tracking_set_triangle():
    rep = solve_set_system(triangle_system(), 2)
    assert rep.result == "YES" and rep.witness == (1, 2)
    inters = [frozenset(s) & frozenset(rep.witness) for s in triangle_system().family]
    assert len(set(inters)) == 3


def test_solve_tracking_set_lower_bound_gate():
    # 5 distinct sets need at least ceil(lg 5) = 3 trackers
    sys = SetSystem(3, [set(), {0}, {1}, {2}, {0, 1}])
    rep = solve_set_system(sys, 2)
    assert rep.result == "NO" and rep.witness is None and rep.subsets_tried == 0


def test_solve_tracking_set_single_set():
    rep = solve_set_system(SetSystem(2, [{0}]), 0)
    assert rep.result == "YES" and rep.witness == ()


def test_tracking_lower_bound():
    assert tracking_lower_bound(1) == 0
    assert tracking_lower_bound(2) == 1
    assert tracking_lower_bound(5) == 3
    with pytest.raises(ValueError):
        tracking_lower_bound(0)


def test_exhaustive_equivalence_small():
    # every set system with <= 4 elements and <= 4 sets of a fixed shape pool,
    # every k <= 4: solver decision == brute force
    pool = [frozenset(c) for r in range(3) for c in combinations(range(4), r)]
    for fam_idx in combinations(range(len(pool)), 3):
        fam = [pool[i] for i in fam_idx]
        sys = SetSystem(4, fam)
        best = brute_min_tracking(fam, 4)
        for k in range(5):
            rep = solve_set_system(sys, k)
            expect_yes = best is not None and best <= k
            assert (rep.result == "YES") == expect_yes, (fam, k)
            if expect_yes:
                assert len(rep.witness) == best and tracks(fam, frozenset(rep.witness))


def test_lower_bound_soundness_exhaustive():
    # brute force never beats ceil(lg m) on any family drawn from a small pool
    pool = [frozenset(c) for r in range(3) for c in combinations(range(3), r)]
    for m in (2, 3, 4):
        for fam_idx in combinations(range(len(pool)), m):
            fam = [pool[i] for i in fam_idx]
            best = brute_min_tracking(fam, 3)
            if best is not None:
                assert best >= tracking_lower_bound(m)


def test_tracks_predicate():
    fam = [frozenset({1, 2}), frozenset({2, 3})]
    assert tracks(fam, frozenset({1}))
    assert not tracks(fam, frozenset({2}))
    fam.append(frozenset({4}))
    assert violating_sets(fam, frozenset({1})) == (1, 2)
    assert violating_sets(fam, frozenset({1, 4})) is None


def test_minimal_differences_scale_smoke():
    """The 100- and 200-set families of 40 elements keep 4,788 and 18,123
    minimal differences. On a 2-core container a pairwise superset filter
    needs about 1 s and 20 s for them, the column elimination under 1 s."""
    start = time.perf_counter()
    sizes = [len(minimal_differences([to_mask(s) for s in
                                      random_set_system(random.Random(3), 40, m).family]))
             for m in (100, 200)]
    elapsed = time.perf_counter() - start
    assert sizes == [4788, 18123]
    assert elapsed < 10, elapsed


def test_sparse_ids_are_renumbered_onto_the_union(monkeypatch):
    """The core sees masks over the elements in use, in order, and the witness
    comes back in the input's ids."""
    seen = []
    real = setsystem.solve_masks
    monkeypatch.setattr(setsystem, "solve_masks", lambda masks, k: seen.append(masks)
                        or real(masks, k))
    sparse = SetSystem(10 ** 6, [{999_999}, {999_998}, set(), {5, 999_998}])
    dense = SetSystem(3, [{2}, {1}, set(), {0, 1}])
    ids = (5, 999_998, 999_999)
    for k in (2, 3):
        rep, want = solve_set_system(sparse, k), solve_set_system(dense, k)
        assert seen[-2] == seen[-1] == [0b100, 0b010, 0, 0b011]
        assert (rep.result, rep.subsets_tried) == (want.result, want.subsets_tried)
        assert rep.witness == (None if want.witness is None
                               else tuple(ids[e] for e in want.witness))
    assert rep.witness == (5, 999_998, 999_999)


def test_constructor_names_the_first_bad_element():
    with pytest.raises(ValueError, match="^element 5 outside universe$"):
        SetSystem(5, [{0}, {1, 5}, {-1}])
    with pytest.raises(ValueError, match="^element -1 outside universe$"):
        SetSystem(5, [{0}, {-1}, {1, 5}])
    with pytest.raises(ValueError, match="^family sets must be pairwise distinct$"):
        SetSystem(5, [{0, 1}, {2}, [1, 0]])
    with pytest.raises(ValueError, match="^universe_size must be nonnegative$"):
        SetSystem(-1, [])


def parsed(n, rows, noise=False):
    """The set system of a file of ``rows``; with ``noise`` a comment line sends
    the body through the line loop instead of the bulk read."""
    body = ["# noise"] * noise + [" ".join(map(str, row)) for row in rows]
    return parse_instance("\n".join([f"setsystem {n} {len(rows)}", *body]) + "\n")[1]


def test_family_is_stored_once_as_masks_over_the_union():
    """The constructor and the parser keep the same frozensets; the one mask
    builder numbers their union in order."""
    rows = [[999_999], [5, 999_998], [], [999_998, 5]]
    with pytest.raises(ValueError, match="^family sets must be pairwise distinct$"):
        SetSystem(10 ** 6, rows)  # rows 1 and 3 are one set
    with pytest.raises(ValueError, match="^element 1000000 outside universe$"):
        SetSystem(10 ** 6, [[10 ** 6]])
    for noise in (False, True):
        with pytest.raises(ParseError, match="repeated element within a set"):
            parsed(10 ** 6, [[5, 5]], noise)
    for sys in (SetSystem(10 ** 6, rows[:3]), parsed(10 ** 6, rows[:3]),
                parsed(10 ** 6, rows[:3], noise=True)):
        assert sys.family == ({999_999}, {5, 999_998}, frozenset())
        masks, relab = _union_masks(sys.family)
        assert (masks, relab.to_original) == ([0b100, 0b011, 0], (5, 999_998, 999_999))


@pytest.mark.parametrize("length", [1024, 1025, 5000])
def test_long_rows_get_the_same_masks(length):
    """Rows of thousands of elements get the masks of their ranks, through the
    parser (bulk and line loop) and the constructor, and keep the parser's
    repeated-element verdict and both duplicate verdicts."""
    n, row = 3 * length, list(range(0, 3 * length, 3))[::-1]
    rows = [row, row[:-1], row[1:], row[::2], row[1::2], [row[0]], []]
    want = [sum(1 << e // 3 for e in r) for r in rows]
    for sys in (SetSystem(n, rows), parsed(n, rows), parsed(n, rows, noise=True)):
        masks, relab = _union_masks(sys.family)
        assert (masks, relab.to_original) == (want, tuple(sorted(row)))
    for noise in (False, True):
        for bad in (row + [row[-1]], row[1:] + [row[2]]):
            with pytest.raises(ParseError, match="repeated element within a set"):
                parsed(n, [bad], noise)
        with pytest.raises(ParseError, match=rf"duplicate set \(same as line {2 + noise}\)"):
            parsed(n, [row, row[::-1]], noise)
    with pytest.raises(ValueError, match="^family sets must be pairwise distinct$"):
        SetSystem(n, [row, list(reversed(row))])


def pinned_family(kind, *args):
    """Distinct masks: a seeded random set system (seed, universe, m), the
    shortest-path masks of a seeded layered graph (seed, layers, width), or
    those of the r-star (s and t joined through r middle vertices)."""
    if kind == "sets":
        seed, universe, m = args
        return [to_mask(s) for s in random_set_system(random.Random(seed), universe, m).family]
    if kind == "layered":
        seed, layers, width = args
        g = random_layered_graph(random.Random(seed), layers, width)
    else:
        r, = args
        g = Graph(r + 2, [(0, v) for v in range(2, r + 2)] + [(v, 1) for v in range(2, r + 2)],
                  0, 1)
    return dag_path_masks(to_dag(reduce_rule_1(g)[0]))


# (family, minimum hitting set of its minimal differences, nodes searched at
# (k, lower) = (min, 0), (min, ceil(lg m)), (min - 1, 0), (min - 1, ceil(lg m)))
PINNED_SEARCHES = [
    (("sets", 1, 14, 30), 3118, (176, 160, 78, 62)),
    (("sets", 2, 15, 36), 24607, (440, 295, 424, 279)),
    (("sets", 3, 16, 40), 9155, (612, 479, 456, 323)),
    (("sets", 4, 17, 44), 19681, (1299, 1178, 643, 522)),
    (("sets", 5, 18, 48), 143939, (883, 696, 673, 486)),
    (("sets", 6, 18, 30), 4254, (1141, 1036, 554, 449)),
    (("layered", 3, 4, 4), 1386, (27, 22, 20, 15)),
    (("layered", 4, 4, 4), 922, (43, 32, 36, 25)),
    (("layered", 5, 5, 3), 6870, (119, 111, 110, 102)),
    (("layered", 7, 4, 4), 470, (38, 31, 31, 24)),
    (("star", 13), 16380, (95, 91, 82, 78)),
]


@pytest.mark.parametrize("family, witness, nodes", PINNED_SEARCHES,
                         ids=["-".join(map(str, row[0])) for row in PINNED_SEARCHES])
def test_hitting_search_tree_is_pinned(family, witness, nodes):
    """The search returns the same witness after the same number of nodes:
    ``subsets_tried`` is printed, so the tree it walks is part of stdout."""
    masks = pinned_family(*family)
    sets = minimal_differences(masks)
    low, best = tracking_lower_bound(len(masks)), witness.bit_count()
    got = [hitting_search(sets, k, lower)
           for k in (best, best - 1) for lower in (0, low)]
    assert got == [(witness, nodes[0]), (witness, nodes[1]),
                   (None, nodes[2]), (None, nodes[3])]


# (route, seed, size arguments, minimum k, (result, witness, subsets_tried) at the
# minimum and at one below): the search walks the minimal family in (size, value)
# order, so a change to that family or its order changes a row. The DAG of seed 4
# splits, so its shortest route searches only its rigid blocks: fewer candidates,
# the same result and witness as its setsystem twin
PINNED_SOLVES = [
    ("sets", 1, (14, 30), 6, [("YES", (1, 2, 3, 5, 10, 11), 160), ("NO", None, 62)]),
    ("sets", 2, (15, 36), 7, [("YES", (0, 1, 2, 3, 4, 13, 14), 295), ("NO", None, 279)]),
    ("sets", 3, (16, 40), 7, [("YES", (0, 1, 6, 7, 8, 9, 13), 479), ("NO", None, 323)]),
    ("sets", 4, (17, 44), 7, [("YES", (0, 5, 6, 7, 10, 11, 14), 1178), ("NO", None, 522)]),
    ("sets", 5, (18, 48), 7, [("YES", (0, 1, 6, 9, 12, 13, 17), 696), ("NO", None, 486)]),
    ("sets", 6, (18, 30), 6, [("YES", (1, 2, 3, 4, 7, 12), 1036), ("NO", None, 449)]),
    ("sets", 7, (14, 48), 7, [("YES", (1, 2, 4, 6, 7, 10, 13), 136), ("NO", None, 45)]),
    ("shortest", 3, (4, 4), 6, [("YES", (1, 3, 5, 6, 8, 10), 22), ("NO", None, 15)]),
    ("setsystem", 3, (4, 4), 6, [("YES", (1, 3, 5, 6, 8, 10), 22), ("NO", None, 15)]),
    ("shortest", 4, (4, 4), 6, [("YES", (1, 3, 4, 7, 8, 9), 4), ("NO", None, 4)]),
    ("setsystem", 4, (4, 4), 6, [("YES", (1, 3, 4, 7, 8, 9), 32), ("NO", None, 25)]),
    ("shortest", 5, (5, 3), 8, [("YES", (1, 2, 4, 6, 7, 9, 11, 12), 111), ("NO", None, 102)]),
    ("setsystem", 5, (5, 3), 8, [("YES", (1, 2, 4, 6, 7, 9, 11, 12), 111), ("NO", None, 102)]),
    ("shortest", 7, (4, 4), 6, [("YES", (1, 2, 4, 6, 7, 8), 31), ("NO", None, 24)]),
    ("setsystem", 7, (4, 4), 6, [("YES", (1, 2, 4, 6, 7, 8), 31), ("NO", None, 24)]),
    ("shortest", 8, (5, 4), 5, [("YES", (1, 5, 6, 10, 12), 9), ("NO", None, 1)]),
    ("setsystem", 8, (5, 4), 5, [("YES", (1, 5, 6, 10, 12), 9), ("NO", None, 1)]),
]


@pytest.mark.parametrize("route, seed, size, k, rows", PINNED_SOLVES,
                         ids=[f"{r[0]}-{r[1]}" for r in PINNED_SOLVES])
def test_solve_node_sequence_is_pinned(route, seed, size, k, rows):
    """Seeded set systems (``solve_set_system``) and layered graphs (``solve``
    and ``--mode setsystem``) decide, witness and count ``subsets_tried``
    exactly as recorded, at the minimum k and one below."""
    rng = random.Random(seed)
    if route == "sets":
        inst = random_set_system(rng, *size)
        solve = solve_set_system
    else:
        inst = random_layered_graph(rng, *size)
        solve = solve_shortest_paths if route == "shortest" else solve_via_set_system
    got = [(r.result, r.witness, r.subsets_tried) for r in (solve(inst, k), solve(inst, k - 1))]
    assert got == rows
