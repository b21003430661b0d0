from itertools import combinations, product

import pytest

from trackset.oracle import brute_min_tracking
from trackset.setsystem import (HittingInstance, SetSystem, reduce_to_hitting,
                                solve_hitting, solve_tracking_set,
                                tracking_lower_bound, tracks, violating_sets)


def triangle_system():
    return SetSystem(4, [{1, 2}, {2, 3}, {1, 3}])


def test_reduce_to_hitting_triangle():
    h = reduce_to_hitting(triangle_system())
    assert set(h.family) == {frozenset({1, 3}), frozenset({2, 3}), frozenset({1, 2})}


def test_reduce_to_hitting_single_pair():
    h = reduce_to_hitting(SetSystem(2, [set(), {1}]))
    assert h.family == (frozenset({1}),)


def test_reduce_to_hitting_single_set():
    h = reduce_to_hitting(SetSystem(2, [{0}]))
    assert h.family == ()


def test_reduce_to_hitting_carries_2d_bound():
    # sets of size <= d differ in at most 2d elements
    sys = SetSystem(6, [{0, 1}, {2, 3}, {4, 5}, {0}])
    assert max(len(f) for f in reduce_to_hitting(sys).family) == 4


def test_hitting_instance_rejects_empty_set():
    with pytest.raises(ValueError):
        HittingInstance(3, [set()])


def test_solve_hitting_triangle():
    fam = [{1, 3}, {2, 3}, {1, 2}]
    h = HittingInstance(4, fam)
    witness = solve_hitting(h, 2)
    assert witness is not None and len(witness) <= 2
    assert all(witness & frozenset(f) for f in fam)
    assert solve_hitting(h, 1) is None


def test_solve_hitting_empty_family():
    assert solve_hitting(HittingInstance(3, []), 0) == frozenset()


def test_solve_tracking_set_triangle():
    witness = solve_tracking_set(triangle_system(), 2)
    assert witness == {1, 2}
    inters = [frozenset(s) & witness for s in triangle_system().family]
    assert len(set(inters)) == 3


def test_solve_tracking_set_lower_bound_gate():
    # 5 distinct sets need at least ceil(lg 5) = 3 trackers
    sys = SetSystem(3, [set(), {0}, {1}, {2}, {0, 1}])
    assert solve_tracking_set(sys, 2) is None


def test_solve_tracking_set_single_set():
    assert solve_tracking_set(SetSystem(2, [{0}]), 0) == frozenset()


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
            got = solve_tracking_set(sys, k)
            expect_yes = best is not None and best <= k
            assert (got is not None) == expect_yes, (fam, k)


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
