import pytest

from trackset import oracle
from trackset.errors import CapExceeded
from trackset.graph import Digraph
from trackset.oracle import brute_is_tracking, brute_min_tracking, enumerate_all_paths

from conftest import diamond_dag, serial_diamond_dag


def test_enumerate_diamond():
    assert enumerate_all_paths(diamond_dag()) == [(0, 1, 3), (0, 2, 3)]


def test_enumerate_single_arc():
    d = Digraph(2, [(0, 1)], 0, 1)
    assert enumerate_all_paths(d) == [(0, 1)]


def test_enumerate_serial_diamonds():
    assert len(enumerate_all_paths(serial_diamond_dag(3))) == 8


def test_enumerate_cap():
    with pytest.raises(CapExceeded) as exc:
        enumerate_all_paths(serial_diamond_dag(3), cap=5)
    assert exc.value.count == 6


def test_min_tracking_diamond():
    paths = enumerate_all_paths(diamond_dag())
    assert brute_min_tracking(paths, 4) == 1


def test_min_tracking_single_path():
    assert brute_min_tracking([(0, 1)], 2) == 0


def test_min_tracking_triangle_family():
    # all six singletons fail, a pair suffices
    family = [{1, 2}, {2, 3}, {1, 3}]
    assert brute_min_tracking(family, 4) == 2


def test_min_tracking_respects_max_k():
    family = [{1, 2}, {2, 3}, {1, 3}]
    assert brute_min_tracking(family, 4, max_k=1) is None


def test_is_tracking():
    paths = enumerate_all_paths(diamond_dag())
    assert brute_is_tracking(paths, {1})
    assert not brute_is_tracking(paths, set())
    assert not brute_is_tracking(paths, {0})


def test_permutation_invariance(rng):
    family = [{0, 1, 4}, {1, 2}, {2, 3, 4}, {0, 3}]
    base = brute_min_tracking(family, 5)
    perm = list(range(5))
    rng.shuffle(perm)
    mapped = [{perm[e] for e in s} for s in family]
    assert brute_min_tracking(mapped, 5) == base


def test_refuses_large_universe():
    with pytest.raises(ValueError):
        brute_min_tracking([{0}], 21)


def test_shares_no_solver_code():
    # the oracle checks rule 1 and the solvers, so it must not run their code
    solver = {"bfs_distances", "count_paths", "dagtrack", "path_masks", "reduce_rule_1",
              "setsystem", "shortest", "solve_masks", "topological_order", "tracking_search"}
    assert not solver & set(vars(oracle))
