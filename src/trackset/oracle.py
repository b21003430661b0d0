"""Brute-force ground truth, independent of the solver pipelines.

Everything here is O(2^n) by design and refuses universes larger than 20
elements. It is used by the test suite and the CLI's --oracle mode only.
"""

from __future__ import annotations

from itertools import combinations
from typing import FrozenSet, List, Optional, Sequence, Tuple

from .errors import CapExceeded
from .graph import Digraph

MAX_UNIVERSE = 20


def enumerate_all_paths(d: Digraph, cap: Optional[int] = None) -> List[Tuple[int, ...]]:
    """All s-t paths of a DAG by DFS with an explicit stack, as vertex tuples.

    Raises CapExceeded once more than ``cap`` paths materialize.
    """
    paths: List[Tuple[int, ...]] = []
    path, todo = [d.s], [iter(d.out_adj[d.s])]
    while todo:
        w = next(todo[-1], None)
        if w is None:
            todo.pop()
            path.pop()
        elif w == d.t:
            paths.append(tuple(path) + (w,))
            if cap is not None and len(paths) > cap:
                raise CapExceeded(len(paths))
        else:
            path.append(w)
            todo.append(iter(d.out_adj[w]))
    return paths


def _distinct_intersections(family: Sequence[FrozenSet[int]],
                            trackers: FrozenSet[int]) -> bool:
    # Definition-level check, deliberately duplicated from the solver side.
    keys = {s & trackers for s in family}
    return len(keys) == len(family)


def brute_min_tracking(family: Sequence, universe_size: int,
                       max_k: Optional[int] = None) -> Optional[int]:
    """Smallest tracking-set size for a materialized family, or None.

    ``family`` may hold sets or vertex sequences; each member is taken as
    a vertex/element set. Scans all subsets by increasing size up to
    ``max_k`` (default: the whole universe).
    """
    if universe_size > MAX_UNIVERSE:
        raise ValueError(f"oracle refuses universes larger than {MAX_UNIVERSE}")
    sets = [frozenset(s) for s in family]
    if max_k is None:
        max_k = universe_size
    for size in range(min(max_k, universe_size) + 1):
        for combo in combinations(range(universe_size), size):
            if _distinct_intersections(sets, frozenset(combo)):
                return size
    return None


def brute_is_tracking(family: Sequence, trackers) -> bool:
    """Definition check: does ``trackers`` intersect every set distinctly?"""
    return _distinct_intersections([frozenset(s) for s in family], frozenset(trackers))
