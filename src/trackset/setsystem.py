"""Tracking sets for set systems.

A tracking set T for a family of sets has a distinct intersection with
every set in the family. The solve route goes through hitting set: the
pairwise symmetric differences of the family must all be hit by T, and
hitting them is equivalent to tracking the family. Every mode's family
ends in :func:`solve_masks`, as vertex or element bitmasks.
"""

from __future__ import annotations

from itertools import combinations, islice
from typing import FrozenSet, Iterable, List, Optional, Sequence, Tuple

from .errors import InternalError
from .report import SolveReport

# Pairs of sets whose differences minimal_differences holds at once.
PAIR_CHUNK = 1 << 14


class SetSystem:
    """Universe of ``universe_size`` elements plus a family of distinct subsets."""

    __slots__ = ("universe_size", "family")

    def __init__(self, universe_size: int, family: Iterable[Iterable[int]]):
        if universe_size < 0:
            raise ValueError("universe_size must be nonnegative")
        fam = tuple(frozenset(s) for s in family)
        for s in fam:
            for e in s:
                if not (0 <= e < universe_size):
                    raise ValueError(f"element {e} outside universe")
        if len(set(fam)) != len(fam):
            raise ValueError("family sets must be pairwise distinct")
        self.universe_size = universe_size
        self.family = fam

    def __repr__(self):
        return f"SetSystem(universe_size={self.universe_size}, m={len(self.family)})"


class HittingInstance:
    """Hitting-set instance built from the pairwise symmetric differences."""

    __slots__ = ("universe_size", "family")

    def __init__(self, universe_size: int, family: Iterable[Iterable[int]]):
        fam = tuple(frozenset(s) for s in family)
        for s in fam:
            if not s:
                raise ValueError("hitting family contains an empty set (infeasible)")
        self.universe_size = universe_size
        self.family = fam


def to_mask(elements: Iterable[int]) -> int:
    """Bitmask with bit e set for every element e."""
    mask = 0
    for e in elements:
        mask |= 1 << e
    return mask


def from_mask(mask: int) -> FrozenSet[int]:
    """The elements whose bits are set in ``mask``."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return frozenset(out)


def violating_sets(family: Sequence, trackers) -> Optional[Tuple[int, int]]:
    """The first index pair (i, j), i < j, of family sets that meet ``trackers``
    in the same set, or None (sets or int masks)."""
    first: dict = {}
    for j, s in enumerate(family):
        if (i := first.setdefault(s & trackers, j)) != j:
            return i, j
    return None


def tracks(family: Sequence, trackers) -> bool:
    """True iff ``trackers`` meets the family sets in distinct sets; see :func:`violating_sets`."""
    return violating_sets(family, trackers) is None


def tracking_lower_bound(m: int) -> int:
    """Minimum possible tracking-set size for a family of m distinct sets: ceil(lg m)."""
    if m < 1:
        raise ValueError("family size must be at least 1")
    return (m - 1).bit_length()


def minimal_differences(masks: Sequence[int]) -> List[int]:
    """Inclusion-minimal pairwise symmetric differences of bitmask sets.

    A set hits every difference iff it hits every minimal one, so the
    superset-free family is an equivalent hitting instance. Sorted by size,
    then by mask value.

    The pairs are taken ``PAIR_CHUNK`` at a time, so memory stays at one
    chunk of distinct differences plus the minimal family, not at the
    number of pairs. Each chunk's differences join the family found so far
    and are filtered in that order: a set is kept unless a kept set is a
    subset of it, and no kept set can be a superset of a later one.
    """
    pairs = combinations(masks, 2)
    minimal: List[int] = []
    while True:
        diffs = {a ^ b for a, b in islice(pairs, PAIR_CHUNK)}
        if not diffs:
            return minimal
        diffs.update(minimal)
        minimal = []
        for f in sorted(sorted(diffs), key=int.bit_count):
            outside = ~f
            for g in minimal:
                if not g & outside:
                    break
            else:
                minimal.append(f)


def reduce_to_hitting(sys: SetSystem) -> HittingInstance:
    """Symmetric-difference reduction: T tracks sys iff T hits the output.

    Only the inclusion-minimal differences are kept; hitting those is
    equivalent to hitting all of them.
    """
    diffs = minimal_differences([to_mask(s) for s in sys.family])
    return HittingInstance(sys.universe_size, (from_mask(f) for f in diffs))


def hitting_search(sets: Sequence[int], k: int, lower: int = 0
                   ) -> Tuple[Optional[int], int]:
    """Minimum hitting set of size <= k of bitmask sets, or None.

    Returns (mask, nodes), where nodes counts the candidate sets tested.
    Deepens the size from ``lower`` (a valid lower bound on the minimum) to
    min(k, |union of sets|), since a minimum hitting set lies inside the
    union. Each pass picks elements in ascending order, so the first
    hitting set found is the minimum one that is lexicographically least.

    The passes share tables over set indices, each a mask with bit i for
    ``sets[i]``: ``col[e]`` holds the sets that contain element e and
    ``bylen[L]`` those whose highest element is L - 1; ``nbr[b]`` caches,
    per set bit, the sets that share an element >= b with that set.
    """
    union = 0
    for s in sets:
        union |= s
    col = [0] * union.bit_length()
    bylen = [0] * (len(col) + 1)
    for i, s in enumerate(sets):
        bylen[s.bit_length()] |= 1 << i
        while s:
            low = s & -s
            col[low.bit_length() - 1] |= 1 << i
            s ^= low
    tables = sets, col, bylen, [{} for _ in bylen]
    nodes = 0
    for size in range(lower, min(k, union.bit_count()) + 1):
        found, tested = _search_size(tables, size)
        nodes += tested
        if found is not None:
            return found, nodes
    return None, nodes


def _search_size(tables: tuple, size: int) -> Tuple[Optional[int], int]:
    """Lexicographically least hitting set of at most ``size`` ascending picks.

    Depth-first with an explicit stack, so the depth is not bounded by the
    recursion limit. A node is (mask of its unhit sets, picks so far, b =
    one above the last pick, picks left); picking x leaves the unhit sets
    outside ``col[x]``. Every remaining pick is at least b, which gives the
    prunes. Disjoint unhit sets need one pick each: greedy packing takes the
    lowest unhit set and drops its ``nbr[b]``, again and again, and a set
    with no element >= b, which can no longer be hit, drops nothing and is
    taken until the count passes the budget. So every unhit set of a node
    that survives lies in some ``bylen[L]``, L > b; one with the least L
    must be hit, so the next pick is below L. An element in no unhit set is
    never picked, since a minimum set would not need it, and the last pick
    must lie in every unhit set.
    """
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


def solve_hitting(h: HittingInstance, k: int) -> Optional[FrozenSet[int]]:
    """Minimum, lexicographically least hitting set of size <= k, or None."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    found, _ = hitting_search([to_mask(f) for f in h.family], k)
    if found is None:
        return None
    witness = from_mask(found)
    if not all(witness & f for f in h.family):
        raise InternalError("hitting-set search returned a set that misses a member")
    return witness


def solve_masks(masks: Sequence[int], k: int) -> SolveReport:
    """Minimum tracking set of size <= k for distinct bitmask sets, or NO.

    The decision core every solve route feeds. Families of size <= 1 are
    tracked by the empty set. Otherwise the ceil(lg m) lower bound gates,
    then the hitting-set search over the minimal symmetric differences
    decides. The witness, minimum and then lexicographically least, gets
    the one definition-level check of any route here. ``paths`` reports m.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    m = len(masks)
    if m <= 1:
        return SolveReport("YES", witness=(), paths=m,
                           reason="at most one set; empty tracking set suffices")
    lb = tracking_lower_bound(m)
    if k < lb:
        return SolveReport("NO", paths=m,
                           reason=f"lower bound ceil(lg {m}) = {lb} exceeds k = {k}")
    found, tried = hitting_search(minimal_differences(masks), k, lower=lb)
    if found is None:
        return SolveReport("NO", paths=m, subsets_tried=tried,
                           reason=f"no tracking set of size <= {k} (search exhausted)")
    if not tracks(masks, found):
        raise InternalError("hitting-set witness does not track the family")
    return SolveReport("YES", witness=tuple(sorted(from_mask(found))), paths=m,
                       subsets_tried=tried)


def solve_set_system(sys: SetSystem, k: int) -> SolveReport:
    """Minimum tracking set of size <= k for the set system, or NO; see :func:`solve_masks`."""
    return solve_masks([to_mask(s) for s in sys.family], k)


def solve_tracking_set(sys: SetSystem, k: int) -> Optional[FrozenSet[int]]:
    """Tracking set of size <= k for the set system, or None.

    The witness of :func:`solve_set_system` as a set.
    """
    report = solve_set_system(sys, k)
    return frozenset(report.witness) if report.result == "YES" else None
