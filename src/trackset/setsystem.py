"""Tracking sets for set systems.

A tracking set T for a family of sets has a distinct intersection with
every set in the family. The solve route goes through hitting set: the
pairwise symmetric differences of the family must all be hit by T, and
hitting them is equivalent to tracking the family. Every mode's families
reach that search through :func:`tracking_search`, as bitmasks.
"""

from __future__ import annotations

from functools import reduce
from itertools import combinations, islice, starmap
from operator import or_, xor

from .errors import InternalError
from .graph import VertexRelabeling
from .report import SEARCH_EXHAUSTED, SolveReport

TYPE_CHECKING = False
if TYPE_CHECKING:  # annotations only, so a cold start never imports them
    from collections.abc import Iterable, Sequence

# Pairs of sets whose differences minimal_differences holds at once.
PAIR_CHUNK = 1 << 14
# Families of fewer masks are filtered pairwise by minimal_differences: from 16 random
# masks over 16 or 32 elements up, its column transposition costs less.
PAIRWISE_BELOW = 16


class SetSystem:
    """Universe of ``universe_size`` elements plus a family of distinct subsets,
    kept as frozensets of ids in the order given. The constructor checks them in
    bulk; only when that fails does a loop over the elements name the first bad one.
    """

    __slots__ = ("universe_size", "family")

    def __init__(self, universe_size: int, family: Iterable[Iterable[int]]):
        fam = tuple(map(frozenset, family))
        union = frozenset().union(*fam)
        if universe_size < 0 or union and (min(union) < 0 or max(union) >= universe_size) \
                or len(set(fam)) != len(fam):
            if universe_size < 0:
                raise ValueError("universe_size must be nonnegative")
            for s in fam:
                for e in s:
                    if not (0 <= e < universe_size):
                        raise ValueError(f"element {e} outside universe")
            raise ValueError("family sets must be pairwise distinct")
        self.universe_size, self.family = universe_size, fam

    def __repr__(self):
        return f"SetSystem(universe_size={self.universe_size}, m={len(self.family)})"


class HittingInstance:
    """Hitting-set instance built from the pairwise symmetric differences."""

    __slots__ = ("universe_size", "family")

    def __init__(self, universe_size: int, family: Iterable[Iterable[int]]):
        fam = tuple(map(frozenset, family))
        if not all(fam):
            raise ValueError("hitting family contains an empty set (infeasible)")
        self.universe_size = universe_size
        self.family = fam


def to_mask(elements: Iterable[int]) -> int:
    """Bitmask with bit e set for every element e."""
    return reduce(or_, map((1).__lshift__, elements), 0)


def from_mask(mask: int) -> frozenset[int]:
    """The elements whose bits are set in ``mask``."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return frozenset(out)


def violating_sets(family: Sequence, trackers) -> tuple[int, int] | None:
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


def _columns(sets: Sequence[int], width: int) -> list[int]:
    """Columns of bitmask rows below bit ``width``: bit i of column e is bit e
    of ``sets[i]``. The rows are written as equal-length strings, the last
    row first, so each column is a strided slice of their join."""
    rows = "".join(map(bin, map((1 << width).__or__, reversed(sets))))
    return [int(rows[at::width + 3] or "0", 2) for at in range(width + 2, 2, -1)]


def minimal_differences(masks: Sequence[int]) -> list[int]:
    """Inclusion-minimal pairwise symmetric differences of bitmask sets.

    A set hits every difference iff it hits every minimal one, so the
    superset-free family is an equivalent hitting instance. Sorted by size,
    then by mask value.

    Below ``PAIRWISE_BELOW`` masks each distinct difference, by size, is kept unless a
    kept set is a subset of it. Otherwise the pairs are taken ``PAIR_CHUNK`` at a
    time, so memory stays at one chunk of distinct differences plus the minimal
    family, not at the number of pairs. Each chunk's differences join the family found
    so far, sorted by size, and are eliminated column-wise: the lowest candidate still
    alive is minimal, as any subset of it comes earlier and would have removed it, so
    it is kept, and the AND of its elements' columns (its alive supersets, itself
    included) leaves ``alive``. Sets of one size never contain each other, so the
    value order is applied once, at the end.
    """
    pairs = combinations(masks, 2)
    minimal: list[int] = []
    if len(masks) < PAIRWISE_BELOW:  # drains ``pairs``, so the chunk loop does not run
        for f in sorted(set(starmap(xor, pairs)), key=int.bit_count):
            for c in minimal:
                if f & c == c:
                    break
            else:
                minimal.append(f)
    while diffs := set(starmap(xor, islice(pairs, PAIR_CHUNK))):
        diffs.update(minimal)
        cands = sorted(diffs, key=int.bit_count)
        col = _columns(cands, max(diffs).bit_length())
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


def reduce_to_hitting(sys: SetSystem) -> HittingInstance:
    """Symmetric-difference reduction: T tracks sys iff T hits the output.

    Only the inclusion-minimal differences are kept; hitting those is
    equivalent to hitting all of them.
    """
    diffs = minimal_differences([to_mask(s) for s in sys.family])
    return HittingInstance(sys.universe_size, (from_mask(f) for f in diffs))


def hitting_search(sets: Sequence[int], k: int, lower: int = 0
                   ) -> tuple[int | None, int]:
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
    union = reduce(or_, sets, 0)
    col = _columns(sets, union.bit_length())
    bylen = [0] * (len(col) + 1)
    for i, s in enumerate(sets):
        bylen[s.bit_length()] |= 1 << i
    tables = sets, col, bylen, [{} for _ in bylen]
    nodes = 0
    for size in range(lower, min(k, union.bit_count()) + 1):
        found, tested = _search_size(tables, size)
        nodes += tested
        if found is not None:
            return found, nodes
    return None, nodes


def _search_size(tables: tuple, size: int) -> tuple[int | None, int]:
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


def solve_hitting(h: HittingInstance, k: int) -> frozenset[int] | None:
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


def tracking_search(masks: Sequence[int], k: int, lower: int = 0) -> tuple[int | None, int]:
    """Minimum tracking set of size <= k of distinct bitmask sets, or None, and the
    candidates tested: :func:`hitting_search` on their minimal differences, from the
    larger of ``lower`` and ceil(lg m). The one entry to the decision core's search."""
    return hitting_search(minimal_differences(masks), k,
                          lower=max(lower, tracking_lower_bound(len(masks))))


def _decided_by_size(m: int, k: int) -> SolveReport | None:
    """The answer when the family's size m decides it, else None: a family of
    at most one set is tracked by the empty set, and the ceil(lg m) lower
    bound rules out every k below it."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    if m <= 1:
        return SolveReport("YES", witness=(), paths=m,
                           reason="at most one set; empty tracking set suffices")
    lb = tracking_lower_bound(m)
    if k < lb:
        return SolveReport("NO", paths=m,
                           reason=f"lower bound ceil(lg {m}) = {lb} exceeds k = {k}")
    return None


def solve_masks(masks: Sequence[int], k: int) -> SolveReport:
    """Minimum tracking set of size <= k for distinct bitmask sets, or NO.

    A wrapper of :func:`tracking_search` for a whole family: after the size gate
    of :func:`_decided_by_size` the search decides, and the witness, minimum and
    then lexicographically least, gets a definition-level check. ``paths`` reports m.
    """
    m = len(masks)
    if (report := _decided_by_size(m, k)) is not None:
        return report
    found, tried = tracking_search(masks, k)
    if found is None:
        return SolveReport("NO", paths=m, subsets_tried=tried,
                           reason=SEARCH_EXHAUSTED.format(k))
    if not tracks(masks, found):
        raise InternalError("hitting-set witness does not track the family")
    return SolveReport("YES", witness=tuple(sorted(from_mask(found))), paths=m,
                       subsets_tried=tried)


def _union_masks(family: Sequence[frozenset[int]]) -> tuple[list[int], VertexRelabeling]:
    """Bitmasks of the sets over the family's union, whose ids are renumbered
    in order, and the relabeling of the union: bit r stands for ``to_original[r]``,
    and its ``index`` is each id's rank. Each mask is read from one string of
    base-2 digits, highest rank first, so the time and memory are linear in the
    masks, however large the ids.
    """
    relab = VertexRelabeling(sorted(frozenset().union(*family)))
    rank, masks, zero = relab.index, [], bytearray(b"0")
    for s in family:
        top = rank[max(s)] if s else 0
        digits = zero * (top + 1)
        for e in s:
            digits[top - rank[e]] = 49  # b"1"
        masks.append(int(digits, 2))
    return masks, relab


def solve_set_system(sys: SetSystem, k: int) -> SolveReport:
    """Minimum tracking set of size <= k for the set system, or NO; see :func:`solve_masks`.

    A family that its size decides builds no mask. Any other reaches the core
    as masks over its union (:func:`_union_masks`), so the core's tables grow
    with the elements in use, not with the largest id; the renumbering keeps
    the order, so the search expands the same nodes and finds the same witness."""
    if (report := _decided_by_size(len(sys.family), k)) is not None:
        return report
    masks, relab = _union_masks(sys.family)
    report = solve_masks(masks, k)
    report.relabel(relab)
    return report


def solve_tracking_set(sys: SetSystem, k: int) -> frozenset[int] | None:
    """Tracking set of size <= k for the set system, or None: the witness of
    :func:`solve_set_system` as a set."""
    report = solve_set_system(sys, k)
    return frozenset(report.witness) if report.result == "YES" else None
