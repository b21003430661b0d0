"""Tracking sets for set systems.

A tracking set T for a family of sets has a distinct intersection with
every set in the family. The solve route goes through hitting set: the
pairwise symmetric differences of the family must all be hit by T, and
hitting them is equivalent to tracking the family. Every mode's family
ends in :func:`solve_masks`, as vertex or element bitmasks.
"""

from __future__ import annotations

from functools import reduce
from itertools import combinations, islice, starmap
from operator import or_, xor

from .errors import InternalError
from .graph import VertexRelabeling
from .report import SolveReport

TYPE_CHECKING = False
if TYPE_CHECKING:  # annotations only, so a cold start never imports them
    from collections.abc import Collection, Iterable, Sequence

# Pairs of sets whose differences minimal_differences holds at once.
PAIR_CHUNK = 1 << 14


class SetSystem:
    """Universe of ``universe_size`` elements plus a family of distinct subsets.

    The family is stored once, as ``masks``: each set is a bitmask over the
    family's union, its elements renumbered in id order, and ``ids[r]`` is the
    id of rank r. So a mask is as wide as the union, however large the ids,
    and the masks take memory linear in the elements in use. ``family``, the
    sets as frozensets of ids, is built from the stored rows on first use.

    The constructor checks the sets in bulk; only when that check fails does
    a loop over the elements run, to name the first bad one.
    """

    __slots__ = ("universe_size", "masks", "ids", "_rows", "_family")

    def __init__(self, universe_size: int, family: Iterable[Iterable[int]]):
        fam = tuple(map(frozenset, family))
        self._store(universe_size, fam)
        if not self._valid():
            if universe_size < 0:
                raise ValueError("universe_size must be nonnegative")
            for s in fam:
                for e in s:
                    if not (0 <= e < universe_size):
                        raise ValueError(f"element {e} outside universe")
            raise ValueError("family sets must be pairwise distinct")

    @classmethod
    def from_rows(cls, universe_size: int, rows: Sequence[Collection[int]],
                  checked: bool = False) -> SetSystem | None:
        """The set system of ``rows`` of element ids, or None if a row repeats an
        element, has one outside the universe or equals another row. Rows the
        caller has ``checked`` already are stored with no second check."""
        sys = cls.__new__(cls)
        sys._store(universe_size, rows)
        return sys if checked or sys._valid() else None

    def _store(self, universe_size: int, rows: Sequence[Collection[int]]) -> None:
        """Store ``rows`` as they are, plus their masks over the union and its ids.

        Each mask is the sum of its row's bits, one C-level pass a row: over a
        union of at most ``WIDE_MASK`` ids the bits come from a table of them
        all; over a wider one each rank is shifted as it is read, so no bit
        outlives its row, and a row longer than ``WIDE_MASK`` reads its mask
        from base-2 digits instead, in time linear in the mask's width. A
        repeated element leaves fewer set bits than the row has elements
        either way, which :meth:`_valid` counts.
        """
        ids = sorted(set().union(*rows))
        self.universe_size, self.ids, self._rows, self._family = \
            universe_size, tuple(ids), rows, None
        if len(ids) <= WIDE_MASK:
            bit = dict(zip(ids, map(_bit, range(len(ids))))).__getitem__
            self.masks = [sum(map(bit, row)) for row in rows]
            return
        rank = dict(zip(ids, range(len(ids)))).__getitem__
        self.masks = [sum(map(_bit, map(rank, row))) if len(row) <= WIDE_MASK
                      else _long_row_mask(list(map(rank, row))) for row in rows]

    def _valid(self) -> bool:
        """Whether the stored rows form a set system, checked in C-level passes:
        the union's ends lie in the universe; each mask has as many bits as its
        row has elements (no repeat); and the masks differ."""
        n, ids, masks = self.universe_size, self.ids, self.masks
        if n < 0 or ids and (ids[0] < 0 or ids[-1] >= n):
            return False
        return list(map(int.bit_count, masks)) == list(map(len, self._rows)) \
            and len(set(masks)) == len(masks)

    @property
    def family(self) -> tuple[frozenset[int], ...]:
        if self._family is None:
            self._family = tuple(map(frozenset, self._rows))
        return self._family

    def __repr__(self):
        return f"SetSystem(universe_size={self.universe_size}, m={len(self.masks)})"


# Masks up to this wide are summed from a table of every bit, about
# WIDE_MASK**2 / 16 bytes (64 KB); a table for a union of 10**6 ids would take
# some 60 GB. A row longer than this gets its mask faster from base-2 digits,
# as each step of a sum copies the mask built so far.
WIDE_MASK = 1024

_bit = (1).__lshift__


def _long_row_mask(ranks: list[int]) -> int:
    """The sum of the distinct ranks' bits, in time linear in the largest rank."""
    digits = bytearray(b"0") * (max(ranks) + 1)
    for r in ranks:
        digits[r] = 49  # b"1"
    return int(digits[::-1], 2)


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

    The pairs are taken ``PAIR_CHUNK`` at a time, so memory stays at one
    chunk of distinct differences plus the minimal family, not at the
    number of pairs. Each chunk's differences join the family found so far,
    sorted by size, and are eliminated column-wise: the lowest candidate
    still alive is minimal, as any subset of it comes earlier and would have
    removed it, so it is kept, and the AND of its elements' columns (its
    alive supersets, itself included) leaves ``alive``. Sets of one size
    never contain each other, so the value order is applied once, at the end.
    """
    pairs = combinations(masks, 2)
    minimal: list[int] = []
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
    """Minimum tracking set of size <= k for the set system, or NO; see :func:`solve_masks`.

    The core gets the stored masks, whose elements are renumbered, in order,
    onto the family's union, so its tables grow with the elements in use, not
    with the largest id; the order kept, it expands the same nodes and finds
    the same witness, which ``sys.ids`` maps back.
    """
    report = solve_masks(sys.masks, k)
    report.relabel(VertexRelabeling(sys.ids))
    return report


def solve_tracking_set(sys: SetSystem, k: int) -> frozenset[int] | None:
    """Tracking set of size <= k for the set system, or None.

    The witness of :func:`solve_set_system` as a set.
    """
    report = solve_set_system(sys, k)
    return frozenset(report.witness) if report.result == "YES" else None
