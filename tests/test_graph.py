import pytest
from hypothesis import example, given, settings, strategies as st

from trackset.errors import CycleError, EdgeError
from trackset.graph import (Digraph, Graph, VertexRelabeling, bfs_distances,
                            topological_order)


def test_bfs_line_graph():
    g = Graph(3, [(0, 1), (1, 2)], 0, 2)
    assert bfs_distances(g, 0) == [0, 1, 2]


def test_bfs_unreachable():
    g = Graph(4, [(0, 1), (1, 3)], 0, 3)
    assert bfs_distances(g, 0) == [0, 1, None, 2]


def test_bfs_diamond():
    g = Graph(4, [(0, 1), (0, 2), (1, 3), (2, 3)], 0, 3)
    assert bfs_distances(g, 0)[3] == 2


def test_topological_single_arc():
    d = Digraph(2, [(0, 1)], 0, 1)
    assert topological_order(d) == [0, 1]


def test_topological_diamond():
    d = Digraph(4, [(0, 1), (0, 2), (1, 3), (2, 3)], 0, 3)
    order = topological_order(d)
    assert order[0] == 0 and order[-1] == 3
    pos = {v: i for i, v in enumerate(order)}
    assert all(pos[u] < pos[v] for u, v in d.arcs)


def test_topological_cycle_detected():
    d = Digraph(3, [(0, 1), (1, 0)], 0, 2)
    with pytest.raises(CycleError):
        topological_order(d)


def test_topological_order_is_kept_on_success_only():
    d = Digraph(3, [(0, 1), (1, 2), (2, 1)], 0, 2)
    for _ in range(2):  # no order is kept, so each call runs Kahn's loop and raises
        with pytest.raises(CycleError):
            topological_order(d)
    d = Digraph(3, [(1, 2), (0, 1)], 0, 2)
    order = topological_order(d)
    order.append(7)  # the caller's copy: the kept order is unchanged
    assert topological_order(d) == [0, 1, 2]


@pytest.mark.parametrize("edges,msg", [
    ([(0, 0)], "self-loop"),
    ([(0, 1), (1, 0)], "duplicate"),
    ([(0, 5)], "out of range"),
])
def test_graph_rejects_invalid_edges(edges, msg):
    with pytest.raises(ValueError, match=msg):
        Graph(3, edges, 0, 2)


@pytest.mark.parametrize("cls", [Graph, Digraph])
def test_parse_columns_build_what_the_constructor_builds(cls):
    """The parse builds from its two id columns, checked: the same instance as the
    constructor over the pairs."""
    pairs = [(3, 1), (0, 2), (1, 0), (2, 3)]
    a, b = cls(4, pairs, 0, 3), cls._checked(4, [3, 0, 1, 2], [1, 2, 0, 3], 0, 3)
    assert repr(a) == repr(b) == f"{cls.__name__}(n=4, m=4, s=0, t=3)"
    if cls is Graph:
        assert a.adj == b.adj and a.edges == b.edges == ((0, 1), (0, 2), (1, 3), (2, 3))
    else:
        assert a.out_adj == b.out_adj and a.arcs == b.arcs == ((0, 2), (1, 0), (2, 3), (3, 1))


def _reference_build(n, pairs, s, t, undirected):
    """The constructor's result by a per-pair reference: ("edge", index, message) for the
    first bad pair in input order, else ("ends",) for a bad s or t, else the ascending
    lists (adj of a graph, out- and in-lists of a digraph)."""
    seen = set()
    for i, (u, v) in enumerate(pairs):
        if not (0 <= u < n and 0 <= v < n):
            return "edge", i, f"endpoint out of range: {u} {v}"
        if u == v:
            return "edge", i, f"self-loop at vertex {u}"
        key = frozenset((u, v)) if undirected else (u, v)
        if key in seen:
            return "edge", i, f"duplicate {'edge' if undirected else 'arc'} {u} {v}"
        seen.add(key)
    if not (2 <= n and 0 <= s < n and 0 <= t < n and s != t):
        return ("ends",)
    out = [sorted(v for u, v in pairs if u == x) for x in range(n)]
    inc = [sorted(u for u, v in pairs if v == x) for x in range(n)]
    return [sorted(a + b) for a, b in zip(out, inc)] if undirected else (out, inc)


@st.composite
def pair_lists(draw):
    """n, s, t and pairs over ids -1..n, with reversed copies and repeats drawn in."""
    n = draw(st.integers(1, 6))
    ids = st.integers(-1, n)
    s, t = draw(st.sampled_from([(0, 1), (1, 0), (n - 1, 0)])) if draw(st.integers(0, 2)) \
        else (draw(ids), draw(ids))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                          max_size=10, unique=True))
    pairs = [(v, u) if draw(st.booleans()) else (u, v) for u, v in pairs if u != v]
    extra = draw(st.lists(st.one_of(
        st.sampled_from(pairs or [(0, 0)]).map(lambda p: p[::-1]),  # a reversed pair
        st.sampled_from(pairs or [(0, 0)]),  # a repeat
        st.tuples(ids, ids)), max_size=3))  # out of range, or a self-loop
    for pair in extra:
        pairs.insert(draw(st.integers(0, len(pairs))), pair)
    return n, s, t, pairs


@settings(max_examples=300, deadline=None)
@given(pair_lists(), st.sampled_from([Graph, Digraph]), st.booleans())
def test_checked_build_matches_per_pair_reference(case, cls, columns):
    """The constructor, and the parse's build from two id columns, check the pairs in
    bulk before and after the fill: either EdgeError names the pair that a per-pair
    reference names first, or s and t fail after every pair passed, or the lists are
    the ascending lists the reference builds."""
    n, s, t, pairs = case
    want = _reference_build(n, pairs, s, t, cls is Graph)
    us, vs = [u for u, _ in pairs], [v for _, v in pairs]
    try:
        got = cls._checked(n, us, vs, s, t) if columns else cls(n, pairs, s, t)
    except EdgeError as exc:
        assert ("edge", exc.index, str(exc)) == want
        return
    except ValueError:
        assert want == ("ends",)
        return
    assert (got.adj if cls is Graph else (got.out_adj, got.in_adj)) == want


def test_graph_rejects_equal_endpoints():
    with pytest.raises(ValueError):
        Graph(3, [], 1, 1)


def test_relabeling_injective_and_map_set():
    outer = VertexRelabeling([3, 5, 7])
    assert outer.index == {3: 0, 5: 1, 7: 2}
    assert outer.map_set([0, 2]) == {3, 7}
    assert outer.from_original([3, 4, 7]) == {0, 2}  # 4 was not kept
    with pytest.raises(ValueError):
        VertexRelabeling([1, 1])


def test_identity_relabeling_maps_ids_as_they_are():
    same = VertexRelabeling.identity(3)
    assert same.map_set([0, 2]) == {0, 2}
    assert same.from_original([-1, 0, 2, 3]) == {0, 2}  # only 0..2 are ids of it
    assert same.to_original == (0, 1, 2) and same.index == {0: 0, 1: 1, 2: 2}


@st.composite
def connected_graphs(draw):
    n = draw(st.integers(3, 9))
    tree = [(draw(st.integers(0, i - 1)), i) for i in range(1, n)]
    extra = draw(st.sets(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] < e[1]),
        max_size=8))
    edges = {(min(u, v), max(u, v)) for u, v in tree} | extra
    s = draw(st.integers(0, n - 1))
    t = draw(st.integers(0, n - 1).filter(lambda x: x != s))
    return Graph(n, sorted(edges), s, t)


@given(connected_graphs())
def test_bfs_triangle_step(g):
    dist = bfs_distances(g, g.s)
    for u, v in g.edges:
        assert dist[u] is not None and dist[v] is not None
        assert abs(dist[u] - dist[v]) <= 1


@st.composite
def shuffled_pairs(draw):
    """Distinct pairs on at most 12 vertices, each in a random orientation, in random order."""
    n = draw(st.integers(2, 12))
    pairs = draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                         .filter(lambda e: e[0] < e[1])))
    flips = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return n, draw(st.permutations([(v, u) if f else (u, v)
                                    for (u, v), f in zip(sorted(pairs), flips)]))


@given(shuffled_pairs())
def test_adjacency_lists_ascend(case):
    n, pairs = case
    g = Graph(n, pairs, 0, 1)
    assert g.edges == tuple(sorted((min(e), max(e)) for e in pairs))
    assert g.adj == [sorted({u, v}.difference([x]).pop() for u, v in pairs if x in (u, v))
                     for x in range(n)]
    d = Digraph(n, pairs, 0, 1)
    assert d.arcs == tuple(sorted(pairs))
    assert d.out_adj == [sorted(v for u, v in pairs if u == x) for x in range(n)]
    assert d.in_adj == [sorted(u for u, v in pairs if v == x) for x in range(n)]


def loop_sorted_pairs(n, pairs, undirected):
    """The constructors' per-pair check and sort before they checked in bulk:
    the reference that ``Graph`` and ``Digraph`` must match."""
    seen, keys = set(), []
    for i, (u, v) in enumerate(pairs):
        if not (0 <= u < n and 0 <= v < n):
            raise EdgeError(i, f"endpoint out of range: {u} {v}")
        if u == v:
            raise EdgeError(i, f"self-loop at vertex {u}")
        e = (v, u) if undirected and v < u else (u, v)
        if e in seen:
            raise EdgeError(i, f"duplicate {'edge' if undirected else 'arc'} {u} {v}")
        seen.add(e)
        keys.append(e)
    return tuple(sorted(keys))


@st.composite
def raw_pairs(draw):
    """Distinct non-loop pairs on n vertices, plus a few drawn from -2 to n + 1
    and a few repeats in either orientation, at random places."""
    n = draw(st.integers(2, 9))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                          .filter(lambda e: e[0] != e[1]), max_size=14, unique=True))
    wide = st.integers(-2, n + 1)
    extras = draw(st.lists(st.tuples(wide, wide), max_size=2))
    if pairs:
        extras += [draw(st.sampled_from(pairs))[::draw(st.sampled_from([1, -1]))]
                   for _ in range(draw(st.integers(0, 2)))]
    for e in extras:
        pairs.insert(draw(st.integers(0, len(pairs))), e)
    return n, pairs


def _built(cls, n, pairs):
    try:
        inst = cls(n, pairs, 0, 1)
    except EdgeError as exc:
        return "error", exc.index, str(exc)
    return "ok", inst.edges if cls is Graph else inst.arcs


def _looped(cls, n, pairs):
    try:
        return "ok", loop_sorted_pairs(n, pairs, undirected=cls is Graph)
    except EdgeError as exc:
        return "error", exc.index, str(exc)


@settings(max_examples=300, deadline=None)
@given(raw_pairs(), st.booleans())
@example((2, []), False)
@example((2, []), True)
def test_constructors_match_per_pair_loop(case, as_generator):
    n, pairs = case
    for cls in (Graph, Digraph):
        arg = (p for p in pairs) if as_generator else pairs
        assert _built(cls, n, arg) == _looped(cls, n, pairs)

