"""Instance parsing: the line a parse error names, the header limits, a fuzz
test that only ParseError escapes ``parse_instance``, and differential tests
of the bulk reads of edge and set-system bodies against the line loops."""

import os
import resource
import subprocess
import sys
import tracemalloc
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import trackset
from trackset import instance_io
from trackset.cli import build_parser, main
from trackset.instance_io import MAX_IDS, ParseError, _canonical_columns, parse_instance
from trackset.setsystem import _union_masks

from conftest import sparse_backbone_text


@pytest.mark.parametrize("text,line,msg", [
    ("graph 4 0 3\n# edges\n0 1\n\n1 2  # chord\n2 7\n1 3\n",
     6, "endpoint out of range: 2 7"),
    ("dag 4 0 3\n0 1\n# c\n\n1 1\n", 5, "self-loop at vertex 1"),
    ("graph 4 0 3\n0 1\n\n# again, reversed\n1 0\n0 9\n", 5, "duplicate edge 1 0"),
    ("dag 4 0 3\n0 1\n1 0\n\n0 1\n", 5, "duplicate arc 0 1"),
    ("# a cycle\n\ndag 4 0 3\n0 1\n# c\n1 2\n\n2 0\n2 3\n", 3, "digraph contains a cycle"),
    ("graph 4 0 3\n0 1\n1 1\n5 2\n", 3, "self-loop at vertex 1"),
    ("graph 1 0 0\n0 5\n", 2, "endpoint out of range: 0 5"),
    ("graph 3 0 7\n\n0 1\n", 1, "s and t must be vertex ids below n"),
    # as many tokens as two per line, yet not two on each line
    ("graph 5 0 1\n1 2 3\n4\n", 2, "expected 'u v'"),
    # one space on every line, yet a lone token
    ("graph 5 0 1\n1 2\n 3\n", 3, "expected 'u v'"),
], ids=["range", "self-loop", "duplicate-edge", "duplicate-arc", "cycle",
        "first-bad-line", "edges-before-header", "header", "three-then-one",
        "leading-space"])
def test_parse_error_names_the_line(text, line, msg):
    with pytest.raises(ParseError) as exc:
        parse_instance(text)
    assert exc.value.line_no == line
    assert str(exc.value) == f"parse error line {line}: {msg}"


@pytest.mark.parametrize("text,msg", [
    (f"graph {MAX_IDS + 1} 0 1\n", f"n = {MAX_IDS + 1} is above the limit"),
    (f"dag {MAX_IDS + 1} 0 1\n", f"n = {MAX_IDS + 1} is above the limit"),
    (f"setsystem {MAX_IDS + 1} 0\n", f"need 0 <= n <= {MAX_IDS} and m >= 0"),
    ("setsystem -1 0\n", f"need 0 <= n <= {MAX_IDS} and m >= 0"),
    ("setsystem 2 -1\n", f"need 0 <= n <= {MAX_IDS} and m >= 0"),
])
def test_header_limits(text, msg):
    with pytest.raises(ParseError) as exc:
        parse_instance(text)
    assert exc.value.line_no == 1 and msg in str(exc.value)


def test_limit_is_inclusive():
    kind, inst = parse_instance(f"setsystem {MAX_IDS} 1\n{MAX_IDS - 1}\n")
    assert kind == "setsystem" and inst.universe_size == MAX_IDS


# tracemalloc peak of a parse per header vertex, on 64-bit CPython: a graph keeps one
# list per vertex (56 bytes, and 8 for its slot in ``adj``), about 64 in all; a DAG
# keeps two, and its parse's topological order adds some 8-byte slots, about 176
PEAK_PER_VERTEX = {"graph": 80, "dag": 200}


@pytest.mark.parametrize("kind", ["graph", "dag"])
def test_memory_per_header_vertex(kind):
    n = 200_000
    tracemalloc.start()
    try:
        _, inst = parse_instance(f"{kind} {n} 0 1\n0 1\n")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert inst.n == n
    assert peak / n < PEAK_PER_VERTEX[kind]


# tracemalloc bytes per arc on the file of ``sparse_backbone_text(kind, 12_000)`` (13,716
# arcs), as measured on 64-bit CPython 3.11 before and after the parse dropped its lines,
# id columns and keys (parse, and the retained graph), rule 2 its copied lists and
# ``reduce`` the parsed instance before the formatter:
#   dag:   parse 431 -> 264, retained 276 -> 235, count 441 -> 321, reduce 538 -> 321
#   graph: parse 338 -> 192, retained 192 -> 151, count 364 -> 298, reduce 409 -> 295
# Each bound lies between the two. A count's peak also holds the exact path counts
# along the backbone, ints of up to 445 digits.
PEAK_PER_ARC = {("dag", "parse"): 350, ("dag", "retained"): 255, ("dag", "count"): 380,
                ("dag", "reduce"): 430, ("graph", "parse"): 265, ("graph", "retained"): 170,
                ("graph", "count"): 330, ("graph", "reduce"): 350}


@pytest.mark.parametrize("route", ["parse", "count", "reduce"])
@pytest.mark.parametrize("kind", ["graph", "dag"])
def test_memory_per_arc(tmp_path, capsys, kind, route):
    """A parse holds one copy of the edge set while the lists fill, a parsed graph keeps
    only its lists (and a DAG its order), and count and reduce, which read the file,
    stay within a bound per arc on a sparse file of the kind that the rules shrink."""
    text = sparse_backbone_text(kind, 12_000)
    arcs = text.count("\n") - 1
    path = tmp_path / f"backbone.{kind}"
    path.write_text(text)
    build_parser()  # built on a process's first call, and kept: not this route's cost
    tracemalloc.start()
    try:
        if route == "parse":
            _, inst = parse_instance(text)
            retained, peak = tracemalloc.get_traced_memory()
        else:
            assert main([route, str(path)]) == 0
            peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / arcs < PEAK_PER_ARC[kind, route]
    if route == "parse":
        assert inst.n == 12_000 and retained / arcs < PEAK_PER_ARC[kind, "retained"]


def test_header_sized_allocation_exits_2(tmp_path):
    # in a child capped at 1 GiB of address space, so that a missing limit
    # fails this test instead of allocating 10^9 adjacency lists
    path = tmp_path / "huge.graph"
    path.write_text("graph 1000000000 0 1\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(trackset.__file__)))

    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (2 ** 30, 2 ** 30))

    proc = subprocess.run(
        [sys.executable, "-c", "import sys; from trackset.cli import main; "
                               "sys.exit(main(sys.argv[1:]))", "solve", str(path), "--k", "1"],
        capture_output=True, text=True, timeout=120, preexec_fn=cap_memory,
        env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("parse error line 1: n = 1000000000 is above the limit")


# header ints are small or beyond the limit, so no example allocates much
_small = st.integers(-2, 6)
_ints = st.one_of(_small, _small, st.integers(MAX_IDS + 1, 10 ** 30),
                  st.integers(-10 ** 30, -3))
_tokens = st.one_of(_small.map(str), _ints.map(str), st.sampled_from(
    ["#", "# note", "1#2", "x", "1.5", "-", "+3", "0x1", "graph", "dag", "setsystem"]))
_lines = st.one_of(st.sampled_from(["", "# note"]), st.lists(_tokens, max_size=4).map(" ".join))


@st.composite
def instance_texts(draw):
    """A header of a known or unknown kind, mostly with the right number of
    fields, after blank and comment lines; then lines of tokens."""
    kind = draw(st.sampled_from(["graph", "dag", "setsystem", "tree"]))
    arity = 2 if kind == "setsystem" else 3
    fields = draw(st.one_of(st.lists(_ints, min_size=arity, max_size=arity),
                            st.lists(_ints, max_size=4)))
    before = draw(st.lists(st.sampled_from(["", "  ", "# c"]), max_size=2))
    body = draw(st.lists(_lines, max_size=8))
    return "\n".join([*before, " ".join([kind, *map(str, fields)]), *body])


@settings(max_examples=500, deadline=None)
@given(instance_texts())
def test_only_parse_errors_escape(text):
    try:
        kind, inst = parse_instance(text)
    except ParseError as exc:
        assert 1 <= exc.line_no <= len(text.splitlines())
    else:
        assert kind in ("graph", "dag", "setsystem")


def _outcome(text):
    """("ok", kind, n, s, t, pairs) of a graph or dag text, or ("error", line, message)."""
    try:
        kind, inst = parse_instance(text)
    except ParseError as exc:
        return "error", exc.line_no, str(exc).split(": ", 1)[1]
    return "ok", kind, inst.n, inst.s, inst.t, inst.edges if kind == "graph" else inst.arcs


@st.composite
def edge_bodies(draw):
    """A graph or dag with small ids, some out of range, self-loops and
    duplicates among its pairs: its text written canonically, the same pairs
    with noise that only the line loop reads, and each pair's line there."""
    kind = draw(st.sampled_from(["graph", "dag"]))
    n_s_t = draw(st.lists(st.integers(0, 6), min_size=3, max_size=3))
    header = " ".join([kind, *map(str, n_s_t)])
    pairs = draw(st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)),
                          min_size=1, max_size=12))
    noisy, line_of = [header], []
    for u, v in pairs:
        noisy += draw(st.lists(st.sampled_from(["", "# note", " \t"]), max_size=2))
        line_of.append(len(noisy) + 1)
        lead, sep, trail = (draw(st.sampled_from(choice)) for choice in
                            (["", " ", "\t"], [" ", "  ", "\t", " \t "], ["", " # c", "\t"]))
        noisy.append(f"{lead}{u}{sep}{v}{trail}")
    canonical = "\n".join([header, *(f"{u} {v}" for u, v in pairs)]) + "\n"
    return canonical, "\n".join([*noisy, "# end"]), line_of


@settings(max_examples=200, deadline=None)
@given(edge_bodies())
def test_bulk_read_matches_line_loop(case):
    canonical, noisy, line_of = case
    assert _canonical_columns(canonical.splitlines()[1:]) is not None
    assert _canonical_columns(noisy.splitlines()[1:]) is None
    got = _outcome(canonical)
    if got[0] == "error" and got[1] > 1:  # a bad pair: the same pair's line in the noisy text
        got = ("error", line_of[got[1] - 2], got[2])
    assert got == _outcome(noisy)


def test_overlong_integer_reads_as_in_the_line_loop():
    # more digits than int() may take: the bulk read hands the body back
    big = "9" * 5000
    got = _outcome(f"graph 3 0 1\n0 {big}\n")
    assert got[:2] == ("error", 2) and got == _outcome(f"graph 3 0 1\n0  {big}\n")


@pytest.mark.parametrize("text,bulk,want", [
    ("graph 8 0 3\n007 3\n1 02\n", False, ("ok", "graph", 8, 0, 3, ((1, 2), (3, 7)))),
    ("graph 4 0 3\n0 1\n01 0\n", False, ("error", 3, "duplicate edge 1 0")),
    ("dag 4 0 3\r\n0 1\r\n1 3\r\n", True, ("ok", "dag", 4, 0, 3, ((0, 1), (1, 3)))),
    ("dag 4 0 3\r\n0 1\r\n1 1\r\n", True, ("error", 3, "self-loop at vertex 1")),
    ("graph 4 0 3\n0  1\n1 3\n", False, ("ok", "graph", 4, 0, 3, ((0, 1), (1, 3)))),
    ("graph 4 0 3\n0 1 \n1 3\n", False, ("ok", "graph", 4, 0, 3, ((0, 1), (1, 3)))),
    ("graph 4 0 3\n", False, ("ok", "graph", 4, 0, 3, ())),
    ("graph 2 0 1\n1 0\n", True, ("ok", "graph", 2, 0, 1, ((0, 1),))),
    ("dag 3 0 2\n0 1\n1 2", True, ("ok", "dag", 3, 0, 2, ((0, 1), (1, 2)))),
    (f"graph 3 0 1\n0 {'9' * 5000}\n", False, None),
    ("graph 4 0 3\n0 ٣\n", False, ("ok", "graph", 4, 0, 3, ((0, 3),))),
], ids=["leading-zeros", "leading-zero-duplicate", "crlf", "crlf-error", "double-space",
        "trailing-space", "no-body", "one-pair", "no-final-newline", "over-digit-limit",
        "arabic-indic-digit"])
def test_body_scan_edge_cases(text, bulk, want):
    # a comment line after the body sends the same pairs through the line loop
    noisy = text + ("" if text.endswith("\n") else "\n") + "# end\n"
    assert (_canonical_columns(text.splitlines()[1:]) is not None) == bulk
    assert _canonical_columns(noisy.splitlines()[1:]) is None
    got = _outcome(text)
    assert got == _outcome(noisy)
    if want is None:  # the line loop names the token that int() refuses
        assert got[:2] == ("error", 2) and got[2].startswith("expected integer, got '999")
    else:
        assert got == want


def _set_outcome(text, bulk=True):
    """("ok", n, masks, ids, family) of a set-system text, or ("error", line,
    message); with ``bulk`` False the line loop reads every body."""
    read = instance_io._canonical_sets if bulk else lambda rows, m: None
    with mock.patch.object(instance_io, "_canonical_sets", read):
        try:
            kind, inst = parse_instance(text)
        except ParseError as exc:
            return "error", exc.line_no, str(exc).split(": ", 1)[1]
    assert kind == "setsystem"
    masks, relab = _union_masks(inst.family)
    return "ok", inst.universe_size, masks, relab.to_original, inst.family


def _bulk_reads(text):
    lines = text.splitlines()
    return instance_io._canonical_sets(lines[1:], int(lines[0].split()[2])) is not None


# tokens JSON reads but int() does not or reads otherwise, and tokens int() reads
# but JSON does not
_odd_tokens = ["true", "null", "NaN", "1.5", "1e3", "-1", "+3", "01", "٣", "9" * 20]


@st.composite
def set_bodies(draw):
    """A set-system text with small ids, some out of range, repeated within a
    row or in duplicate rows, and mostly the right row count; unless ``noise``
    is drawn, it is written canonically: one space between ids, no comment."""
    n = draw(st.integers(0, 8))
    rows = draw(st.lists(st.lists(st.integers(0, 9).map(str), max_size=4), max_size=8))
    m = max(0, len(rows) + draw(st.sampled_from([0, 0, 0, -1, 1])))
    noise = draw(st.booleans())
    lines = [f"setsystem {n} {m}"]
    for row in rows:
        sep, tail = " ", ""
        if noise:
            lines += draw(st.lists(st.sampled_from(["", "# note", "  "]), max_size=1))
            row = [draw(st.sampled_from(_odd_tokens)) if draw(st.integers(0, 5)) == 0
                   else tok for tok in row]
            sep = draw(st.sampled_from([" ", " ", "  ", "\t"]))
            tail = draw(st.sampled_from(["", "", " ", " # c"]))
        lines.append(sep.join(row) + tail)
    end = draw(st.sampled_from(["\n", "\r\n"]))
    text = end.join(lines) + draw(st.sampled_from(["", end]))
    # without a final line end, a last empty row is no row
    return text, not noise and len(text.splitlines()) == m + 1


@settings(max_examples=300, deadline=None)
@given(set_bodies())
def test_set_bulk_read_matches_line_loop(case):
    text, canonical = case
    if canonical:
        assert _bulk_reads(text)
    assert _set_outcome(text) == _set_outcome(text, bulk=False)


@pytest.mark.parametrize("text,bulk,want", [
    ("setsystem 3 2\n0 true\n1\n", False, ("error", 2, "expected integer, got 'true'")),
    ("setsystem 3 1\nnull\n", False, ("error", 2, "expected integer, got 'null'")),
    ("setsystem 3 1\nNaN 1\n", False, ("error", 2, "expected integer, got 'NaN'")),
    ("setsystem 3 1\n1.5\n", False, ("error", 2, "expected integer, got '1.5'")),
    ("setsystem 3 1\n1e3\n", False, ("error", 2, "expected integer, got '1e3'")),
    ("setsystem 3 1\n0 -1\n", False, ("error", 2, "element out of range: -1")),
    ("setsystem 4 2\n+3\n0\n", False, ("ok", 4, [0b10, 0b01], (0, 3), ({3}, {0}))),
    ("setsystem 3 2\n01 2\n0\n", False, ("ok", 3, [0b110, 0b001], (0, 1, 2), ({1, 2}, {0}))),
    ("setsystem 4 1\n٣\n", False, ("ok", 4, [0b1], (3,), ({3},))),
    ("setsystem 3 1\n0\t2\n", False, ("ok", 3, [0b11], (0, 2), ({0, 2},))),
    ("setsystem 3 1\n0  2\n", False, ("ok", 3, [0b11], (0, 2), ({0, 2},))),
    ("setsystem 3 2\r\n0 2\r\n1\r\n", True, ("ok", 3, [0b101, 0b010], (0, 1, 2),
                                             ({0, 2}, {1}))),
    ("setsystem 3 2\n# sets\n0 2\n1\n", False, ("ok", 3, [0b101, 0b010], (0, 1, 2),
                                                ({0, 2}, {1}))),
    ("setsystem 3 2\n0 2  # first\n1\n", False, ("ok", 3, [0b101, 0b010], (0, 1, 2),
                                                 ({0, 2}, {1}))),
    ("setsystem 3 2\n\n1\n", True, ("ok", 3, [0, 0b1], (1,), (set(), {1}))),
    ("setsystem 3 2\n  \n1\n", False, ("ok", 3, [0, 0b1], (1,), (set(), {1}))),
    ("setsystem 3 0\n", True, ("ok", 3, [], (), ())),
    ("setsystem 3 0", True, ("ok", 3, [], (), ())),
    ("setsystem 3 0\n1\n", False, ("error", 2, "extra content after 0 sets")),
    ("setsystem 3 1\n1\n\n\n", False, ("ok", 3, [0b1], (1,), ({1},))),
    ("setsystem 3 3\n0\n1\n", False, ("error", 3, "expected 3 sets, found 2")),
    ("setsystem 3 1\n0\n1\n", False, ("error", 3, "extra content after 1 sets")),
    ("setsystem 3 2\n0 1\n2 2\n", True, ("error", 3, "repeated element within a set")),
    ("setsystem 3 2\n0 1 0\n2\n", True, ("error", 2, "repeated element within a set")),
    ("setsystem 3 3\n0 1\n2\n1 0\n", True, ("error", 4, "duplicate set (same as line 2)")),
    ("setsystem 3 2\n0\n3\n", True, ("error", 3, "element out of range: 3")),
    (f"setsystem 3 2\n0\n{'9' * 30}\n", True, ("error", 3, f"element out of range: {'9' * 30}")),
    (f"setsystem 3 1\n{'9' * 5000}\n", False, None),
], ids=["true", "null", "nan", "float", "exponent", "minus", "plus", "leading-zero",
        "arabic-indic-digit", "tab", "double-space", "crlf", "comment-line",
        "trailing-comment", "blank-row", "spaces-row", "m0", "m0-no-newline", "m0-body",
        "trailing-blank-lines", "too-few-rows", "too-many-rows", "repeated-element",
        "repeated-element-apart", "duplicate-set", "id-n", "id-far-above-n",
        "over-digit-limit"])
def test_set_body_scan_edge_cases(text, bulk, want):
    assert _bulk_reads(text) == bulk
    got = _set_outcome(text)
    assert got == _set_outcome(text, bulk=False)
    if want is None:  # the line loop names the token that int() refuses
        assert got[:2] == ("error", 2) and got[2].startswith("expected integer, got '999")
    else:
        assert got == (want if want[0] == "error" else (*want[:4], tuple(map(frozenset, want[4]))))


def test_sparse_set_ids_give_narrow_masks():
    """Masks are built over the union, never as wide as the raw ids."""
    m = 200
    ids = list(range(MAX_IDS - 2 * m, MAX_IDS, 2))  # distinct, near 10^6
    rows = [f"{ids[i]} {ids[(i + 1) % m]}" for i in range(m)]
    for text in ("\n".join([f"setsystem {MAX_IDS} {m}", *rows]) + "\n",
                 "\n".join([f"setsystem {MAX_IDS} {m}", "# noise", *rows]) + "\n"):
        _, inst = parse_instance(text)
        masks, relab = _union_masks(inst.family)
        assert relab.to_original == tuple(ids)
        assert all(mask.bit_length() <= len(ids) for mask in masks)
        assert inst.family[0] == {ids[0], ids[1]} and inst.family[-1] == {ids[-1], ids[0]}


def test_wide_union_parses_in_linear_memory():
    """A set-system body parses in memory linear in its text, bulk or line by
    line: three rows over a union of 10^5 ids, where one bit value per rank
    kept alive would need about 625 MB, and 40,000 one-id rows on ids 5 apart,
    whose masks over the union would take m^2/2 bits, about 100 MB."""
    u, m = 10 ** 5, 40_000
    wide = [" ".join(map(str, range(u))), " ".join(map(str, range(0, u, 2))), "7"]
    for n, rows in ((u, wide), (5 * m, [str(5 * i) for i in range(m)])):
        for body in (rows, ["# noise", *rows]):
            text = "\n".join([f"setsystem {n} {len(rows)}", *body]) + "\n"
            tracemalloc.start()
            try:
                _, inst = parse_instance(text)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 64 * 2 ** 20
            assert inst.family == tuple(frozenset(map(int, row.split())) for row in rows)
    masks, relab = _union_masks(parse_instance(f"setsystem {u} 3\n" + "\n".join(wide))[1].family)
    assert masks == [(1 << u) - 1, int("01" * (u // 2), 2), 1 << 7]
    assert relab.to_original == tuple(range(u))
