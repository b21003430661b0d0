"""Instance parsing: the line a parse error names, the header limits, and a
fuzz test that only ParseError escapes ``parse_instance``."""

import os
import resource
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import trackset
from trackset.instance_io import MAX_IDS, ParseError, _canonical_columns, parse_instance


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
