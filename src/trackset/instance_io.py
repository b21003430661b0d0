"""Instance file parsing and formatting.

Formats ('#' starts a comment, ids are 0-based):

    graph n s t          dag n s t           setsystem n m
    u v                  u v                 e1 e2 ...   (one line per set,
    ...                  ...                              blank line = empty set)
"""

from __future__ import annotations

import json
from operator import add

from .errors import CycleError, EdgeError
from .graph import Digraph, Graph, topological_order
from .setsystem import SetSystem

Instance = Graph | Digraph | SetSystem

# Largest n a header may name: whatever its edge count, a graph keeps one list per
# vertex and a DAG its out-list, an in-degree slot and its order (measured: 64 and 112
# bytes a vertex, 64 and 120 at the parse's peak, on 64-bit CPython; a DAG's in-lists,
# built on first read, add 64 more), so a one-line file could ask for gigabytes.
MAX_IDS = 10**6


class ParseError(Exception):
    def __init__(self, line_no: int, msg: str):
        super().__init__(f"parse error line {line_no}: {msg}")
        self.line_no = line_no


def _strip(line: str) -> str:
    return line.split("#", 1)[0].strip()


def _int_fields(tokens: list[str], line_no: int) -> list[int]:
    fields = []
    for tok in tokens:
        try:
            fields.append(int(tok))
        except ValueError:
            raise ParseError(line_no, f"expected integer, got {tok!r}")
    return fields


# the line breaks of ``str.splitlines`` other than "\n": a text that holds one is first
# rewritten with "\n" ends, line for line, so one ``str.find`` walk finds the header
_OTHER_BREAKS = "\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"
_DELETE_DIGITS = str.maketrans("", "", "0123456789")
_TO_COMMAS = str.maketrans(" \n", ",,")


def _canonical_columns(body: str) -> tuple[list, list] | None:
    """The two id columns of an edge body whose every line is 'digits SPACE digits',
    read in bulk; None for any other body, which the line loop then reads. ``body``
    is the lines after the header, joined by "\\n", with no final line end.

    Deleting the ASCII digits must leave one space per line and the newlines
    between them; then every space and newline becomes a comma and one
    ``json.loads`` reads all the integers. JSON refuses what ``int()`` would
    read differently or name in an error, so each of those bodies goes to the
    line loop: an empty token (a double, leading or trailing space, or a
    blank line), a leading zero as in '007', more digits than ``int()`` takes.
    """
    shape = body.translate(_DELETE_DIGITS)
    if shape != " \n" * (len(shape) // 2) + " ":
        return None
    try:
        ints = json.loads("[" + body.translate(_TO_COMMAS) + "]")
    except ValueError:
        return None
    return ints[::2], ints[1::2]


_DELETE_DIGITS_SPACES = str.maketrans("", "", "0123456789 ")


def _canonical_sets(body: str | None, m: int) -> list | None:
    """The element lists of a set-system body of exactly m rows, each empty or
    'digits' split by single spaces, read in bulk; None for any other body,
    which the line loop then reads. ``body`` is the rows after the header,
    joined by "\\n", with no final line end, or None where no row follows it.

    Deleting the ASCII digits and spaces must leave only the newlines between
    the rows; then each row becomes a JSON array, and one ``json.loads`` reads
    them all. JSON refuses what ``int()`` would read differently or name in an
    error, so each of those bodies goes to the line loop: an empty token (a
    double, leading or trailing space, or a row of spaces alone), a leading
    zero as in '007', more digits than ``int()`` takes.
    """
    if body is None:
        return None if m else []
    # the count first: m comes from the header, and "\n" * (m - 1) must not outgrow the text
    if body.count("\n") != m - 1 or body.translate(_DELETE_DIGITS_SPACES) != "\n" * (m - 1):
        return None
    try:
        return json.loads("[[" + body.replace(" ", ",").replace("\n", "],[") + "]]")
    except ValueError:
        return None


def parse_instance(text: str) -> tuple[str, Instance]:
    """Parse an instance file; returns (kind, instance).

    Raises ParseError with a 1-based line number on malformed input,
    including duplicate edges, self-loops, cyclic 'dag' payloads, duplicate
    family sets and headers naming more than MAX_IDS ids.
    """
    if any(map(text.__contains__, _OTHER_BREAKS)):
        # the final "\n" keeps a last blank line, which "\n".join alone would drop
        text = "\n".join(text.splitlines()) + "\n"
    start = header_no = 0
    header = []
    while not header:  # one line a round, until the first that is not blank or comment
        if start > len(text):
            raise ParseError(1, "empty instance")
        end = text.find("\n", start)
        end = len(text) if end < 0 else end
        header = _strip(text[start:end]).split()
        header_no, start = header_no + 1, end + 1
    # the lines after the header without the text's final line end: what
    # "\n".join(text.splitlines()[header_no:]) gives, with no list of lines
    body = text[start:len(text) - text.endswith("\n")]
    kind = header[0]
    if kind in ("graph", "dag"):
        if len(header) != 4:
            raise ParseError(header_no, f"expected '{kind} n s t'")
        n, s, t = _int_fields(header[1:], header_no)
        if n > MAX_IDS:
            raise ParseError(header_no, f"n = {n} is above the limit of {MAX_IDS}")
        columns = _canonical_columns(body)
        if columns is None:
            columns = [], []
            for i, raw in enumerate(body.split("\n"), header_no + 1):
                tokens = raw.split("#", 1)[0].split()
                if tokens:
                    try:
                        u, v = map(int, tokens)
                    except ValueError:
                        _int_fields(tokens, i)  # names a token that is no integer
                        raise ParseError(i, "expected 'u v'")
                    columns[0].append(u)
                    columns[1].append(v)
        del body
        try:
            # the lists fill beside the columns, whose ints they take, and drop them after
            inst = (Graph if kind == "graph" else Digraph)._checked(n, *columns, s, t)
            del columns
            if kind == "dag":
                topological_order(inst)
            return kind, inst
        except EdgeError as exc:
            # the check names the first bad pair by its index; find its line
            pair_lines = [i for i, raw in enumerate(text[start:].splitlines(), header_no + 1)
                          if _strip(raw)]
            raise ParseError(pair_lines[exc.index], str(exc))
        except CycleError:
            raise ParseError(header_no, "digraph contains a cycle")
        except ValueError as exc:
            raise ParseError(header_no, str(exc))
    if kind == "setsystem":
        if len(header) != 3:
            raise ParseError(header_no, "expected 'setsystem n m'")
        n, m = _int_fields(header[1:], header_no)
        if not (0 <= n <= MAX_IDS and m >= 0):
            raise ParseError(header_no, f"need 0 <= n <= {MAX_IDS} and m >= 0")
        rows = _canonical_sets(body if start < len(text) else None, m)
        del body
        try:
            inst = None if rows is None else SetSystem(n, rows)
        except ValueError:
            inst = None
        # a set shorter than its row had a repeated element
        if inst is not None and list(map(len, inst.family)) == list(map(len, rows)):
            return kind, inst
        # any other body, or a bulk check that failed: the line loop names the line
        lines = text.splitlines()
        family = []
        seen_sets = {}
        taken = 0
        for i in range(header_no, len(lines)):
            if taken == m:
                if _strip(lines[i]):
                    raise ParseError(i + 1, f"extra content after {m} sets")
                continue
            raw = lines[i].split("#", 1)[0]
            if not raw.strip() and "#" in lines[i]:
                continue  # pure comment line; a fully blank line is an empty set
            elems = _int_fields(raw.split(), i + 1)
            for e in elems:
                if not (0 <= e < n):
                    raise ParseError(i + 1, f"element out of range: {e}")
            fs = frozenset(elems)
            if len(fs) != len(elems):
                raise ParseError(i + 1, "repeated element within a set")
            if fs in seen_sets:
                raise ParseError(i + 1, f"duplicate set (same as line {seen_sets[fs]})")
            seen_sets[fs] = i + 1
            family.append(fs)
            taken += 1
        if taken != m:
            raise ParseError(len(lines), f"expected {m} sets, found {taken}")
        return kind, SetSystem(n, family)
    raise ParseError(header_no, f"unknown instance kind {kind!r}")


def format_graph(g: Graph | Digraph) -> str:
    """``g`` in the graph format; a digraph, such as rule 1's, prints as its Graph would.
    Each edge is read from the ascending neighbour list of its smaller end."""
    adj = g.adj if isinstance(g, Graph) else map(sorted, map(add, g.out_adj, g.in_adj))
    return f"graph {g.n} {g.s} {g.t}\n" + "".join(
        [f"{u} {v}\n" for u, a in enumerate(adj) for v in a if v > u])


def format_digraph(d: Digraph) -> str:
    return f"dag {d.n} {d.s} {d.t}\n" + "".join(
        [f"{u} {v}\n" for u, a in enumerate(d.out_adj) for v in a])


def format_setsystem(sys: SetSystem) -> str:
    lines = [f"setsystem {sys.universe_size} {len(sys.family)}"]
    lines += [" ".join(str(e) for e in sorted(s)) for s in sys.family]
    return "\n".join(lines) + "\n"


def format_instance(obj: Instance) -> str:
    if isinstance(obj, Graph):
        return format_graph(obj)
    if isinstance(obj, Digraph):
        return format_digraph(obj)
    return format_setsystem(obj)
