import argparse
import contextlib
import gc
import io
import json
import os
import subprocess
import sys
import threading
import time
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import trackset
from trackset import cli
from trackset.cli import _plain_args, build_parser, main
from trackset.dagtrack import reduce_rule_2
from trackset.graph import Digraph
from trackset.instance_io import format_digraph, format_graph, parse_instance
from trackset.report import SolveReport

from conftest import serial_diamond_dag, serial_diamond_graph, sparse_backbone_text

DIAMOND = "graph 4 0 3\n0 1\n0 2\n1 3\n2 3\n"
DIAMOND_DAG = "dag 4 0 3\n0 1\n0 2\n1 3\n2 3\n"
CHAIN_DAG = "dag 3000 0 2999\n" + "".join(f"{i} {i + 1}\n" for i in range(2999))
FIVE_SETS = "setsystem 3 5\n\n0\n1\n2\n0 1\n"
TWO_DIAMONDS = "graph 7 0 6\n0 1\n0 2\n1 3\n2 3\n3 4\n3 5\n4 6\n5 6\n"
NO_PATH = "graph 4 0 3\n0 1\n2 3\n"
# s and t joined through five middles: five paths, four trackers needed
STAR_EDGES = "".join(f"0 {m}\n{m} 6\n" for m in range(1, 6))
STAR, STAR_DAG = "graph 7 0 6\n" + STAR_EDGES, "dag 7 0 6\n" + STAR_EDGES
SINGLETONS = "setsystem 5 5\n0\n1\n2\n3\n4\n"
# paths 0-1-3, 0-2-3 and 0-1-2-3: no cut vertex, one component, so one rigid block
RIGID_DAG = "dag 4 0 3\n0 1\n0 2\n1 2\n1 3\n2 3\n"
# s = 2, t = 3: shortest paths 2-0-1-3 and 2-4-1-3; rule 1 deletes 5-8
RULE_1_PIN = "graph 9 2 3\n" + "".join(f"{e}\n" for e in (
    "0 1", "0 2", "0 5", "0 6", "1 3", "1 4", "1 6", "2 4", "2 5", "4 5", "4 6", "4 7",
    "5 6", "5 7", "5 8", "6 8"))


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParse:
    def test_roundtrip_kinds(self):
        for text, kind in [(DIAMOND, "graph"), (DIAMOND_DAG, "dag"),
                           (FIVE_SETS, "setsystem")]:
            got_kind, _ = parse_instance(text)
            assert got_kind == kind

    def test_malformed_edge_line(self, tmp_path, capsys):
        path = write(tmp_path, "bad.graph", "graph 3 0 2\n0 x\n")
        code, out, err = run(capsys, "solve", path, "--k", "0")
        assert code == 2
        assert "parse error line 2" in err

    def test_cyclic_dag_rejected(self, tmp_path, capsys):
        path = write(tmp_path, "cyc.dag", "dag 3 0 2\n0 1\n1 0\n")
        code, _, err = run(capsys, "solve", path, "--k", "0")
        assert code == 2 and "cycle" in err

    def test_empty_set_line(self):
        _, sys = parse_instance("setsystem 2 2\n\n0 1\n")
        assert frozenset() in sys.family

    def test_duplicate_set_rejected(self):
        with pytest.raises(Exception, match="duplicate set"):
            parse_instance("setsystem 2 2\n0\n0\n")


class TestSolve:
    def test_diamond_yes(self, tmp_path, capsys):
        path = write(tmp_path, "d.graph", DIAMOND)
        code, out, _ = run(capsys, "solve", path, "--k", "1")
        assert code == 0
        assert "result: YES" in out and "size: 1" in out

    def test_diamond_no_exit_code(self, tmp_path, capsys):
        path = write(tmp_path, "d.graph", DIAMOND)
        code, out, _ = run(capsys, "solve", path, "--k", "0")
        assert code == 1 and "result: NO" in out

    def test_five_sets_lower_bound_reason(self, tmp_path, capsys):
        path = write(tmp_path, "f.ss", FIVE_SETS)
        code, out, _ = run(capsys, "solve", path, "--k", "2")
        assert code == 1
        assert "lower bound ceil(lg 5) = 3" in out

    def test_json_output(self, tmp_path, capsys):
        path = write(tmp_path, "d.graph", DIAMOND)
        code, out, _ = run(capsys, "solve", path, "--k", "1", "--json")
        doc = json.loads(out)
        assert doc["result"] == "YES" and doc["size"] == 1

    def test_setsystem_route_on_graph(self, tmp_path, capsys):
        path = write(tmp_path, "d.graph", DIAMOND)
        code, out, _ = run(capsys, "solve", path, "--k", "1",
                           "--mode", "setsystem", "--oracle")
        assert code == 0 and "oracle: agree" in out

    @pytest.mark.parametrize("text,k", [(TWO_DIAMONDS, "1"), (NO_PATH, "0")],
                             ids=["gated-no", "no-path"])
    @pytest.mark.parametrize("mode", ["shortest", "setsystem"])
    def test_oracle_runs_after_every_graph_solve(self, tmp_path, capsys, text, k, mode):
        path = write(tmp_path, "g.graph", text)
        _, out, _ = run(capsys, "solve", path, "--k", k, "--mode", mode, "--oracle")
        assert out.endswith("\noracle: agree\n")

    def test_cap_exceeded_without_decision(self, tmp_path, capsys):
        path = write(tmp_path, "d.graph", DIAMOND)
        code, _, err = run(capsys, "solve", path, "--k", "1",
                           "--mode", "setsystem", "--cap", "1")
        assert code == 3 and "cap exceeded" in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "solve", "/nonexistent.graph", "--k", "0")
        assert code == 2

    @pytest.mark.parametrize("k,code,rest", [
        ("0", 1, "paths: 2+\nreductions: 5\nsubsets_tried: 0\n"
                 "reason: more than 2^0 paths need more than 0 trackers\n"),
        ("1", 0, "witness: 0\nsize: 1\npaths: 2\nreductions: 5\nsubsets_tried: 0\n"),
    ], ids=["no", "yes"])
    def test_graph_oracle_lists_paths_without_rule_1(self, tmp_path, capsys, k, code, rest):
        # the oracle's family comes from its own BFS and DFS on the raw graph,
        # so a defect in rule 1 makes it disagree rather than agree with itself
        path = write(tmp_path, "pin.graph", RULE_1_PIN)
        verdict = "YES" if code == 0 else "NO"
        assert run(capsys, "solve", path, "--k", k, "--oracle") == \
            (code, f"result: {verdict}\n{rest}oracle: agree\n", "")

    @pytest.mark.parametrize("kind", ["graph", "dag"])
    def test_oracle_refuses_before_listing(self, tmp_path, capsys, monkeypatch, kind):
        # 17 serial diamonds: 52 vertices and 131,072 paths the oracle must not list
        def refuse(*args, **kwargs):
            raise AssertionError("the oracle listed paths it then refused")

        monkeypatch.setattr("trackset.oracle.enumerate_all_paths", refuse)
        monkeypatch.setattr("trackset.oracle.enumerate_shortest_paths", refuse)
        text = (format_graph(serial_diamond_graph(17)) if kind == "graph"
                else format_digraph(serial_diamond_dag(17)))
        path = write(tmp_path, "big.txt", text)
        _, plain, _ = run(capsys, "solve", path, "--k", "3")
        assert run(capsys, "solve", path, "--k", "3", "--oracle") == \
            (2, plain, "oracle refuses universes larger than 20\n")

    @pytest.mark.parametrize("text,solver", [
        (DIAMOND, "trackset.shortest.solve_shortest_paths"),
        (DIAMOND_DAG, "trackset.dagtrack.solve_dag"),
    ], ids=["graph", "dag"])
    def test_oracle_rejects_a_padded_witness(self, tmp_path, capsys, monkeypatch,
                                             text, solver):
        # {0, 1} tracks the diamond, but {1} is the minimum the solver promises
        monkeypatch.setattr(solver, lambda inst, k: SolveReport("YES", witness=(0, 1)))
        path = write(tmp_path, "d.txt", text)
        code, out, err = run(capsys, "solve", path, "--k", "2", "--oracle")
        assert code == 4 and out.startswith("result: YES\nwitness: 0 1\n")
        assert "oracle: agree" not in out
        assert "InternalError: oracle disagrees with solver decision" in err

    def test_dag_solve_with_oracle(self, tmp_path, capsys):
        path = write(tmp_path, "d.dag", DIAMOND_DAG)
        code, out, _ = run(capsys, "solve", path, "--k", "1", "--oracle")
        assert code == 0 and "oracle: agree" in out

    def test_witness_is_least_over_input_ids(self, tmp_path, capsys):
        # rule 4 must keep 0, not 5, of the degree-2 chain 0-3-4-5
        path = write(tmp_path, "g.graph",
                      "graph 7 2 3\n0 3\n0 6\n2 5\n2 6\n3 4\n4 5\n")
        code, out, _ = run(capsys, "solve", path, "--k", "1")
        assert code == 0 and "witness: 0\n" in out


class TestReduce:
    def test_pendant_removed(self, tmp_path, capsys):
        g = "graph 5 0 3\n0 1\n0 2\n1 3\n2 3\n1 4\n"
        path = write(tmp_path, "p.graph", g)
        code, out, _ = run(capsys, "reduce", path)
        assert code == 0
        assert out.startswith("graph 4 0 3\n")

    def test_fixpoint_roundtrip(self, tmp_path, capsys):
        path = write(tmp_path, "d.graph", DIAMOND)
        code, out1, _ = run(capsys, "reduce", path)
        path2 = write(tmp_path, "d2.graph", out1)
        code, out2, _ = run(capsys, "reduce", path2)
        assert out1 == out2

    def test_chain_singleton_notice(self, tmp_path, capsys):
        path = write(tmp_path, "c.dag", "dag 3 0 2\n0 1\n1 2\n")
        code, out, _ = run(capsys, "reduce", path)
        assert code == 0 and "singleton" in out


NO_PATH_REPORT = ("result: YES\nwitness:\nsize: 0\npaths: 0\nreductions: 0\n"
                  "subsets_tried: 0\nreason: no s-t path; zero paths are vacuously tracked\n")
NO_PATH_JSON = ('{"paths": 0, "paths_saturated": false, "reason": "no s-t path; zero paths '
                'are vacuously tracked", "reductions": 0, "result": "YES", "size": 0, '
                '"subsets_tried": 0, "witness": []}\n')


@pytest.mark.parametrize("argv,out", [
    (["reduce"], "# no s-t path: zero paths, trivially YES\n"),
    (["count"], "0\n"),
    (["verify", "--trackers"], "tracking: true\n# no s-t path: vacuously tracked\n"),
    (["solve", "--k", "0"], NO_PATH_REPORT),
    (["solve", "--k", "0", "--json"], NO_PATH_JSON),
    (["solve", "--k", "0", "--mode", "setsystem"], NO_PATH_REPORT),
    (["solve", "--k", "0", "--mode", "setsystem", "--json"], NO_PATH_JSON),
], ids=["reduce", "count", "verify", "solve", "solve-json", "setsystem", "setsystem-json"])
def test_no_path_answers(tmp_path, capsys, argv, out):
    """t unreachable from s is an ordinary answer: zero paths, tracked by the empty set."""
    path = write(tmp_path, "nopath.graph", NO_PATH)
    assert run(capsys, argv[0], path, *argv[1:]) == (0, out, "")


def test_sparse_element_ids_solve_fast(tmp_path, capsys):
    """Two sets with ids near a million and an empty set: the core works on
    the two elements in use, so the call takes milliseconds; tables sized
    by the largest id would take about 0.25 s and 100 MB."""
    path = write(tmp_path, "sparse.sets", "setsystem 1000000 3\n999999\n999998\n\n")
    start = time.perf_counter()
    got = run(capsys, "solve", path, "--k", "2")
    elapsed = time.perf_counter() - start
    assert got == (0, "result: YES\nwitness: 999998 999999\nsize: 2\npaths: 3\n"
                      "reductions: 0\nsubsets_tried: 3\n", "")
    assert elapsed < 0.1, elapsed


# 40,000 one-id sets on ids 5 apart: masks over their union would take m^2/2
# bits, about 100 MB, so only a solve the family's size does not decide may
# build them
SPARSE_ROWS = "setsystem 200000 40000\n" + "".join(f"{5 * i}\n" for i in range(40_000))


def test_many_sparse_rows_need_no_masks(tmp_path, capsys):
    path = write(tmp_path, "rows.sets", SPARSE_ROWS)
    assert run(capsys, "count", path) == \
        (2, "", "count supports graph and dag instances only\n")
    assert run(capsys, "verify", path, "--trackers", "0", "5") == \
        (1, "tracking: false\nviolating sets: 2 3\n", "")


@pytest.mark.parametrize("text,k,out", [
    (SPARSE_ROWS, 3, "result: NO\npaths: 40000\nreductions: 0\nsubsets_tried: 0\n"
                     "reason: lower bound ceil(lg 40000) = 16 exceeds k = 3\n"),
    ("setsystem 1000000 1\n999999\n", 0,
     "result: YES\nwitness:\nsize: 0\npaths: 1\nreductions: 0\nsubsets_tried: 0\n"
     "reason: at most one set; empty tracking set suffices\n"),
    ("setsystem 3 0\n", 0,
     "result: YES\nwitness:\nsize: 0\npaths: 0\nreductions: 0\nsubsets_tried: 0\n"
     "reason: at most one set; empty tracking set suffices\n"),
], ids=["lower-bound", "one-set", "no-set"])
def test_size_gate_builds_no_masks(tmp_path, capsys, monkeypatch, text, k, out):
    """A solve that m <= 1 or ceil(lg m) > k decides never reaches the mask
    builder, on any set-system route."""
    import trackset.setsystem as setsystem

    def builder(family):
        raise AssertionError("masks built for a solve the family's size decides")

    monkeypatch.setattr(setsystem, "_union_masks", builder)
    path = write(tmp_path, "x.sets", text)
    code = 1 if out.startswith("result: NO") else 0
    assert run(capsys, "solve", path, "--k", str(k)) == (code, out, "")
    assert json.loads(run(capsys, "solve", path, "--k", str(k), "--json")[1])["reason"] == \
        out.split("reason: ")[1].strip()
    inst = parse_instance(text)[1]
    assert setsystem.solve_set_system(inst, k).to_text() + "\n" == out
    assert setsystem.solve_set_system(inst, k).witness == (None if code else ())


class TestCountVerify:
    def test_count_diamond(self, tmp_path, capsys):
        path = write(tmp_path, "d.graph", DIAMOND)
        code, out, _ = run(capsys, "count", path)
        assert code == 0 and out.strip() == "2"

    def test_count_no_path(self, tmp_path, capsys):
        path = write(tmp_path, "n.graph", "graph 4 0 3\n0 1\n2 3\n")
        code, out, _ = run(capsys, "count", path)
        assert code == 0 and out.strip() == "0"

    def test_count_serial_diamonds_dag(self, tmp_path, capsys):
        arcs = "\n".join(f"{u} {v}" for u, v in
                         [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (3, 5),
                          (4, 6), (5, 6), (6, 7), (6, 8), (7, 9), (8, 9)])
        path = write(tmp_path, "s.dag", f"dag 10 0 9\n{arcs}\n")
        code, out, _ = run(capsys, "count", path)
        assert out.strip() == "8"

    def test_count_dag_runs_kahn_once(self, tmp_path, capsys, monkeypatch):
        # the parse's cycle check finds the order that count_paths then reads
        import trackset.graph as graph
        passes = []
        real = graph._kahn
        monkeypatch.setattr(graph, "_kahn", lambda d: passes.append(d) or real(d))
        path = write(tmp_path, "s.dag", TWO_DIAMONDS.replace("graph", "dag"))
        code, out, _ = run(capsys, "count", path)
        assert (code, out, len(passes)) == (0, "4\n", 1)

    def test_verify_true(self, tmp_path, capsys):
        path = write(tmp_path, "d.graph", DIAMOND)
        code, out, _ = run(capsys, "verify", path, "--trackers", "1")
        assert code == 0 and "tracking: true" in out

    @pytest.mark.parametrize("trackers,code", [(["3"], 0), (["2"], 0), ([], 1)])
    def test_verify_tracker_at_the_last_id_of_a_pruned_dag(self, tmp_path, capsys,
                                                           trackers, code):
        # rule 2 deletes nothing, so the trackers reach the check through the identity
        path = write(tmp_path, "d.dag", "dag 4 0 1\n0 2\n0 3\n2 1\n3 1\n")
        assert run(capsys, "verify", path, "--trackers", *trackers)[0] == code

    def test_verify_false_shows_paths(self, tmp_path, capsys):
        path = write(tmp_path, "d.graph", DIAMOND)
        code, out, _ = run(capsys, "verify", path, "--trackers")
        assert code == 1
        assert "tracking: false" in out and "violating paths:" in out

    def test_verify_source_not_enough(self, tmp_path, capsys):
        path = write(tmp_path, "d.graph", DIAMOND)
        code, out, _ = run(capsys, "verify", path, "--trackers", "0")
        assert code == 1

    def test_verify_dag_oracle(self, tmp_path, capsys):
        path = write(tmp_path, "d.dag", DIAMOND_DAG)
        code, out, _ = run(capsys, "verify", path, "--trackers", "1", "--oracle")
        assert code == 0 and "oracle: agree" in out

    def test_verify_setsystem(self, tmp_path, capsys):
        path = write(tmp_path, "f.ss", FIVE_SETS)
        assert run(capsys, "verify", path, "--trackers", "0") == \
            (1, "tracking: false\nviolating sets: 0 2\n", "")
        assert run(capsys, "verify", path, "--trackers", "0", "1", "2") == \
            (0, "tracking: true\n", "")

    @pytest.mark.parametrize("trackers,code,rest", [
        (["999998"], 1, "violating sets: 0 2\n"),
        (["7", "999999"], 1, "violating sets: 1 2\n"),  # 7 is in no set
        (["5", "999998", "999999"], 0, ""),
    ], ids=["false", "outside-union", "true"])
    def test_verify_sparse_setsystem(self, tmp_path, capsys, trackers, code, rest):
        """The masks number only the three ids in use; a tracker outside
        the union meets no set and is dropped."""
        path = write(tmp_path, "sparse.ss", "setsystem 1000000 4\n999999\n999998\n\n5 999998\n")
        verdict = "true" if code == 0 else "false"
        assert run(capsys, "verify", path, "--trackers", *trackers) == \
            (code, f"tracking: {verdict}\n{rest}", "")

    @pytest.mark.parametrize("trackers,code,rest", [
        (["0", "1", "2"], 0, ""), (["0"], 1, "violating sets: 0 2\n"),
    ], ids=["true", "false"])
    def test_verify_setsystem_oracle(self, tmp_path, capsys, trackers, code, rest):
        path = write(tmp_path, "f.ss", FIVE_SETS)
        verdict = "true" if code == 0 else "false"
        assert run(capsys, "verify", path, "--oracle", "--trackers", *trackers) == \
            (code, f"oracle: agree\ntracking: {verdict}\n{rest}", "")

    @pytest.mark.parametrize("trackers,code", [(["1"], 0), ([], 1)],
                             ids=["true", "false"])
    def test_verify_graph_oracle(self, tmp_path, capsys, trackers, code):
        path = write(tmp_path, "d.graph", DIAMOND)
        got, out, _ = run(capsys, "verify", path, "--oracle", "--trackers", *trackers)
        assert got == code and out.startswith("oracle: agree\n")

    @pytest.mark.parametrize("flags,head", [([], ""), (["--oracle"], "oracle: agree\n")],
                             ids=["plain", "oracle"])
    def test_verify_graph_without_path(self, tmp_path, capsys, flags, head):
        path = write(tmp_path, "nopath.txt", NO_PATH)
        assert run(capsys, "verify", path, *flags, "--trackers") == \
            (0, head + "tracking: true\n# no s-t path: vacuously tracked\n", "")

    def test_verify_oracle_on_long_chain(self, tmp_path, capsys):
        # the oracle's path listing must not recurse once per vertex
        path = write(tmp_path, "chain.dag", CHAIN_DAG)
        code, out, _ = run(capsys, "verify", path, "--oracle", "--trackers", "1")
        assert code == 0 and out == "oracle: agree\ntracking: true\n"

    def test_verify_cap_bounds_only_the_oracle(self, tmp_path, capsys):
        path = write(tmp_path, "d.graph", DIAMOND)
        code, out, _ = run(capsys, "verify", path, "--cap", "1", "--trackers")
        assert code == 1 and "tracking: false" in out
        code, _, err = run(capsys, "verify", path, "--cap", "1", "--oracle", "--trackers")
        assert code == 3 and "cap exceeded" in err

    @pytest.mark.parametrize("text,trackers,code", [
        (DIAMOND, ["1"], 0), (DIAMOND, ["0", "3"], 1),
        (DIAMOND_DAG, ["2"], 0), (DIAMOND_DAG, [], 1),
        (TWO_DIAMONDS, ["0", "1", "4", "6"], 0),
    ], ids=["graph-true", "graph-false", "dag-true", "dag-false", "diamonds-true"])
    def test_verify_lists_no_paths(self, tmp_path, capsys, monkeypatch,
                                   text, trackers, code):
        def refuse(*args, **kwargs):
            raise AssertionError("verify listed the paths or ran a count pass")

        monkeypatch.setattr("trackset.oracle.enumerate_all_paths", refuse)
        monkeypatch.setattr("trackset.oracle.enumerate_shortest_paths", refuse)
        if not code:  # a true answer needs no topological order to count paths along
            load = cli._load

            def load_then_refuse(path):  # the parse's cycle check reads the order first
                loaded = load(path)
                monkeypatch.setattr(Digraph, "order", property(refuse))
                return loaded

            monkeypatch.setattr(cli, "_load", load_then_refuse)
        path = write(tmp_path, "x.txt", text)
        got, out, _ = run(capsys, "verify", path, "--trackers", *trackers)
        assert got == code
        if code:
            assert out.splitlines()[1:] == ["violating paths:", "  0 1 3", "  0 2 3"]


class TestGen:
    def test_gen_parses_back(self, tmp_path, capsys):
        for kind in ("graph", "dag", "setsystem", "layered"):
            code, out, _ = run(capsys, "gen", "--kind", kind, "--seed", "42",
                               "--n", "8")
            assert code == 0
            parse_instance(out)

    @pytest.mark.parametrize("argv", [
        ["--kind", "dag", "--n", "0"],
        ["--kind", "setsystem", "--n", "2", "--sets", "-1"],
        ["--kind", "graph", "--n", "20000"],
        ["--kind", "setsystem", "--n", "3", "--sets", "5", "--d", "1"],
        ["--kind", "layered", "--layers", "100", "--width", "100"],
    ], ids=["dag-empty", "negative-sets", "graph-too-large", "sets-over-d",
            "layered-too-large"])
    def test_gen_out_of_range_is_input_error(self, capsys, argv):
        code, out, err = run(capsys, "gen", *argv)
        assert code == 2 and out == "" and err

    def test_gen_deterministic(self, capsys):
        _, out1, _ = run(capsys, "gen", "--kind", "dag", "--seed", "9")
        _, out2, _ = run(capsys, "gen", "--kind", "dag", "--seed", "9")
        assert out1 == out2


class TestExitCodes:
    @pytest.mark.parametrize("text,mode", [
        (DIAMOND_DAG, "dag"), (FIVE_SETS, "setsystem"),
        (DIAMOND, "shortest"), (DIAMOND, "setsystem"), (RIGID_DAG, "dag"),
    ], ids=["dag", "setsystem", "shortest", "graph-setsystem", "rigid-dag"])
    def test_failed_self_check_exits_4(self, tmp_path, capsys, monkeypatch, text, mode):
        # the search hands back the empty set, which tracks none of the instances; the
        # diamond's DAG splits in parallel and searches nothing, so there the mask of
        # the split's witness reads as the empty set
        monkeypatch.setattr("trackset.setsystem.hitting_search",
                            lambda sets, k, lower=0: (0, 1))
        monkeypatch.setattr("trackset.dagtrack.from_mask", lambda mask: frozenset())
        path = write(tmp_path, "x.txt", text)
        code, out, err = run(capsys, "solve", path, "--k", "3", "--mode", mode)
        assert code == 4 and out == ""
        assert "InternalError" in err

    def test_unexpected_exception_exits_4(self, tmp_path, capsys, monkeypatch):
        def crash(d, k):
            raise RecursionError("maximum recursion depth exceeded")

        monkeypatch.setattr("trackset.dagtrack.solve_dag", crash)
        path = write(tmp_path, "d.dag", DIAMOND_DAG)
        code, out, _ = run(capsys, "solve", path, "--k", "1")
        assert code == 4 and out == ""

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                        reason="no cap on int digits in this interpreter")
    def test_huge_path_counts_print(self, tmp_path, capsys):
        # 14,500 serial diamonds: 2^14,500 paths, 4,365 digits, above the interpreter's
        # default cap of 4,300 on str() of an int; the 2^k gate decides k = 14,400, NO
        path = write(tmp_path, "huge.dag", format_digraph(serial_diamond_dag(14_500)))
        cap = sys.get_int_max_str_digits()
        try:
            sys.set_int_max_str_digits(0)
            count, gate = str(2 ** 14_500), str(2 ** 14_400 + 1)  # the gate counts to 2^k + 1
            sys.set_int_max_str_digits(4_300)
            code, out, err = run(capsys, "count", path)
            assert (code, out, err) == (0, count + "\n", "")
            code, out, err = run(capsys, "solve", path, "--k", "14400")
            assert (code, err) == (1, "") and len(gate) == 4_335
            assert out.splitlines()[:2] == ["result: NO", f"paths: {gate}+"]
            code, out, err = run(capsys, "solve", path, "--k", "14400", "--json")
            assert (code, err) == (1, "") and f'"paths": {gate},' in out
            assert sys.get_int_max_str_digits() == 4_300  # the caller's cap, back
            # the parse keeps the cap: an id token of 5,000 digits is no integer
            big = write(tmp_path, "big.graph", f"graph 3 0 1\n0 {'9' * 5_000}\n")
            code, out, err = run(capsys, "count", big)
            assert (code, out) == (2, "")
            assert err.startswith("parse error line 2: expected integer, got '999")
        finally:
            sys.set_int_max_str_digits(cap)

    @pytest.mark.parametrize("command", ["solve", "count"])
    def test_route_value_error_exits_4(self, tmp_path, capsys, monkeypatch, command):
        # the input was accepted: a ValueError after the parse is a fault, not bad input
        def fault(*args, **kwargs):
            raise ValueError("a route's own fault")

        monkeypatch.setattr("trackset.dagtrack.solve_dag", fault)
        monkeypatch.setattr("trackset.dagtrack.count_paths", fault)
        path = write(tmp_path, "d.dag", DIAMOND_DAG)
        code, out, err = run(capsys, command, path, *(["--k", "1"] if command == "solve" else []))
        assert code == 4 and out == ""
        assert "ValueError: a route's own fault" in err

    def test_file_that_is_not_text_exits_2(self, tmp_path, capsys):
        # a decode error is a ValueError raised before any route runs: bad input, not a fault
        path = tmp_path / "binary.graph"
        path.write_bytes(b"graph 4 0 3\n\xff\xfe\n")
        code, out, err = run(capsys, "count", str(path))
        assert (code, out) == (2, "") and err

    def test_verify_long_chain_without_enumeration(self, tmp_path, capsys):
        # a true answer lists no paths
        path = write(tmp_path, "chain.dag", CHAIN_DAG)
        code, out, _ = run(capsys, "verify", path, "--trackers", "1")
        assert code == 0 and out == "tracking: true\n"

    def test_verify_pair_check_survives_optimize(self, tmp_path):
        # the built pair is checked by code that python -O keeps, not an assert
        path = write(tmp_path, "d.dag", DIAMOND_DAG)
        script = ("import sys\n"
                  "import trackset.dagtrack as dagtrack\n"
                  "from trackset.cli import main\n"
                  "if not sys.flags.optimize:\n"
                  "    sys.exit(99)\n"
                  "dagtrack._pair_through = lambda *args: ([0, 1, 3], [0, 1, 3])\n"
                  f"sys.exit(main(['verify', {path!r}]))\n")
        src = os.path.dirname(os.path.dirname(os.path.abspath(trackset.__file__)))
        proc = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True,
                              text=True, timeout=120, env=dict(os.environ, PYTHONPATH=src))
        assert proc.returncode == 4 and proc.stdout == ""
        assert "InternalError" in proc.stderr

    @pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimize"])
    def test_rule_4_tally_fault_exits_4(self, tmp_path, flags):
        # chains 1-2 and 3 collapse to 1 and 3; with the arcs dropped by the one
        # builder of derived digraphs, the check after rule 4 (no assert, so -O keeps
        # it) must fire
        path = write(tmp_path, "d.dag", "dag 5 0 4\n0 1\n1 2\n2 4\n0 3\n3 4\n")
        script = ("import sys\n"
                  "from trackset.graph import Digraph\n"
                  "from trackset.cli import main\n"
                  f"if sys.flags.optimize != {len(flags)}:\n"
                  "    sys.exit(99)\n"
                  "real = Digraph._derived.__func__\n"
                  "Digraph._derived = classmethod(\n"
                  "    lambda cls, relab, us, vs, s, t, order:\n"
                  "    real(cls, relab, [], [], s, t, order))\n"
                  f"sys.exit(main(['reduce', {path!r}]))\n")
        src = os.path.dirname(os.path.dirname(os.path.abspath(trackset.__file__)))
        proc = subprocess.run([sys.executable, *flags, "-c", script], capture_output=True,
                              text=True, timeout=120, env=dict(os.environ, PYTHONPATH=src))
        assert proc.returncode == 4 and proc.stdout == ""
        assert ("InternalError: rule 4 left chain vertices [1, 3] off a single in- and "
                "out-arc") in proc.stderr

    @pytest.mark.parametrize("argv", [
        ["solve", "--k", "1", "--cap", "-1"],
        ["solve", "--k", "1", "--mode", "setsystem", "--cap", "-1"],
        ["count", "--cap", "-1"],
        ["verify", "--trackers", "1", "--cap", "-1"],
    ], ids=["solve", "solve-setsystem", "count", "verify"])
    def test_negative_cap_is_input_error(self, tmp_path, capsys, argv):
        path = write(tmp_path, "d.graph", DIAMOND)
        code, out, err = run(capsys, argv[0], path, *argv[1:])
        assert code == 2 and out == "" and "cap must be nonnegative" in err

    def test_setsystem_route_clamps_k_before_default_cap(self, tmp_path, capsys,
                                                         monkeypatch):
        import trackset.shortest as shortest
        caps = []
        real = shortest.count_paths

        def spy(d, cap=None):
            caps.append(cap)
            return real(d, cap)

        monkeypatch.setattr(shortest, "count_paths", spy)
        path = write(tmp_path, "d.graph", DIAMOND)
        code, out, _ = run(capsys, "solve", path, "--k", "100000",
                           "--mode", "setsystem")
        assert code == 0 and "witness: 1\n" in out
        assert caps == [2 ** 4 + 1]


class TestCollectorPause:
    """``main`` pauses the cyclic collector for the call: sound only while no
    route leaves a reference cycle, and the caller's setting must come back."""

    FILES = {"two.graph": TWO_DIAMONDS, "star.dag": STAR_DAG, "five.sets": FIVE_SETS}

    def argv(self, tmp_path, *argv):
        paths = {name: write(tmp_path, name, text) for name, text in self.FILES.items()}
        return [paths.get(a, a) for a in argv]

    @pytest.mark.parametrize("argv,code", [
        (["solve", "two.graph", "--k", "2"], 0),
        (["solve", "two.graph", "--k", "2", "--mode", "setsystem", "--oracle"], 0),
        (["solve", "star.dag", "--k", "4", "--oracle"], 0),
        (["solve", "five.sets", "--k", "3"], 0),
        (["reduce", "two.graph"], 0),
        (["count", "star.dag"], 0),
        (["verify", "two.graph", "--trackers", "1", "--oracle"], 1),
        (["solve", "/nonexistent.graph", "--k", "1"], 2),
        (["solve", "five.sets", "--k", "1", "--mode", "dag"], 2),
    ], ids=["shortest", "graph-setsystem", "dag", "setsystem", "reduce", "count",
            "verify", "missing-file", "wrong-mode"])
    def test_no_route_leaves_cyclic_garbage(self, tmp_path, capsys, argv, code):
        argv = self.argv(tmp_path, *argv)
        build_parser()  # once per process; argparse leaves its help formatters in cycles
        gc.collect()
        assert main(argv) == code
        assert gc.collect() == 0

    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    def test_collector_setting_is_restored(self, tmp_path, capsys, monkeypatch, enabled):
        # the search hands back the empty set, so a searched solve fails its self-check
        monkeypatch.setattr("trackset.setsystem.hitting_search",
                            lambda sets, k, lower=0: (0, 1))
        calls = [(["solve", "two.graph", "--k", "1"], 1), (["solve", "five.sets", "--k", "3"], 4),
                 (["count", "five.sets"], 2), (["solve", "two.graph"], SystemExit)]
        try:
            (gc.enable if enabled else gc.disable)()
            for argv, code in calls:
                argv = self.argv(tmp_path, *argv)
                if code is SystemExit:
                    with pytest.raises(SystemExit):
                        main(argv)
                else:
                    assert main(argv) == code
                assert gc.isenabled() == enabled, argv
        finally:
            gc.enable()


@pytest.mark.parametrize("text,mode", [
    (STAR, "shortest"), (STAR_DAG, "dag"), (SINGLETONS, "setsystem"), (STAR, "setsystem"),
], ids=["shortest", "dag", "setsystem", "graph-setsystem"])
def test_one_witness_check_per_searched_yes(tmp_path, capsys, monkeypatch, text, mode):
    """Each YES gets one definition-level check of its witness: the decision core's
    ``tracks`` on the set-system routes, and ``violating_pair`` on the star's DAG,
    which splits into five one-path parts and so searches nothing."""
    import trackset.dagtrack as dagtrack
    import trackset.setsystem as setsystem
    checks = []
    for module, name in ((setsystem, "tracks"), (dagtrack, "violating_pair")):
        monkeypatch.setattr(module, name, lambda family, trackers, name=name,
                            real=getattr(module, name): checks.append(name) or
                            real(family, trackers))
    path = write(tmp_path, "x.txt", text)
    split, check = (True, "violating_pair") if mode != "setsystem" else (False, "tracks")
    # k=4: YES after the search or split; k=3: NO after it; k=1: NO at a gate
    for k, code, searched, checked in [(4, 0, not split, [check]), (3, 1, not split, []),
                                       (1, 1, False, [])]:
        checks.clear()
        got, out, _ = run(capsys, "solve", path, "--k", str(k), "--mode", mode)
        assert (got, "subsets_tried: 0\n" not in out, checks) == \
            (code, searched, checked), k


# every vertex on an s-t path, so rule 2 hands it back; rules 3 and 4 then fire
KEPT_DAG = "dag 7 0 5\n0 1\n1 2\n1 3\n2 6\n6 4\n3 4\n4 5\n"
PRUNED_DAG = "dag 6 0 3\n0 1\n0 2\n1 3\n2 3\n4 1\n3 5\n"


@pytest.mark.parametrize("text", [RULE_1_PIN, TWO_DIAMONDS, KEPT_DAG, RIGID_DAG, PRUNED_DAG],
                         ids=["graph-rule-1", "graph", "dag-kept", "dag-rigid", "dag-pruned"])
def test_no_route_mutates_the_adjacency_lists(capsys, monkeypatch, text):
    """A graph owns the lists it fills: solve in every mode that takes the instance,
    count, reduce and verify, all on the one parsed object, leave them as parsed. On a
    DAG that rule 2 hands back, ``reduce_dag`` reads its ``out_adj`` and ``in_adj`` as
    its own ``out`` and ``inc``."""
    kind, inst = parse_instance(text)
    lists = (inst.adj,) if kind == "graph" else (inst.out_adj, inst.in_adj)
    before = [tuple(map(tuple, adj)) for adj in lists]
    if kind == "dag":
        assert (reduce_rule_2(inst)[0] is inst) == (text in (KEPT_DAG, RIGID_DAG))
    monkeypatch.setattr("trackset.cli._load", lambda path: (kind, inst))
    calls = [["solve", "x", "--k", k, "--mode", mode, "--oracle"] for k in "12"
             for mode in (["shortest", "setsystem"] if kind == "graph" else ["dag"])]
    calls += [["count", "x"], ["reduce", "x"], ["verify", "x", "--oracle", "--trackers"],
              ["verify", "x", "--oracle", "--trackers", *map(str, range(inst.n))]]
    for argv in calls:
        assert main(argv) in (0, 1), argv
    assert [tuple(map(tuple, adj)) for adj in lists] == before


@pytest.mark.parametrize("kind", ["graph", "dag"])
def test_reduce_formats_after_the_parsed_instance_is_gone(tmp_path, capsys, monkeypatch,
                                                           kind):
    """``reduce`` drops the parsed instance before it builds and formats the reduced one,
    so the traced memory when the formatter is entered is below what the parsed instance
    alone retains. Slotted graphs take no weakref, so the memory tells it."""
    text = sparse_backbone_text(kind, 3_000)
    path = write(tmp_path, f"backbone.{kind}", text)
    tracemalloc.start()
    try:
        _, inst = parse_instance(text)
        retained = tracemalloc.get_traced_memory()[0]
        del inst
    finally:
        tracemalloc.stop()
    name = "format_graph" if kind == "graph" else "format_digraph"
    real, entered = getattr(cli, name), []

    def spy(g):
        entered.append(tracemalloc.get_traced_memory()[0])
        return real(g)

    monkeypatch.setattr(cli, name, spy)
    build_parser()  # built on a process's first call, and kept
    tracemalloc.start()
    try:
        assert main(["reduce", path]) == 0
    finally:
        tracemalloc.stop()
    assert len(entered) == 1 and entered[0] < retained


def test_parser_is_built_on_the_first_call_only():
    src = os.path.dirname(os.path.dirname(os.path.abspath(trackset.__file__)))
    script = ("import io, contextlib\n"
              "import trackset.cli as cli\n"
              "before = cli.build_parser.cache_info().currsize\n"
              "with contextlib.redirect_stdout(io.StringIO()):\n"
              "    cli.main(['gen', '--kind', 'dag'])\n"
              "    cli.main(['gen', '--kind=graph'])\n"  # declined: argparse reads it
              "info = cli.build_parser.cache_info()\n"
              "print(before, info.misses, info.hits)\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=120, env=dict(os.environ, PYTHONPATH=src))
    assert proc.stdout == "0 1 1\n"


# The plain-argv reader against argparse, from the parser's own table: each
# command's options and positionals, with values their types and choices accept.
_SUBPARSERS = next(a for a in build_parser()._actions if a.nargs == argparse.PARSER).choices
ACTIONS = {c: [a for a in p._actions if a.default is not argparse.SUPPRESS]
           for c, p in _SUBPARSERS.items()}
OPTIONS = sorted({s for acts in ACTIONS.values() for a in acts for s in a.option_strings})
CHOICES = sorted({c for acts in ACTIONS.values() for a in acts if a.choices for c in a.choices})
# values for any position, several of which no option accepts
STRAYS = ["x", "", "1.5", " 2", "+4", "-1", "-", "a b", "in.txt", "7"]


def _tokens(act):
    """One use of ``act``: its option string, if any, and values, mostly ones it accepts."""
    value = (st.sampled_from(sorted(act.choices)) if act.choices else
             st.integers(0, 30).map(str) if act.type is int else st.just("in.txt"))
    value = st.one_of(value, value, value, st.sampled_from(STRAYS + CHOICES))
    low, high = {0: (0, 0), None: (1, 1), "*": (0, 4)}[act.nargs]
    return st.lists(value, min_size=low, max_size=high).map(
        lambda values: [*act.option_strings[-1:], *values])


@st.composite
def argvs(draw):
    command = draw(st.sampled_from([*ACTIONS, "bogus", "sol", "-h", "--help"]))
    acts = ACTIONS.get(command, [])
    uses = draw(st.lists(st.sampled_from(acts), max_size=4)) if acts else []
    if draw(st.integers(0, 3)):  # mostly: every required one, and no option twice
        uses = [a for a in acts if a.required] + [a for a in dict.fromkeys(uses)
                                                   if not a.required]
    unusual = st.one_of(
        st.sampled_from(OPTIONS).map(lambda o: [o[:3]]),  # abbreviated, or another command's
        st.tuples(st.sampled_from(OPTIONS), st.sampled_from(STRAYS + CHOICES)).map(
            lambda t: [f"{t[0]}={t[1]}"]),
        st.sampled_from([["--"], ["-h"], ["--help"]]),
        st.lists(st.sampled_from(STRAYS + CHOICES), min_size=1, max_size=6))  # 1-6 bare tokens
    chunks = [draw(_tokens(a)) for a in uses] + draw(st.lists(unusual, max_size=2))
    return [command, *(t for c in draw(st.permutations(chunks)) for t in c)]


DECLINED = [[], ["bogus", "in.txt"], ["solve", "in.txt", "--k", "1", "-h"],
            ["verify", "in.txt", "--tr", "1"], ["solve", "in.txt", "--k=2"],
            ["solve", "--k", "2", "--", "in.txt"], ["count", "in.txt", "--cap", "-1"],
            ["solve", "in.txt", "--k", "1", "--k", "2"], ["solve", "in.txt", "--k", "two"],
            ["solve", "in.txt", "--k", "1", "--mode", "fast"], ["count"],
            ["count", "in.txt", "extra"], ["solve", "in.txt", "--k"]]
BENCH_SHAPES = [["solve", "in.txt", "--k", "3", "--mode", "dag"], ["solve", "in.txt", "--k", "3"],
                ["count", "in.txt"], ["reduce", "in.txt"], ["verify", "in.txt", "--trackers"],
                ["verify", "in.txt", "--trackers", *map(str, range(80))]]


def _argparse_reads(argv):
    """``vars`` of what argparse reads from ``argv``, or None where it exits."""
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return vars(build_parser().parse_args(argv))
    except SystemExit:
        return None


@settings(max_examples=600, deadline=None)
@given(argvs())
@example(DECLINED[0]).via("no argv")
@example(DECLINED[1]).via("unknown command")
@example(DECLINED[2]).via("-h")
@example(DECLINED[3]).via("abbreviation")
@example(DECLINED[4]).via("= form")
@example(DECLINED[5]).via("--")
@example(DECLINED[6]).via("negative number")
@example(DECLINED[7]).via("repeated option")
@example(DECLINED[8]).via("int() rejects")
@example(DECLINED[9]).via("choices reject")
@example(DECLINED[10]).via("missing positional")
@example(DECLINED[11]).via("extra positional")
@example(DECLINED[12]).via("option without its value")
def test_plain_reader_matches_argparse(argv):
    got = _plain_args(build_parser(), argv)
    assert got is None or vars(got) == _argparse_reads(argv)


@pytest.mark.parametrize("argv", DECLINED)
def test_plain_reader_declines(argv):
    assert _plain_args(build_parser(), argv) is None


@pytest.mark.parametrize("argv", BENCH_SHAPES,
                         ids=["solve-mode", "solve", "count", "reduce", "verify-0", "verify-80"])
def test_plain_reader_takes_every_bench_shape(argv):
    got = _plain_args(build_parser(), argv)
    assert got is not None and vars(got) == _argparse_reads(argv)


@pytest.mark.parametrize("argv", [["solve", "d.graph"], ["bogus", "d.graph"]],
                         ids=["no-k", "unknown-command"])
def test_usage_errors_come_from_argparse(capsys, argv):
    with pytest.raises(SystemExit) as expected:
        build_parser().parse_args(argv)
    usage = capsys.readouterr()
    with pytest.raises(SystemExit) as got:
        main(argv)
    assert got.value.code == expected.value.code == 2
    assert capsys.readouterr() == usage and usage.out == "" and "usage: trackset" in usage.err


@pytest.mark.parametrize("argv,plain", [
    (["--k=-1"], None),
    (["--k=1", "--mode=dag"], ["--k", "1", "--mode", "dag"]),
    (["--tr", "1", "--trackers", "2"], ["--trackers", "2"]),
    (["--trackers", "1", "--cap", "-1"], None),
], ids=["k-negative", "equals", "abbreviated-then-repeated", "cap-negative"])
def test_argparse_spellings_read_as_before(tmp_path, capsys, argv, plain):
    path = write(tmp_path, "d.dag", DIAMOND_DAG)
    command = "verify" if "--trackers" in argv else "solve"
    got = run(capsys, command, path, *argv)
    if plain is None:  # argparse reads the negative value; main refuses it
        name = "k" if command == "solve" else "cap"
        assert got == (2, "", f"{name} must be nonnegative\n")
    else:
        assert got == run(capsys, command, path, *plain) and got[0] in (0, 1)


def _text_mode_load(path):
    """``cli._load`` as a text-mode read: newlines translated, the locale's encoding."""
    with open(path) as f:
        return parse_instance(f.read())


# file contents that the byte read and a text-mode read must hand on alike; None is a
# directory at the path, and a missing key no file at all
LOADED = {
    "crlf": DIAMOND_DAG.replace("\n", "\r\n").encode(),
    "lone-cr": TWO_DIAMONDS.replace("\n", "\r").encode(),
    "crlf-error": b"dag 4 0 3\r\n0 1\r\n\r\n0 x\r\n",
    "vt-ff-ls": "graph 4 0 3\v0 1\f0 2\u20281 3\n2 3\n".encode(),
    "utf8-comment": "# the diamond, über ∅\n".encode() + DIAMOND.encode(),
    "unended": FIVE_SETS.rstrip("\n").encode(),
    "empty": b"",
    "undecodable": b"dag 2 0 1\n0 1\n# \xff\n",
    "directory": None,
}


@pytest.mark.parametrize("argv", [["solve", "--k", "1"], ["reduce"]], ids=["solve", "reduce"])
@pytest.mark.parametrize("name", [*LOADED, "missing"])
def test_byte_read_matches_a_text_mode_read(tmp_path, capsys, monkeypatch, name, argv):
    path = tmp_path / name
    if name == "directory":
        path.mkdir()
    elif name in LOADED:
        path.write_bytes(LOADED[name])
    argv = [argv[0], str(path), *argv[1:]]
    got = run(capsys, *argv)
    monkeypatch.setattr(cli, "_load", _text_mode_load)
    assert got == run(capsys, *argv)
    if name in ("undecodable", "directory", "missing"):
        assert got[:2] == (2, "") and got[2]


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes here")
def test_fifo_is_read_to_eof(tmp_path, capsys):
    d = 3_000  # about 80 KB, more than a pipe holds, written in two parts
    text = f"dag {3 * d + 1} 0 {3 * d}\n" + "".join(
        f"{3 * i} {m}\n{m} {3 * i + 3}\n" for i in range(d) for m in (3 * i + 1, 3 * i + 2))
    path = tmp_path / "in.fifo"
    os.mkfifo(path)

    def feed():
        with open(path, "w") as f:
            f.write(text[:len(text) // 2])
            f.flush()
            time.sleep(0.05)
            f.write(text[len(text) // 2:])

    writer = threading.Thread(target=feed, daemon=True)
    writer.start()
    try:
        got = run(capsys, "count", str(path))
    finally:
        writer.join(timeout=30)
    assert got == (0, f"{2 ** d}\n", "")
