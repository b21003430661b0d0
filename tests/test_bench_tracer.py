"""The benchmark's tracer still wraps every function it names.

``perfbench/tracing.py`` looks each traced function up by name in its home
module, so renaming or deleting one breaks every traced benchmark run. This
test only reads ``perfbench/``: it installs the tracer over the same modules
``perfbench/run.py`` imports, runs one call, and uninstalls it again.
"""

import importlib
import os
import pkgutil
import sys

import pytest

import trackset

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    monkeypatch.delitem(sys.modules, "tracing", raising=False)
    return importlib.import_module("tracing")


def test_tracer_installs_and_uninstalls(tracing, tmp_path, capsys):
    mods = {name: importlib.import_module(f"trackset.{name}")
            for _, name, _ in pkgutil.iter_modules(trackset.__path__)}
    for span, (home, attr, _, _) in tracing.TARGETS.items():
        assert callable(getattr(mods[home], attr, None)), span
    before = {mod: dict(vars(mod)) for mod in [trackset, *mods.values()]}
    path = tmp_path / "nopath.graph"
    path.write_text("graph 4 0 3\n0 1\n2 3\n")
    tracer = tracing.Tracer()
    try:
        tracer.install()
        for span, (home, attr, _, _) in tracing.TARGETS.items():
            assert getattr(mods[home], attr) is not before[mods[home]][attr], span
        # rule 1 answers "no path" with None, which its counter hook skips
        assert tracer.root(0, mods["cli"].main, ["count", str(path)]) == 0
    finally:
        tracer.uninstall()
    assert capsys.readouterr().out == "0\n"
    counters = tracer.counters["shortest.reduce_rule_1"]
    assert (counters["calls"], counters["vertices_removed"]) == (1, 0)
    for mod, names in before.items():
        assert vars(mod).keys() == names.keys(), mod.__name__
        assert all(getattr(mod, key) is val for key, val in names.items()), mod.__name__


def test_rule_1_counters_on_a_graph_it_prunes(tracing, tmp_path, capsys):
    """The rule-1 hook reads the pruned vertex count off rule 1's result, so a
    traced call on a graph that rule 1 prunes fails if that result changes shape."""
    cli = importlib.import_module("trackset.cli")
    path = tmp_path / "pendant.graph"  # a diamond 0-1-3, 0-2-3 with 4 hanging off 1
    path.write_text("graph 5 0 3\n0 1\n0 2\n1 3\n2 3\n1 4\n")
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert tracer.root(0, cli.main, ["solve", str(path), "--k", "1"]) == 0
        assert tracer.root(1, cli.main, ["count", str(path)]) == 0
    finally:
        tracer.uninstall()
    out = capsys.readouterr().out
    assert out.startswith("result: YES\nwitness: 1\n") and out.endswith("\n2\n")
    counters = tracer.counters["shortest.reduce_rule_1"]
    assert (counters["calls"], counters["vertices_removed"]) == (2, 2)


def test_hitting_reduction_counters(tracing):
    """The hook of ``reduce_to_hitting`` reads ``.family`` off its argument and its
    result, so a traced reduction and search over a small family fail if either
    function changes name or shape. Of the three differences {1}, {2} and {1, 2} of
    {}, {1} and {1, 2}, only the first two are minimal."""
    setsystem = importlib.import_module("trackset.setsystem")
    sys_ = setsystem.SetSystem(3, [set(), {1}, {1, 2}])

    def reduce_and_solve(_):
        h = setsystem.reduce_to_hitting(sys_)
        return h.family, [setsystem.solve_hitting(h, k) for k in (2, 1)]

    tracer = tracing.Tracer()
    try:
        tracer.install()
        family, found = tracer.root(0, reduce_and_solve, [])
    finally:
        tracer.uninstall()
    assert family == (frozenset({1}), frozenset({2}))
    assert found == [frozenset({1, 2}), None]
    reduce, solve = (tracer.counters[f"setsystem.{name}"]
                     for name in ("reduce_to_hitting", "solve_hitting"))
    assert (reduce["calls"], reduce["pairs_in"], reduce["sets_out"]) == (1, 3, 2)
    assert solve["calls"] == 2
