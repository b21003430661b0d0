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
