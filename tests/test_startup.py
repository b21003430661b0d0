"""What a cold ``trackset`` process loads before and while its command runs.

Each test starts a fresh ``python -S`` (no site hooks, which preload modules on
some installs). The baseline is what any argparse/json front end loads anyway:
argparse, json and gc (built in, so importing it only binds the name), plus the
modules argparse loads lazily while it builds a parser. Past that, importing
``trackset.cli`` and running every command but ``gen`` must load ``__future__``
and every trackset module except ``trackset.generate``, and nothing else: no
solver module waits for the first call, and no module a run does not use
(``dataclasses``, ``inspect``, ``typing``, ``random``, ``traceback``) is loaded.
The tests assert on module names, never on times.
"""

import json
import os
import subprocess
import sys

import trackset

SRC = os.path.dirname(os.path.dirname(os.path.abspath(trackset.__file__)))
PACKAGE = sorted({"trackset"} | {"trackset." + f[:-3] for f in os.listdir(
    os.path.dirname(trackset.__file__)) if f.endswith(".py") and f != "__init__.py"})

INSTANCES = {
    "g.graph": "graph 7 0 6\n0 1\n0 2\n1 3\n2 3\n3 4\n3 5\n4 6\n5 6\n",
    "d.dag": "dag 5 0 4\n0 1\n1 2\n2 4\n0 3\n3 4\n",
    "s.sets": "setsystem 3 5\n\n0\n1\n2\n0 1\n",
}

# every command and mode but gen, on instances small enough for --oracle, with the
# exit code each run gives: 0 and 1 are answers, 3 a saturated count
RUNS = [
    (0, ["solve", "g.graph", "--k", "2"]),
    (1, ["solve", "g.graph", "--k", "1", "--mode", "setsystem", "--json"]),
    (0, ["solve", "d.dag", "--k", "1", "--oracle"]),
    (0, ["solve", "s.sets", "--k", "3", "--oracle"]),
    (0, ["count", "g.graph"]),
    (3, ["count", "d.dag", "--cap", "1"]),
    (0, ["reduce", "g.graph"]),
    (0, ["reduce", "d.dag"]),
    (1, ["verify", "g.graph", "--trackers", "1"]),
    (0, ["verify", "d.dag", "--trackers", "1", "3", "--oracle"]),
    (1, ["verify", "s.sets", "--trackers", "0", "1"]),
]

PRELUDE = """\
import json, sys
sys.path.insert(0, sys.argv[1])
import argparse, gc
parser = argparse.ArgumentParser(prog="baseline")
parser.add_subparsers().add_parser("run").add_argument("--n", type=int)
parser.parse_args(["run", "--n", "1"])
before = set(sys.modules)
from trackset.cli import main
"""


def cold_run(tmp_path, body):
    """Run PRELUDE then ``body`` in a fresh ``python -S`` in ``tmp_path``; ``body``
    leaves a JSON-able ``result``, which comes back with the process."""
    for name, text in INSTANCES.items():
        (tmp_path / name).write_text(text)
    out = tmp_path / "result.json"
    script = PRELUDE + body + "with open(sys.argv[2], 'w') as f:\n    json.dump(result, f)\n"
    proc = subprocess.run([sys.executable, "-S", "-c", script, SRC, str(out)],
                          capture_output=True, text=True, timeout=120, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    return json.loads(out.read_text()), proc


def test_commands_load_the_package_and_nothing_more(tmp_path):
    # the set at import equals the set after every run: nothing waits for a first call
    body = ("at_import = sorted(set(sys.modules) - before)\n"
            f"codes = [main(argv) for argv in {[argv for _, argv in RUNS]!r}]\n"
            "result = [codes, at_import, sorted(set(sys.modules) - before)]\n")
    (codes, at_import, after_runs), _ = cold_run(tmp_path, body)
    assert codes == [code for code, _ in RUNS]
    for loaded in map(set, (at_import, after_runs)):
        assert not loaded & {"dataclasses", "inspect", "typing", "random", "traceback"}
        assert loaded == {"__future__"} | set(PACKAGE) - {"trackset.generate"}


def test_gen_loads_the_generators(tmp_path):
    body = ("code = main(['gen', '--kind', 'dag', '--seed', '1', '--n', '6'])\n"
            "result = [code, 'trackset.generate' in sys.modules, 'random' in sys.modules]\n")
    result, proc = cold_run(tmp_path, body)
    assert result == [0, True, True]
    assert proc.stdout.startswith("dag 6 ")


def test_crash_exits_4_with_its_traceback(tmp_path):
    body = ("import trackset.dagtrack as dagtrack\n"
            "def crash(d, k):\n"
            "    raise RuntimeError('injected crash')\n"
            "dagtrack.solve_dag = crash\n"
            "result = [main(['solve', 'd.dag', '--k', '1']), 'traceback' in sys.modules]\n")
    result, proc = cold_run(tmp_path, body)
    assert result == [4, True]
    assert proc.stdout == ""
    assert "Traceback (most recent call last)" in proc.stderr
    assert "RuntimeError: injected crash" in proc.stderr
