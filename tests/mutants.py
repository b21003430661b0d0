"""Hand-written mutants of ``src/trackset``, each run against the tier-1 tests.

Each entry of ``MUTANTS`` is (file, old text, new text, what it breaks), or, for
an expected survivor, (file, old text, new text, what it changes, why no result
can change): such an entry prints its one-line argument and does not fail the
run. The old text must occur exactly once in its file, so a refactor that moves
the code stops this script instead of leaving a mutant that changes nothing. For each
mutant the repository is copied to a temporary directory, the one replacement
is made there, and tier-1 runs on the copy with ``-x`` and a fixed Hypothesis
seed: a failing run kills the mutant. The unchanged copy runs first and must
pass, so a broken environment cannot pass for killed mutants.

Usage, from any directory (stdlib only; pytest does not collect this file):

    python tests/mutants.py

The exit code is 1 if a mutant not marked as a survivor survives, else 0.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

MUTANTS = [
    ("src/trackset/graph.py",
     "keys = [index[u] * n + index[v] for u, v in arcs]",
     "keys = [index[v] * n + index[u] for u, v in arcs]",
     "the one builder of derived digraphs turns every arc it renumbers around"),
    ("src/trackset/graph.py",
     "order = tuple(filter(partial(is_not, None), map(index.get, order)))",
     "order = tuple(map(index.get, order))",
     "a derived digraph's inherited order keeps the ids its rule deleted, as None"),
    ("src/trackset/graph.py",
     "return frozenset(filter(partial(is_not, None), map(self.index.get, vertices)))",
     "return frozenset(map(self.index.get, vertices))",
     "from_original keeps the ids that the reduction did not keep, as None"),
    ("src/trackset/graph.py",
     "if len(self.index) != len(self.to_original):",
     "if False:",
     "a relabeling that maps two reduced ids to one original id is accepted"),
    ("src/trackset/graph.py",
     "in_adj[v].append(u)",
     "in_adj[v].append(v)",
     "a digraph's fill appends each arc's head, not its tail, to the head's in-list"),
    ("src/trackset/graph.py",
     "enumerate(self.out_adj) for v in a]",
     "enumerate(self.out_adj) for v in reversed(a)]",
     "a digraph's arcs come back with each tail's heads in descending order"),
    ("src/trackset/graph.py",
     "for v in a if u < v]",
     "for v in a]",
     "a graph's edges come back twice, once from each end's list"),
    ("src/trackset/dagtrack.py",
     "if d.in_adj.count([]) == 1 == d.out_adj.count([])",
     "if d.in_adj.count(()) == 1 == d.out_adj.count(())",
     "rule 2's degree test counts empty tuples among lists, so it never fires"),
    ("src/trackset/dagtrack.py",
     "a if all(map(on.__getitem__, a)) else",
     "a if any(map(on.__getitem__, a)) else",
     "rule 2 reuses a list that still holds a vertex on no s-t path"),
    ("src/trackset/dagtrack.py",
     "if on[v] and v != s)",
     "if on[v])",
     "rule 2 keeps an arc into s, which only a cycle puts between vertices on s-t paths"),
    ("src/trackset/dagtrack.py",
     "self._base, self.build = self.build(), None",
     "self._base = self.build()",
     "a reduced DAG keeps its builder, and what it holds of the input, after the build"),
    ("src/trackset/shortest.py",
     "reversed(walk))), relab",
     "walk)), relab",
     "rule 1's DAG inherits its walk from t, by descending level, as its order"),
    ("src/trackset/dagtrack.py",
     "[[0, 1 << inner[i]] for i in cuts]",
     "[[0, None] for i in cuts]",
     "a cut vertex leaf has no hit, so a series block's hit never takes a cut vertex"),
    ("src/trackset/dagtrack.py",
     "[[0, None]] * direct",
     "[[0, 0]] * direct",
     "the arc s-t leaf has the empty hit, as if a tracker met its path"),
    ("src/trackset/dagtrack.py",
     "[[0, None]] * direct",
     "[]",
     "a parallel split drops the arc s-t leaf"),
    ("src/trackset/dagtrack.py",
     "missing == (part[a] is None)",
     "missing == 0",
     "the one-part union never uses a part whose entry a is None"),
    ("src/trackset/dagtrack.py",
     "union & ~(part[a] or 0) | part[b]",
     "union | part[b]",
     "the one-part union keeps that part's entry a as well as its b"),
    ("src/trackset/dagtrack.py",
     "hit, tr = _combine(parts, 1, 0)",
     "tr, hit = _combine(parts, 0, 1)",
     "a parallel block combines its parts by the series rule"),
    ("src/trackset/dagtrack.py",
     "tr, hit = _combine(parts, 0, 1)",
     "hit, tr = _combine(parts, 1, 0)",
     "a series block combines its parts by the parallel rule"),
    ("src/trackset/dagtrack.py",
     "return None if missing else union, best",
     "return union, best",
     "the union of every part's entry a ignores a part whose entry is None"),
    ("src/trackset/dagtrack.py",
     "[masks, masks + [0]]",
     "[masks, masks]",
     "a rigid block's hit is its tr: the empty mask is not added"),
    ("src/trackset/dagtrack.py",
     "for u in d.in_adj[v] for m in ends[u]]",
     "for u in d.in_adj[v][1:] for m in ends[u]]",
     "the path lister skips each vertex's least in-neighbour"),
    ("src/trackset/dagtrack.py",
     "(p := q // (fwd[s] * bwd[t]))",
     "(p := q // fwd[s])",
     "a rigid block's listed paths are compared with p b(t), not its p paths"),
    ("src/trackset/dagtrack.py",
     "node[3].append([0, 1 << comp[0]])",
     "node[3].append([1 << comp[0], 1 << comp[0]])",
     "a one-vertex leaf part of a parallel split has tr {v}, not {}"),
    ("src/trackset/dagtrack.py",
     "for j, v in enumerate(ids) if found >> j & 1",
     "for j, v in enumerate(inner) if found >> j & 1",
     "a rigid block maps the core's bits back through its topological inner list"),
    ("src/trackset/dagtrack.py",
     "if inc[head][0] not in inner and (z := out[head][0]) in inner:",
     "if inc[head][0] not in inner and False:",
     "rule 4 merges no chain, as if every chain head were alone"),
    ("src/trackset/dagtrack.py",
     "if x in inner and not len(reduced.in_adj[i])",
     "if x in least and not len(reduced.in_adj[i])",
     "rule 4's check skips the one-vertex chains, which have no map entry"),
    ("src/trackset/dagtrack.py",
     "(keep if on[s] else sorted((s, t)))",
     "keep",
     "rule 2 keeps no s when t is out of its reach"),
    ("src/trackset/setsystem.py",
     "if f & c == c:",
     "if f & c != c:",
     "the pairwise filter keeps a difference only if it contains every kept set"),
    ("src/trackset/setsystem.py",
     "if f & c == c:",
     "if f & c == f:",
     "the pairwise filter tests the candidate inside a kept set, so it keeps supersets"),
    ("src/trackset/cli.py",
     "_argv_tables(parser).get(argv[0])",
     "_argv_tables(parser).get(\"solve\")",
     "the one-pass reader reads every command with the solve table"),
    ("src/trackset/setsystem.py",
     "lower=max(lower, tracking_lower_bound(len(masks)))",
     "lower=lower",
     "the core's search starts below ceil(lg m)"),
    ("src/trackset/setsystem.py",
     "if need > budget:",
     "if need > budget + 1:",
     "the packing prune never fires, as the packing loop stops at budget + 1"),
    ("src/trackset/setsystem.py",
     "if left != unhit and (budget > 1 or not left):",
     "if left != unhit:",
     "the last pick need not hit every unhit set"),
    ("src/trackset/setsystem.py",
     "diffs = minimal_differences([to_mask(s) for s in sys.family])",
     "diffs = sorted(set(starmap(xor, combinations([to_mask(s) for s in sys.family], 2))))",
     "the reduction to hitting set keeps every difference, not just the minimal ones"),
    ("src/trackset/dagtrack.py",
     "while s != t and len(out[s]) == 1:",
     "if s != t and len(out[s]) == 1:",
     "rule 3 walks s forward one step at most"),
    ("src/trackset/dagtrack.py",
     "while t != s and len(inc[t]) == 1:",
     "while t != s and len(inc[t]) == 1 and len(out[s]) != 1:",
     "rule 3's second walk also requires s's out-degree to differ from 1",
     "the first walk stops at s == t or at an out-degree other than 1, and the second "
     "walk moves only t"),
    ("src/trackset/dagtrack.py",
     "least.update(dict.fromkeys(chain, min(chain)))",
     "least.update(dict.fromkeys(chain, max(chain)))",
     "rule 4 maps each chain to its greatest id"),
    ("src/trackset/dagtrack.py",
     "for u in sorted(trackers | {d.s}):",
     "for u in sorted(trackers):",
     "violating_pair starts no walk at s"),
    ("src/trackset/dagtrack.py",
     "for v in sorted(trackers | {d.t}) if counts[v] == 2",
     "for v in sorted(trackers) if counts[v] == 2",
     "violating_pair looks for two u-paths at the trackers but not at t"),
    ("src/trackset/dagtrack.py",
     "if n > 5 * cap:",
     "if n > 4 * cap:",
     "the n/5 gate answers NO from n > 4 * 2^k"),
    ("src/trackset/shortest.py",
     "Digraph._derived(relab, zip(us, vs),",
     "Digraph._derived(relab, zip(vs, us),",
     "rule 1 orients every arc towards s"),
    ("src/trackset/cli.py",
     "traceback.print_exc(file=_sys.stderr)\n            return 4",
     "traceback.print_exc(file=_sys.stderr)\n            return 1",
     "a crash exits 1, as a NO does"),
]

SEED = 1  # Hypothesis seed of every tier-1 run
TIMEOUT = 900  # seconds per tier-1 run; a hang fails tier-1 as well

IGNORE = shutil.ignore_patterns(".git", ".hypothesis", ".pytest_cache", "__pycache__",
                                "*.egg-info", "build")


def tier_1_fails(tree: str) -> bool:
    # no run replays the examples that an earlier mutant's run saved
    shutil.rmtree(os.path.join(tree, ".hypothesis"), ignore_errors=True)
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
           f"--hypothesis-seed={SEED}"]
    try:
        return subprocess.run(cmd, cwd=tree, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL, timeout=TIMEOUT).returncode != 0
    except subprocess.TimeoutExpired:
        return True


def main() -> int:
    for file, old, _, what, *_ in MUTANTS:
        with open(os.path.join(ROOT, file)) as f:
            if (count := f.read().count(old)) != 1:
                sys.exit(f"{file}: the old text of {what!r} occurs {count} times, not once")
    with tempfile.TemporaryDirectory() as tmp:
        tree = os.path.join(tmp, "repo")
        shutil.copytree(ROOT, tree, ignore=IGNORE)
        if tier_1_fails(tree):
            sys.exit("tier-1 fails on the unchanged copy: no mutant was run")
        killed_count = survivors = 0
        for file, old, new, what, *why in MUTANTS:
            path = os.path.join(tree, file)
            with open(path) as f:
                text = f.read()
            with open(path, "w") as f:
                f.write(text.replace(old, new))
            start = time.monotonic()
            killed = tier_1_fails(tree)
            with open(path, "w") as f:
                f.write(text)
            killed_count += killed
            survivors += not killed and not why
            status = "killed" if killed else "survived, as expected" if why else "SURVIVED"
            print(f"{status}  {time.monotonic() - start:5.1f} s  {file}: {what}"
                  + "".join(f": {line}" for line in why), flush=True)
    print(f"{killed_count} of {len(MUTANTS)} mutants killed, "
          f"{len(MUTANTS) - killed_count - survivors} survived as expected")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
