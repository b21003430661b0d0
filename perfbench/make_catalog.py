"""Rebuild catalog.json: the small instances whose minimum tracking-set size
the benchmark cannot know by construction.

    python3 perfbench/make_catalog.py        # from the repository root; minutes

Each minimum comes from the trackset brute-force oracle (universe <= 20), so
it is exact for every later version of the solvers. Layered graphs are kept
when their DAG subset scan at k = minimum - 1 stays small (a structural
bound, independent of the machine); set systems are kept when the seed
solver decides both k = minimum and k = minimum - 1 in under 0.4 s each on
the machine that builds the catalog, so one call never dominates a run.
"""

from __future__ import annotations

import json
import os
import random
import sys
import time
from math import comb

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from trackset import generate, oracle  # noqa: E402
from trackset.graph import Digraph  # noqa: E402
from trackset.setsystem import solve_tracking_set  # noqa: E402

from corpus import Inst, orient  # noqa: E402

LAYERED = 24
SETSYSTEMS = 20
MAX_SCAN_WORK = 1_500_000    # paths x subsets of size < minimum
MAX_SOLVE_S = 0.4


def layered_entries():
    out = []
    seed = 0
    while len(out) < LAYERED:
        rng = random.Random(seed)
        layers, width = rng.randint(3, 6), rng.randint(2, 4)
        g = generate.random_layered_graph(rng, layers, width)
        seed += 1
        if g.n > 18:
            continue
        dag = orient(Inst("graph", g.n, g.s, g.t, list(g.edges)))
        paths = oracle.enumerate_all_paths(Digraph(dag.n, dag.edges, dag.s, dag.t))
        lower = (len(paths) - 1).bit_length()    # ceil(lg paths) trackers at least
        if len(paths) * sum(comb(g.n, i) for i in range(lower)) > MAX_SCAN_WORK:
            continue
        minimum = oracle.brute_min_tracking(paths, g.n, max_k=9)
        if minimum is None or minimum < 5:
            continue
        work = len(paths) * sum(comb(g.n, i) for i in range(minimum))
        if work > MAX_SCAN_WORK:
            continue
        out.append({"seed": seed - 1, "layers": layers, "width": width,
                    "n": g.n, "s": g.s, "t": g.t, "edges": [list(e) for e in g.edges],
                    "paths": len(paths), "min": minimum})
        print("layered", out[-1]["seed"], g.n, len(paths), minimum, flush=True)
    return out


def setsystem_entries():
    out = []
    seed = 0
    while len(out) < SETSYSTEMS:
        rng = random.Random(seed)
        universe, m = rng.randint(14, 18), rng.randint(30, 48)
        sys_ = generate.random_set_system(rng, universe, m)
        seed += 1
        minimum = oracle.brute_min_tracking(sys_.family, universe)
        times = []
        for k in (minimum, minimum - 1):
            t0 = time.perf_counter()
            solve_tracking_set(sys_, k)
            times.append(time.perf_counter() - t0)
        if max(times) > MAX_SOLVE_S:
            continue
        out.append({"seed": seed - 1, "n": universe,
                    "family": [sorted(f) for f in sys_.family], "min": minimum,
                    "seed_ms": [round(t * 1000, 1) for t in times]})
        print("setsystem", out[-1]["seed"], universe, m, minimum, out[-1]["seed_ms"], flush=True)
    return out


def main():
    catalog = {"layered": layered_entries(), "setsystems": setsystem_entries()}
    with open(os.path.join(HERE, "catalog.json"), "w") as f:
        json.dump(catalog, f, separators=(",", ":"))
        f.write("\n")


if __name__ == "__main__":
    main()
