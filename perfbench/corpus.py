"""Seeded instance populations for the benchmark workloads.

Every workload owns a fixed population of calls, numbered 0..N-1. Call i is
built only from its index (its random generator is seeded with
"<workload>/<i>"), so its instance text, argv, expected verdict and golden
stdout digest never change. The run seed only picks the order in which a
process draws calls from the population, and no call is drawn twice in one
process.

Expected answers come from construction (stars, serial diamonds, backbone
graphs, greedy-minimal tracker sets) or from ``catalog.json``, whose minima
were computed once with the trackset brute-force oracle (``make_catalog.py``).
Every check in this module is the benchmark's own code; it never calls the
library under test.
"""

from __future__ import annotations

import json
import os
import random
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))

WORKLOADS = ("dag-search", "setsystem-search", "large-prune", "verify-enum")

# Population sizes. A run stops early (and says so in its context record)
# if it exhausts its population before the measuring time is up.
POPULATION = {
    "dag-search": 4000,
    "setsystem-search": 3000,
    "large-prune": 1500,
    "verify-enum": 1500,
}


@dataclass
class Inst:
    """A graph, DAG or set system as plain data."""

    kind: str                                   # "graph" | "dag" | "setsystem"
    n: int                                      # vertices, or universe size
    s: int = 0
    t: int = 0
    edges: List[Tuple[int, int]] = field(default_factory=list)
    family: List[Tuple[int, ...]] = field(default_factory=list)

    def text(self) -> str:
        if self.kind == "setsystem":
            lines = [f"setsystem {self.n} {len(self.family)}"]
            lines += [" ".join(map(str, sorted(f))) for f in self.family]
        else:
            lines = [f"{self.kind} {self.n} {self.s} {self.t}"]
            lines += [f"{u} {v}" for u, v in self.edges]
        return "\n".join(lines) + "\n"


@dataclass
class Call:
    """One CLI call: ``trackset <command> <file> <rest...>`` plus its check.

    ``check(exit_code, stdout)`` returns None when the output is correct,
    otherwise a short description of what is wrong.
    """

    inst: Inst
    command: str
    rest: List[str]
    check: Callable[[int, str], Optional[str]]
    label: str

    def argv(self, path: str) -> List[str]:
        return [self.command, path, *self.rest]


# --------------------------------------------------------------- structure

def relabel(inst: Inst, rng: random.Random) -> Tuple[Inst, List[int]]:
    """Same instance under a random id permutation and line order; also
    returns the permutation (old id -> new id)."""
    perm = list(range(inst.n))
    rng.shuffle(perm)
    if inst.kind == "setsystem":
        fam = [tuple(sorted(perm[e] for e in f)) for f in inst.family]
        rng.shuffle(fam)
        return Inst("setsystem", inst.n, family=fam), perm
    edges = [(perm[u], perm[v]) for u, v in inst.edges]
    if inst.kind == "graph":
        edges = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in edges]
    rng.shuffle(edges)
    return Inst(inst.kind, inst.n, perm[inst.s], perm[inst.t], edges), perm


def _adjacency(inst: Inst):
    out = [[] for _ in range(inst.n)]
    for u, v in inst.edges:
        out[u].append(v)
        if inst.kind == "graph":
            out[v].append(u)
    return out


def _bfs(adj, src: int) -> List[int]:
    dist = [-1] * len(adj)
    dist[src] = 0
    queue = deque([src])
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if dist[v] < 0:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def _topo(inst: Inst) -> List[int]:
    out = _adjacency(inst)
    indeg = [0] * inst.n
    for u, v in inst.edges:
        indeg[v] += 1
    queue = deque(v for v in range(inst.n) if indeg[v] == 0)
    order = []
    while queue:
        u = queue.popleft()
        order.append(u)
        for v in out[u]:
            indeg[v] -= 1
            if indeg[v] == 0:
                queue.append(v)
    if len(order) != inst.n:
        raise ValueError("cycle")
    return order


def path_dag(inst: Inst) -> Tuple[List[List[int]], List[int]]:
    """Out-adjacency and a topological order of the arcs that s-t paths use:
    all arcs of a DAG, or the shortest-path arcs of a graph, oriented."""
    if inst.kind == "dag":
        return _adjacency(inst), _topo(inst)
    adj = _adjacency(inst)
    ds, dt = _bfs(adj, inst.s), _bfs(adj, inst.t)
    length = ds[inst.t]
    out = [[] for _ in range(inst.n)]
    for u in range(inst.n):
        if ds[u] < 0 or dt[u] < 0:
            continue
        for v in adj[u]:
            if ds[v] == ds[u] + 1 and ds[u] + 1 + dt[v] == length:
                out[u].append(v)
    order = sorted((v for v in range(inst.n) if ds[v] >= 0), key=ds.__getitem__)
    return out, order


def count_st_paths(inst: Inst) -> int:
    """s-t paths of a DAG, or shortest s-t paths of a graph, by DP."""
    out, order = path_dag(inst)
    ways = [0] * inst.n
    ways[inst.s] = 1
    for u in order:
        if ways[u]:
            for v in out[u]:
                ways[v] += ways[u]
    return ways[inst.t]


def path_masks(inst: Inst) -> List[int]:
    """Every tracked set as a bitmask: s-t paths, shortest s-t paths or the family."""
    if inst.kind == "setsystem":
        return [sum(1 << e for e in f) for f in inst.family]
    out, _ = path_dag(inst)
    masks = []
    stack = [(inst.s, 1 << inst.s)]
    while stack:
        v, mask = stack.pop()
        if v == inst.t:
            masks.append(mask)
            continue
        for w in out[v]:
            stack.append((w, mask | (1 << w)))
    return masks


def tracks(masks: List[int], tmask: int) -> bool:
    return len({m & tmask for m in masks}) == len(masks)


def _is_path_set(inst: Inst, out, vertices: List[int], rank) -> bool:
    """Do ``vertices`` form exactly one tracked s-t path?"""
    if len(set(vertices)) != len(vertices):
        return False
    if any(not (0 <= v < inst.n) or rank[v] < 0 for v in vertices):
        return False
    seq = sorted(vertices, key=rank.__getitem__)
    if not seq or seq[0] != inst.s or seq[-1] != inst.t:
        return False
    return all(b in out[a] for a, b in zip(seq, seq[1:]))


# ------------------------------------------------------------ constructions

def star(r: int) -> Inst:
    """s and t joined through r middle vertices; minimum tracking set r-1."""
    edges = [(0, m) for m in range(2, r + 2)] + [(m, 1) for m in range(2, r + 2)]
    return Inst("graph", r + 2, 0, 1, edges)


def diamonds(d: int) -> Tuple[Inst, List[Tuple[int, int]]]:
    """d diamonds in series (2^d paths, minimum tracking set d) and the
    pair of middle vertices of each diamond."""
    edges, mids = [], []
    junction = 0
    for i in range(d):
        b, c, nxt = 3 * i + 1, 3 * i + 2, 3 * i + 3
        edges += [(junction, b), (junction, c), (b, nxt), (c, nxt)]
        mids.append((b, c))
        junction = nxt
    return Inst("graph", 3 * d + 1, 0, junction, edges), mids


def orient(g: Inst) -> Inst:
    """The DAG of shortest s-t paths of a graph whose every edge joins
    consecutive BFS levels from s."""
    ds = _bfs(_adjacency(g), g.s)
    arcs = [(u, v) if ds[u] < ds[v] else (v, u) for u, v in g.edges]
    return Inst("dag", g.n, g.s, g.t, arcs)


def backbone_instance(rng: random.Random, n: int, kind: str) -> Tuple[Inst, int]:
    """Sparse graph or DAG on n vertices that the safe rules shrink a lot.

    About 30% of the vertices form an s-t backbone: parallel gadgets (2 or 3
    length-2 branches) and plain chains in series, with chain tails at s and
    t. The rest hang off the backbone in small random components attached
    through one vertex (in a DAG: oriented away from or towards it), so they
    lie on no (shortest) s-t path. Returns the instance and its exact number
    of tracked paths, the product of the gadget widths.
    """
    edges = []
    nxt = 1
    cur = 0
    paths = 1
    budget = max(40, int(n * 0.3))

    def chain(length):
        nonlocal nxt, cur
        for _ in range(length):
            edges.append((cur, nxt))
            cur = nxt
            nxt += 1

    chain(rng.randint(2, 5))
    while nxt < budget:
        if rng.random() < 0.6:
            width = rng.choice((2, 3))
            junction = nxt + width
            for m in range(nxt, junction):
                edges += [(cur, m), (m, junction)]
            paths *= width
            cur, nxt = junction, junction + 1
        else:
            chain(rng.randint(2, 6))
    chain(rng.randint(2, 5))
    s, t = 0, cur
    backbone = nxt
    while nxt < n:
        size = min(n - nxt, rng.randint(5, 40))
        root = rng.randrange(backbone)
        outward = rng.random() < 0.5
        members = [root] + list(range(nxt, nxt + size))
        local = [(members[rng.randrange(i)], members[i]) for i in range(1, len(members))]
        for _ in range(size // 4):
            a, b = sorted(rng.sample(range(1, len(members)), 2))
            local.append((members[a], members[b]))
        for a, b in set(local):
            edges.append((a, b) if outward or kind == "graph" else (b, a))
        nxt += size
    inst = Inst(kind, n, s, t, edges)
    return relabel(inst, rng)[0], paths


def sparse_dag(rng: random.Random, n: int, lo: int, hi: int) -> Inst:
    """Random DAG whose s-t path count lies in [lo, hi], every vertex on an
    s-t path. A core of n vertices with arcs spanning at most three
    topological positions has about 60% of its arcs subdivided by 1-3 extra
    vertices, which adds vertices (and trackers) without adding paths."""
    while True:
        arcs = set()
        for v in range(1, n):
            arcs.add((rng.randrange(max(0, v - 3), v), v))
        for u in range(n - 1):
            arcs.add((u, rng.randrange(u + 1, min(n, u + 4))))
        inst = Inst("dag", n, 0, n - 1, sorted(arcs))
        paths = count_st_paths(inst)
        while paths < lo:
            u = rng.randrange(n - 1)
            inst.edges = sorted(set(inst.edges) | {(u, rng.randrange(u + 1, min(n, u + 4)))})
            paths = count_st_paths(inst)
        if paths <= hi:
            break
    edges = []
    for u, v in inst.edges:
        if rng.random() < 0.6:
            chain = list(range(inst.n, inst.n + rng.randint(1, 3)))
            inst.n += len(chain)
            hops = [u, *chain, v]
            edges += zip(hops, hops[1:])
        else:
            edges.append((u, v))
    inst.edges = edges
    return relabel(inst, rng)[0]


# ------------------------------------------------------------------ checks

def expect_solve(inst: Inst, k: int, yes: bool):
    want_code, want = (0, "YES") if yes else (1, "NO")

    def check(code: int, stdout: str) -> Optional[str]:
        lines = stdout.splitlines()
        if code != want_code or not lines or lines[0] != f"result: {want}":
            return f"expected {want} (exit {want_code}), got exit {code}"
        if not yes:
            return None
        wit = [ln for ln in lines if ln.startswith("witness:")]
        if len(wit) != 1:
            return "YES without a witness line"
        try:
            ids = [int(x) for x in wit[0].split()[1:]]
        except ValueError:
            return "witness line does not hold integers"
        if len(ids) > k or len(set(ids)) != len(ids) or any(not 0 <= v < inst.n for v in ids):
            return f"witness {ids} is not a set of at most {k} ids"
        if not tracks(path_masks(inst), sum(1 << v for v in ids)):
            return f"witness {ids} does not track"
        return None
    return check


def expect_count(value: int):
    def check(code: int, stdout: str) -> Optional[str]:
        if code != 0 or stdout.strip() != str(value):
            return f"count: expected {value} (exit 0), got exit {code}"
        return None
    return check


def expect_reduce(inst: Inst, paths: int):
    """The reduced instance keeps the tracked path count and maps back
    injectively onto original ids."""
    def check(code: int, stdout: str) -> Optional[str]:
        if code != 0:
            return f"reduce: exit {code}"
        body, relab = [], []
        for ln in stdout.splitlines():
            if ln.startswith("# relabel "):
                relab.append(int(ln.split()[3]))
            elif ln and not ln.startswith("#"):
                body.append(ln)
        head = body[0].split() if body else []
        if len(head) != 4 or head[0] != inst.kind:
            return "reduce: no instance header"
        n, s, t = map(int, head[1:])
        edges = [tuple(map(int, ln.split())) for ln in body[1:]]
        if len(relab) != n or len(set(relab)) != n or any(not 0 <= v < inst.n for v in relab):
            return "reduce: relabeling is not an injective map to original ids"
        got = count_st_paths(Inst(inst.kind, n, s, t, edges))
        if got != paths:
            return f"reduce: {got} paths after reduction, {paths} before"
        return None
    return check


def expect_verify(inst: Inst, trackers: List[int], ok: bool):
    def check(code: int, stdout: str) -> Optional[str]:
        lines = stdout.splitlines()
        want = "true" if ok else "false"
        if code != (0 if ok else 1) or f"tracking: {want}" not in lines:
            return f"verify: expected {want}, got exit {code}"
        if ok:
            return None
        at = lines.index("violating paths:") if "violating paths:" in lines else -1
        if at < 0 or len(lines) < at + 3:
            return "verify: no violating pair printed"
        out, order = path_dag(inst)
        rank = [-1] * inst.n
        for i, v in enumerate(order):
            rank[v] = i
        tset = set(trackers)
        pair = [[int(x) for x in ln.split()] for ln in lines[at + 1:at + 3]]
        if pair[0] == pair[1] or not all(_is_path_set(inst, out, p, rank) for p in pair):
            return "verify: violating pair is not two distinct s-t paths"
        if tset.intersection(pair[0]) != tset.intersection(pair[1]):
            return "verify: violating pair is told apart by the trackers"
        return None
    return check


# --------------------------------------------------------------- workloads

def load_catalog() -> dict:
    with open(os.path.join(HERE, "catalog.json")) as f:
        return json.load(f)


def _layered(entry) -> Inst:
    return Inst("graph", entry["n"], entry["s"], entry["t"],
                [tuple(e) for e in entry["edges"]])


def _setsystem(entry) -> Inst:
    return Inst("setsystem", entry["n"], family=[tuple(f) for f in entry["family"]])


def _solve(inst: Inst, k: int, minimum: int, mode: Optional[str], label: str) -> Call:
    rest = ["--k", str(k)] + (["--mode", mode] if mode else [])
    return Call(inst, "solve", rest, expect_solve(inst, k, k >= minimum), label)


class Population:
    """Call factory for one workload; ``call(i)`` is a pure function of i."""

    def __init__(self, workload: str):
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}")
        self.workload = workload
        self.size = POPULATION[workload]
        self.combos = getattr(self, "_combos_" + workload.replace("-", "_"))(load_catalog())

    def call(self, i: int) -> Call:
        if not 0 <= i < self.size:
            raise IndexError(i)
        rng = random.Random(f"{self.workload}/{i}")
        return self.combos[i % len(self.combos)](rng)

    # Each combo is a function rng -> Call; the rng only relabels or, for
    # generated families, draws the instance.

    @staticmethod
    def _combos_dag_search(cat):
        combos = []

        def add(base: Inst, minimum: int, label: str):
            for mode, inst in (("shortest", base), ("dag", orient(base))):
                for k in (minimum, minimum - 1):
                    combos.append(lambda rng, inst=inst, k=k, mode=mode: _solve(
                        relabel(inst, rng)[0], k, minimum, mode, f"{label}/{mode}/k{k}"))

        for j, e in enumerate(cat["layered"]):
            add(_layered(e), e["min"], f"layered{j}")
        for d in (4, 5, 6):
            add(diamonds(d)[0], d, f"diamonds{d}")
        for r in (10, 11, 12, 13):
            add(star(r), r - 1, f"star{r}")
        return combos

    @staticmethod
    def _combos_setsystem_search(cat):
        combos = []
        for j, e in enumerate(cat["setsystems"]):
            for k in (e["min"], e["min"] - 1):
                combos.append(lambda rng, e=e, k=k, j=j: _solve(
                    relabel(_setsystem(e), rng)[0], k, e["min"], None, f"sets{j}/k{k}"))
        for j, e in enumerate(cat["layered"]):
            for k in (e["min"], e["min"] - 1):
                combos.append(lambda rng, e=e, k=k, j=j: _solve(
                    relabel(_layered(e), rng)[0], k, e["min"], "setsystem",
                    f"layered{j}/setsystem/k{k}"))
        return combos

    @staticmethod
    def _combos_large_prune(cat):
        def make(rng, kind, command):
            n = rng.randint(5000, 8000)
            inst, paths = backbone_instance(rng, n, kind)
            label = f"{kind}{n}/{command}"
            if command == "count":
                return Call(inst, "count", [], expect_count(paths), label)
            if command == "reduce":
                return Call(inst, "reduce", [], expect_reduce(inst, paths), label)
            k = rng.randint(1, 3)
            # paths > 2^k, so ceil(lg paths) > k trackers are needed: NO
            assert paths > 2 ** k
            return Call(inst, "solve", ["--k", str(k)], expect_solve(inst, k, False),
                        f"{label}/k{k}")
        return [lambda rng, kind=kind, command=command: make(rng, kind, command)
                for kind in ("graph", "dag") for command in ("solve", "count", "reduce")]

    @staticmethod
    def _combos_verify_enum(cat):
        def on_diamonds(rng, d, kind, ok):
            g, mids = diamonds(d)
            trackers = [rng.choice(pair) for pair in mids]
            if not ok:
                trackers.pop(rng.randrange(d))   # that diamond's two paths collide
            inst = g if kind == "graph" else orient(g)
            moved, perm = relabel(inst, rng)
            trackers = sorted(perm[v] for v in trackers)
            return Call(moved, "verify", ["--trackers", *map(str, trackers)],
                        expect_verify(moved, trackers, ok), f"diamonds{d}/{kind}/{ok}")

        def on_random_dag(rng, ok):
            inst = sparse_dag(rng, rng.randint(26, 32), 300, 1500)
            masks = path_masks(inst)
            # greedy inclusion-minimal tracking set: dropping any tracker breaks it
            keep = list(range(inst.n))
            rng.shuffle(keep)
            tmask = (1 << inst.n) - 1
            for v in keep:
                if tracks(masks, tmask & ~(1 << v)):
                    tmask &= ~(1 << v)
            trackers = [v for v in range(inst.n) if tmask >> v & 1]
            if ok:
                # any superset of a tracking set tracks; many trackers make
                # the pairwise tracking-condition check do real work
                trackers += [v for v in range(inst.n) if v not in trackers and rng.random() < 0.8]
            else:
                trackers.pop(rng.randrange(len(trackers)))
            return Call(inst, "verify", ["--trackers", *map(str, trackers)],
                        expect_verify(inst, trackers, ok), f"randdag{inst.n}/{ok}")

        # Graph verify enumerates about twice as much as DAG verify, so
        # graphs stop at d = 14 (16k paths) and DAGs go on to 65k paths.
        sizes = [("graph", d) for d in (12, 13, 14)] + [("dag", d) for d in range(12, 17)]
        combos = [lambda rng, d=d, kind=kind, ok=ok: on_diamonds(rng, d, kind, ok)
                  for kind, d in sizes for ok in (True, False)]
        combos += [lambda rng, ok=ok: on_random_dag(rng, ok)
                   for ok in (True, False) for _ in range(2 * len(sizes))]
        return combos

