"""Seeded random instance generators for fuzzing and tests; sizes are checked first."""

from __future__ import annotations

import random
from itertools import combinations
from math import comb

from .errors import InputError
from .graph import Digraph, Graph
from .setsystem import SetSystem

MAX_SIZE = 1000  # vertex pairs are drawn one by one, so time grows as size^2


def _check(what: str, value: int, low: int, high: int = MAX_SIZE):
    if not low <= value <= high:
        raise InputError(f"{what} must be between {low} and {high}, got {value}")


def random_connected_graph(rng: random.Random, n: int,
                           extra_edge_prob: float = 0.25) -> Graph:
    """Connected graph on n >= 2 vertices: random spanning tree plus extras."""
    _check("vertex count", n, 2)
    edges = set()
    order = list(range(n))
    rng.shuffle(order)
    for i in range(1, n):
        j = rng.randrange(i)
        u, v = order[j], order[i]
        edges.add((min(u, v), max(u, v)))
    for u, v in combinations(range(n), 2):
        if (u, v) not in edges and rng.random() < extra_edge_prob:
            edges.add((u, v))
    s, t = rng.sample(range(n), 2)
    return Graph(n, sorted(edges), s, t)


def random_dag(rng: random.Random, n: int, arc_prob: float = 0.35) -> Digraph:
    """Random DAG on n >= 2 vertices: arcs point forward along a random vertex order."""
    _check("vertex count", n, 2)
    order = list(range(n))
    rng.shuffle(order)
    arcs = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < arc_prob:
                arcs.append((order[i], order[j]))
    return Digraph(n, arcs, order[0], order[n - 1])


def random_layered_graph(rng: random.Random, layers: int, width: int) -> Graph:
    """Undirected layered s-t graph: s, `layers` layers of up to `width`
    vertices, then t, with every vertex wired to both adjacent layers."""
    _check("layer count", layers, 0)
    _check("layer width", width, 1, MAX_SIZE // max(layers, 1))
    sizes = [1] + [rng.randint(1, width) for _ in range(layers)] + [1]
    ids = []
    next_id = 0
    for size in sizes:
        ids.append(list(range(next_id, next_id + size)))
        next_id += size
    edges = []
    for a, b in zip(ids, ids[1:]):
        chosen = set()
        for u in a:
            chosen.add((u, rng.choice(b)))
        for v in b:
            chosen.add((rng.choice(a), v))
        for u in a:
            for v in b:
                if (u, v) not in chosen and rng.random() < 0.3:
                    chosen.add((u, v))
        edges.extend(chosen)
    return Graph(next_id, edges, ids[0][0], ids[-1][0])


def random_set_system(rng: random.Random, universe: int, m: int,
                      d: int | None = None) -> SetSystem:
    """m distinct random subsets of a `universe`-element ground set, of size <= d if given."""
    _check("universe size", universe, 0)
    _check("number of sets", m, 0)
    top = universe if d is None else min(d, universe)
    if m > sum(comb(universe, size) for size in range(top + 1)):
        raise InputError(f"cannot draw {m} distinct subsets of that size")
    family = set()
    while len(family) < m:
        if d is None:
            s = frozenset(e for e in range(universe) if rng.random() < 0.5)
        else:
            size = rng.randint(0, min(d, universe))
            s = frozenset(rng.sample(range(universe), size))
        family.add(s)
    return SetSystem(universe, sorted(family, key=lambda s: (len(s), sorted(s))))
