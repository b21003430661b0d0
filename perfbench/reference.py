"""Host-speed reference: a fixed piece of Python work timed between calls.

The benchmark runs on a few cores of a shared host whose speed swings by up
to 1.5x for seconds to minutes at a time, as neighbours come and go. A call's
wall time is the product of the work it does and the host's speed at that
moment; only the first is the program's. So between calls, about every
``EVERY_S`` seconds, the benchmark times ``reference_work()``: parsing a
fixed edge list, building adjacency lists and a breadth-first search, the
same kind of interpreter, string, list and dict work that trackset does. It
is the benchmark's own code and never calls trackset, so no change to the
program changes it.

A call's normalised time is its wall time times ``NOMINAL_S`` divided by the
median reference time around the call: the time the call would take on a
host where the reference takes ``NOMINAL_S`` (about its time on the 2-vCPU
Xeon the benchmark was tuned on).
"""

from __future__ import annotations

import bisect
import random
import statistics
import time
from collections import deque
from typing import List, Tuple

EVERY_S = 0.1        # wall time between reference samples
WINDOW_S = 0.5       # reference samples this close to a call normalise it
MIN_SAMPLES = 5      # ... and at least this many, the nearest in time
NOMINAL_S = 1.5e-3   # reference time that the normalised times assume

_N = 600


def _edge_text() -> str:
    rng = random.Random("perfbench-reference")
    edges = [(v, rng.randrange(v)) for v in range(1, _N)]
    edges += [(rng.randrange(_N), rng.randrange(_N)) for _ in range(_N // 2)]
    return "\n".join(f"{u} {v}" for u, v in edges)


_TEXT = _edge_text()


def reference_work() -> int:
    """Parse the edge list, build adjacency sets, BFS from 0; returns the
    sum of distances (a fixed number, checked by the caller)."""
    adj = [set() for _ in range(_N)]
    for line in _TEXT.split("\n"):
        u, v = map(int, line.split())
        adj[u].add(v)
        adj[v].add(u)
    dist = {0: 0}
    queue = deque([0])
    while queue:
        u = queue.popleft()
        for v in sorted(adj[u]):
            if v not in dist:
                dist[v] = dist[u] + 1
                queue.append(v)
    return sum(dist.values())


_EXPECTED = reference_work()


class HostClock:
    """Reference samples over a run and the normaliser derived from them."""

    def __init__(self):
        self.samples: List[Tuple[float, float]] = []   # (midpoint, seconds)
        self.next_at = 0.0

    def sample(self):
        t0 = time.perf_counter()
        if reference_work() != _EXPECTED:
            raise RuntimeError("reference work gave a different result")
        t1 = time.perf_counter()
        self.samples.append(((t0 + t1) / 2, t1 - t0))
        self.next_at = t1 + EVERY_S

    def maybe_sample(self):
        if time.perf_counter() >= self.next_at:
            self.sample()

    def factor(self, start: float, end: float) -> float:
        """NOMINAL_S over the median reference time around [start, end]."""
        mids = [m for m, _ in self.samples]
        lo = bisect.bisect_left(mids, start - WINDOW_S)
        hi = bisect.bisect_right(mids, end + WINDOW_S)
        while hi - lo < MIN_SAMPLES and (lo > 0 or hi < len(mids)):
            # widen towards the nearer remaining sample
            if hi >= len(mids) or (lo > 0 and start - mids[lo - 1] <= mids[hi] - end):
                lo -= 1
            else:
                hi += 1
        return NOMINAL_S / statistics.median(s for _, s in self.samples[lo:hi])
