"""Spans around the calls into each layer, recorded from outside the library.

``Tracer.install`` replaces every public function named in ``TARGETS`` with
a wrapper in every trackset module that binds it (so ``cli.parse_instance``
and ``shortest.solve_dag`` are wrapped as well as the definitions in their
home modules). Each wrapped call appends one span (name, start ns, end ns,
parent span, call id) to an in-memory list and adds the counters taken from
its arguments and result. A layer's self time is its span's duration minus
the time covered by its direct child spans.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional


def _solve_dag(c, args, result, exc):
    if result is None:
        return
    c["subsets_tried"] += result.subsets_tried
    # a gate decided: NO without a scan, on a saturated path count
    c["gate_decided"] += result.result == "NO" and result.paths_saturated
    c["scan_yes"] += result.result == "YES" and result.subsets_tried > 0


def _reduce_to_hitting(c, args, result, exc):
    m = len(args[0].family)
    c["pairs_in"] += m * (m - 1) // 2
    if result is not None:
        c["sets_out"] += len(result.family)


def _parse_instance(c, args, result, exc):
    c["bytes"] += len(args[0])


def _reduce_rule_1(c, args, result, exc):
    if result is not None:
        c["vertices_removed"] += args[0].n - result[0].base.n


def _reduce_dag(c, args, result, exc):
    if result is not None:
        c["vertices_removed"] += result[1]


def _enumerate_shortest(c, args, result, exc):
    if exc is not None and type(exc).__name__ == "CapExceeded":
        c["cap_exceeded"] += 1
    if result is not None:
        c["paths"] += len(result)


def _enumerate_all(c, args, result, exc):
    if result is not None:
        c["paths"] += len(result)


# span name -> (home module, function, counter hook, per-layer metrics)
TARGETS: Dict[str, tuple] = {
    "instance_io.parse_instance": ("instance_io", "parse_instance", _parse_instance,
                                   ("self_ms", "bytes")),
    "graph.bfs_distances": ("graph", "bfs_distances", None, ("self_ms",)),
    "graph.topological_order": ("graph", "topological_order", None, ("calls", "self_ms")),
    "shortest.solve_shortest_paths": ("shortest", "solve_shortest_paths", None, ("self_ms",)),
    "shortest.reduce_rule_1": ("shortest", "reduce_rule_1", _reduce_rule_1,
                               ("self_ms", "vertices_removed")),
    "shortest.enumerate_shortest_paths": ("shortest", "enumerate_shortest_paths",
                                          _enumerate_shortest,
                                          ("self_ms", "paths", "cap_exceeded")),
    "shortest.to_dag": ("shortest", "to_dag", None, ("self_ms",)),
    "shortest.to_set_system": ("shortest", "to_set_system", None, ("self_ms",)),
    "dagtrack.solve_dag": ("dagtrack", "solve_dag", _solve_dag,
                           ("self_ms", "subsets_tried", "gate_decided", "scan_yield")),
    "dagtrack.reduce_dag": ("dagtrack", "reduce_dag", _reduce_dag,
                            ("self_ms", "vertices_removed")),
    "dagtrack.reduce_rule_2": ("dagtrack", "reduce_rule_2", None, ("self_ms",)),
    "dagtrack.count_paths": ("dagtrack", "count_paths", None, ("calls", "self_ms")),
    "dagtrack.verify_tracking_condition": ("dagtrack", "verify_tracking_condition", None,
                                           ("calls", "self_ms")),
    "setsystem.solve_tracking_set": ("setsystem", "solve_tracking_set", None, ("self_ms",)),
    "setsystem.reduce_to_hitting": ("setsystem", "reduce_to_hitting", _reduce_to_hitting,
                                    ("self_ms", "pairs_in", "sets_out")),
    "setsystem.solve_hitting": ("setsystem", "solve_hitting", None, ("self_ms", "calls")),
    "setsystem.tracks": ("setsystem", "tracks", None, ("calls", "self_ms")),
    "oracle.enumerate_all_paths": ("oracle", "enumerate_all_paths", _enumerate_all,
                                   ("self_ms", "paths")),
}
ROOT = "cli.main"

UNITS = {"self_ms": "ms/call", "bytes": "bytes/call", "scan_yield": "ratio"}


def metric_specs() -> List[tuple]:
    """(name, unit, better) of every per-layer metric a traced run reports."""
    specs = [(f"{ROOT}.self_ms", "ms/call", "lower")]
    for span, (_, _, _, metrics) in TARGETS.items():
        for m in metrics:
            better = "higher" if m == "scan_yield" else "lower"
            specs.append((f"{span}.{m}", UNITS.get(m, "count/call"), better))
    specs += [("trace.overhead_ratio", "ratio", "lower"),
              ("cli.stdout_mismatch", "count", "lower"),
              ("error_rate", "ratio", "lower")]
    return specs


class Tracer:
    def __init__(self):
        self.spans: List[list] = []       # [name, start_ns, end_ns, parent, call_id]
        self.counters: Dict[str, Dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self.call_id = -1
        self._stack: List[int] = []
        self._undo: List[tuple] = []

    def install(self) -> None:
        mods = {name[len("trackset."):]: mod for name, mod in sys.modules.items()
                if name.startswith("trackset.")}
        mods[""] = sys.modules["trackset"]
        for span, (home, attr, hook, _) in TARGETS.items():
            fn = getattr(mods[home], attr)
            wrapper = self._wrap(span, fn, hook)
            for mod in mods.values():
                for key, val in list(vars(mod).items()):
                    if val is fn:
                        setattr(mod, key, wrapper)
                        self._undo.append((mod, key, fn))

    def uninstall(self) -> None:
        for mod, key, fn in reversed(self._undo):
            setattr(mod, key, fn)
        self._undo.clear()

    def _open(self, name: str) -> list:
        rec = [name, 0, 0, self._stack[-1] if self._stack else -1, self.call_id]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter_ns()
        return rec

    def _close(self, rec: list) -> None:
        rec[2] = time.perf_counter_ns()
        self._stack.pop()

    def _wrap(self, span: str, fn: Callable, hook: Optional[Callable]) -> Callable:
        counters = self.counters[span]

        def wrapper(*args, **kwargs):
            rec = self._open(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._close(rec)
                counters["calls"] += 1
                if hook:
                    hook(counters, args, None, exc)
                raise
            self._close(rec)
            counters["calls"] += 1
            if hook:
                hook(counters, args, result, None)
            return result

        return wrapper

    def root(self, call_id: int, fn: Callable, argv: List[str]):
        """Run one CLI call as the root span of ``call_id``."""
        self.call_id = call_id
        rec = self._open(ROOT)
        try:
            return fn(argv)
        finally:
            self._close(rec)

    def self_ns(self) -> Dict[str, int]:
        total: Dict[str, int] = defaultdict(int)
        child: List[int] = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (name, start, end, _, _) in enumerate(self.spans):
            total[name] += end - start - child[i]
        return total

    def metrics(self, calls: int) -> Dict[str, float]:
        """Per-layer metrics per traced CLI call."""
        selfs = self.self_ns()
        out = {f"{ROOT}.self_ms": selfs.get(ROOT, 0) / 1e6 / calls}
        for span, (_, _, _, names) in TARGETS.items():
            c = self.counters[span]
            for m in names:
                if m == "self_ms":
                    out[f"{span}.{m}"] = selfs.get(span, 0) / 1e6 / calls
                elif m == "scan_yield":
                    tried = c["subsets_tried"]
                    out[f"{span}.{m}"] = c["scan_yes"] / tried if tried else 0.0
                else:
                    out[f"{span}.{m}"] = c[m] / calls
        return out

    def dump(self, path: str) -> None:
        with open(path, "w") as f:
            for rec in self.spans:
                f.write(json.dumps(rec) + "\n")
