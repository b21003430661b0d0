"""Benchmark of the trackset CLI: seeded workloads, checked verdicts.

    python3 perfbench/run.py --workload dag-search --seed 1 --seconds 20 --trace 0

One process, one thread, one client in a closed loop: each
``trackset.cli.main(argv)`` call is issued after the previous one returned,
with stdout captured. Every call's output is checked by the benchmark's own
code (see corpus.py) outside the timed region, and its stdout digest is
compared with the digest the seed code produced (golden/).

``--trace 0`` measures for ``--seconds`` seconds and prints the end-to-end
metrics; every timing among them is normalised to a reference host speed
measured between calls (see reference.py), and the raw figures go to the
context record. ``--trace 1`` first runs an untraced child for half the time, then
replays the same calls with spans around every layer's public functions and
prints the per-layer metrics (see tracing.py). ``--calls N`` replaces the
time limit with exactly N timed calls. The last line of stdout is the result
object; the line before it is the context record.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from typing import List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

sys.path.insert(0, HERE)
import corpus  # noqa: E402
import reference  # noqa: E402
import tracing  # noqa: E402

WARMUP = 4          # untimed calls, from the first block, which is never timed
# Set-up is sampled once before the first call and then at this many even
# points of the run: the host's speed drifts over seconds, and a median of
# samples spread over the run is steadier than any burst of repeats.
SETUP_SAMPLES = 12


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=corpus.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--calls", type=int, help="exactly this many timed calls, no time limit")
    args = p.parse_args(argv)
    if args.seconds <= 0 or (args.calls is not None and args.calls < 1):
        p.error("--seconds and --calls must be positive")
    return args


def import_trackset():
    """Import trackset afresh: drop every loaded trackset module first."""
    for name in [m for m in sys.modules if m == "trackset" or m.startswith("trackset.")]:
        del sys.modules[name]
    importlib.import_module("trackset.instance_io")
    return importlib.import_module("trackset.cli")


def measure_setup(paths: List[str]) -> tuple:
    """(start, end) of importing trackset afresh and reading and parsing the
    given files."""
    t0 = time.perf_counter()
    import_trackset()
    parse = sys.modules["trackset.instance_io"].parse_instance
    for path in paths:
        with open(path) as f:
            parse(f.read())
    return t0, time.perf_counter()


def golden_path(workload: str) -> str:
    return os.path.join(HERE, "golden", f"{workload}.json")


def load_golden(workload: str) -> Optional[List[str]]:
    """Seed-code stdout digest of every call in the population, if recorded."""
    try:
        with open(golden_path(workload)) as f:
            return json.load(f)["digests"]
    except FileNotFoundError:
        return None


def git_commit() -> Optional[str]:
    """HEAD of the checkout when it is a git work tree, read without git."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as f:
            ref = f.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(ROOT, ".git", ref[5:])) as f:
            return f.read().strip()
    except OSError:
        return None


def src_lines() -> int:
    pkg = os.path.join(SRC, "trackset")
    total = 0
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name)) as f:
                total += sum(1 for _ in f)
    return total


class Runner:
    """Issues one workload's calls in the seed's order and checks each."""

    def __init__(self, workload: str, seed: int, workdir: str):
        self.pop = corpus.Population(workload)
        # Stratified order: call i uses combo i % C, so each block of C
        # consecutive indices holds every combo once. The seed shuffles each
        # block. The first block only supplies the warm-up and set-up
        # instances; timed calls start with the second, and the metrics are
        # taken over whole blocks, so every run times the same calls whatever
        # its seed, only in another order.
        rng = random.Random(seed)
        self.width = width = len(self.pop.combos)
        self.order = []
        for start in range(0, self.pop.size, width):
            block = list(range(start, min(start + width, self.pop.size)))
            rng.shuffle(block)
            self.order += block
        self.workdir = workdir
        self.golden = load_golden(workload)
        self.times_ns: List[int] = []
        self.spans: List[tuple] = []     # (start, end) of each recorded call, in seconds
        self.clock = reference.HostClock()
        self.digests: List[str] = []
        self.failures: List[str] = []
        self.mismatch = 0

    def write(self, i: int):
        call = self.pop.call(i)
        path = os.path.join(self.workdir, f"{i}.txt")
        with open(path, "w") as f:
            f.write(call.inst.text())
        return call, path

    def one(self, cli, i: int, tracer=None, record=True):
        call, path = self.write(i)
        argv = call.argv(path)
        # Start every call with no cyclic garbage left by earlier ones, as in
        # a fresh CLI process; otherwise when the collector runs, and so the
        # peak memory, depends on the order of the calls.
        gc.collect()
        out, err = io.StringIO(), io.StringIO()
        error = None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter_ns()
            try:
                code = tracer.root(i, cli.main, argv) if tracer else cli.main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception as exc:  # a crash is a failed call, not a stopped run
                code, error = None, f"{type(exc).__name__}: {exc}"
            t1 = time.perf_counter_ns()
        os.remove(path)
        if not record:
            return
        self.spans.append((t0 / 1e9, t1 / 1e9))
        stdout = out.getvalue()
        error = error or call.check(code, stdout)
        digest = hashlib.sha256(stdout.encode()).hexdigest()[:16]
        self.times_ns.append(t1 - t0)
        self.digests.append(digest)
        if error:
            self.failures.append(f"{call.label} (#{i}): {error}")
        if self.golden is not None and self.golden[i] != digest:
            self.mismatch += 1

    def timed(self, cli, seconds: Optional[float], calls: Optional[int], tracer=None,
              between=None):
        """Timed calls until ``seconds`` pass or ``calls`` are done; calls
        ``between()`` between calls at SETUP_SAMPLES even points of the time.
        Returns True when the population ran out first."""
        todo = self.order[self.width:]
        if calls is not None:
            todo = todo[:calls]
        start = time.perf_counter()
        deadline = None if seconds is None else start + seconds
        marks = [] if seconds is None or between is None else [
            start + seconds * j / (SETUP_SAMPLES + 1) for j in range(SETUP_SAMPLES, 0, -1)]
        for i in todo:
            now = time.perf_counter()
            if deadline is not None and now >= deadline:
                break
            if marks and now >= marks[-1]:
                marks.pop()
                between()
            self.clock.maybe_sample()
            self.one(cli, i, tracer)
        self.clock.sample()
        return len(self.times_ns) == len(self.order) - self.width

    def whole_blocks(self) -> int:
        """Recorded calls that fill whole blocks (all of them if under one)."""
        n = len(self.times_ns)
        return n - n % self.width if n >= self.width else n

    def normalised_ms(self) -> List[float]:
        """Each recorded call's time at the reference host speed, in ms."""
        return [ns / 1e6 * self.clock.factor(a, b)
                for ns, (a, b) in zip(self.times_ns, self.spans)]

    def corpus_digest(self) -> str:
        return hashlib.sha256("".join(self.digests).encode()).hexdigest()[:16]


def run(args) -> dict:
    if not os.path.isdir(os.path.join(SRC, "trackset")):
        raise SystemExit(f"no trackset sources under {SRC}")
    sys.path.insert(0, SRC)
    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(workdir)
    try:
        runner = Runner(args.workload, args.seed, workdir)
        setup_files = []
        for j, i in enumerate(runner.order[:WARMUP]):
            setup_files.append(os.path.join(workdir, f"setup-{j}.txt"))
            with open(setup_files[-1], "w") as f:
                f.write(runner.pop.call(i).inst.text())
        runner.clock.sample()
        setup = [measure_setup(setup_files)]
        cli = sys.modules["trackset.cli"]
        for i in runner.order[:WARMUP]:
            runner.clock.maybe_sample()
            runner.one(cli, i, record=False)
        if args.trace:
            return traced(args, runner, cli)
        exhausted = runner.timed(cli, None if args.calls else args.seconds, args.calls,
                                 between=lambda: setup.append(measure_setup(setup_files)))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    whole = runner.whole_blocks()
    raw = timing(sorted(t / 1e6 for t in runner.times_ns[:whole]))
    norm = timing(sorted(runner.normalised_ms()[:whole]))
    metrics = {
        "setup_s": (statistics.median((b - a) * runner.clock.factor(a, b) for a, b in setup), "s"),
        "norm_call_p50_ms": (norm["p50"], "ms"),
        "norm_call_p95_ms": (norm["p95"], "ms"),
        "norm_calls_per_s": (norm["per_s"], "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    refs = [s for _, s in runner.clock.samples]
    context = {"samples": whole, "block": runner.width, "beyond_p95": norm["beyond_p95"],
               "raw_call_p50_ms": raw["p50"], "raw_call_p95_ms": raw["p95"],
               "raw_calls_per_s": raw["per_s"], "reference_samples": len(refs),
               "reference_median_ms": statistics.median(refs) * 1e3,
               "raw_setup_s": statistics.median(b - a for a, b in setup),
               "setup_samples": len(setup), "population_exhausted": exhausted}
    return finish(args, runner, metrics, context)


def timing(times: List[float]) -> dict:
    """Median, 95th percentile and calls per second of sorted call times in ms."""
    p95 = quantile(times, 0.95)
    return {"p50": quantile(times, 0.5), "p95": p95,
            "per_s": len(times) / (sum(times) / 1e3), "beyond_p95": sum(t > p95 for t in times)}


def quantile(xs: List[float], p: float, sub: int = 8) -> float:
    """Harrell-Davis estimate of the p-quantile of sorted ``xs``.

    A weighted mean of all order statistics, weight i being the Beta(p(n+1),
    (1-p)(n+1)) mass on [i/n, (i+1)/n] (midpoint rule, ``sub`` points). The
    calls' costs leave gaps (a workload mixes cheap and costly shapes), and
    where a quantile falls in one, the one or two order statistics that
    ``statistics.quantiles`` reads jump across it when a call's timing
    jitters; the weighted mean moves smoothly.
    """
    n = len(xs)
    if n == 1:
        return xs[0]
    a, b = p * (n + 1), (1 - p) * (n + 1)
    logs = [(a - 1) * math.log(x) + (b - 1) * math.log1p(-x)
            for x in ((i + (j + 0.5) / sub) / n for i in range(n) for j in range(sub))]
    top = max(logs)
    w = [sum(math.exp(v - top) for v in logs[i * sub:(i + 1) * sub]) for i in range(n)]
    return sum(wi * xi for wi, xi in zip(w, xs)) / sum(w)


def traced(args, runner: Runner, cli) -> dict:
    """Untraced child for the call count and baseline time, then a traced replay."""
    child_args = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
                  "--seed", str(args.seed), "--trace", "0"]
    child_args += (["--seconds", str(args.seconds), "--calls", str(args.calls)]
                   if args.calls else ["--seconds", str(args.seconds / 2)])
    proc = subprocess.run(child_args, cwd=ROOT, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise RuntimeError(f"untraced child failed: {proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    child, child_ctx = json.loads(lines[-1]), json.loads(lines[-2])["context"]
    calls = child["attempted"]
    untraced_s = calls / child["metrics"]["norm_calls_per_s"]["value"]

    tracer = tracing.Tracer()
    tracer.install()
    try:
        runner.timed(cli, None, calls, tracer)
    finally:
        tracer.uninstall()
    traced_s = sum(runner.normalised_ms()) / 1e3
    tracer.dump(os.path.join(OUT, f"spans-{args.workload}-{args.seed}.jsonl"))
    values = tracer.metrics(calls)
    values["trace.overhead_ratio"] = traced_s / untraced_s - 1
    values["cli.stdout_mismatch"] = runner.mismatch
    values["error_rate"] = len(runner.failures) / calls
    metrics = {name: (values[name], unit) for name, unit, _ in tracing.metric_specs()}
    context = {"samples": calls, "untraced_corpus_digest": child_ctx["corpus_digest"],
               "stdout_same_as_untraced": child_ctx["corpus_digest"] == runner.corpus_digest()}
    return finish(args, runner, metrics, context)


def finish(args, runner: Runner, metrics: dict, extra: dict) -> dict:
    attempted = len(runner.times_ns)
    context = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "calls": attempted, "warmup_calls": WARMUP,
        "population": runner.pop.size, "git_commit": git_commit(),
        "src_trackset_lines": src_lines(), "python": platform.python_version(),
        "nproc": os.cpu_count(), "stdout_mismatch": runner.mismatch,
        "error_rate": len(runner.failures) / max(attempted, 1),
        "corpus_digest": runner.corpus_digest(), "failures": runner.failures[:10],
        **extra,
    }
    print(json.dumps({"context": context}))
    return {
        "correct": not runner.failures,
        "attempted": attempted,
        "failed": len(runner.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
