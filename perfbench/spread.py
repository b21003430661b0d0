"""Run the benchmark once per seed and report each end-to-end metric's
median and quartile spread (q3 - q1, as a share of the median).

    python3 perfbench/spread.py --seeds 1-10 [--workloads dag-search,verify-enum]
                                [--baseline perfbench/BASELINE.json]

Runs are sequential, one process at a time, with BENCHMARK.json's
run_seconds. A spread above a third of the metric's bound is flagged; the
benchmark is meant to be steady enough that two sets of runs of the same
code agree within the bounds. ``--baseline`` also makes one traced run per
workload and writes the medians, every run, and the traced run's per-layer
metrics to the given file.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_range(text: str):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int = 0):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["context"], json.loads(lines[-1])


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    p = argparse.ArgumentParser()
    p.add_argument("--seeds", default="1-10", type=seed_range)
    p.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    p.add_argument("--baseline")
    args = p.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    raw_names = ("raw_setup_s", "raw_call_p50_ms", "raw_call_p95_ms", "raw_calls_per_s")
    summary = {}
    for workload in args.workloads.split(","):
        values = {name: [] for name in bounds}
        raw = {name: [] for name in raw_names}
        runs = []
        for seed in args.seeds:
            ctx, result = run_once(workload, seed, spec["run_seconds"])
            if not result["correct"]:
                raise SystemExit(f"{workload} seed {seed}: {ctx['failures']}")
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            for name in raw_names:
                raw[name].append(ctx[name])
            runs.append({"seed": seed, "calls": ctx["calls"], "beyond_p95": ctx["beyond_p95"],
                         "stdout_mismatch": ctx["stdout_mismatch"],
                         "metrics": {k: v["value"] for k, v in result["metrics"].items()}})
            print(workload, seed, ctx["calls"], " ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
        rows = {}
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            share = (q3 - q1) / med
            flag = "" if share < bounds[name] / 3 else "  <-- above bound/3"
            print(f"  {name:18s} median {med:12.5g}  spread {share:7.4f}  bound {bounds[name]}{flag}")
            rows[name] = {"median": med, "q1": q1, "q3": q3, "spread": share}
        for name, vals in raw.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            print(f"  {name:18s} median {med:12.5g}  spread {(q3 - q1) / med:7.4f}  (not normalised)")
        summary[workload] = {"metrics": rows, "runs": runs, "context": {
            k: ctx[k] for k in ("git_commit", "src_trackset_lines", "python", "nproc")}}
        if args.baseline:
            ctx, result = run_once(workload, args.seeds[0], spec["run_seconds"], trace=1)
            summary[workload]["traced"] = {
                "seed": args.seeds[0], "calls": ctx["calls"],
                "metrics": {k: v["value"] for k, v in result["metrics"].items()}}
    if args.baseline:
        with open(args.baseline, "w") as f:
            json.dump({"run_seconds": spec["run_seconds"], "workloads": summary}, f, indent=1)
            f.write("\n")


if __name__ == "__main__":
    main()
