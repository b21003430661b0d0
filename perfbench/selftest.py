"""Self-test of the benchmark on tiny runs; takes well under a minute.

    python3 perfbench/selftest.py          (or: python3 -m pytest perfbench/selftest.py)

It checks that every metric BENCHMARK.json names is emitted with its unit,
that a wrong expected verdict raises the error rate, that traced and
untraced runs of the same calls print the same stdout, that the
host-speed normalisation cancels a change of host speed, and that the
quantile estimator behaves.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import corpus  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402

CALLS = 3


def _spec():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def _bench(workload: str, trace: int):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", "0",
         "--seconds", "5", "--trace", str(trace), "--calls", str(CALLS)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["context"], json.loads(lines[-1])


def test_every_metric_with_its_unit():
    spec = _spec()
    assert [w["name"] for w in spec["workloads"]] == list(corpus.WORKLOADS)
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[key]}
        for workload in corpus.WORKLOADS:
            ctx, result = _bench(workload, trace)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] and result["failed"] == 0
            assert result["attempted"] == CALLS
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == want, (workload, trace)
            assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
            if trace:
                assert ctx["stdout_same_as_untraced"], workload
                assert result["metrics"]["cli.stdout_mismatch"]["value"] == 0


def test_wrong_verdict_raises_error_rate():
    sys.path.insert(0, run.SRC)
    cli = run.import_trackset()
    inst = corpus.star(6)                  # minimum tracking set: 5
    workdir = os.path.join(run.OUT, f"selftest-{os.getpid()}")
    os.makedirs(workdir)
    try:
        rates = []
        for expect_yes in (True, False):
            runner = run.Runner("dag-search", 0, workdir)
            runner.golden = None
            runner.pop.call = lambda i: corpus.Call(
                inst, "solve", ["--k", "5"], corpus.expect_solve(inst, 5, expect_yes), "star6")
            runner.one(cli, 0)
            rates.append(len(runner.failures) / len(runner.times_ns))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    assert rates == [0.0, 1.0]


def test_checks_reject_wrong_output():
    inst = corpus.star(6)
    good = "result: YES\nwitness: 2 3 4 5 6\nsize: 5\n"
    assert corpus.expect_solve(inst, 5, True)(0, good) is None
    assert corpus.expect_solve(inst, 5, True)(0, good.replace("2 3 4 5 6", "2 3 4 5 1"))
    assert corpus.expect_solve(inst, 5, True)(0, good.replace("2 3 4 5 6", "2 3 4"))
    assert corpus.expect_count(6)(0, "7\n")
    assert corpus.expect_verify(inst, [2, 3], False)(1, "tracking: false\n")


def test_normalisation_cancels_host_speed():
    nominal = reference.NOMINAL_S
    clock = reference.HostClock()
    # one sample every 0.1 s; the host runs at half speed from 10 s to 20 s
    clock.samples = [(j / 10, nominal * (2 if 100 <= j < 200 else 1)) for j in range(300)]
    assert abs(clock.factor(5.0, 5.05) - 1) < 1e-12
    assert abs(clock.factor(15.0, 15.05) - 0.5) < 1e-12
    # a call far from every sample takes the nearest ones
    assert abs(clock.factor(40.0, 41.0) - 1) < 1e-12
    lone = reference.HostClock()
    lone.samples = [(0.0, 2 * nominal)]
    assert abs(lone.factor(3.0, 3.1) - 0.5) < 1e-12
    clock = reference.HostClock()
    clock.sample()
    assert len(clock.samples) == 1 and clock.samples[0][1] > 0


def test_quantile_estimator():
    xs = [float(v) for v in range(1, 102)]
    assert abs(run.quantile(xs, 0.5) - 51) < 1e-9          # symmetric weights
    assert 94 < run.quantile(xs, 0.95) < 98
    assert run.quantile([5.0], 0.95) == 5.0
    # a gap at the median: the estimate lies inside it, not on either edge
    gap = [1.0] * 50 + [10.0] * 51
    assert 1 < run.quantile(gap, 0.5) < 10


def main() -> int:
    tests = [v for k, v in sorted(globals().items()) if k.startswith("test_")]
    for test in tests:
        test()
        print("ok", test.__name__)
    return 0


if __name__ == "__main__":
    sys.exit(main())
