"""Record the stdout digest of every call in a workload's population.

    python3 perfbench/make_golden.py dag-search [more workloads...]

Run it only on code whose output is the reference (the seed solvers): the
benchmark counts later differences as ``cli.stdout_mismatch``. Every call
must pass its check, or nothing is written.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run


def main(workloads):
    sys.path.insert(0, run.SRC)
    cli = run.import_trackset()
    for workload in workloads:
        workdir = os.path.join(run.OUT, f"golden-{os.getpid()}")
        os.makedirs(workdir)
        try:
            runner = run.Runner(workload, 0, workdir)
            runner.golden = None
            for i in range(runner.pop.size):
                runner.one(cli, i)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        if runner.failures:
            raise SystemExit(f"{workload}: {len(runner.failures)} failed calls, "
                             f"first: {runner.failures[0]}")
        doc = {"commit": run.git_commit(), "digests": runner.digests}
        with open(run.golden_path(workload), "w") as f:
            json.dump(doc, f, separators=(",", ":"))
            f.write("\n")
        print(workload, len(runner.digests), "digests", flush=True)


if __name__ == "__main__":
    main(sys.argv[1:] or run.corpus.WORKLOADS)
