#!/usr/bin/env python3
"""Self-test of the benchmark: the smallest size of every workload.

    python3 bench/selftest.py

Checks that every constructed answer is what virtint returns, that the
checker rejects a wrong expected answer, that both runs print exactly the
metrics BENCHMARK.json names with their units, and that run.py refuses to
run without the program's sources.  Exit code 0 when all of that holds.
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time

import run
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))


def _far():
    return time.perf_counter() + 600


def _expected_metrics(trace: int) -> dict[str, str]:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fp:
        bench = json.load(fp)
    group = bench["per_layer"] if trace else bench["end_to_end"]
    return {m["name"]: m["unit"] for m in group}


def _wrong(pool):
    """The same pool with the first operation's expected answer falsified."""
    inst = pool[0]
    op = inst.ops[0]
    bad = dataclasses.replace(op, exit_code=1 - op.exit_code)
    return [dataclasses.replace(inst, ops=[bad] + inst.ops[1:])] + pool[1:]


def main() -> int:
    failures = []
    if run.IMPORT_SECONDS is None:
        print("selftest: no virtint sources under %s" % run.SRC)
        return 1
    for workload in workloads.WORKLOADS:
        pool = workloads.make_pool(workload, seed=1, smallest=True)
        for trace in (0, 1):
            result = run.measure(pool, 0.01, trace, _far())
            ops = result["operations"]
            print("%s trace=%d: %d operations, %d failed"
                  % (workload, trace, ops["attempted"], ops["failed"]))
            for line in result["problems"]:
                print("  " + line)
            if ops["failed"]:
                failures.append("%s: wrong answers" % workload)
            got = {name: unit for name, (_, unit) in result["metrics"].items()}
            if not trace:
                got["setup_s"] = "s"  # added by run.main from the import probes
            if got != _expected_metrics(trace):
                failures.append("%s trace=%d: metrics %s differ from BENCHMARK.json"
                                % (workload, trace, sorted(set(got) ^ set(_expected_metrics(trace)))))
        caught = run.measure(_wrong(pool), 0.01, 0, _far())["operations"]["failed"]
        if caught < 2:  # both runs of the falsified operation must fail
            failures.append("%s: a wrong expected answer went unnoticed" % workload)

    # Without src/ the benchmark must refuse to run.
    os.makedirs(run.OUT_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT_DIR) as bare:
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "bench"),
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        done = subprocess.run([sys.executable, "bench/run.py", "--workload",
                               workloads.WORKLOADS[0], "--seed", "1", "--seconds", "1"],
                              cwd=bare, capture_output=True, text=True, timeout=120)
        if done.returncode == 0:
            failures.append("run.py exited 0 without virtint sources")

    for f in failures:
        print("FAIL " + f)
    print("selftest %s" % ("failed" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
