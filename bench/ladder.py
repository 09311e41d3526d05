#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise each metric's spread.

    python3 bench/ladder.py                       # every workload, seeds 1..10
    python3 bench/ladder.py --workloads timed-search --seeds 1 2 3 --trace 1
    python3 bench/ladder.py --heldout             # the held-out seeds

Runs go one after another, each in a fresh ``bench/run.py`` process.  For
every metric the summary gives the median, the quartiles from
``statistics.quantiles(values, n=4)`` and their distance as a share of
the median; an end-to-end metric whose spread exceeds its bound in
BENCHMARK.json is flagged.  The full record, with the environment of the
first run, is written as JSON (``--out``, default
``bench/out/ladder-<dev|heldout>-trace<0|1>.json``).

The development seeds are for tuning a change; the held-out seeds are run
once, to confirm a claimed gain on inputs the change was not tuned on.
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
DEV_SEEDS = tuple(range(1, 11))
HELDOUT_SEEDS = tuple(range(9001, 9011))


def load_benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fp:
        return json.load(fp)


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise RuntimeError("%s failed (%d): %s" % (" ".join(cmd), done.returncode,
                                                    done.stderr[-2000:]))
    result = json.loads(done.stdout.strip().splitlines()[-1])
    path = os.path.join(HERE, "out", "result-%s-seed%d-trace%d.json" % (workload, seed, trace))
    with open(path, encoding="utf-8") as fp:
        full = json.load(fp)
    result["environment"] = full.pop("environment")
    result["detail"] = full
    return result


def spread(values: list[float]) -> dict:
    median = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = median
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def main(argv=None) -> int:
    bench = load_benchmark()
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", nargs="+", choices=names, default=names)
    ap.add_argument("--seeds", nargs="+", type=int)
    ap.add_argument("--heldout", action="store_true", help="use the held-out seeds")
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out")
    args = ap.parse_args(argv)
    seeds = args.seeds or (HELDOUT_SEEDS if args.heldout else DEV_SEEDS)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    record = {"seeds": list(seeds), "seconds": args.seconds, "trace": args.trace,
              "workloads": {}}
    worst = 0
    for workload in args.workloads:
        runs = []
        for seed in seeds:
            result = run_once(workload, seed, args.seconds, args.trace)
            record.setdefault("environment", result.pop("environment"))
            runs.append(result)
            print("%s seed %d: correct=%s attempted=%d failed=%d" % (
                workload, seed, result["correct"], result["attempted"], result["failed"]),
                file=sys.stderr)
        summary = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            summary[name] = dict(spread(values), unit=runs[0]["metrics"][name]["unit"])
        record["workloads"][workload] = {"runs": runs, "summary": summary}
        print("%s  (%d seeds, %s s)" % (workload, len(seeds), args.seconds))
        for name, s in summary.items():
            flag = ""
            if name in bounds and name != "setup_s" and s["spread"] > bounds[name]:
                flag = "  SPREAD ABOVE BOUND %.2f" % bounds[name]
                worst = 1
            elif name in bounds and s["spread"] > bounds[name] / 3:
                flag = "  (above a third of the bound %.2f)" % bounds[name]
            print("  %-40s median %-12.6g q1 %-12.6g q3 %-12.6g spread %6.3f %s%s"
                  % (name, s["median"], s["q1"], s["q3"], s["spread"], s["unit"], flag))
        if any(not r["correct"] for r in runs):
            print("  INCORRECT ANSWERS in %d runs" % sum(not r["correct"] for r in runs))
            worst = 1
    out = args.out or os.path.join(ROOT, "bench", "out", "ladder-%s-trace%d.json" % (
        "heldout" if args.heldout else "dev", args.trace))
    os.makedirs(os.path.dirname(out), exist_ok=True)
    with open(out, "w", encoding="utf-8") as fp:
        json.dump(record, fp, indent=2)
    print("wrote %s" % out)
    return worst


if __name__ == "__main__":
    sys.exit(main())
