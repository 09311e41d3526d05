#!/usr/bin/env python3
"""Run one workload of the virtint benchmark and print its metrics.

    python3 bench/run.py --workload timed-search --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  The workload is a closed loop with one client: each operation
is one in-process ``virtint.cli.main([...])`` call with stdout captured,
and the next starts when it returns.  The loop runs whole passes over the
workload's seeded pool until ``--seconds`` have passed, and at least until
every input was analysed twice and 100 operations were timed.  Answers are
checked after the loop.

With ``--trace 0`` the last line of stdout carries the end-to-end metrics;
with ``--trace 1`` the first half of the time runs untraced, the second
half traced, and the last line carries the per-layer metrics.  The full
result, with the environment, goes to ``bench/out/``.  The exit code is 0
when the run completed, whether or not its answers were correct, and 2
when the program or the arguments are missing.
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
IMPORT_PROBE = """\
import sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import virtint
print(time.perf_counter() - t0)
"""


def _import_virtint():
    """Import virtint and its submodules; the seconds it took, or None."""
    if not os.path.isfile(os.path.join(SRC, "virtint", "__init__.py")):
        return None
    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    import virtint  # noqa: F401  (the package imports every submodule)
    return time.perf_counter() - t0


# Timed before this script imports anything else, so that the sample pays
# for every standard module virtint needs, as a fresh `virtint` process does.
IMPORT_SECONDS = _import_virtint()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402

import workloads  # noqa: E402

OUT_DIR = os.path.join(ROOT, "bench", "out")
SETUP_SAMPLES = 9  # this process plus fresh interpreters
MIN_SAMPLES = 100  # timed operations per run: ten lie beyond the 90th percentile
OP_LIMIT_S = 20.0  # per operation; a hit is recorded as a failed "timeout"
LOOP_DEADLINE_S = 120.0  # from start-up: no operation starts after this


class OpTimeout(BaseException):
    """Raised by the alarm; BaseException so that no handler in the program
    under test can swallow it."""


def _alarm(signum, frame):
    raise OpTimeout()


def setup_seconds(first: float) -> list[float]:
    """Import times: this process's, then each of a few fresh interpreters."""
    samples = [first]
    for _ in range(SETUP_SAMPLES - 1):
        done = subprocess.run([sys.executable, "-c", IMPORT_PROBE, SRC], cwd=ROOT,
                              capture_output=True, text=True, timeout=60, check=True)
        samples.append(float(done.stdout.strip()))
    return samples


def _digest(path: str) -> tuple[bytes | None, str]:
    try:
        with open(path, "rb") as fp:
            data = fp.read()
    except FileNotFoundError:
        return None, "missing"
    return data, hashlib.sha256(data).hexdigest()


def run_op(cli, op, limit: float):
    """One operation: (exit code, stdout, seconds, error)."""
    out = io.StringIO()
    code, error = None, None
    t0 = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, limit)
        try:
            with contextlib.redirect_stdout(out):
                code = cli.main(list(op.argv))
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except OpTimeout:
        error = "timeout after %.1f s" % limit
    except SystemExit as exc:  # argparse rejects a command line this way
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # the loop must go on; the traceback is the record
        error = "raised " + traceback.format_exc(limit=-2).strip().replace("\n", " | ")
    return code, out.getvalue(), time.perf_counter() - t0, error


def run_loop(cli, verify, pool, seconds: float, min_passes: int, deadline: float,
             first: dict):
    """Whole passes over the pool until ``seconds`` passed; returns
    (records, wall seconds, passes)."""
    ops = [(i, j, op, verify.output_files(op))
           for i, inst in enumerate(pool) for j, op in enumerate(inst.ops)]
    records = []
    passes = 0
    t_start = time.perf_counter()
    while passes < min_passes or time.perf_counter() - t_start < seconds:
        for i, j, op, outputs in ops:
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                return records, time.perf_counter() - t_start, passes
            for path in outputs:
                with contextlib.suppress(FileNotFoundError):
                    os.remove(path)
            code, stdout, elapsed, error = run_op(cli, op, min(OP_LIMIT_S, remaining))
            files = {path: _digest(path) for path in outputs}
            digests = tuple(d for _, d in files.values())
            if error is None and (i, j) not in first:
                first[(i, j)] = ({p: data for p, (data, _) in files.items()}, digests)
            records.append(verify.Record(i, j, code, stdout, elapsed, error, digests))
        passes += 1
    return records, time.perf_counter() - t_start, passes


def _percentile(values, q):
    """The q-th percentile (q in 1..99) by ``statistics.quantiles``."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fp:
            for line in fp:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fp:
            head = fp.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path, encoding="utf-8") as fp:
                return fp.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fp:
            for line in fp:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(workload: str, seed: int, seconds: float, trace: int) -> dict:
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:
        usable = os.cpu_count()
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": usable,
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
        "git_commit": _git_commit(),
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
    }


def measure(pool, seconds: float, trace: int, deadline: float) -> dict:
    """Run the loop(s) over ``pool`` and check the answers; the result
    without its environment.  Needs virtint imported."""
    import tracing
    import verify
    import virtint
    from virtint import cli

    os.environ["VIRTINT_COLOR"] = "never"
    os.makedirs(OUT_DIR, exist_ok=True)
    work = tempfile.mkdtemp(prefix="work-", dir=OUT_DIR)
    here = os.getcwd()
    previous = signal.signal(signal.SIGALRM, _alarm)
    first: dict = {}
    try:
        for inst in pool:
            for name, text in inst.files.items():
                with open(os.path.join(work, name), "w", encoding="utf-8") as fp:
                    fp.write(text)
        os.chdir(work)
        if trace:
            halfway = (time.perf_counter() + deadline) / 2  # both halves get time
            plain, plain_wall, _ = run_loop(cli, verify, pool, seconds / 2, 1,
                                            halfway, first)
            tracer = tracing.Tracer()
            undo = tracing.install(tracer, virtint)
            try:
                timed, wall, passes = run_loop(cli, verify, pool, seconds / 2, 1,
                                               deadline, first)
            finally:
                tracing.restore(undo)
            records = plain + timed
        else:
            per_pass = sum(len(inst.ops) for inst in pool)
            min_passes = max(2, -(-MIN_SAMPLES // per_pass))
            records, wall, passes = run_loop(cli, verify, pool, seconds, min_passes,
                                             deadline, first)
            timed = records
        failed, problems = verify.check_all(pool, records, first)
    finally:
        os.chdir(here)
        signal.signal(signal.SIGALRM, previous)
        shutil.rmtree(work, ignore_errors=True)

    times = sorted(r.seconds for r in timed)
    if trace:
        plain_rate = len(plain) / plain_wall
        rate = len(timed) / wall
        metrics = tracing.per_layer_metrics(tracer, len(timed))
        metrics["trace.ops_per_s"] = (rate, "1/s")
        metrics["trace.overhead_ratio"] = ((plain_rate - rate) / plain_rate, "ratio")
        metrics["trace.op_s_mean"] = (statistics.fmean(times), "s")
    else:
        metrics = {
            "op_s.p50": (statistics.median(times), "s"),
            "op_s.p90": (_percentile(times, 90), "s"),
            "ops_per_s": (len(records) / wall, "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "MB"),
        }
    return {
        "operations": {
            "per_pass": sum(len(inst.ops) for inst in pool),
            "instances": len(pool),
            "attempted": len(records),
            "failed": failed,
            "failed_ratio": failed / len(records) if records else 1.0,
            "passes": passes,
            "timed_samples": len(times),
        },
        "problems": problems,
        "samples": [[r.instance, r.op, r.seconds] for r in timed],
        "metrics": metrics,
        "tracer": tracer if trace else None,
    }


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    started = time.perf_counter()
    args = parse_args(argv)
    if IMPORT_SECONDS is None:
        print("run.py: no virtint sources under %s; run from a source checkout" % SRC,
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("run.py: --seconds must be positive", file=sys.stderr)
        return 2
    if not args.trace:
        setup = setup_seconds(IMPORT_SECONDS)
    pool = workloads.make_pool(args.workload, args.seed)
    result = measure(pool, args.seconds, args.trace, started + LOOP_DEADLINE_S)
    metrics = result.pop("metrics")
    tracer = result.pop("tracer")
    if args.trace:
        tracer.write(os.path.join(OUT_DIR, "spans-%s.json.gz" % args.workload))
    else:
        metrics["setup_s"] = (statistics.median(setup), "s")
        result["setup_samples_s"] = setup
    result["environment"] = environment(args.workload, args.seed, args.seconds, args.trace)
    result["metrics"] = {name: {"value": value, "unit": unit}
                         for name, (value, unit) in sorted(metrics.items())}
    path = os.path.join(OUT_DIR, "result-%s-seed%d-trace%d.json"
                        % (args.workload, args.seed, args.trace))
    with open(path, "w", encoding="utf-8") as fp:
        json.dump(result, fp, indent=2)
    ops = result["operations"]
    for line in result["problems"]:
        print("FAILED " + line)
    print("env " + json.dumps(result["environment"], sort_keys=True))
    print("ops " + json.dumps(ops, sort_keys=True))
    print(json.dumps({"correct": ops["failed"] == 0, "attempted": ops["attempted"],
                      "failed": ops["failed"], "metrics": result["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
