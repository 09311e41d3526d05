"""Answer checks, run after the timed loop on what each operation produced.

Every operation is compared with the answer its instance was built with:
exit code, printed verdict, the report's ``overall``, ``failure_classes``
and per-matching statuses, or the violated clause.  Once per instance,
every consistent witness is replayed through ``integrate.merge`` and
``tapn.replay``, the TAPAAL output is parsed as XML, and every report or
export written during the run must be byte-identical to the first one.
"""

from __future__ import annotations

import json
import os
import re
import xml.etree.ElementTree as ET
from dataclasses import dataclass

from virtint import integrate, model, parser, tapn, translate


@dataclass
class Record:
    """What one operation did."""

    instance: int
    op: int
    code: int | None
    stdout: str
    seconds: float
    error: str | None  # "timeout", or the exception raised out of cli.main
    digests: tuple[str, ...]  # of the files the operation wrote


def output_files(op) -> list[str]:
    """Files a correct run of the operation writes, in a fixed order.

    An invalid diagram stops ``translate`` before it writes anything.
    """
    if op.clause:
        return []
    argv = op.argv
    return [argv[i + 1] for i, a in enumerate(argv)
            if a in ("--report", "--dot", "--tapaal")]


def _units(inst, argv):
    units = []
    for path in argv[1:]:
        if path.startswith("--"):
            break
        checked = model.validate(parser.parse_tcsd(inst.files[path], path).tcsd)
        units.append(translate.translate(checked.tcsd))
    return units


def _replay_witnesses(inst, op, report) -> list[str]:
    problems = []
    units = None
    for v in report["verdicts"]:
        if v["status"] != "consistent":
            continue
        if not v["witness"]:
            problems.append("verdict %d is consistent without a witness" % v["index"])
            continue
        units = units or _units(inst, op.argv)
        matching = integrate.SyncMatching(
            tuple((p["left"], p["right"]) for p in v["matching"]))
        merged = integrate.merge(units, matching)
        net = merged.net
        steps = []
        for s in v["witness"]:
            arcs = tapn.incoming_arcs(net, s["transition"])
            consumed = tuple((a.place if isinstance(a, tapn.InputArc) else a.source, None)
                             for a in arcs)
            steps.append(tapn.TraceStep(s["delay"], s["transition"], s["label"], consumed))
        try:
            final = tapn.replay(net, merged.m0, steps)
        except tapn.ReplayError as exc:
            problems.append("witness %d does not replay: %s" % (v["index"], exc))
            continue
        if tapn.marking_counts(final) != dict(merged.target):
            problems.append("witness %d ends off target" % v["index"])
    return problems


def _clauses(path: str, stdout: str) -> set[str] | None:
    """Clause names of the violation lines; None if a line is something else."""
    pattern = re.compile(re.escape(path) + r"(?::\d+:\d+)?: ([a-z][a-z-]*): ")
    found = set()
    for line in stdout.splitlines():
        m = pattern.match(line)
        if not m:
            return None
        found.add(m.group(1))
    return found


def check_instance(inst, op_index: int, first: dict[str, bytes | None]) -> list[str]:
    """Checks made once per operation of an instance, on its first outputs."""
    op = inst.ops[op_index]
    missing = [f for f, data in first.items() if data is None]
    if missing:
        return ["did not write %s" % ", ".join(missing)]
    if op.argv[0] == "check":
        return _replay_witnesses(inst, op, json.loads(first[output_files(op)[0]]))
    if not first:
        return []
    problems = []
    dot, xml = (first[f] for f in output_files(op))
    if not dot.startswith(b"digraph"):
        problems.append("DOT output does not start with a digraph")
    try:
        ET.fromstring(xml)
    except ET.ParseError as exc:
        problems.append("TAPAAL output is not well-formed XML: %s" % exc)
    return problems


def check_record(inst, rec: Record, first: dict[str, bytes | None],
                 first_digests: tuple[str, ...]) -> list[str]:
    op = inst.ops[rec.op]
    problems = []
    if rec.code != op.exit_code:
        problems.append("exit code %s, expected %d" % (rec.code, op.exit_code))
    if rec.digests != first_digests:
        problems.append("outputs differ from the first run of the same input")
    cmd = op.argv[0]
    if cmd == "check":
        data = first[output_files(op)[0]]
        report = json.loads(data) if data is not None else {"verdicts": []}
        got = (report.get("overall"), tuple(report.get("failure_classes", ())),
               tuple(v["status"] for v in report["verdicts"]))
        want = (op.overall, op.failure_classes, op.statuses)
        if got != want:
            problems.append("report says %s, expected %s" % (got, want))
        summary = [ln for ln in rec.stdout.splitlines() if ln.startswith("overall: ")]
        if len(summary) != 1 or summary[0].split()[1] != op.overall:
            problems.append("printed %s, expected overall %s" % (summary, op.overall))
    elif op.clause:
        clauses = _clauses(op.argv[1], rec.stdout)
        if clauses != {op.clause}:
            problems.append("violations %s, expected only %s" % (clauses, op.clause))
    elif cmd == "validate":
        name = os.path.splitext(op.argv[1])[0]
        if rec.stdout != "ok %s (%s)\n" % (op.argv[1], name):
            problems.append("validate printed %r" % rec.stdout[:200])
    elif rec.stdout != "".join("wrote %s\n" % f for f in output_files(op)):
        problems.append("translate printed %r" % rec.stdout[:200])
    return problems


def check_all(pool, records: list[Record], first: dict) -> tuple[int, list[str]]:
    """Number of failed operations and a sample of what went wrong.

    ``first`` maps (instance, op) to the files written by its first run
    that raised nothing, and their digests.
    """
    once = {}
    for key, (files, _) in first.items():
        try:
            once[key] = check_instance(pool[key[0]], key[1], files)
        except Exception as exc:  # a crash while checking is a wrong answer
            once[key] = ["checking raised %r" % exc]
    failed = 0
    problems: list[str] = []
    for rec in records:
        inst = pool[rec.instance]
        key = (rec.instance, rec.op)
        if rec.error is not None:
            found = [rec.error]
        else:
            files, digests = first[key]
            found = check_record(inst, rec, files, digests) + once[key]
        if found:
            failed += 1
            if len(problems) < 20:
                problems.append("%s `%s`: %s" % (inst.name, " ".join(inst.ops[rec.op].argv),
                                                 "; ".join(found)))
    return failed, problems
