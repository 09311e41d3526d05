"""Acceptance suite: one test per release criterion, with runtime budgets.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line
per criterion.
"""

import random
import subprocess
import sys
import time

from canon import canonical_form
from clause_fixtures import all_clause_cases
from conftest import FIXTURES, load_arch, load_tcsd
from gen import random_tapn, random_tcsd_source
from oracle import naive_reachable
from test_tapn import widen_guards
from virtint import export, integrate, model, parser, tapn, translate

BSCU_LABELS = {"Status", "CMD1m", "AntiSkid1m", "CMD1", "AntiSkid1"}


def _load_set(dirname):
    names = ("tc_command1.tcsd", "tc_monitor1.tcsd", "tc_switch.tcsd")
    tcsds = [load_tcsd(FIXTURES / dirname / n) for n in names]
    arch = load_arch(FIXTURES / dirname / "bscu.arch")
    units = [translate.translate(t) for t in tcsds]
    return units, integrate.build_instance_map(arch, tcsds)


def test_criterion_1_bscu_regression():
    t0 = time.monotonic()
    units, imap = _load_set("bscu")
    report = integrate.check_consistency(units, imap)
    elapsed = time.monotonic() - t0
    assert report.overall == "inconsistent"
    statuses = {v.status for v in report.verdicts}
    assert statuses == {"ordering-deadlock"}
    blocking = set().union(*[set(v.blocking) for v in report.verdicts])
    assert blocking >= BSCU_LABELS
    assert elapsed < 10, elapsed
    print("PASS criterion 1: BSCU ordering deadlock, blocking %s (%.2fs)"
          % (sorted(blocking), elapsed))


def test_criterion_2_repaired_bscu_witness_replays():
    t0 = time.monotonic()
    units, imap = _load_set("bscu_repaired")
    report = integrate.check_consistency(units, imap)
    assert report.overall == "consistent"
    [verdict] = [v for v in report.verdicts if v.status == "consistent"]
    merged = integrate.merge(units, verdict.matching)
    final = tapn.replay(merged.net, merged.m0, verdict.witness)
    assert tapn.marking_counts(final) == {p: n for p, n in merged.target.items() if n}
    elapsed = time.monotonic() - t0
    assert elapsed < 10, elapsed
    print("PASS criterion 2: repaired BSCU consistent, %d-step witness replays (%.2fs)"
          % (len(verdict.witness), elapsed))


def test_criterion_3_solo_feasibility():
    t0 = time.monotonic()
    rng = random.Random(20240901)
    for n in range(100):
        src = random_tcsd_source(rng, "Solo%d" % n, max_sut_events=12, max_depth=2)
        checked = model.validate(parser.parse_tcsd(src).tcsd)
        assert checked.ok, (src, checked.violations)
        unit = translate.translate(checked.tcsd)
        res = tapn.reachable(unit.net, unit.m0, unit.target)
        assert res.verdict == "reachable", src
    elapsed = time.monotonic() - t0
    assert elapsed < 60, elapsed
    print("PASS criterion 3: 100/100 random diagrams solo-feasible (%.1fs)" % elapsed)


def test_criterion_4_oracle_equivalence():
    # The generated nets are forward-only (firing sequences are finite), so
    # the uncapped enumerator can afford exhaustive bounded exploration.
    t0 = time.monotonic()
    rng = random.Random(20240902)
    compared = 0
    for _ in range(60):
        net, m0, target = random_tapn(rng, max_places=8, max_const=6)
        engine = tapn.reachable(net, m0, target)
        assert engine.verdict in ("reachable", "unreachable")
        bound = 2 * len(net.transitions) * (tapn.max_guard_constant(net) + 2)
        naive = naive_reachable(net, m0, target, step_bound=bound)
        assert (engine.verdict == "reachable") == naive, (net, m0, target)
        compared += 1
    elapsed = time.monotonic() - t0
    assert compared >= 50
    assert elapsed < 120, elapsed
    print("PASS criterion 4: %d/%d engine vs naive verdicts identical (%.1fs)"
          % (compared, compared, elapsed))


def test_criterion_5_timing_conflict_classification():
    files = [FIXTURES / "timing" / "window_a.tcsd",
             FIXTURES / "timing" / "window_b.tcsd"]
    tcsds = [load_tcsd(p) for p in files]
    arch = load_arch(FIXTURES / "timing" / "windows.arch")
    units = [translate.translate(t) for t in tcsds]
    imap = integrate.build_instance_map(arch, tcsds)
    report = integrate.check_consistency(units, imap)
    assert report.overall == "inconsistent"
    assert [v.status for v in report.verdicts] == ["timing-conflict"]

    # The naive enumerator agrees on both sides of the classification.
    [verdict] = report.verdicts
    merged = integrate.merge(units, verdict.matching)
    bound = 2 * len(merged.net.transitions) * (tapn.max_guard_constant(merged.net) + 2)
    assert not naive_reachable(merged.net, merged.m0, merged.target, step_bound=bound)
    widened = widen_guards(merged.net)
    assert naive_reachable(widened, merged.m0, merged.target, step_bound=bound)

    # Widening every guard flips the verdict to consistent.
    widened_units = [u._replace(net=widen_guards(u.net)) for u in units]
    relaxed = integrate.check_consistency(widened_units, imap)
    assert relaxed.overall == "consistent"
    print("PASS criterion 5: window fixture is a timing conflict; widened "
          "guards make it consistent")


def test_criterion_6_validator_completeness():
    cases = all_clause_cases()
    assert len(cases) == 10
    for clause, bad, good in cases:
        res_bad = model.validate(bad)
        assert not res_bad.ok, clause
        assert clause in {v.clause for v in res_bad.violations}, (
            clause, res_bad.violations)
        res_good = model.validate(good)
        assert res_good.ok, (clause, res_good.violations)
    print("PASS criterion 6: 10/10 clauses reject their fixture and accept "
          "the mutation")


def test_criterion_7_determinism_and_round_trip(tmp_path):
    checked = 0
    for path in sorted(FIXTURES.rglob("*.tcsd")):
        if "invalid" in str(path):
            continue
        first = parser.parse_tcsd(path.read_text(), filename=str(path)).tcsd
        second = parser.parse_tcsd(parser.format_tcsd(first)).tcsd
        assert canonical_form(first) == canonical_form(second), path
        checked += 1

    unit_a = translate.translate(load_tcsd(FIXTURES / "bscu" / "tc_switch.tcsd"))
    unit_b = translate.translate(load_tcsd(FIXTURES / "bscu" / "tc_switch.tcsd"))
    assert unit_a.net == unit_b.net and unit_a.m0 == unit_b.m0
    assert export.to_dot(unit_a.net, unit_a.m0) == export.to_dot(unit_b.net, unit_b.m0)
    assert export.to_tapaal_xml(unit_a) == export.to_tapaal_xml(unit_b)

    # Byte stability across two separate processes, through the CLI.
    def run(tag):
        dot = tmp_path / ("%s.dot" % tag)
        xml = tmp_path / ("%s.xml" % tag)
        rep = tmp_path / ("%s.json" % tag)
        subprocess.run(
            [sys.executable, "-m", "virtint", "translate",
             str(FIXTURES / "bscu" / "tc_switch.tcsd"),
             "--dot", str(dot), "--tapaal", str(xml)],
            check=True, capture_output=True)
        proc = subprocess.run(
            [sys.executable, "-m", "virtint", "check",
             *[str(FIXTURES / "bscu" / n) for n in
               ("tc_command1.tcsd", "tc_monitor1.tcsd", "tc_switch.tcsd")],
             "--arch", str(FIXTURES / "bscu" / "bscu.arch"),
             "--report", str(rep)],
            capture_output=True)
        assert proc.returncode == 1, proc.stdout
        assert proc.stderr == b"", proc.stderr
        stdout = b"\n".join(line for line in proc.stdout.splitlines()
                            if not line.startswith(b"wrote "))
        return dot.read_bytes(), xml.read_bytes(), rep.read_bytes(), stdout

    assert run("one") == run("two")
    print("PASS criterion 7: round-trip isomorphism on %d fixtures; exports "
          "and CLI output byte-stable across processes" % checked)
