"""Metamorphic relations over the whole of ``check``.

Each test transforms the input in a way whose effect the semantics fixes
and compares the two reports, so a fault shared by two implementations
of one layer, or one that sits between layers, can still show.
"""

import collections
import itertools
import json
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from gen import random_diagram_pair
from virtint import cli, integrate, model, translate

_PAIRS = st.tuples(st.integers(0, 2**32 - 1), st.booleans(), st.booleans())


def _pair(seed, timing, nest):
    return random_diagram_pair(random.Random(seed), max_sut_events=4, timing=timing,
                               nest_in_timeouts=nest)


def _scaled(unit, k):
    """``unit`` rebuilt with every partition timestamp and timeout bound
    multiplied by ``k``."""
    tcsd = unit.tcsd
    tcsd = tcsd._replace(
        partitions=tuple(p._replace(timestamp=p.timestamp * k) for p in tcsd.partitions),
        timeouts=tuple(c._replace(bound=c.bound * k) for c in tcsd.timeouts))
    checked = model.validate(tcsd)
    assert checked.ok, checked.violations
    return translate.translate(checked.tcsd, checked.regions)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_PAIRS, st.sampled_from([2, 3]))
def test_scaling_time_constants_scales_every_witness(pair, k):
    # The difference constraints are linear in the constants, and an
    # ordering deadlock does not depend on the guards at all.
    units, imap = _pair(*pair)
    report = integrate.check_consistency(units, imap)
    scaled = integrate.check_consistency([_scaled(u, k) for u in units], imap)
    assert (scaled.overall, scaled.matchings_truncated) == (report.overall,
                                                            report.matchings_truncated)
    assert len(scaled.verdicts) == len(report.verdicts)
    for v, w in zip(report.verdicts, scaled.verdicts):
        assert (w.status, w.matching, w.blocking) == (v.status, v.matching, v.blocking)
        if v.witness is None:
            assert w.witness is None
        else:
            assert [(s.transition, s.delay) for s in w.witness] == \
                [(s.transition, s.delay * k) for s in v.witness]


def _statuses(verdicts):
    """The multiset of (set of unordered pairs, status) of ``verdicts``."""
    return collections.Counter((frozenset(frozenset(p) for p in matching), status)
                               for matching, status in verdicts)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_PAIRS, st.booleans())
def test_permuting_the_units_keeps_overall_and_statuses(pair, require_all):
    units, imap = _pair(*pair)
    report = integrate.check_consistency(units, imap, require_all=require_all)
    swapped = integrate.check_consistency(units[::-1], imap, require_all=require_all)
    assert swapped.overall == report.overall
    assert _statuses((v.matching.pairs, v.status) for v in swapped.verdicts) == \
        _statuses((v.matching.pairs, v.status) for v in report.verdicts)


def test_permuting_the_cli_inputs_keeps_the_report(fixtures_dir, tmp_path, capsys):
    bscu = fixtures_dir / "bscu"
    arch = str(bscu / "bscu.arch")
    found = set()
    for n, paths in enumerate(itertools.permutations(sorted(bscu.glob("*.tcsd")))):
        out = tmp_path / ("r%d.json" % n)
        assert cli.main(["check", *map(str, paths), "--arch", arch, "--report", str(out)]) == 1
        doc = json.loads(out.read_text(encoding="utf-8"))
        assert not doc["matchings_truncated"]
        pairs = _statuses(([(m["left"], m["right"]) for m in v["matching"]], v["status"])
                          for v in doc["verdicts"])
        found.add((doc["overall"], frozenset(pairs.items())))
    capsys.readouterr()
    assert len(found) == 1 and n == 5
