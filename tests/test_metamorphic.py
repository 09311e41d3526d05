"""Metamorphic relations over the whole of ``check``.

Each test transforms the input in a way whose effect the semantics fixes
and compares the two reports, so a fault shared by two implementations
of one layer, or one that sits between layers, can still show.
"""

import collections
import itertools
import json
import random
import re

from hypothesis import given, settings
from hypothesis import strategies as st

from gen import random_diagram_pair
from virtint import cli, integrate, model, parser, translate

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


def _retimed(unit, index, delta):
    """``unit`` rebuilt with the bound of its ``index``-th timeout raised
    by ``delta``."""
    timeouts = list(unit.tcsd.timeouts)
    timeouts[index] = timeouts[index]._replace(bound=timeouts[index].bound + delta)
    checked = model.validate(unit.tcsd._replace(timeouts=tuple(timeouts)))
    assert checked.ok, checked.violations
    return translate.translate(checked.tcsd, checked.regions)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_PAIRS, st.integers(0, 2**16), st.integers(1, 3))
def test_raising_a_timeout_bound_keeps_every_consistent_matching(pair, pick, delta):
    # A wider window only relaxes one guard, so every schedule that met
    # the old one meets the new one.
    seed, _, nest = pair
    units, imap = _pair(seed, True, nest)
    spots = [(i, k) for i, u in enumerate(units) for k in range(len(u.tcsd.timeouts))]
    i, k = spots[pick % len(spots)]
    report = integrate.check_consistency(units, imap)
    units[i] = _retimed(units[i], k, delta)
    raised = integrate.check_consistency(units, imap)
    assert len(raised.verdicts) == len(report.verdicts)
    for v, w in zip(report.verdicts, raised.verdicts):
        assert w.matching == v.matching
        if v.status == integrate.CONSISTENT:
            assert w.status == integrate.CONSISTENT
    if report.overall == integrate.CONSISTENT:
        assert raised.overall == integrate.CONSISTENT


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_PAIRS, st.sampled_from([1, 3, 10, 1_000_000]), st.one_of(st.none(), st.integers(0, 6)))
def test_bounds_never_change_an_ordering_deadlock(pair, max_states, max_total_delay):
    seed, _, nest = pair
    units, imap = _pair(seed, True, nest)
    free = integrate.check_consistency(units, imap)
    bounded = integrate.check_consistency(units, imap, max_states=max_states,
                                          max_total_delay=max_total_delay)
    assert len(bounded.verdicts) == len(free.verdicts)
    for v, w in zip(free.verdicts, bounded.verdicts):
        assert w.matching == v.matching
        assert (w.status == integrate.ORDERING_DEADLOCK) \
            == (v.status == integrate.ORDERING_DEADLOCK), (v, w)


def _overall(statuses, truncated, require_all):
    """The overall verdict of ``statuses``, by the rule of ``check``."""
    if require_all:
        if {integrate.ORDERING_DEADLOCK, integrate.TIMING_CONFLICT} & set(statuses):
            return "inconsistent"
    elif integrate.CONSISTENT in statuses:
        return integrate.CONSISTENT
    if truncated or integrate.BOUND_EXCEEDED in statuses:
        return "inconclusive"
    return integrate.CONSISTENT if require_all else "inconsistent"


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_PAIRS, st.booleans())
def test_max_delay_bound_is_the_last_time_of_each_witness(pair, require_all):
    # A consistent matching whose witness waits T in all meets a delay
    # bound of T and not one of T - 1; no other verdict notices a bound.
    seed, _, nest = pair
    units, imap = _pair(seed, True, nest)
    free = integrate.check_consistency(units, imap, require_all=require_all)
    totals = [sum(s.delay for s in v.witness) if v.status == integrate.CONSISTENT
              else None for v in free.verdicts]
    bounds = {t for t in totals if t is not None}
    bounds |= {t - 1 for t in bounds if t >= 1}
    for bound in sorted(bounds):
        report = integrate.check_consistency(units, imap, require_all=require_all,
                                             max_total_delay=bound)
        if bound == max(bounds):  # the largest total: no verdict changes
            assert report == free
        assert len(report.verdicts) == len(free.verdicts)
        assert report.matchings_truncated == free.matchings_truncated
        for v, w, total in zip(free.verdicts, report.verdicts, totals):
            if total is not None and total > bound:
                assert w == v._replace(status=integrate.BOUND_EXCEEDED, witness=None)
                assert (w.blocking, w.states_explored) == ((), 0)
            else:
                assert w == v
        assert report.overall == _overall([w.status for w in report.verdicts],
                                          report.matchings_truncated, require_all)
    assert free.overall == _overall([v.status for v in free.verdicts],
                                    free.matchings_truncated, require_all)


def _renaming(names, rng):
    """A bijection of ``names`` onto fresh identifiers, in shuffled order."""
    names = sorted(names)
    fresh = ["N%02d" % n for n in range(len(names))]
    rng.shuffle(fresh)
    return dict(zip(names, fresh))


def _renamed_tcsd(tcsd, rename):
    base = tcsd.base
    return tcsd._replace(sut=rename[tcsd.sut], base=base._replace(
        name=rename[base.name],
        instances=tuple(rename[i] for i in base.instances),
        events={rename[i]: tuple(e._replace(instance=rename[e.instance]) for e in evs)
                for i, evs in base.events.items()},
        messages=tuple(m._replace(label=rename[m.label]) for m in base.messages)))


def _outcome(overall, verdicts):
    """``overall`` and the multiset of (status, sorted ``blocking``)."""
    return overall, collections.Counter((status, tuple(sorted(blocking)))
                                        for status, blocking in verdicts)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_PAIRS, st.integers(0, 2**32 - 1), st.booleans())
def test_renaming_keeps_overall_and_statuses(pair, seed, require_all):
    # One bijection of labels, lifelines, components and diagram names:
    # transition ids and the order of classes change, the verdicts do not.
    # The relation holds for the whole enumeration, not for a prefix.
    units, imap = _pair(*pair)
    bounds = {"require_all": require_all, "max_matchings": 10_000}
    report = integrate.check_consistency(units, imap, **bounds)
    tcsds = [u.tcsd for u in units]
    names = {n for t in tcsds for n in (t.base.name, *t.base.instances)}
    names |= {m.label for t in tcsds for m in t.base.messages}
    names |= set(imap.relation.values())
    rename = _renaming(names, random.Random(seed))
    renamed = []
    for tcsd in tcsds:
        checked = model.validate(_renamed_tcsd(tcsd, rename))
        assert checked.ok, checked.violations
        renamed.append(translate.translate(checked.tcsd, checked.regions))
    renamed_map = integrate.InstanceMap(
        {(rename[d], rename[i]): rename[c] for (d, i), c in imap.relation.items()},
        {rename[d]: rename[c] for d, c in imap.sut_components.items()})
    other = integrate.check_consistency(renamed, renamed_map, **bounds)
    assert not report.matchings_truncated and not other.matchings_truncated
    assert _outcome(other.overall, ((v.status, v.blocking) for v in other.verdicts)) == \
        _outcome(report.overall, ((v.status, [rename[b] for b in v.blocking])
                                  for v in report.verdicts))


def test_renaming_the_cli_inputs_keeps_the_report(fixtures_dir, tmp_path, capsys):
    bscu = fixtures_dir / "bscu"
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(bscu.iterdir())}
    arch = parser.parse_architecture(sources["bscu.arch"])
    names = {arch.name, *arch.components}
    for binding in arch.bindings.values():
        names |= {binding.tcsd, *binding.instance_map}
    for name, text in sources.items():
        if name.endswith(".tcsd"):
            base = parser.parse_tcsd(text).tcsd.base
            names |= {base.name, *base.instances, *(m.label for m in base.messages)}
    rename = _renaming(names, random.Random(1))
    for name, text in sources.items():
        (tmp_path / name).write_text(
            re.sub(r"\w+", lambda m: rename.get(m.group(), m.group()), text),
            encoding="utf-8")

    def check(directory):
        out = tmp_path / "r.json"
        files = [str(directory / n) for n in sorted(sources) if n.endswith(".tcsd")]
        assert cli.main(["check", *files, "--arch", str(directory / "bscu.arch"),
                         "--report", str(out)]) == 1
        doc = json.loads(out.read_text(encoding="utf-8"))
        return doc["overall"], [(v["status"], v["blocking"]) for v in doc["verdicts"]]

    overall, verdicts = check(bscu)
    assert verdicts == [("ordering-deadlock",
                         ["AntiSkid1", "AntiSkid1m", "CMD1", "CMD1m", "Status"])]
    assert _outcome(*check(tmp_path)) == _outcome(
        overall, ((status, [rename[b] for b in blocking]) for status, blocking in verdicts))
    capsys.readouterr()
