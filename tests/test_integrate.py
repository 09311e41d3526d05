import itertools
import random

import pytest

from conftest import load_arch, load_tcsd
from virtint import integrate, model, parser, tapn, translate
from virtint.integrate import (IntegrationError, SyncMatching, build_instance_map,
                               check_consistency, enumerate_matchings, merge)
from virtint.tapn import TraceStep


def _prep(sources, arch_src):
    tcsds = [model.validate(parser.parse_tcsd(s).tcsd).tcsd for s in sources]
    arch = parser.parse_architecture(arch_src)
    units = [translate.translate(t) for t in tcsds]
    return units, build_instance_map(arch, tcsds)


_TWO_COMP_ARCH = """
architecture Demo {
  components CompA, CompB
  bind TA { sut = CompA  B -> CompB }
  bind TB { sut = CompB  C -> CompA }
}
"""


def _pair(body_a, body_b):
    return _prep(
        ["tcsd TA { sut S test B %s }" % body_a,
         "tcsd TB { sut R test C %s }" % body_b],
        _TWO_COMP_ARCH,
    )


def _synchronised(body_a, body_b):
    """Whether the single messages of TA and TB are matched with each other."""
    units, imap = _pair(body_a, body_b)
    [matching] = enumerate_matchings(units, imap)
    return bool(matching.pairs)


def test_compatible_requires_matching_components_and_label():
    # S -> B and C -> R both run from CompA to CompB.
    assert _synchronised("msg S -> B : CMD1", "msg C -> R : CMD1")
    assert not _synchronised("msg S -> B : CMD1", "msg C -> R : CMD2")
    # Sender lines map to different components.
    assert not _synchronised("msg S -> B : CMD1", "msg R -> C : CMD1")


def test_compatible_unbound_instance_errors():
    units, imap = _pair("msg S -> B : x", "msg C -> R : x")
    ghost = model.validate(parser.parse_tcsd(
        "tcsd TB { sut R test Ghost msg Ghost -> R : x }").tcsd).tcsd
    with pytest.raises(IntegrationError, match="Ghost"):
        list(enumerate_matchings([units[0], translate.translate(ghost)], imap))


def test_symmetry_on_random_occurrences():
    rng = random.Random(3)
    for _ in range(50):
        label_a, label_b = rng.choice("xy"), rng.choice("xy")
        a_sends, b_sends = rng.random() < 0.5, rng.random() < 0.5
        body_a = ("msg S -> B : %s" if a_sends else "msg B -> S : %s") % label_a
        body_b = ("msg C -> R : %s" if b_sends else "msg R -> C : %s") % label_b
        units, imap = _pair(body_a, body_b)
        [ab] = enumerate_matchings(units, imap)
        [ba] = enumerate_matchings(units[::-1], imap)
        assert sorted(ab.pairs) == sorted((b, a) for a, b in ba.pairs)
        assert bool(ab.pairs) == (label_a == label_b and a_sends == b_sends)


def test_single_occurrence_yields_single_matching():
    units, imap = _pair("msg S -> B : x", "msg C -> R : x")
    ms = list(enumerate_matchings(units, imap))
    assert len(ms) == 1
    assert len(ms[0].pairs) == 1


def test_two_by_two_yields_both_bijections():
    units, imap = _pair("msg S -> B : x msg S -> B : x",
                        "msg C -> R : x msg C -> R : x")
    ms = list(enumerate_matchings(units, imap))
    assert len(ms) == 2
    assert all(len(m.pairs) == 2 for m in ms)
    assert len({m.pairs for m in ms}) == 2


def test_disjoint_labels_yield_empty_matching():
    units, imap = _pair("msg S -> B : x", "msg C -> R : y")
    ms = list(enumerate_matchings(units, imap))
    assert ms == [SyncMatching(())]


def test_strict_policy_flags_unmatched_occurrences():
    units, imap = _pair("msg S -> B : x msg S -> B : x", "msg C -> R : x")
    with pytest.raises(IntegrationError) as err:
        list(enumerate_matchings(units, imap, policy="strict"))
    assert "x" in str(err.value)
    assert "unmatched" in str(err.value)


def test_strict_policy_accepts_balanced_occurrences():
    units, imap = _pair("msg S -> B : x msg S -> B : x",
                        "msg C -> R : x msg C -> R : x")
    ms = list(enumerate_matchings(units, imap, policy="strict"))
    assert len(ms) == 2


def test_merge_collapses_matched_transitions():
    units, imap = _pair("msg S -> B : x", "msg C -> R : x")
    [matching] = enumerate_matchings(units, imap)
    merged = merge(units, matching)
    [t] = [t for t in merged.net.transitions if t.label == "x"]
    incoming = tapn.incoming_arcs(merged.net, t.id)
    outgoing = [a for a in merged.net.transport_arcs if a.transition == t.id]
    assert len(incoming) == 2
    assert len(outgoing) == 2
    assert sum(len(v) for v in merged.m0.values()) == 2
    assert len(merged.target) == 2


def test_merge_empty_matching_decomposes():
    units, imap = _pair("msg S -> B : x", "msg C -> R : y")
    merged = merge(units, SyncMatching(()))
    assert len(merged.net.transitions) == sum(len(u.net.transitions) for u in units)
    res = tapn.reachable(merged.net, merged.m0, merged.target)
    assert res.verdict == "reachable"


def test_merge_is_order_insensitive():
    rng = random.Random(8)
    for _ in range(10):
        n = rng.randint(1, 3)
        labels = ["l%d" % i for i in range(n)]
        rng.shuffle(labels)
        body_a = " ".join("msg S -> B : %s" % l for l in labels)
        body_b = " ".join("msg C -> R : %s" % l for l in labels)
        units, imap = _pair(body_a, body_b)
        [matching] = enumerate_matchings(units, imap)
        ab = merge(units, matching)
        ba = merge(list(reversed(units)), matching)
        assert ab.net == ba.net
        assert ab.m0 == ba.m0
        assert ab.target == ba.target


def test_merge_rejects_bad_matchings():
    units, imap = _pair("msg S -> B : x", "msg C -> R : x")
    with pytest.raises(IntegrationError):
        merge(units, SyncMatching((("TA.T2", "ghost"),)))
    with pytest.raises(IntegrationError):
        # The start transitions are unlabeled.
        merge(units, SyncMatching((("TA.T0", "TB.T0"),)))


def test_agreeing_orders_are_consistent():
    units, imap = _pair("msg S -> B : m1 msg S -> B : m2",
                        "msg C -> R : m1 msg C -> R : m2")
    report = check_consistency(units, imap)
    assert report.overall == "consistent"
    assert report.verdicts[0].witness is not None


def test_opposite_order_always_deadlocks():
    rng = random.Random(77)
    for trial in range(8):
        a, b = "x%d" % trial, "y%d" % trial
        pad_front = ["msg S -> B : p%d" % n for n in range(rng.randint(0, 2))]
        pad_back = ["msg C -> R : q%d" % n for n in range(rng.randint(0, 2))]
        body_a = " ".join(pad_front + ["msg S -> B : %s" % a, "msg S -> B : %s" % b])
        body_b = " ".join(["msg C -> R : %s" % b, "msg C -> R : %s" % a] + pad_back)
        units, imap = _pair(body_a, body_b)
        report = check_consistency(units, imap)
        assert report.overall == "inconsistent"
        assert {v.status for v in report.verdicts} == {"ordering-deadlock"}


def test_classifier_coherence():
    cases = [
        ("msg S -> B : sync msg S -> B : x at 2",
         "msg C -> R : sync at 1 at 6 msg C -> R : x"),
        ("msg S -> B : m1 msg S -> B : m2",
         "msg C -> R : m2 msg C -> R : m1"),
    ]
    for body_a, body_b in cases:
        units, imap = _pair(body_a, body_b)
        report = check_consistency(units, imap)
        for v in report.verdicts:
            merged = merge(units, v.matching)
            untimed = tapn.untimed_reachable(merged.net, merged.m0, merged.target)
            if v.status == "timing-conflict":
                assert untimed.verdict == "reachable"
            if v.status == "ordering-deadlock":
                assert untimed.verdict == "unreachable"


def test_consistency_is_monotone_under_matching_restriction():
    units, imap = _pair("msg S -> B : a msg S -> B : b msg S -> B : c",
                        "msg C -> R : a msg C -> R : b msg C -> R : c")
    [full] = enumerate_matchings(units, imap)
    assert len(full.pairs) == 3
    full_res = tapn.reachable(*_reach_args(merge(units, full)))
    assert full_res.verdict == "reachable"
    for r in range(len(full.pairs) + 1):
        for subset in itertools.combinations(full.pairs, r):
            merged = merge(units, SyncMatching(tuple(subset)))
            res = tapn.reachable(*_reach_args(merged))
            assert res.verdict == "reachable", subset


def _reach_args(merged):
    return merged.net, merged.m0, merged.target


def _project(trace, unit, matching):
    """Project a merged witness onto one component's transitions."""
    label_of = {t.id: t.label for t in unit.net.transitions}
    mine = set(label_of)
    merged_of = {}
    for a, b in matching.pairs:
        mid = "+".join(sorted((a, b)))
        if a in mine:
            merged_of[mid] = a
        if b in mine:
            merged_of[mid] = b
    out = []
    pending = 0
    for step in trace:
        tid = step.transition
        if tid in merged_of:
            tid = merged_of[tid]
        if tid not in mine:
            pending += step.delay
            continue
        consumed = tuple((p, a) for p, a in step.consumed if p in unit.net.places)
        out.append(TraceStep(step.delay + pending, tid,
                             label_of[tid], consumed))
        pending = 0
    return out


def test_witness_projection_replays_on_solo_nets():
    units, imap = _pair("msg S -> B : m1 msg S -> B : m2 at 4",
                        "msg C -> R : m1 at 2 msg C -> R : m2")
    report = check_consistency(units, imap)
    assert report.overall == "consistent"
    v = report.verdicts[0]
    for unit in units:
        solo_trace = _project(v.witness, unit, v.matching)
        final = tapn.replay(unit.net, unit.m0, solo_trace)
        assert tapn.marking_counts(final) == unit.target


def test_require_all_demands_every_matching():
    units, imap = _pair("msg S -> B : ping msg S -> B : done msg S -> B : ping",
                        "msg C -> R : ping msg C -> R : done msg C -> R : ping")
    default = check_consistency(units, imap)
    assert default.overall == "consistent"
    statuses = sorted(v.status for v in default.verdicts)
    assert statuses == ["consistent", "ordering-deadlock"]
    strict = check_consistency(units, imap, require_all=True)
    assert strict.overall == "inconsistent"


def test_bound_exceeded_becomes_inconclusive():
    units, imap = _pair("msg S -> B : m1 msg S -> B : m2",
                        "msg C -> R : m2 msg C -> R : m1")
    report = check_consistency(units, imap, max_states=3)
    assert report.overall == "inconclusive"
    assert report.verdicts[0].status == "bound-exceeded"


def test_matching_cap_reports_truncation():
    units, imap = _pair(" ".join(["msg S -> B : x"] * 4),
                        " ".join(["msg C -> R : x"] * 4))
    report = check_consistency(units, imap, max_matchings=5)
    assert report.matchings_truncated
    assert len(report.verdicts) == 5


def test_duplicate_sut_component_rejected():
    tcsds = [model.validate(parser.parse_tcsd(s).tcsd).tcsd for s in
             ("tcsd TA { sut S test B msg S -> B : x }",
              "tcsd TB { sut R test C msg R -> C : x }")]
    arch = parser.parse_architecture(
        "architecture A { components C1, C2 "
        "bind TA { sut = C1 B -> C2 } bind TB { sut = C1 C -> C2 } }")
    units = [translate.translate(t) for t in tcsds]
    imap = build_instance_map(arch, tcsds)
    with pytest.raises(IntegrationError):
        check_consistency(units, imap)


def test_missing_binding_reported():
    tcsds = [model.validate(parser.parse_tcsd(
        "tcsd TA { sut S test B msg S -> B : x }").tcsd).tcsd]
    arch = parser.parse_architecture("architecture A { components C1 }")
    with pytest.raises(IntegrationError) as err:
        build_instance_map(arch, tcsds)
    assert "TA" in str(err.value)


def test_bscu_fixture_deadlock(bscu):
    tcsds, arch = bscu
    units = [translate.translate(t) for t in tcsds]
    imap = build_instance_map(arch, tcsds)
    report = check_consistency(units, imap)
    assert report.overall == "inconsistent"
    [v] = report.verdicts
    assert v.status == "ordering-deadlock"
    assert set(v.blocking) >= {"Status", "CMD1m", "AntiSkid1m", "CMD1", "AntiSkid1"}
