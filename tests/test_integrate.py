import itertools
import math
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import check_reference
import merge_reference
from conftest import FIXTURES, load_arch, load_tcsd
from gen import random_diagram_pair, random_merged_units
from test_stp import _compiled, _search_net, _window_pair
from test_tapn import widen_guards
from virtint import integrate, model, parser, stp, tapn, translate
from virtint.integrate import (IntegrationError, SyncMatching, build_instance_map,
                               check_consistency, enumerate_matchings, merge)
from virtint.tapn import InputArc, OutputArc, Tapn, TraceStep, Transition, TransportArc
from virtint.translate import TranslationUnit


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
            untimed = tapn.reachable(widen_guards(merged.net), merged.m0,
                                     merged.target)
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
    # Constraints feasible only past max_total_delay are bound-exceeded.
    units, imap = _window_pair(5)
    report = check_consistency(units, imap, max_total_delay=3)
    assert report.overall == "inconclusive"
    assert [v.status for v in report.verdicts] == ["bound-exceeded"]
    # A state bound that cuts a deadlock's search short leaves only its
    # `blocking` empty: the deadlock is not inconclusive.
    units, imap = _pair("msg S -> B : m1 msg S -> B : m2",
                        "msg C -> R : m2 msg C -> R : m1")
    for max_states, blocking in ((3, ()), (1_000_000, ("m1", "m2"))):
        report = check_consistency(units, imap, max_states=max_states)
        assert report.overall == "inconsistent"
        [verdict] = report.verdicts
        assert (verdict.status, verdict.blocking) == ("ordering-deadlock", blocking)
        assert verdict.states_explored <= max_states


def test_matching_cap_reports_truncation():
    units, imap = _pair(" ".join(["msg S -> B : x"] * 4),
                        " ".join(["msg C -> R : x"] * 4))
    report = check_consistency(units, imap, max_matchings=5)
    assert report.matchings_truncated
    assert len(report.verdicts) == 5


def test_require_all_is_inconclusive_when_matchings_are_truncated():
    # Both matchings of two unordered equal labels are consistent, but
    # under --require-all one left unchecked leaves the answer open.
    body = "par { op { msg %s : x } op { msg %s : x } }"
    units, imap = _pair(body % ("S -> B", "S -> B"), body % ("C -> R", "C -> R"))
    full = check_consistency(units, imap, require_all=True)
    assert [v.status for v in full.verdicts] == ["consistent", "consistent"]
    assert full.overall == "consistent"
    for require_all, overall in ((False, "consistent"), (True, "inconclusive")):
        report = check_consistency(units, imap, require_all=require_all, max_matchings=1)
        assert report.matchings_truncated
        assert [v.status for v in report.verdicts] == ["consistent"]
        assert report.overall == overall


def test_check_refuses_an_unknown_policy_and_a_single_diagram():
    units, imap = _pair("msg S -> B : x", "msg C -> R : x")
    with pytest.raises(ValueError, match="^unknown policy 'eager'$"):
        check_consistency(units, imap, policy="eager")
    with pytest.raises(IntegrationError,
                       match="^virtual integration needs at least two diagrams$"):
        check_consistency(units[:1], imap)


def test_unbound_test_instance_reported():
    tcsds = [model.validate(parser.parse_tcsd(
        "tcsd TA { sut S test B test Ghost msg S -> B : x msg Ghost -> S : y }").tcsd).tcsd]
    arch = parser.parse_architecture(
        "architecture A { components C1, C2 bind TA { sut = C1 B -> C2 } }")
    with pytest.raises(IntegrationError,
                       match="^instance 'Ghost' of 'TA' is not bound to a component$"):
        build_instance_map(arch, tcsds)


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


_TRIPLE_ARCH = """
architecture Tri {
  components P, Q, W
  bind TA { sut = P  B -> Q }
  bind TB { sut = Q  A -> P  C -> W }
  bind TC { sut = W  B -> Q }
}
"""


def _fanout_pair(k, c=1):
    """k equal pings: only the order-preserving pairing is consistent."""
    return _pair(" ".join(["msg S -> B : ping"] * k + ["msg S -> B : done"]),
                 "timeout %d { %s } msg C -> R : done"
                 % (c, " ".join(["msg C -> R : ping"] * k)))


def _fanout_triple(k, j, c=1):
    """k pings from TA to TB and j pongs from TB to TC: k! * j! matchings."""
    return _prep(["tcsd TA { sut S test B %s }" % " ".join(["msg S -> B : ping"] * k),
                  "tcsd TB { sut R test A test C %s %s }"
                  % (" ".join(["msg A -> R : ping"] * k),
                     " ".join(["msg R -> C : pong"] * j)),
                  "tcsd TC { sut T test B timeout %d { %s } }"
                  % (c, " ".join(["msg B -> T : pong"] * j))],
                 _TRIPLE_ARCH)


def _fixture_sets():
    for arch in sorted(FIXTURES.glob("*/*.arch")):
        tcsds = [load_tcsd(p) for p in sorted(arch.parent.glob("*.tcsd"))]
        yield [translate.translate(t) for t in tcsds], build_instance_map(load_arch(arch), tcsds)


def _outcome(fn, *args):
    """What a call returns, or the type and text of what it raises."""
    try:
        return fn(*args)
    except (IntegrationError, ValueError) as exc:
        return type(exc).__name__, str(exc)


def _assert_merges_as_reference(units, imap, limit=None):
    """Every matching merges as the reference merge does, from a list and
    from the union that ``check_consistency`` shares between matchings."""
    union = integrate._Union(units)
    count = 0
    for matching in itertools.islice(enumerate_matchings(units, imap), limit):
        want = merge_reference.merge(units, matching)
        backwards = merge_reference.merge(units[::-1], matching)
        for got, ref in ((merge(units, matching), want), (merge(union, matching), want),
                         (merge(units[::-1], matching), backwards)):
            assert got == ref, matching
            assert list(got.m0.items()) == list(ref.m0.items())
            assert list(got.target.items()) == list(ref.target.items())
        count += 1
    return count


def test_merge_equals_reference_on_fixtures_and_fanout_pairs():
    for units, imap in _fixture_sets():
        assert _assert_merges_as_reference(units, imap) >= 1
    assert _assert_merges_as_reference(*_window_pair(2)) == 1
    for k in range(2, 6):
        assert _assert_merges_as_reference(*_fanout_pair(k)) == math.factorial(k)
    assert _assert_merges_as_reference(*_fanout_triple(3, 2)) == 12


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.booleans(), st.integers(1, 7))
def test_merge_equals_reference_on_random_and_window_pairs(seed, timing, window):
    units, imap = random_diagram_pair(random.Random(seed), timing=timing)
    _assert_merges_as_reference(units, imap, limit=24)
    _assert_merges_as_reference(*_window_pair(window, 9 - window))


def _chain_unit(name, label, places=None, extra=()):
    """A two-transition unit: ``name``.T0 (unlabeled) then ``name``.T1 with
    ``label``; ``places`` renames its three places."""
    p = places or ["%s.P%d" % (name, n) for n in range(3)]
    t0, t1 = name + ".T0", name + ".T1"
    net = Tapn(name, tuple(p), (Transition(t0), Transition(t1, label)) + tuple(extra),
               (InputArc(p[0], t0), InputArc(p[1], t1)),
               (OutputArc(t0, p[1]), OutputArc(t1, p[2])), ())
    return TranslationUnit(None, net, {p[0]: (0,)}, {p[2]: 1}, {})


def _clash_cases():
    """(units, pairs) whose merged net Tapn.check rejects, or whose pair
    may clash: a pair within one unit that shares a place (twice as a
    normal arc, which passes, and as a normal and a transport arc), a
    merged id that names a place or another transition, two pairs with
    one merged id, two units with one place, and a place named as a
    transition that the matching renames."""
    a, b = _chain_unit("A", "x"), _chain_unit("B", "x")
    shared = _chain_unit("C", "x", extra=(Transition("C.T2", "x"),))
    # The second arc from C.P1 comes first in the unit, so the merged net
    # lists it first although the union lists it second.
    twice = shared._replace(net=shared.net._replace(
        input_arcs=(InputArc("C.P1", "C.T2", tapn.Guard(1, 2)),) + shared.net.input_arcs))
    moved = shared._replace(net=shared.net._replace(
        transport_arcs=(TransportArc("C.P1", "C.T2", "C.P0"),)))
    return [
        ([a, b], (("A.T1", "B.T1"),)),
        ([twice, b], (("C.T1", "C.T2"),)),
        ([moved, b], (("C.T1", "C.T2"),)),
        ([_chain_unit("A", "x", ["A.P0", "A.T1+B.T1", "A.P2"]), b], (("A.T1", "B.T1"),)),
        ([a, b, _chain_unit("A.T1+B", "y")], (("A.T1", "B.T1"),)),
        ([_chain_unit(n, "x") for n in ("p", "p.T1+q", "q.T1+r", "r")],
         (("p.T1+q.T1", "r.T1"), ("p.T1", "q.T1+r.T1"))),
        ([a, _chain_unit("B", "x", ["B.P0", "B.P1", "A.P2"])], (("A.T1", "B.T1"),)),
        ([a, b, _chain_unit("D", "y", ["D.P0", "B.T1", "D.P2"])], ()),
        ([a, b, _chain_unit("D", "y", ["D.P0", "B.T1", "D.P2"])], (("A.T1", "B.T1"),)),
    ]


def test_merge_errors_equal_the_reference():
    units, imap = _pair("msg S -> B : x msg S -> B : y", "msg C -> R : x msg C -> R : y")
    x_a, y_a = [t.id for t in units[0].net.transitions if t.label is not None]
    x_b, y_b = [t.id for t in units[1].net.transitions if t.label is not None]
    renamed = units[0]._replace(net=units[0].net._replace(name="Other"))
    cases = [
        (units, ((x_a, "ghost"),)),  # unknown
        (units, (("TA.T0", "TB.T0"),)),  # unlabeled
        (units, ((x_a, y_b),)),  # label mismatch
        (units, ((x_a, x_b), (y_a, y_b), (x_a, y_b))),  # labels before injectivity
        (units, ((x_a, x_b), (x_a, x_b))),  # not injective
        (units, ((x_a, x_b), (y_a, x_b))),
        ([units[0], units[0]], ((x_a, x_b),)),  # duplicate names
        ([units[0], renamed], ()),  # a transition id in two nets
        (units, ((x_a, x_a),)),
        (units, ((x_a, y_a),)),
    ]
    cases += _clash_cases()
    outcomes = []
    for units, pairs in cases:
        matching = SyncMatching(pairs)
        want = _outcome(merge_reference.merge, units, matching)
        assert _outcome(merge, units, matching) == want, pairs
        union = _outcome(integrate._Union, units)
        if isinstance(union, integrate._Union):
            assert _outcome(merge, union, matching) == want, pairs
        else:
            assert union == want, pairs
        outcomes.append("merged" if isinstance(want, TranslationUnit) else want)
    assert outcomes == [
        ("IntegrationError", "matching references unknown transition ghost"),
        ("IntegrationError", "matching references unlabeled transition TA.T0"),
        ("IntegrationError", "matched transitions %s and %s have different labels"
         % (x_a, y_b)),
        ("IntegrationError", "matched transitions %s and %s have different labels"
         % (x_a, y_b)),
        ("IntegrationError", "matching is not injective: %s" % sorted([x_a, x_a, x_b, x_b])),
        ("IntegrationError", "matched transitions %s and %s have different labels"
         % (y_a, x_b)),
        ("IntegrationError", "duplicate diagram names: ['TA', 'TA']"),
        ("IntegrationError", "transition id TA.T0 appears in two nets"),
        ("IntegrationError", "matching is not injective: %s" % [x_a, x_a]),
        ("IntegrationError", "matched transitions %s and %s have different labels"
         % (x_a, y_a)),
        "merged",
        "merged",
        ("ValueError", "C.P1->C.T1+C.T2 is both a normal and a transport arc"),
        ("ValueError", "place and transition ids overlap: {'A.T1+B.T1'}"),
        ("ValueError", "duplicate transition ids"),
        ("ValueError", "duplicate transition ids"),
        ("ValueError", "duplicate place ids"),
        ("ValueError", "place and transition ids overlap: {'B.T1'}"),
        "merged",
    ]


def _merged_shape(units, pairs):
    """What ``_Union.fuse`` must give for ``pairs``: the event graph and
    marked places of their merged net, None where that net is not an
    ordered marked graph, or ``merge``'s error."""
    merged = merge(units, SyncMatching(pairs))
    found = stp.read_net(merged.net, merged.m0, merged.target)
    return found[:2] if found and found[2] else None


def _fuses_as_merged(units, pairs):
    """``_Union.fuse`` of ``pairs`` is ``_merged_shape``'s; returns it and
    whether ``fuse`` built the merged net."""
    want = _outcome(_merged_shape, units, pairs)
    union = integrate._Union(units)
    if union.ok:
        union.graph  # read off the merged net of no pair, once
    built, merged_net = [], union.merged_net
    union.merged_net = lambda pairs: built.append(pairs) or merged_net(pairs)
    got = _outcome(union.fuse, pairs)
    assert got == want, pairs
    if got is not None and not isinstance(got[0], str):
        assert list(got[0].nodes.items()) == list(want[0].nodes.items()), pairs
    return got, bool(built)


def _self_loop_units():
    """A.T1 produces A.P2, which B.T1, its partner, consumes: the pair
    shares a place, yet every place keeps one producer and one consumer."""
    a = _chain_unit("A", "x")
    b = TranslationUnit(None, Tapn("B", ("B.P2",), (Transition("B.T1", "x"),),
                                   (InputArc("A.P2", "B.T1"),),
                                   (OutputArc("B.T1", "B.P2"),), ()),
                        {}, {"B.P2": 1}, {})
    return [a._replace(target={}), b]


def test_fuse_on_every_clash_case_equals_the_merged_net():
    loop = (_self_loop_units(), (("A.T1", "B.T1"),))
    found = [_fuses_as_merged(*case) for case in _clash_cases() + [loop]]
    assert [got if got is None or isinstance(got[0], str) else "graph"
            for got, _ in found] == [
        "graph",
        None,  # C.P1 has two consumers: not a marked graph
        ("ValueError", "C.P1->C.T1+C.T2 is both a normal and a transport arc"),
        ("ValueError", "place and transition ids overlap: {'A.T1+B.T1'}"),
        ("ValueError", "duplicate transition ids"),
        ("ValueError", "duplicate transition ids"),
        ("ValueError", "duplicate place ids"),
        ("ValueError", "place and transition ids overlap: {'B.T1'}"),
        "graph",
        "graph",  # a self-loop on A.P2: the fused transition never fires
    ]
    # Only a clash, a union that fails Tapn.check or one not of stp's
    # shape builds the merged net; the self-loop is fused on the graph.
    assert [built for _, built in found] == [False] + [True] * 8 + [False]
    graph, marked = found[-1][0]
    assert graph.producer["A.P2"] == graph.consumer["A.P2"] == "A.T1+B.T1"
    order, _ = stp.graph_order(graph, marked)
    assert order == ["A.T0"]


def test_a_transition_may_lead_to_the_target_only_through_its_partner(monkeypatch):
    # A.t consumes its marked place and produces nothing, so alone it has
    # no causal path to a target place; fused with B.t it has B.t's.
    a = TranslationUnit(None, Tapn("A", ("A.p0",), (Transition("A.t", "m"),),
                                   (InputArc("A.p0", "A.t"),), (), ()),
                        {"A.p0": (0,)}, {}, {})
    b = TranslationUnit(None, Tapn("B", ("B.p0", "B.p1"), (Transition("B.t", "m"),),
                                   (InputArc("B.p0", "B.t"),), (OutputArc("B.t", "B.p1"),),
                                   ()),
                        {"B.p0": (0,)}, {"B.p1": 1}, {})
    pairs = (("A.t", "B.t"),)
    merged = merge([a, b], SyncMatching(pairs))
    graph, marked, leads = stp.read_net(merged.net, merged.m0, merged.target)
    assert leads and stp.graph_order(graph, marked)[0] == ["A.t+B.t"]
    assert tapn.reachable(merged.net, merged.m0, merged.target).verdict == tapn.REACHABLE
    assert integrate._Union([a, b]).fuse(()) is None
    (graph, marked), built = _fuses_as_merged([a, b], pairs)
    assert list(graph.nodes) == ["A.t+B.t"] and marked == {"A.p0", "B.p0"} and not built
    # So check decides the matching instead of calling it an internal error.
    imap = integrate.InstanceMap({}, {"A": "CA", "B": "CB"})
    for module in (integrate, check_reference):
        monkeypatch.setattr(module, "enumerate_matchings",
                            lambda *args: iter([SyncMatching(pairs)]))
    report = _assert_checks_as_the_reference([a, b], imap, {})
    assert [(v.status, v.witness) for v in report.verdicts] == [
        ("consistent", [TraceStep(0, "A.t+B.t", "m", (("A.p0", None), ("B.p0", None)))])]


def _matchings(enumerate, units, imap, policy):
    try:
        return list(enumerate(units, imap, policy))
    except IntegrationError as exc:
        return str(exc)


def test_matchings_come_one_at_a_time_in_the_eager_order():
    sets = [*_fixture_sets(), _window_pair(2), *(_fanout_pair(k) for k in range(2, 6)),
            _fanout_triple(3, 2)]
    for units, imap in sets:
        for policy in ("maximal", "strict"):
            want = _matchings(merge_reference.enumerate_matchings, units, imap, policy)
            assert _matchings(enumerate_matchings, units, imap, policy) == want
    assert len(want) == 12
    # A strict mismatch in a later pair of units raises before the first
    # matching of an earlier pair is made.
    units, imap = _prep(["tcsd TA { sut S test B msg S -> B : ping }",
                         "tcsd TB { sut R test A test C msg A -> R : ping msg R -> C : pong }",
                         "tcsd TC { sut T test B msg B -> T : pong msg B -> T : pong }"],
                        _TRIPLE_ARCH)
    with pytest.raises(IntegrationError, match="TB and TC: pong \\(1 vs 2\\)"):
        next(enumerate_matchings(units, imap, "strict"))
    assert len(list(enumerate_matchings(units, imap))) == 2


def test_twelve_pings_under_the_default_cap_stop_at_64_matchings():
    # 12! = 479 001 600 matchings: only the first 64 are ever made.
    units, imap = _fanout_pair(12)
    start = time.perf_counter()
    report = check_consistency(units, imap)
    elapsed = time.perf_counter() - start
    assert len(report.verdicts) == 64 and report.matchings_truncated
    assert report.overall == "consistent"
    assert elapsed < 1.0, elapsed


def test_the_union_is_checked_once_per_check(monkeypatch):
    units, imap = _fanout_pair(4)
    checks, merges = [], []
    real_check, real_merge = Tapn.check, integrate.merge
    monkeypatch.setattr(Tapn, "check", lambda net: checks.append(net.name) or real_check(net))
    monkeypatch.setattr(integrate, "merge",
                        lambda *args: merges.append(args[1]) or real_merge(*args))
    report = check_consistency(units, imap, require_all=True)
    assert len(report.verdicts) == 24
    assert checks == ["TA+TB"]
    # Each matching is decided on the union's graph with its pairs fused:
    # no merge, and no merged net to check again.
    assert merges == []
    # A merge from a list checks its own union, then its merged net.
    checks.clear()
    merge(units, report.verdicts[0].matching)
    assert checks == ["TA+TB", "TA+TB"]


_markings = st.dictionaries(st.sampled_from(range(12)),
                            st.lists(st.integers(0, 3), max_size=2).map(tuple), max_size=5)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.lists(_markings, max_size=4))
def test_blocking_labels_equal_the_reference(seed, frontier):
    for merged in random_merged_units(random.Random(seed), max_matchings=2):
        net = merged.net
        places = net.places
        dead = [{places[i % len(places)]: ages for i, ages in m.items()} for m in frontier]
        res = tapn.reachable(net, merged.m0, merged.target, max_states=2000)
        graph, _, _ = stp.read_net(net, merged.m0, merged.target)
        for markings in (dead, res.frontier, res.frontier + dead):
            assert (integrate._blocking_labels(graph, markings)
                    == merge_reference._blocking_labels(net, markings))


def _checked(check, units, imap, options):
    try:
        return check(units, imap, **options)
    except (IntegrationError, ValueError) as exc:
        return "%s: %s" % (type(exc).__name__, exc)


def _assert_checks_as_the_reference(units, imap, options):
    """The whole report, every verdict's status, matching, witness,
    ``blocking`` and ``states_explored`` with ``overall`` and
    ``matchings_truncated``, or the error, is the reference's."""
    got = _checked(check_consistency, units, imap, options)
    assert got == _checked(check_reference.check_consistency, units, imap, options), options
    return got


_CHECK_OPTIONS = {"policy": ("maximal", "strict"), "require_all": (False, True),
                  "max_states": (1, 5, 50, 1_000_000), "max_total_delay": (None, 0, 1, 3, 8),
                  "max_matchings": (1, 4, 64)}


def _drawn_pair(seed, timing, nest, reverse, clash=0):
    """A generated pair; reversed, each pair's first transition is TB's,
    so that a fused transition's arcs must be sorted.  ``clash`` 1 or 2
    makes one pair clash, as ``_with_clash`` does."""
    units, imap = random_diagram_pair(random.Random(seed), timing=timing,
                                      nest_in_timeouts=nest)
    units = units[::-1] if reverse else units
    if clash:
        units = _with_clash(units, imap, clash, random.Random(seed))
    return units, imap


def _with_clash(units, imap, mode, rnd):
    """The units with a pair (a, b) of one of their first matchings made
    to clash or to share a place.  Mode 1 renames a place to the pair's
    merged id.  Mode 2 repoints one of b's incoming arcs to a place of a:
    one that a consumes, which then has two consumers, or one that a
    produces, whose consumer then reads b's old place, so that every place
    keeps one consumer and the pair is a self-loop."""
    pairs = [p for m in itertools.islice(enumerate_matchings(units, imap), 4) for p in m.pairs]
    if not pairs:
        return units
    a, b = rnd.choice(pairs)
    if mode == 1:
        old, new = rnd.choice([p for u in units for p in u.net.places]), "+".join(sorted((a, b)))
        return [_rename_place(u, old, new) for u in units]
    union = integrate._Union(units)
    graph, _, _ = stp.read_net(union.net, union.m0, union.target)
    q = rnd.choice(graph.nodes[b].inputs)
    if rnd.random() < 0.5 or not graph.nodes[a].produces:
        return _repointed(units, {(b, q): rnd.choice(graph.nodes[a].inputs)})
    p = rnd.choice(graph.nodes[a].produces)
    moves = {(b, q): p}
    if p in graph.consumer:
        moves[graph.consumer[p], p] = q
    return _repointed(units, moves)


def _rename_place(unit, old, new):
    net = unit.net

    def rename(p):
        return new if p == old else p
    return unit._replace(net=net._replace(
        places=tuple(map(rename, net.places)),
        input_arcs=tuple(x._replace(place=rename(x.place)) for x in net.input_arcs),
        output_arcs=tuple(x._replace(place=rename(x.place)) for x in net.output_arcs),
        transport_arcs=tuple(x._replace(source=rename(x.source), target=rename(x.target))
                             for x in net.transport_arcs)),
        m0={rename(p): ages for p, ages in unit.m0.items()},
        target={rename(p): n for p, n in unit.target.items()})


def _repointed(units, moves):
    """The units with each incoming arc of transition t from place p
    reading ``moves[t, p]`` instead, where that is given."""
    def at(t, p):
        return moves.get((t, p), p)
    return [u._replace(net=u.net._replace(
        input_arcs=tuple(x._replace(place=at(x.transition, x.place))
                         for x in u.net.input_arcs),
        transport_arcs=tuple(x._replace(source=at(x.transition, x.source))
                             for x in u.net.transport_arcs))) for u in units]


def _balanced(units, imap):
    """Whether ``strict`` accepts the units' occurrence counts."""
    try:
        next(enumerate_matchings(units, imap, "strict"))
    except IntegrationError:
        return False
    return True


def _check_draw(seed):
    """A generated pair, with or without timing, timeouts nested and the
    units reversed, a pair made to clash in a quarter of the draws, and
    drawn options; the draws ``check_reference``'s sweep makes.  The
    policy is strict only for a pair whose occurrence counts balance:
    strict refuses most generated pairs before any matching.  The largest
    state bound is 20 000: at the default, the deadlock searches of draw
    2947 alone take 49 s on each side."""
    rnd = random.Random(seed)
    flags = [rnd.random() < 0.5 for _ in range(3)]
    options = {k: rnd.choice(v) for k, v in _CHECK_OPTIONS.items()}
    options["max_states"] = min(options["max_states"], 20_000)
    clash = rnd.choice((1, 2)) if rnd.random() < 0.25 else 0
    units, imap = _drawn_pair(seed, *flags, clash)
    if options["policy"] == "strict" and not _balanced(units, imap):
        options["policy"] = "maximal"
    return units, imap, options


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2**32 - 1), st.booleans(), st.booleans(), st.booleans(),
       st.fixed_dictionaries({k: st.sampled_from(v) for k, v in _CHECK_OPTIONS.items()}),
       st.sampled_from((0, 0, 1, 2)))
def test_check_equals_the_per_matching_reference(seed, timing, nest, reverse, options, clash):
    _assert_checks_as_the_reference(*_drawn_pair(seed, timing, nest, reverse, clash), options)


def test_check_equals_the_per_matching_reference_on_fixtures():
    statuses = set()
    for units, imap in [*_fixture_sets(), _window_pair(2), _window_pair(7), _fanout_pair(4, 2),
                        _fanout_triple(3, 2)]:
        for values in itertools.product(("maximal", "strict"), (False, True),
                                         (None, 0, 1, 3, 5), (5, 1_000_000), (1, 64)):
            options = dict(zip(("policy", "require_all", "max_total_delay", "max_states",
                                "max_matchings"), values))
            report = _assert_checks_as_the_reference(units, imap, options)
            if not isinstance(report, str):
                statuses.update(v.status for v in report.verdicts)
    assert statuses == {"consistent", "ordering-deadlock", "timing-conflict", "bound-exceeded"}


def _deadlock_searches(units, imap, options, cap):
    """Per ordering deadlock among the check's matchings, in the check's
    order: the transitions ``stp.graph_order`` orders, then three searches
    under ``max_states`` capped at ``cap``: on every node of the fused
    graph with the union's tables, shared by these searches as
    ``check_consistency`` shares them; on the ordered nodes alone, with
    tables shared by those; and on every node with fresh tables of its
    own.  None for a check that ends in an error."""
    try:
        matchings = itertools.islice(enumerate_matchings(units, imap, options["policy"]),
                                     options["max_matchings"])
        union = integrate._Union(units)
        fused = [union.fuse(m.pairs) for m in matchings]
    except (IntegrationError, ValueError):
        return []
    if None in fused:
        return []
    found = []
    for graph, marked in fused:
        order, _ = stp.graph_order(graph, marked)
        if len(order) == len(graph.nodes):
            continue

        def tables():
            return tapn.SearchTables(union.net.places, graph.relevant, graph.cmax,
                                     union.target)
        if union.tables is None:
            union.tables, shared_alone = tables(), tables()
        ordered = frozenset(order)
        bound = min(options["max_states"], cap)
        found.append((ordered, *(
            tapn.search(searched.search_net(nodes), union.m0, max_states=bound)
            for searched, nodes in (
                (union.tables, graph.nodes),
                (shared_alone, {tid: n for tid, n in graph.nodes.items() if tid in ordered}),
                (tables(), graph.nodes)))))
    return found


def test_a_deadlock_search_reads_only_the_ordered_transitions():
    # A transition that Kahn's algorithm cannot order never fires, so a
    # deadlock's search on the ordered transitions alone gives the
    # verdict, dead markings and state count of the search on the whole
    # fused graph; and the deadlocks of one check whose ordered sets are
    # equal get equal ones.  One search per ordered set, shared across a
    # check's matchings, rests on this.  A search on tables that the
    # check's earlier searches filled with their shapes and plans gives
    # what it gives on fresh tables of its own matching.
    options = dict(max_matchings=64, max_states=1_000_000)
    cases = [_check_draw(seed) for seed in range(800)]
    cases += [(*pair, dict(options, policy=policy)) for pair in _fixture_sets()
              for policy in ("maximal", "strict")]
    cases.append((*_fanout_pair(5, 2), dict(options, policy="maximal", max_matchings=120)))
    searches, repeats, verdicts = 0, 0, set()
    for units, imap, options in cases:
        seen = {}
        for ordered, whole, alone, fresh in _deadlock_searches(units, imap, options, 1000):
            got = (whole.verdict, whole.frontier, whole.states_explored)
            assert got == (fresh.verdict, fresh.frontier, fresh.states_explored), options
            assert got == (alone.verdict, alone.frontier, alone.states_explored), options
            repeats += ordered in seen
            assert seen.setdefault(ordered, got[1:]) == got[1:], options
            searches += 1
            verdicts.add(whole.verdict)
    assert verdicts == {tapn.UNREACHABLE, tapn.BOUND_EXCEEDED}
    assert searches >= 300 and repeats >= 200, (searches, repeats)


def test_a_check_works_out_each_firing_plan_once(monkeypatch):
    # A counting gate (ROADMAP item 17) on the searches behind `blocking`:
    # k pings inside `timeout 2`, every one of the k! matchings checked.
    # k = 6 has 120 times the matchings of k = 3, and 719 deadlocks where
    # k = 3 has 5, yet their searches meet about the same shapes; a plan
    # worked out once per check keeps its count flat.  The memo ends with
    # its check: a second identical call builds as many plans again.
    built = []

    class Counting(tapn._Plan):
        __slots__ = ()

        def __init__(self, *args, **kwargs):
            built.append(None)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(tapn, "_Plan", Counting)
    counts = {}
    for k in (3, 6):
        units, imap = _fanout_pair(k, 2)
        for call in range(2):
            built.clear()
            report = check_consistency(units, imap, require_all=True,
                                       max_matchings=math.factorial(k))
            assert len(report.verdicts) == math.factorial(k)
            assert not report.matchings_truncated
            counts[k, call] = len(built)
    assert counts[3, 0] > 0
    assert counts[6, 0] <= 2 * counts[3, 0], counts
    assert counts[3, 1] == counts[3, 0] and counts[6, 1] == counts[6, 0], counts


def _assert_fuses_as_merged(units, matchings):
    """One union and one set of search tables serve every matching, and
    both equal what the merged net of the matching gives, field for field."""
    union = integrate._Union(units)
    tables = None
    for matching in matchings:
        graph, marked = union.fuse(matching.pairs)
        merged = merge(union, matching)
        want, want_marked, _ = stp.read_net(merged.net, merged.m0, merged.target)
        assert list(graph.nodes.items()) == list(want.nodes.items())
        assert graph == want
        assert marked == want_marked
        if tables is None:
            tables = tapn.SearchTables(union.net.places, graph.relevant, graph.cmax,
                                       union.target)
        assert _compiled(tables.search_net(graph.nodes)) \
            == _compiled(_search_net(merged.net, merged.target))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2**32 - 1), st.booleans(), st.booleans(), st.booleans())
def test_fused_graph_and_search_tables_equal_the_merged_nets(seed, timing, nest, reverse):
    units, imap = _drawn_pair(seed, timing, nest, reverse)
    _assert_fuses_as_merged(units, itertools.islice(enumerate_matchings(units, imap), 16))
    # A translated message moves its clock token by a transport arc; these
    # fused transitions read and write places by normal arcs, the first
    # pair's in the reverse of the merged order.
    a, b, c = _chain_unit("A", "x"), _chain_unit("B", "x"), _chain_unit("C", "y")
    _assert_fuses_as_merged([c, b, a], [SyncMatching(()), SyncMatching((("B.T1", "A.T1"),))])


def test_check_never_fires_a_binding_by_the_general_rule(monkeypatch):
    # Every net check searches is a merged marked graph with one token per
    # place, so the engine assembles every successor from a shape's plan and
    # never calls fire_all, the general rule of nets with several tokens in
    # a place.  So a change to that rule leaves the cost of check alone.
    calls = []
    fire_all = tapn.SearchTables.fire_all
    monkeypatch.setattr(tapn.SearchTables, "fire_all",
                        lambda self, plan, img: calls.append(plan) or fire_all(self, plan, img))
    # The count works: two tokens in one place take the general rule.
    net = Tapn("n", ("p", "q"), (Transition("t"),), (InputArc("p", "t"),),
               (OutputArc("t", "q"),), ())
    assert tapn.reachable(net, {"p": (0, 0)}, {"q": 2}).verdict == tapn.REACHABLE
    assert calls
    calls.clear()
    searched = 0
    for path in sorted(FIXTURES.glob("*/*.arch")):
        tcsds = [load_tcsd(p) for p in sorted(path.parent.glob("*.tcsd"))]
        units = [translate.translate(t) for t in tcsds]
        imap = build_instance_map(load_arch(path), tcsds)
        for policy, require_all in itertools.product(("maximal", "strict"), (False, True)):
            report = check_consistency(units, imap, policy=policy, require_all=require_all)
            searched += sum(v.states_explored > 0 for v in report.verdicts)
    for seed in range(120):
        rng = random.Random(seed)
        units, imap = random_diagram_pair(rng, max_sut_events=6, timing=seed % 2 == 1)
        report = check_consistency(units, imap, max_matchings=4)
        searched += sum(v.states_explored > 0 for v in report.verdicts)
        for unit in random_merged_units(random.Random(seed), max_sut_events=6):
            tapn.reachable(unit.net, unit.m0, unit.target)
            searched += 1
    assert searched >= 150
    assert calls == []
