import gc
import random
import re
import time
import types
from collections import Counter

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tapn_reference
from canon import canonical_form
from gen import mutated_diagram, random_tapn, random_tcsd_source
from virtint import cli, model, parser, stp, tapn, translate
from virtint.model import (Event, Message, SequenceDiagram, Tcsd, Timeout)
from virtint.translate import TranslationError


def _unit(src):
    checked = model.validate(parser.parse_tcsd(src).tcsd)
    assert checked.ok, checked.violations
    return translate.translate(checked.tcsd)


def _wait_places(unit):
    """The timeouts' wait places: each is drained through a bounded guard."""
    return {a.place for a in unit.net.input_arcs if a.guard.upper is not None}


def _kinds(unit):
    """Each transition's role, read off the net: the start step consumes
    the initial token, a labeled step is a message, a step whose transport
    arc has an exact guard is a partition, a fragment enter feeds operand
    places and a fragment exit drains them, each through plain arcs."""
    net, waits = unit.net, _wait_places(unit)
    kinds = {t.id: "message" for t in net.transitions if t.label is not None}
    for a in net.input_arcs:
        if a.place in unit.m0:
            kinds[a.transition] = "start"
        elif a.place not in waits:
            kinds.setdefault(a.transition, "fragment-exit")
    for a in net.output_arcs:
        if a.place not in waits:
            kinds.setdefault(a.transition, "fragment-enter")
    for a in net.transport_arcs:
        if a.guard.lower == a.guard.upper:
            kinds.setdefault(a.transition, "partition")
    assert len(kinds) == len(net.transitions)
    return kinds


def test_message_chain_shape():
    unit = _unit("tcsd T { sut S test A "
                 "msg A -> S : x msg S -> A : y msg A -> S : z at 4 }")
    labels = [t.label for t in unit.net.transitions if t.label]
    assert labels == ["x", "y", "z"]
    # start + implicit time-0 partition + three messages + closing partition
    assert len(unit.net.transitions) == 6
    # Everything after the start step travels on transport arcs.
    assert len(unit.net.transport_arcs) == 5
    assert len(unit.net.input_arcs) == 1
    assert len(unit.net.output_arcs) == 1


def test_empty_diagram_net():
    unit = _unit("tcsd T { sut S test A }")
    assert len(unit.net.places) == 3
    assert len(unit.net.transitions) == 2
    guards = [a.guard for a in unit.net.transport_arcs]
    assert [str(g) for g in guards] == ["[0,0]"]
    assert sum(len(v) for v in unit.m0.values()) == 1
    assert list(unit.target.values()) == [1]
    res = tapn.reachable(unit.net, unit.m0, unit.target)
    assert res.verdict == "reachable"
    assert sum(s.delay for s in res.trace) == 0


def test_partition_at_zero_gets_exact_zero_guard():
    unit = _unit("tcsd T { sut S test A at 0 msg A -> S : x }")
    partition_steps = [a for a in unit.net.transport_arcs
                       if a.guard.lower == 0 and a.guard.upper == 0]
    assert len(partition_steps) == 1


def test_structural_report_counts():
    unit = _unit("tcsd T { sut S test A "
                 "msg A -> S : a msg S -> A : b msg A -> S : c at 3 at 9 }")
    counts = Counter(_kinds(unit).values())
    assert sum(1 for t in unit.net.transitions if t.label is not None) == 3
    # Two explicit partitions plus the implicit one at time 0.
    assert counts["partition"] == 3
    assert counts["start"] == 1
    assert counts["message"] == 3
    assert tapn.max_guard_constant(unit.net) == 9


def test_par_fragment_branches():
    unit = _unit("tcsd T { sut S test A "
                 "par { op { msg A -> S : a } op { msg A -> S : b } } }")
    kinds = _kinds(unit)
    [tfs] = [t for t, k in kinds.items() if k == "fragment-enter"]
    [tfe] = [t for t, k in kinds.items() if k == "fragment-exit"]
    branch_outs = [a for a in unit.net.output_arcs if a.transition == tfs]
    assert len(branch_outs) == 2
    # The exit joins the main token plus one token per operand.
    rejoin_normal = [a for a in unit.net.input_arcs if a.transition == tfe]
    rejoin_transport = [a for a in unit.net.transport_arcs if a.transition == tfe]
    assert len(rejoin_normal) == 2
    assert len(rejoin_transport) == 1


def test_loop_zero_keeps_border_transitions():
    unit = _unit("tcsd T { sut S test A loop 0 { msg A -> S : a } }")
    kinds = _kinds(unit)
    assert "fragment-enter" in kinds.values()
    assert "fragment-exit" in kinds.values()
    assert all(t.label is None for t in unit.net.transitions)
    [tfs] = [t for t, k in kinds.items() if k == "fragment-enter"]
    [tfe] = [t for t, k in kinds.items() if k == "fragment-exit"]
    [branch] = [a.place for a in unit.net.output_arcs if a.transition == tfs]
    assert any(a.place == branch and a.transition == tfe
               for a in unit.net.input_arcs)
    res = tapn.reachable(unit.net, unit.m0, unit.target)
    assert res.verdict == "reachable"


def test_loop_unrolls_body():
    unit = _unit("tcsd T { sut S test A loop 3 { msg S -> A : st } }")
    labels = [t.label for t in unit.net.transitions if t.label == "st"]
    assert len(labels) == 3
    tcsd = unit.tcsd
    send = next(m.send for m in tcsd.base.messages)
    assert len(unit.event_map[send]) == 3
    res = tapn.reachable(unit.net, unit.m0, unit.target)
    assert res.verdict == "reachable"
    # The event lists its transitions in the order the rounds fire them.
    assert tuple(s.transition for s in res.trace if s.label == "st") == unit.event_map[send]


def test_alt_encoded_like_par():
    par = _unit("tcsd T { sut S test A "
                "par { op { msg A -> S : a } op { msg A -> S : b } } }")
    alt = _unit("tcsd T { sut S test A "
                "alt { op { msg A -> S : a } op { msg A -> S : b } } }")
    assert par.net == alt.net


def test_strict_fragment_adds_nothing():
    plain = _unit("tcsd T { sut S test A msg A -> S : a msg S -> A : b }")
    strict = _unit("tcsd T { sut S test A strict { msg A -> S : a msg S -> A : b } }")
    assert len(plain.net.transitions) == len(strict.net.transitions)
    assert [t.label for t in plain.net.transitions] == \
        [t.label for t in strict.net.transitions]


def test_timeout_shares_anchor_transition():
    unit = _unit("tcsd T { sut S test A "
                 "timeout 5 { msg A -> S : go msg S -> A : done } }")
    [wait] = _wait_places(unit)
    feeder = [a for a in unit.net.output_arcs if a.place == wait]
    drain = [a for a in unit.net.input_arcs if a.place == wait]
    assert len(feeder) == 1 and len(drain) == 1
    label_of = {t.id: t.label for t in unit.net.transitions}
    assert label_of[feeder[0].transition] == "go"
    assert label_of[drain[0].transition] == "done"
    assert str(drain[0].guard) == "[0,5]"


@pytest.mark.parametrize("body", [
    "timeout 5 { strict { msg A -> S : go } msg S -> A : done }",
    "timeout 5 { msg A -> S : go strict { msg S -> A : done } }",
    "par { op { timeout 5 { strict { msg A -> S : go } msg S -> A : done } } "
    "op { msg A -> S : other } }",
], ids=["strict-first", "strict-last", "inside-par"])
def test_timeout_across_a_strict_border(body):
    # The strict block's items are inlined, so the timeout guards go to
    # done as it would without the block, in a fully ordered net; printed,
    # the timeout goes round the block.
    src = "tcsd T { sut S test A %s }" % body
    unit = _unit(src)
    found = stp.causal_order(unit.net, unit.m0, unit.target)
    assert found is not None and len(found[0]) == len(unit.net.transitions)
    [wait] = _wait_places(unit)
    label_of = {t.id: t.label for t in unit.net.transitions}
    [feeder] = [label_of[a.transition] for a in unit.net.output_arcs if a.place == wait]
    [drain] = [a for a in unit.net.input_arcs if a.place == wait]
    assert (feeder, label_of[drain.transition], str(drain.guard)) == ("go", "done", "[0,5]")
    tcsd = parser.parse_tcsd(src).tcsd
    printed = parser.format_tcsd(tcsd)
    reparsed = parser.parse_tcsd(printed).tcsd
    assert canonical_form(reparsed) == canonical_form(tcsd)
    assert parser.format_tcsd(reparsed) == printed


def test_timeout_window_enforced():
    unit = _unit("tcsd T { sut S test A "
                 "timeout 2 { msg A -> S : go msg S -> A : done } at 9 }")
    res = tapn.reachable(unit.net, unit.m0, unit.target)
    assert res.verdict == "reachable"
    steps = {s.label: i for i, s in enumerate(res.trace) if s.label}
    elapsed = sum(s.delay for s in res.trace[steps["go"] + 1:steps["done"] + 1])
    assert elapsed <= 2


def test_nested_timeouts_supported():
    unit = _unit("tcsd T { sut S test A timeout 9 { msg A -> S : a "
                 "timeout 3 { msg A -> S : b msg A -> S : c } msg S -> A : d } }")
    assert len(_wait_places(unit)) == 2


def test_overlapping_timeouts_rejected():
    events = {
        "S": tuple(Event("s%d" % n, "S", "send") for n in range(4)),
        "A": tuple(Event("r%d" % n, "A", "receive") for n in range(4)),
    }
    msgs = tuple(Message("s%d" % n, "m%d" % n, "r%d" % n) for n in range(4))
    sd = SequenceDiagram("X", ("S", "A"), events, msgs, ())
    tcsd = Tcsd(sd, "S", (), (Timeout("s0", "s2", 5), Timeout("s1", "s3", 5)))
    # The validator rejects the pair, so translate never sees it.
    assert [tuple(v) for v in model.validate(tcsd).violations] == [
        ("timeout-nesting", ("s0", "s2", "s1", "s3"),
         "timeouts s0..s2 and s1..s3 overlap without nesting")]


def test_chained_timeouts_allowed():
    events = {
        "S": tuple(Event("s%d" % n, "S", "send") for n in range(3)),
        "A": tuple(Event("r%d" % n, "A", "receive") for n in range(3)),
    }
    msgs = tuple(Message("s%d" % n, "m%d" % n, "r%d" % n) for n in range(3))
    sd = SequenceDiagram("X", ("S", "A"), events, msgs, ())
    tcsd = Tcsd(sd, "S", (), (Timeout("s0", "s1", 5), Timeout("s1", "s2", 5)))
    unit = translate.translate(model.validate(tcsd).tcsd)
    # The shared anchor consumes the first wait token and feeds the second.
    shared = [t.id for t in unit.net.transitions if t.label == "m1"]
    assert len(shared) == 1


def _overlap_pairwise(spans):
    """Reference rule: the pairs of spans that overlap without nesting or
    chaining."""
    pairs = []
    for i in range(len(spans)):
        for j in range(i + 1, len(spans)):
            (s1, e1), (s2, e2) = spans[i], spans[j]
            if e1 <= s2 or e2 <= s1:
                continue
            if (s1 <= s2 and e2 <= e1) or (s2 <= s1 and e1 <= e2):
                continue
            pairs.append((i, j))
    return pairs


def test_timeout_shape_agrees_with_pairwise_rule():
    events = {"S": tuple(Event("s%d" % n, "S", "send") for n in range(8)),
              "A": tuple(Event("r%d" % n, "A", "receive") for n in range(8))}
    msgs = tuple(Message("s%d" % n, "m%d" % n, "r%d" % n) for n in range(8))
    sd = SequenceDiagram("X", ("S", "A"), events, msgs, ())
    rng = random.Random(5)
    rejected = 0
    for _ in range(5000):
        spans = []
        for _ in range(rng.randint(0, 6)):
            start = rng.randrange(7)
            spans.append((start, rng.randrange(start + 1, 8)))
        timeouts = tuple(Timeout("s%d" % a, "s%d" % b, 5) for a, b in spans)
        checked = model.validate(Tcsd(sd, "S", (), timeouts))
        pairs = _overlap_pairwise(spans)
        assert [v.elements for v in checked.violations] == [
            timeouts[i][:2] + timeouts[j][:2] for i, j in pairs]
        assert {v.clause for v in checked.violations} <= {"timeout-nesting"}
        if pairs:
            rejected += 1
        else:
            translate.translate(checked.tcsd)
    assert 1000 < rejected < 4000


def _count_region_trees(monkeypatch):
    """The names of the diagrams whose SUT region tree gets built."""
    calls = []
    real = model._region_tree

    def counting(tcsd, *index):
        calls.append(tcsd.base.name)
        return real(tcsd, *index)

    monkeypatch.setattr(model, "_region_tree", counting)
    return calls


def test_translate_builds_one_region_tree(fixtures_dir, monkeypatch, capsys):
    # One tree per diagram per `virtint translate` and `virtint check`: the
    # validator's, which translate reuses.
    calls = _count_region_trees(monkeypatch)
    sets = [sorted(d.glob("*.tcsd")) for d in sorted(fixtures_dir.iterdir())
            if d.name != "invalid"]
    for paths in sets:
        for path in paths:
            calls.clear()
            assert cli.main(["translate", str(path)]) == 0
            assert len(calls) == 1, (path, calls)
        calls.clear()
        [arch] = paths[0].parent.glob("*.arch")
        assert cli.main(["check", *map(str, paths), "--arch", str(arch)]) in (0, 1)
        assert sorted(calls) == sorted(set(calls)) and len(calls) == len(paths), calls
    capsys.readouterr()
    # A library caller who passes no tree gets one built by translate.
    checked = model.validate(parser.parse_tcsd(sets[0][0].read_text()).tcsd)
    calls.clear()
    assert translate.translate(checked.tcsd) == translate.translate(checked.tcsd,
                                                                    checked.regions)
    assert len(calls) == 1


def _with_time_zero(src):
    """``src`` with an explicit ``at 0`` as its first statement."""
    lines = src.split("\n")
    header = max(n for n, line in enumerate(lines) if line.startswith("  test "))
    return "\n".join(lines[:header + 1] + ["  at 0"] + lines[header + 1:])


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 30), st.integers(0, 3), st.booleans())
def test_validation_regions_are_the_region_tree_of_the_normalized_diagram(seed, events,
                                                                          depth, time_zero):
    src = random_tcsd_source(random.Random(seed), "R", max_sut_events=events, max_depth=depth)
    if time_zero:
        src = _with_time_zero(src)
    result = model.validate(parser.parse_tcsd(src).tcsd)
    assert result.ok, result.violations
    zero = [p for p in result.tcsd.partitions if p.timestamp == 0]
    assert len(zero) == 1
    assert result.regions == model.sut_regions(result.tcsd)
    assert isinstance(result.regions[0], model.Event)
    assert result.regions[0].kind == model.PARTITION
    try:
        expected = translate.translate(result.tcsd)
    except TranslationError as exc:
        with pytest.raises(TranslationError, match=re.escape(str(exc))):
            translate.translate(result.tcsd, result.regions)
        return
    assert translate.translate(result.tcsd, result.regions) == expected


def test_one_safety_without_fragments():
    unit = _unit("tcsd T { sut S test A msg A -> S : x at 3 msg S -> A : y }")
    for t in unit.net.transitions:
        incoming = tapn.incoming_arcs(unit.net, t.id)
        outgoing = [a for a in unit.net.output_arcs if a.transition == t.id]
        outgoing_t = [a for a in unit.net.transport_arcs if a.transition == t.id]
        assert len(incoming) == 1
        assert len(outgoing) + len(outgoing_t) == 1
    res = tapn.reachable(unit.net, unit.m0, unit.target)
    m = unit.m0
    assert sum(len(v) for v in m.values()) == 1
    for step in res.trace:
        m = tapn.fire(unit.net, tapn.delay(m, step.delay), step.transition,
                      [age if age is not None else next(iter(
                          tapn.delay(m, step.delay)[place]))
                       for place, age in step.consumed])
        assert sum(len(v) for v in m.values()) == 1


def test_main_token_age_tracks_time_since_start():
    unit = _unit("tcsd T { sut S test A msg A -> S : x at 3 "
                 "msg S -> A : y at 7 msg A -> S : z }")
    res = tapn.reachable(unit.net, unit.m0, unit.target)
    assert res.verdict == "reachable"
    kinds = _kinds(unit)
    elapsed = None
    for step in res.trace:
        if elapsed is not None:
            elapsed += step.delay
        if kinds[step.transition] == "start":
            elapsed = 0
            continue
        known = [age for _, age in step.consumed if age is not None]
        for age in known:
            assert age == elapsed
    assert elapsed == 7


def test_translate_deterministic():
    src = "tcsd T { sut S test A par { op { msg A -> S : a } " \
          "op { msg A -> S : b } } at 2 }"
    u1 = _unit(src)
    u2 = _unit(src)
    assert u1.net == u2.net
    assert u1.m0 == u2.m0
    assert u1.target == u2.target
    assert u1.event_map == u2.event_map


def test_solo_nets_always_feasible_sample():
    rng = random.Random(4242)
    for n in range(15):
        src = random_tcsd_source(rng, "F%d" % n)
        unit = _unit(src)
        res = tapn.reachable(unit.net, unit.m0, unit.target)
        assert res.verdict == "reachable", src


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 30), st.integers(0, 4),
       st.sampled_from([None, 5, 10]), st.booleans(), st.randoms(use_true_random=False))
def test_translate_builds_an_ordered_marked_graph_or_refuses(seed, events, depth, limit,
                                                             mutate, rnd):
    # The invariant the difference-constraint decision rests on: every
    # diagram that validate accepts translates to a net that passes
    # Tapn.check and stp.causal_order, which orders all of its
    # transitions, unless it unrolls to more than the limit (here lowered):
    # the one TranslationError.  The diagrams are random, with blocks
    # nested in timeouts or not, or random ones after random edits of
    # their model.
    for nest in (False, True):
        src = random_tcsd_source(random.Random(seed), "P", events, depth,
                                 nest_in_timeouts=nest)
        _builds_an_ordered_marked_graph_or_refuses(src, limit, mutate and rnd)


def _builds_an_ordered_marked_graph_or_refuses(src, limit, rnd):
    tcsd = parser.parse_tcsd(src).tcsd
    if rnd:
        tcsd = mutated_diagram(rnd, tcsd)
    checked = model.validate(tcsd)
    if not checked.ok:
        assert rnd, checked.violations
        return
    tcsd = checked.tcsd
    with mock.patch.object(translate, "MAX_TRANSITIONS",
                           limit or translate.MAX_TRANSITIONS):
        try:
            unit = translate.translate(tcsd, checked.regions)
        except TranslationError as exc:
            count = 1 + translate._unrolled_transitions(checked.regions)
            assert limit is not None and count > limit, (src, tcsd)
            assert str(exc) == ("unrolling the loops of P gives %d transitions, more "
                                "than the limit of %d" % (count, limit))
            return
    unit.net.check()
    found = stp.causal_order(unit.net, unit.m0, unit.target)
    assert found is not None, (src, tcsd)
    assert len(found[0]) == len(unit.net.transitions), (src, tcsd)


def _nested_loops(n):
    return "tcsd L { sut S test A loop %d { loop %d { loop %d { msg A -> S : x } } } }" % (n, n, n)


def _refuse_to_build(tcsd):
    raise AssertionError("the unrolled net was built")


def test_unroll_limit_fails_fast_through_the_cli(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(translate, "_Builder", _refuse_to_build)
    diagram = tmp_path / "huge.tcsd"
    diagram.write_text(_nested_loops(1000), encoding="utf-8")
    arch = tmp_path / "huge.arch"
    arch.write_text("architecture H { components C, D bind L { sut = C  A -> D } }",
                    encoding="utf-8")
    started = time.perf_counter()
    assert cli.main(["translate", str(diagram), "--dot", str(tmp_path / "x.dot")]) == 1
    assert cli.main(["check", str(diagram), "--arch", str(arch)]) == 1
    assert time.perf_counter() - started < 1.0
    out = capsys.readouterr().out.splitlines()
    expected = ("translation failed: unrolling the loops of L gives 1002002004 "
                "transitions, more than the limit of 100000")
    assert out == [expected, expected]
    assert not (tmp_path / "x.dot").exists()


def test_unroll_below_the_limit_translates():
    unit = _unit(_nested_loops(40))
    assert len(unit.net.transitions) == 67_284


def test_unrolled_count_equals_built_transitions():
    rng = random.Random(77)
    for n in range(200):
        src = random_tcsd_source(rng, "C%d" % n, max_sut_events=30, max_depth=4)
        tcsd = model.validate(parser.parse_tcsd(src).tcsd).tcsd
        unit = translate.translate(tcsd)
        count = 1 + translate._unrolled_transitions(model.sut_regions(tcsd))
        assert count == len(unit.net.transitions), src


def test_unroll_limit_is_inclusive(monkeypatch):
    src = "tcsd L { sut S test A loop 3 { msg A -> S : x msg S -> A : y } %s}"
    monkeypatch.setattr(translate, "MAX_TRANSITIONS", 10)
    # start, the implicit time-0 partition step, enter, 2 per round, exit
    assert len(_unit(src % "").net.transitions) == 10
    with pytest.raises(TranslationError, match="gives 11 transitions, more than the limit of 10"):
        _unit(src % "msg A -> S : z ")


def test_translate_leaves_no_reference_cycles(fixtures_dir):
    tcsds = []
    for path in sorted(fixtures_dir.glob("*/*.tcsd")):
        checked = model.validate(parser.parse_tcsd(path.read_text(encoding="utf-8")).tcsd)
        if checked.ok:
            tcsds.append(checked.tcsd)
    assert len(tcsds) == 10
    gc.collect()
    gc.disable()
    try:
        for tcsd in tcsds:
            translate.translate(tcsd)
        assert gc.collect() == 0
    finally:
        gc.enable()


# -- the check of what the builder appends -------------------------------------

_FOLDED = ("tcsd F { sut S test A msg A -> S : x "
           "timeout 4 { msg S -> A : y par { op { msg A -> S : p } op { msg S -> A : q } } } "
           "loop 0 { msg A -> S : l } at 5 }")


def _first_transport(b):
    return b.transport_arcs[0]


# Each fault ``Tapn.check`` names, injected into what the builder appended
# before it hands the net over, and the message the check gives.
_FAULTS = {
    "duplicate place": (lambda b: b.places.append(b.places[0]), "duplicate place ids"),
    "duplicate transition": (lambda b: b.transitions.append(b.transitions[-1]),
                             "duplicate transition ids"),
    "place named as a transition": (lambda b: b.places.append(b.transitions[0].id),
                                    "place and transition ids overlap"),
    "dangling input arc": (lambda b: b.input_arcs.append(
        tapn.InputArc("F.nowhere", b.transitions[0].id)), "dangling input arc"),
    "input arc from nowhere": (lambda b: b.input_arcs.append(
        tapn.InputArc(b.places[0], "F.nothing")), "dangling input arc"),
    "dangling output arc": (lambda b: b.output_arcs.append(
        tapn.OutputArc(b.transitions[0].id, "F.nowhere")), "dangling output arc"),
    "dangling transport arc": (lambda b: b.transport_arcs.append(
        _first_transport(b)._replace(target="F.nowhere")), "dangling transport arc"),
    "two transport arcs leave": (lambda b: b.transport_arcs.append(
        _first_transport(b)._replace(target=b.places[0])), "two transport arcs leave"),
    "two transport arcs reach": (lambda b: b.transport_arcs.append(
        _first_transport(b)._replace(source=b.places[0])), "two transport arcs reach"),
    "normal and transport arc in": (lambda b: b.input_arcs.append(
        tapn.InputArc(_first_transport(b).source, _first_transport(b).transition)),
        "is both a normal and a transport arc"),
    "normal and transport arc out": (lambda b: b.output_arcs.append(
        tapn.OutputArc(_first_transport(b).transition, _first_transport(b).target)),
        "is both a normal and a transport arc"),
    "transition with no incoming arc": (lambda b: b.transitions.append(
        tapn.Transition("F.loose", None)), "has no incoming arc"),
}


@pytest.mark.parametrize("fault", sorted(_FAULTS))
def test_builder_check_raises_for_each_fault_before_a_unit_is_returned(monkeypatch, fault):
    inject, message = _FAULTS[fault]
    tcsd = model.validate(parser.parse_tcsd(_FOLDED).tcsd).tcsd
    translate.translate(tcsd)  # sound as built

    class Faulty(translate._Builder):
        def net(self):
            inject(self)
            return super().net()

    monkeypatch.setattr(translate, "_Builder", Faulty)
    with pytest.raises(ValueError, match=message):
        translate.translate(tcsd)


def test_builder_check_lets_a_sound_net_through_that_its_shortcut_cannot_show():
    # A transition with two transport arcs through distinct pairs is sound,
    # though the builder never makes one: Tapn.check decides, and passes it.
    tcsd = model.validate(parser.parse_tcsd(_FOLDED).tcsd).tcsd
    b = translate._Builder(tcsd)
    p, q, r = b.place(), b.place(), b.place()
    t = b.transition(None)
    b.transport_arcs += [tapn.TransportArc(p, t, q), tapn.TransportArc(q, t, r)]
    assert b.net().transport_arcs == tuple(b.transport_arcs)


def _check_message(check, net):
    try:
        check(net)
    except ValueError as exc:
        return str(exc)
    return None


def _move_first_transport(b, **fields):
    b.transport_arcs[0] = _first_transport(b)._replace(**fields)


# The builder's faults, an output arc from no transition, and a transport
# arc with one end dangling that, unlike the copy ``_FAULTS`` appends,
# repeats no pair.
_INJECT = {name: inject for name, (inject, _) in _FAULTS.items()}
_INJECT.update({
    "output arc from nothing": lambda b: b.output_arcs.append(
        tapn.OutputArc("F.nothing", b.places[0])),
    "transport arc from nowhere": lambda b: _move_first_transport(b, source="F.nowhere"),
    "transport arc to nowhere": lambda b: _move_first_transport(b, target="F.nowhere"),
    "transport arc via nothing": lambda b: _move_first_transport(b, transition="F.nothing"),
})


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2**32 - 1),
       st.lists(st.sampled_from(sorted(_INJECT)), max_size=2, unique=True))
def test_tapn_check_raises_where_the_reference_check_raises(seed, faults):
    # Tapn.check against its copy from when it walked every arc, on random
    # nets with up to two faults injected: it raises exactly where the
    # reference does, with the same message.  Random nets put places on a
    # normal arc of one transition and a transport arc of another, where
    # the check must compare pairs to pass the net.
    net, _, _ = random_tapn(random.Random(seed))
    if not net.transport_arcs:
        faults = [f for f in faults if "transport" not in f]
    parts = types.SimpleNamespace(**{f: list(getattr(net, f)) for f in net._fields[1:]})
    for fault in faults:
        _INJECT[fault](parts)
    faulty = net._replace(**{f: tuple(arcs) for f, arcs in vars(parts).items()})
    expected = _check_message(tapn_reference.check, faulty)
    assert _check_message(tapn.Tapn.check, faulty) == expected
    assert (expected is None) == (not faults)
