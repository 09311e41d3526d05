import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import validate_reference
from clause_fixtures import all_clause_cases, overlapping_fragments, owner_index_cases
from conftest import FIXTURES
from gen import mutated_diagram, random_tcsd_source, reordered_fragments
from virtint import model, parser, stp, translate
from virtint.model import (Event, Fragment, Message, Operand, PartitionLine,
                           SequenceDiagram, Tcsd, Timeout, Violation)


def _parse(src):
    return parser.parse_tcsd(src).tcsd


def test_duplicate_partition_timestamp_violates_uniqueness():
    raw = _parse("tcsd T { sut S test A msg A -> S : x at 5 at 5 }")
    res = model.validate(raw)
    assert not res.ok
    assert {v.clause for v in res.violations} == {"uniqueness"}


def test_empty_diagram_is_valid():
    raw = _parse("tcsd T { sut S test A }")
    res = model.validate(raw)
    assert res.ok
    # Normalization adds the implicit start partition.
    assert [p.timestamp for p in res.tcsd.partitions] == [0]


def test_two_fragment_cycle_is_self_nesting():
    events = {
        "S": (Event("en_f", "S", "fragment-enter", "f"),
              Event("en_g", "S", "fragment-enter", "g"),
              Event("s1", "S", "send"),
              Event("ex_g", "S", "fragment-exit", "g"),
              Event("ex_f", "S", "fragment-exit", "f")),
        "A": (Event("r1", "A", "receive"),),
    }
    sd = SequenceDiagram("Cyc", ("S", "A"), events,
                         (Message("s1", "x", "r1"),),
                         (Fragment("f", "opt", (Operand(("en_g", "s1", "r1", "ex_g"), ("g",)),)),
                          Fragment("g", "opt", (Operand(("s1", "r1"), ("f",)),))))
    res = model.validate(Tcsd(sd, "S", (), ()))
    assert "no-self-nesting" in {v.clause for v in res.violations}


def test_validate_is_pure_and_idempotent():
    raw = _parse("tcsd T { sut S test A msg A -> S : x at 5 at 5 }")
    first = model.validate(raw)
    second = model.validate(raw)
    assert first.violations == second.violations

    ok = model.validate(_parse("tcsd T { sut S test A msg A -> S : x }"))
    again = model.validate(ok.tcsd)
    assert again.ok
    assert again.tcsd == ok.tcsd


def test_explicit_time_zero_partition_is_not_duplicated():
    raw = _parse("tcsd T { sut S test A at 0 msg A -> S : x }")
    res = model.validate(raw)
    assert res.ok
    assert [p.timestamp for p in res.tcsd.partitions] == [0]


def test_time_zero_partition_events_get_fresh_ids():
    # t0_S and t0_A are taken; A and A_ would then both want t0_A_.
    events = {"S": (Event("t0_S", "S", "send"),), "A": (Event("t0_A", "A", "receive"),),
              "A_": ()}
    sd = SequenceDiagram("N", ("S", "A", "A_"), events, (Message("t0_S", "x", "t0_A"),), ())
    res = model.validate(Tcsd(sd, "S", (), ()))
    assert res.ok, res.violations
    assert res.tcsd.partitions[0].events == ("t0_S_", "t0_A_", "t0_A__")
    assert res.regions == model.sut_regions(res.tcsd)

def test_partition_timestamps_ascend_and_start_at_zero():
    rng = random.Random(42)
    for n in range(25):
        raw = _parse(random_tcsd_source(rng, "P%d" % n))
        res = model.validate(raw)
        assert res.ok, res.violations
        stamps = [p.timestamp for p in res.tcsd.partitions]
        assert stamps[0] == 0
        assert stamps == sorted(stamps)
        assert len(set(stamps)) == len(stamps)


def test_every_message_has_exactly_one_sut_endpoint():
    rng = random.Random(43)
    for n in range(25):
        res = model.validate(_parse(random_tcsd_source(rng, "M%d" % n)))
        assert res.ok
        tcsd = res.tcsd
        on_sut = {e.id for e in tcsd.base.events[tcsd.sut]}
        for m in tcsd.base.messages:
            assert len({m.send, m.receive} & on_sut) == 1


def test_dangling_reference_reports_malformed_only():
    sd = SequenceDiagram("B", ("S", "A"),
                         {"S": (Event("s1", "S", "send"),), "A": ()},
                         (Message("s1", "x", "ghost"),), ())
    res = model.validate(Tcsd(sd, "S", (), ()))
    assert not res.ok
    assert {v.clause for v in res.violations} == {"malformed"}


def _flatten(items):
    """The region tree in SUT-line order: borders around their operands."""
    out = []
    for item in items:
        if isinstance(item, model.FragmentNode):
            out.append(item.enter)
            for op in item.operand_items:
                out.extend(_flatten(op))
            out.append(item.exit)
        else:
            out.append(item)
    return out


def test_sut_walk_total_order():
    res = model.validate(_parse(
        "tcsd T { sut S test A msg A -> S : a msg S -> A : b msg A -> S : c }"))
    regions = model.sut_regions(res.tcsd)
    assert all(isinstance(item, model.Event) for item in regions)
    kinds = [e.kind for e in _flatten(regions)]
    assert kinds == ["partition", "receive", "send", "receive"]


def test_sut_walk_visits_operands_sequentially():
    res = model.validate(_parse(
        "tcsd T { sut S test A par { op { msg A -> S : a } op { msg A -> S : b } } }"))
    tcsd = res.tcsd
    flat = _flatten(model.sut_regions(tcsd))
    kinds = [e.kind for e in flat]
    assert kinds == ["partition", "fragment-enter", "receive", "receive",
                     "fragment-exit"]
    [par] = [item for item in model.sut_regions(tcsd)
             if isinstance(item, model.FragmentNode)]
    assert par.fragment == tcsd.base.fragments[0]
    # One slice per operand, in operand order, each holding its own event.
    slices = [_flatten(op) for op in par.operand_items]
    assert slices == [[flat[2]], [flat[3]]]
    for x, op_events in enumerate(slices):
        assert {e.id for e in op_events} <= set(par.fragment.operands[x].events)


def test_sut_walk_nested_fragment_visited_inside_outer_operand():
    res = model.validate(_parse(
        "tcsd T { sut S test A alt {"
        " op { msg A -> S : a }"
        " op { par { op { msg A -> S : b } op { msg A -> S : c } } msg A -> S : d }"
        " } }"))
    regions = model.sut_regions(res.tcsd)
    labels = []
    msg_by_event = {m.receive: m.label for m in res.tcsd.base.messages}
    for e in _flatten(regions):
        labels.append(msg_by_event.get(e.id, e.kind[:5]))
    assert labels == ["parti", "fragm", "a", "fragm", "b", "c", "fragm", "d",
                      "fragm"]
    alt = regions[1]
    assert alt.fragment.operator == "alt"
    first, second = alt.operand_items
    assert not any(isinstance(item, model.FragmentNode) for item in first)
    # The par sits inside the alt's second operand, ahead of d.
    inner, d = second
    assert inner.fragment.operator == "par"
    assert msg_by_event[d.id] == "d"
    assert [[msg_by_event[e.id] for e in op] for op in inner.operand_items] \
        == [["b"], ["c"]]


def test_sut_walk_covers_each_sut_event_once():
    # The translator reads SUT event positions off the raw line, which
    # holds only because the flattened region tree is that line.
    rng = random.Random(44)
    for n in range(25):
        res = model.validate(_parse(random_tcsd_source(rng, "W%d" % n)))
        tcsd = res.tcsd
        flat = _flatten(model.sut_regions(tcsd))
        line = tcsd.base.events[tcsd.sut]
        assert [e.id for e in flat] == [e.id for e in line]


def test_interleaved_operands_rejected_as_layout():
    events = {
        "S": (Event("en", "S", "fragment-enter", "f"),
              Event("s1", "S", "send"),
              Event("s2", "S", "send"),
              Event("s3", "S", "send"),
              Event("ex", "S", "fragment-exit", "f")),
        "A": (Event("r1", "A", "receive"), Event("r2", "A", "receive"),
              Event("r3", "A", "receive")),
    }
    sd = SequenceDiagram("L", ("S", "A"), events,
                         (Message("s1", "x", "r1"), Message("s2", "y", "r2"),
                          Message("s3", "z", "r3")),
                         (Fragment("f", "par",
                                   (Operand(("s1", "s3", "r1", "r3")),
                                    Operand(("s2", "r2")))),))
    res = model.validate(Tcsd(sd, "S", (), ()))
    assert "fragment-layout" in {v.clause for v in res.violations}


def test_timeout_spanning_partition_rejected():
    events = {
        "S": (Event("s1", "S", "send"), Event("pS", "S", "partition"),
              Event("s2", "S", "send")),
        "A": (Event("r1", "A", "receive"), Event("pA", "A", "partition"),
              Event("r2", "A", "receive")),
    }
    sd = SequenceDiagram("TP", ("S", "A"), events,
                         (Message("s1", "x", "r1"), Message("s2", "y", "r2")), ())
    tcsd = Tcsd(sd, "S", (PartitionLine(("pS", "pA"), 4),),
                (model.Timeout("s1", "s2", 9),))
    res = model.validate(tcsd)
    assert "timeout-partition-span" in {v.clause for v in res.violations}


@pytest.mark.parametrize("operator,n_ops", [("par", 1), ("opt", 2), ("loop", 2)])
def test_operand_count_rule(operator, n_ops):
    ops = tuple(Operand(("s1", "r1")) for _ in range(n_ops))
    events = {
        "S": (Event("en", "S", "fragment-enter", "f"),
              Event("s1", "S", "send"),
              Event("ex", "S", "fragment-exit", "f")),
        "A": (Event("r1", "A", "receive"),),
    }
    sd = SequenceDiagram("O", ("S", "A"), events,
                         (Message("s1", "x", "r1"),),
                         (Fragment("f", operator, ops,
                                   loop_bound=2 if operator == "loop" else None),))
    res = model.validate(Tcsd(sd, "S", (), ()))
    assert "operand-count" in {v.clause for v in res.violations}


def test_overlapping_fragments_violations_in_order():
    res = model.validate(overlapping_fragments())
    detail = "endpoints split across operand %d of fragment %s"
    assert res.violations == [
        Violation("no-shared-events", ("f", "g"), "disjoint fragments share events r2,s2"),
        Violation("no-shared-events", ("f", "h"), "disjoint fragments share events r1"),
        Violation("no-shared-events", ("g", "h"), "disjoint fragments share events s3"),
        Violation("no-shared-events", ("h", "k"), "disjoint fragments share events r1"),
        # No fragment has a border on the SUT line.
        Violation("fragment-layout", ("S",),
                  "fragment f lists s1, not drawn between its borders on the SUT line"),
        Violation("timeout-same-fragment", ("s3", "s4", "g"), detail % (0, "g")),
        Violation("timeout-same-fragment", ("s3", "s4", "g"), detail % (1, "g")),
        Violation("timeout-same-fragment", ("s3", "s4", "h"), detail % (0, "h")),
    ]


def test_fragment_nested_in_timeout_inside_operand_validates_clean():
    raw = _parse("tcsd T { sut S test A test B opt { msg S -> A : a timeout 3 {"
                 " msg S -> A : b opt { msg S -> B : c } msg A -> S : d } } }")
    res = model.validate(raw)
    assert res.ok, res.violations
    inner, outer = raw.base.fragments
    assert outer.operands[0].children == (inner.id,)


def test_loop_bound_clauses():
    # The parser gives every loop a bound of at least 0 and no other block
    # one, so each clause is reached through a diagram built otherwise.
    tcsd = _parse("tcsd T { sut S test A loop 2 { msg A -> S : x } "
                  "loop 3 { msg S -> A : y } opt { msg A -> S : z } }")
    f1, f2, f3 = tcsd.base.fragments
    bad = tcsd._replace(base=tcsd.base._replace(fragments=(
        f1._replace(loop_bound=None), f2._replace(loop_bound=-1), f3._replace(loop_bound=4))))
    res = model.validate(bad)
    assert [tuple(v) for v in res.violations] == [
        ("loop-bound", ("f1",), "loop without a constant bound"),
        ("loop-bound", ("f2",), "negative loop bound"),
        ("loop-bound", ("f3",), "bound on a non-loop fragment")]
    _assert_validates_as_the_reference(bad)


# --------------------------------------------------------------------------
# Exact violation lists (clause, elements, detail, order), pinned so that a
# change to how validate walks the diagram cannot reorder or reword them.


def _diagram(events, messages=(), fragments=(), partitions=(), timeouts=(),
             instances=("S", "A")):
    sd = SequenceDiagram("M", instances, events, tuple(messages), tuple(fragments))
    return Tcsd(sd, "S", tuple(partitions), tuple(timeouts))


_S1 = Event("s1", "S", "send")
_R1 = Event("r1", "A", "receive")
_MSG = Message("s1", "x", "r1")
_BORDER = "border event names unknown fragment"

_MALFORMED = {
    "duplicate-id": (
        _diagram({"S": (_S1,), "A": (_R1, _R1)}, [_MSG]),
        [("malformed", ("r1",), "duplicate event id")]),
    "misfiled": (
        _diagram({"S": (_S1, Event("r2", "A", "receive")), "A": (_R1,)}, [_MSG]),
        [("malformed", ("r2",), "event filed under wrong instance line")]),
    "unknown-kind": (
        _diagram({"S": (_S1, Event("j", "S", "jump")), "A": (_R1,)}, [_MSG]),
        [("malformed", ("j",), "unknown event kind 'jump'")]),
    "unknown-border": (
        _diagram({"S": (Event("en", "S", "fragment-enter", "ghost"), _S1,
                        Event("ex", "S", "fragment-exit", "ghost")), "A": (_R1,)}, [_MSG]),
        [("malformed", ("en",), _BORDER), ("malformed", ("ex",), _BORDER)]),
    "dangling-message": (
        _diagram({"S": (_S1,), "A": (_R1,)}, [_MSG, Message("ghost", "y", "r1")]),
        [("malformed", ("ghost",), "message endpoint is not an event")]),
    "dangling-partition": (
        _diagram({"S": (Event("pS", "S", "partition"), _S1), "A": (_R1,)}, [_MSG],
                 partitions=[PartitionLine(("pS", "ghost"), 3)]),
        [("malformed", ("ghost",), "partition references unknown event")]),
    "dangling-timeout": (
        _diagram({"S": (_S1,), "A": (_R1,)}, [_MSG], timeouts=[model.Timeout("ghost", "s1", 4)]),
        [("malformed", ("ghost",), "timeout endpoint is not an event")]),
    # Every malformed check at once.  The event lists are keyed in another
    # order than the instances are declared, and include an undeclared line.
    "everything": (
        _diagram({"X": (Event("ex", "X", "fragment-exit", "nowhere"),),
                  "A": (_R1, Event("s1", "A", "send"),
                        Event("bd", "A", "fragment-enter", "ghost")),
                  "S": (_S1, Event("j", "S", "jump"), Event("w", "A", "receive"))},
                 [_MSG, Message("s9", "y", "r9")],
                 [Fragment("f", "opt", (Operand(("s1", "zz"), ("g",)),)),
                  Fragment("f", "xor", (Operand(("r1",)),))],
                 [PartitionLine(("p1",), -2)], [model.Timeout("t1", "s1", 0)]),
        [("malformed", ("j",), "unknown event kind 'jump'"),
         ("malformed", ("w",), "event filed under wrong instance line"),
         ("malformed", ("s1",), "duplicate event id"),
         ("malformed", ("X",), "event list for undeclared instance"),
         ("malformed", ("f", "zz"), "operand references unknown event"),
         ("malformed", ("f", "g"), "operand references unknown fragment"),
         ("malformed", ("f",), "duplicate fragment id"),
         ("malformed", ("f",), "unknown operator 'xor'"),
         ("malformed", ("s9",), "message endpoint is not an event"),
         ("malformed", ("r9",), "message endpoint is not an event"),
         ("malformed", ("p1",), "partition references unknown event"),
         ("malformed", ("-2",), "negative partition timestamp"),
         ("malformed", ("t1",), "timeout endpoint is not an event"),
         ("malformed", ("t1", "s1"), "timeout bound must be positive"),
         ("malformed", ("ex",), _BORDER),
         ("malformed", ("bd",), _BORDER)]),
    # Semantic clauses around the message loop and the layout check.
    "semantic": (
        _diagram({"S": (Event("en", "S", "fragment-enter", "f"), _S1,
                        Event("s3", "S", "receive"), Event("s2", "S", "send"),
                        Event("s4", "S", "send"), Event("pS", "S", "partition")),
                  "A": (_R1, Event("a1", "A", "receive"), Event("a2", "A", "receive"))},
                 [_MSG, Message("a1", "y", "a2"), Message("s2", "z", "s3")],
                 [Fragment("f", "opt", (Operand(("s1", "r1")),))],
                 [PartitionLine(("pS",), 2)]),
        [("message-endpoints", ("a1",), "send endpoint is not a send event"),
         ("message-order", ("s2", "s3"), "same-line message must send before it receives"),
         ("message-endpoints", ("s4",), "send event belongs to no message"),
         ("fragment-layout", ("S",), "fragment f has no exit on the SUT line"),
         ("sut-endpoint", ("a1", "a2"), "message 'y' has 0 endpoints on the SUT line"),
         ("sut-endpoint", ("s2", "s3"), "message 'z' has 2 endpoints on the SUT line"),
         ("completeness", ("pS",), "partition at 2 does not cut every line exactly once")]),
}


@pytest.mark.parametrize("name", sorted(_MALFORMED))
def test_hand_built_violation_lists_are_pinned(name):
    tcsd, expected = _MALFORMED[name]
    res = model.validate(tcsd)
    assert [tuple(v) for v in res.violations] == expected
    assert res.tcsd is None


_CUT = "partition event lies inside a fragment operand"
_FIXTURE_VIOLATIONS = {
    "double_partition.tcsd": [
        ("uniqueness", ("e3", "e4", "e5", "e6"), "2 partition lines share timestamp 5")],
    "partition_in_fragment.tcsd": [
        ("no-fragment-cutting", ("e3", "f1"), _CUT), ("no-fragment-cutting", ("e4", "f1"), _CUT)],
}
_CLAUSE_VIOLATIONS = {
    "no-self-nesting": [("no-self-nesting", ("f",), "fragment is nested inside itself")],
    "no-shared-events": [("no-shared-events", ("f", "g"), "disjoint fragments share events r1")],
    "event-containment": [("event-containment", ("f", "g"), "operand 0 misses nested events r1")],
    "completeness": [
        ("completeness", ("pS",), "partition at 3 does not cut every line exactly once")],
    "timeout-same-fragment": [
        ("timeout-same-fragment", ("s1", "s2", "f"),
         "endpoints split across operand 0 of fragment f")],
    "uniqueness": [
        ("uniqueness", ("e3", "e4", "e5", "e6"), "2 partition lines share timestamp 5")],
    "ordering": [
        ("ordering", ("e5", "e1"), "partition at 3 is drawn after partition at 5 on line S"),
        ("ordering", ("e6", "e2"), "partition at 3 is drawn after partition at 5 on line A")],
    "no-fragment-cutting": [
        ("no-fragment-cutting", ("e3", "f1"), _CUT), ("no-fragment-cutting", ("e4", "f1"), _CUT)],
    "timeout-ordered": [("timeout-ordered", ("e2", "e2"), "timeout start must precede its end")],
    "sut-endpoint": [
        ("sut-endpoint", ("e1", "e2"), "message 'x' has 0 endpoints on the SUT line")],
}


def test_invalid_fixture_and_clause_violation_lists_are_pinned(fixtures_dir):
    found = {p.name: [tuple(v) for v in model.validate(_parse(p.read_text())).violations]
             for p in sorted((fixtures_dir / "invalid").glob("*.tcsd"))}
    assert found == _FIXTURE_VIOLATIONS
    found = {clause: [tuple(v) for v in model.validate(bad).violations]
             for clause, bad, _ in all_clause_cases()}
    assert found == _CLAUSE_VIOLATIONS


# -- the rules that translate relies on --------------------------------------
# validate used to accept each bad diagram here.  translate then refused
# all but no-border: it checked these rules itself.  No-border breaks the
# rule of listed-outside with a fragment that has no border on the SUT line.


def _line(inst, kinds, fragment=None):
    """Events ``<kind letter><n>`` on ``inst``: s send, r receive, p partition,
    e/x enter/exit of ``fragment``."""
    kind_of = {"s": "send", "r": "receive", "p": "partition",
               "e": "fragment-enter", "x": "fragment-exit"}
    return tuple(Event(eid, inst, kind_of[eid[0]], fragment if eid[0] in "ex" else None)
                 for eid in kinds)


def _messages(n):
    return [Message("s%d" % k, "m%d" % k, "r%d" % k) for k in range(n)]


def _loop(listed):
    return [Fragment("f", "loop", (Operand(listed),), loop_bound=2)]


_NESTING = "timeouts %s..%s and %s..%s overlap without nesting"
_RULES = {
    # A loop lists s0, drawn before its enter: the timeout s0..s1 would
    # start once and end twice.
    "listed-outside": (
        _diagram({"S": _line("S", ["s0", "e0", "s1", "x0"], "f"),
                  "A": _line("A", ["r0", "r1"])}, _messages(2),
                 _loop(("s0", "r0", "s1", "r1")), timeouts=[Timeout("s0", "s1", 3)]),
        _diagram({"S": _line("S", ["e0", "s0", "s1", "x0"], "f"),
                  "A": _line("A", ["r0", "r1"])}, _messages(2),
                 _loop(("s0", "r0", "s1", "r1")), timeouts=[Timeout("s0", "s1", 3)]),
        [("fragment-layout", ("S",),
          "fragment f lists s0, not drawn between its borders on the SUT line")]),
    # A loop lists its own enter border, and a timeout starts there.
    "own-border-listed": (
        _diagram({"S": _line("S", ["e0", "s0", "x0"], "f"), "A": _line("A", ["r0"])},
                 _messages(1), _loop(("e0", "s0", "r0")), timeouts=[Timeout("e0", "s0", 3)]),
        _diagram({"S": _line("S", ["e0", "s0", "x0"], "f"), "A": _line("A", ["r0"])},
                 _messages(1), _loop(("s0", "r0"))),
        [("fragment-layout", ("S",),
          "fragment f lists e0, not drawn between its borders on the SUT line")]),
    # The loop is drawn twice, once around each of its events: the
    # timeout s0..s1 would start twice and end twice, each start before
    # any end.
    "drawn-twice": (
        _diagram({"S": _line("S", ["e0", "s0", "x0", "e1", "s1", "x1"], "f"),
                  "A": _line("A", ["r0", "r1"])}, _messages(2),
                 _loop(("s0", "r0", "s1", "r1")), timeouts=[Timeout("s0", "s1", 3)]),
        _diagram({"S": _line("S", ["e0", "s0", "s1", "x1"], "f"),
                  "A": _line("A", ["r0", "r1"])}, _messages(2),
                 _loop(("s0", "r0", "s1", "r1")), timeouts=[Timeout("s0", "s1", 3)]),
        [("fragment-layout", ("S",),
          "fragment f lists s1, not drawn between its borders on the SUT line")]),
    "no-border": (
        _diagram({"S": _line("S", ["s0"]), "A": _line("A", ["r0"])}, _messages(1),
                 _loop(("s0", "r0"))),
        _diagram({"S": _line("S", ["e0", "s0", "x0"], "f"), "A": _line("A", ["r0"])},
                 _messages(1), _loop(("s0", "r0"))),
        [("fragment-layout", ("S",),
          "fragment f lists s0, not drawn between its borders on the SUT line")]),
    # Two crossing pairs; a chained, a nested and a reversed timeout are
    # not listed with them.
    "timeout-nesting": (
        _diagram({"S": _line("S", ["s%d" % k for k in range(5)]),
                  "A": _line("A", ["r%d" % k for k in range(5)])}, _messages(5),
                 timeouts=[Timeout("s0", "s2", 3), Timeout("s1", "s3", 3),
                           Timeout("s3", "s1", 3), Timeout("s2", "s3", 3),
                           Timeout("s2", "s4", 3)]),
        _diagram({"S": _line("S", ["s%d" % k for k in range(5)]),
                  "A": _line("A", ["r%d" % k for k in range(5)])}, _messages(5),
                 timeouts=[Timeout("s0", "s2", 3), Timeout("s1", "s2", 3),
                           Timeout("s2", "s3", 3), Timeout("s2", "s4", 3)]),
        [("timeout-ordered", ("s3", "s1"), "timeout start must precede its end"),
         ("timeout-nesting", ("s0", "s2", "s1", "s3"), _NESTING % ("s0", "s2", "s1", "s3")),
         ("timeout-nesting", ("s1", "s3", "s2", "s4"), _NESTING % ("s1", "s3", "s2", "s4"))]),
    # A strict fragment is built into no step, so its borders anchor
    # nothing.  A timeout from e0 to itself names e0 once.
    "timeout-strict-border": (
        _diagram({"S": _line("S", ["e0", "s0", "x0", "s1"], "g"),
                  "A": _line("A", ["r0", "r1"])}, _messages(2),
                 [Fragment("g", "strict", (Operand(("s0", "r0")),))],
                 timeouts=[Timeout("e0", "s1", 3), Timeout("e0", "x0", 3),
                           Timeout("e0", "e0", 3)]),
        _diagram({"S": _line("S", ["e0", "s0", "x0", "s1"], "g"),
                  "A": _line("A", ["r0", "r1"])}, _messages(2),
                 [Fragment("g", "opt", (Operand(("s0", "r0")),))],
                 timeouts=[Timeout("e0", "s1", 3), Timeout("e0", "x0", 3)]),
        [("timeout-strict-border", ("e0", "s1", "g"),
          "timeout anchored on e0, a border of strict fragment g"),
         ("timeout-strict-border", ("e0", "x0", "g"),
          "timeout anchored on e0, a border of strict fragment g"),
         ("timeout-strict-border", ("e0", "x0", "g"),
          "timeout anchored on x0, a border of strict fragment g"),
         ("timeout-ordered", ("e0", "e0"), "timeout start must precede its end"),
         ("timeout-strict-border", ("e0", "e0", "g"),
          "timeout anchored on e0, a border of strict fragment g")]),
    "partition-off-line": (
        _diagram({"S": _line("S", ["s0", "pS", "s1"]), "A": _line("A", ["r0", "pA", "r1"])},
                 _messages(2)),
        _diagram({"S": _line("S", ["s0", "pS", "s1"]), "A": _line("A", ["r0", "pA", "r1"])},
                 _messages(2), partitions=[PartitionLine(("pS", "pA"), 3)]),
        [("completeness", ("pS",), "partition event lies on no partition line"),
         ("completeness", ("pA",), "partition event lies on no partition line")]),
}


@pytest.mark.parametrize("rule", sorted(_RULES))
def test_translation_rules_are_validate_clauses(rule):
    bad, good, expected = _RULES[rule]
    assert [tuple(v) for v in model.validate(bad).violations] == expected
    checked = model.validate(good)
    assert checked.ok, checked.violations
    unit = translate.translate(checked.tcsd, checked.regions)
    found = stp.causal_order(unit.net, unit.m0, unit.target)
    assert found is not None and len(found[0]) == len(unit.net.transitions)
    _assert_validates_as_the_reference(bad)
    _assert_validates_as_the_reference(good)


@pytest.mark.parametrize("case", owner_index_cases(), ids=lambda case: case[0])
def test_owners_of_an_event_listed_by_nested_fragments(case):
    _, tcsd, expected = case
    assert [tuple(v) for v in model.validate(tcsd).violations] == expected
    _assert_validates_as_the_reference(tcsd)


def test_region_tree_of_a_line_that_repeats_an_id():
    # s0 twice between the loop's borders, s1 before them: as many SUT
    # events are listed as drawn inside, yet s1 lies outside.
    tcsd = _diagram({"S": _line("S", ["s1", "e0", "s0", "s0", "x0"], "f"),
                     "A": _line("A", ["r0", "r1"])}, _messages(2), _loop(("s0", "s1")))
    with pytest.raises(model.LayoutError, match="fragment f lists s1, not drawn"):
        model.sut_regions(tcsd)
    _assert_validates_as_the_reference(tcsd)


# -- differential tests against the validator kept in validate_reference ----

def _region_outcome(regions_of, tcsd):
    """The region tree ``regions_of`` gives, or its LayoutError's text."""
    try:
        return repr(regions_of(tcsd))
    except (model.LayoutError, validate_reference.LayoutError) as exc:
        return "LayoutError: %s" % exc


def _reference_regions(tcsd):
    frags = validate_reference._index_fragments(tcsd)
    return validate_reference._region_tree(
        tcsd, validate_reference._operand_index(frags.values()))


def _assert_validates_as_the_reference(tcsd):
    # repr holds every violation in order, the normalized diagram and the
    # region tree, with the type of every record.
    assert repr(model.validate(tcsd)) == repr(validate_reference.validate(tcsd)), tcsd
    assert _region_outcome(model.sut_regions, tcsd) == _region_outcome(_reference_regions, tcsd)


def _seed_diagrams():
    rng = random.Random(16)
    sources = [random_tcsd_source(rng, "R%d" % n, max_sut_events=rng.randint(4, 40),
                                  max_depth=rng.randint(1, 3)) for n in range(40)]
    sources += [p.read_text(encoding="utf-8") for p in sorted(FIXTURES.rglob("*.tcsd"))]
    diagrams = [_parse(src) for src in sources]
    for _, bad, good in all_clause_cases():
        diagrams += [bad, good]
    return diagrams + [overlapping_fragments()] + [t for _, t, _ in owner_index_cases()]


_SEED_DIAGRAMS = _seed_diagrams()


def test_seed_diagrams_validate_as_the_reference():
    for tcsd in _SEED_DIAGRAMS:
        _assert_validates_as_the_reference(tcsd)


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(st.integers(0, len(_SEED_DIAGRAMS) - 1), st.randoms(use_true_random=False))
def test_mutated_diagrams_validate_as_the_reference(k, rnd):
    _assert_validates_as_the_reference(mutated_diagram(rnd, _SEED_DIAGRAMS[k]))


def test_seed_diagrams_listed_parents_first_validate_as_the_reference():
    for tcsd in _SEED_DIAGRAMS:
        for seed in range(4):
            _assert_validates_as_the_reference(reordered_fragments(random.Random(seed), tcsd))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.integers(0, len(_SEED_DIAGRAMS) - 1), st.randoms(use_true_random=False))
def test_mutated_diagrams_listed_parents_first_validate_as_the_reference(k, rnd):
    _assert_validates_as_the_reference(
        reordered_fragments(rnd, mutated_diagram(rnd, _SEED_DIAGRAMS[k])))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.randoms(use_true_random=False))
def test_misdrawn_partitions_are_listed_as_the_reference(rnd):
    # Many partition lines, drawn anywhere on each line with stamps that
    # repeat: the ordering clause pairs every inversion, line by line.
    lines = {"S": [], "A": [], "B": []}
    partitions = []
    for n in range(rnd.randint(2, 12)):
        events = []
        for inst, evs in lines.items():
            eid = "p%d%s" % (n, inst)
            evs.insert(rnd.randrange(len(evs) + 1), Event(eid, inst, model.PARTITION))
            events.append(eid)
        if rnd.random() < 0.2:  # the same event on two lines
            events.append(rnd.choice(events))
        partitions.append(PartitionLine(tuple(events), rnd.randint(0, 6)))
    sd = SequenceDiagram("P", ("S", "A", "B"),
                         {inst: tuple(evs) for inst, evs in lines.items()}, (), ())
    _assert_validates_as_the_reference(Tcsd(sd, "S", tuple(partitions), ()))
