import random

import pytest

from clause_fixtures import overlapping_fragments
from gen import random_tcsd_source
from virtint import model, parser
from virtint.model import (Event, Fragment, Message, Operand, PartitionLine,
                           SequenceDiagram, Tcsd, Violation)


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
        if isinstance(item, model.EventNode):
            out.append(item.event)
        else:
            out.append(item.enter)
            for op in item.operand_items:
                out.extend(_flatten(op))
            out.append(item.exit)
    return out


def test_sut_walk_total_order():
    res = model.validate(_parse(
        "tcsd T { sut S test A msg A -> S : a msg S -> A : b msg A -> S : c }"))
    regions = model.sut_regions(res.tcsd)
    assert all(isinstance(item, model.EventNode) for item in regions)
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
    assert msg_by_event[d.event.id] == "d"
    assert [[msg_by_event[n.event.id] for n in op] for op in inner.operand_items] \
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
