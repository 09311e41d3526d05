import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import check_reference
import tapn_reference
from gen import random_diagram_pair, random_merged_units, random_tapn
from oracle import naive_reachable
from virtint import integrate, stp, tapn
from virtint.tapn import InputArc, OutputArc, Tapn, Transition, TransportArc

_SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)
_BOUNDS = st.sampled_from([1, 3, 10, 50, 1_000_000])
_DELAYS = st.one_of(st.none(), st.integers(0, 6))


@_SETTINGS
@given(st.integers(0, 2**32 - 1))
def test_classification_equals_widened_search_on_random_nets(seed):
    # On a net of any shape, causal_order refuses it or reads it exactly:
    # every transition ordered iff the widened search reaches the target.
    net, m0, target = random_tapn(random.Random(seed), max_tokens=4)
    found = stp.causal_order(net, m0, target)
    if found is not None:
        widened = tapn.reachable(tapn.widen_guards(net), m0, target)
        assert (len(found[0]) == len(net.transitions)) \
            == (widened.verdict == tapn.REACHABLE)


def _search(net, m0, target, max_total_delay):
    """The search's result, or under a delay bound the reference's, the
    one search that takes such a bound."""
    if max_total_delay is None:
        return tapn.reachable(net, m0, target)
    return tapn_reference.reachable(net, m0, target, max_total_delay=max_total_delay)


def _search_net(net, target):
    """The search net ``tapn.reachable`` compiles for a net: its tables,
    and one node per transition from ``transition_arcs``."""
    incoming, outputs = tapn.transition_arcs(net)
    tables = tapn.SearchTables(net.places, tapn.age_relevant(net),
                               tapn.max_guard_constant(net), target)
    return tables.search_net({t.id: (t.label, incoming[t.id], outputs[t.id])
                              for t in net.transitions})


@_SETTINGS
@given(st.integers(0, 2**32 - 1), st.booleans(), st.integers(1, 5), st.integers(2, 7),
       _BOUNDS, _DELAYS)
def test_check_statuses_equal_the_search(seed, timing, window_a, window_b,
                                         max_states, max_total_delay):
    # Every merged net has a causal order.  A complete one is decided as
    # the reference search decides it with the same --max-delay and no
    # state bound; an incomplete one is an ordering deadlock whatever the
    # bounds, whose `blocking` comes from a search under the state bound
    # alone.
    pairs = [random_diagram_pair(random.Random(seed), timing=timing),
             _window_pair(window_a, window_b),
             random_diagram_pair(random.Random(seed), timing=timing, nest_in_timeouts=True)]
    for units, imap in pairs:
        report = integrate.check_consistency(units, imap, max_states=max_states,
                                             max_total_delay=max_total_delay)
        for verdict in report.verdicts:
            merged = integrate.merge(units, verdict.matching)
            net, m0, target = merged.net, merged.m0, merged.target
            found = stp.causal_order(net, m0, target)
            assert found is not None
            if len(found[0]) == len(net.transitions):
                engine = _search(net, m0, target, max_total_delay)
                if engine.verdict == tapn.REACHABLE:
                    expected = "consistent"
                elif tapn.reachable(net, m0, target).verdict == tapn.REACHABLE:
                    assert engine.verdict == tapn.BOUND_EXCEEDED
                    expected = "bound-exceeded"  # feasible only past --max-delay
                else:
                    expected = "timing-conflict"
                assert (verdict.status, verdict.witness, verdict.blocking,
                        verdict.states_explored) == (expected, engine.trace, (), 0)
                continue
            engine = tapn.reachable(net, m0, target, max_states=max_states)
            assert engine.verdict != tapn.REACHABLE
            blocking = (check_reference._blocking_labels(net, engine.frontier)
                        if engine.verdict == tapn.UNREACHABLE else ())
            assert (verdict.status, verdict.blocking) == ("ordering-deadlock", blocking)
            assert verdict.witness is None
            assert verdict.states_explored == engine.states_explored


@_SETTINGS
@given(st.integers(0, 2**32 - 1), st.sampled_from([1, 3, 10, 1_000_000]))
def test_check_consistency_statuses_equal_widened_search_classification(
        seed, max_states):
    units, imap = random_diagram_pair(random.Random(seed))
    report = integrate.check_consistency(units, imap, max_states=max_states)
    for verdict in report.verdicts:
        merged = integrate.merge(units, verdict.matching)
        # A marked graph whose transitions can all be ordered is decided
        # from its difference constraints without a search, so --max-states
        # cannot cut that answer short: it is the unbounded classification.
        found = stp.causal_order(merged.net, merged.m0, merged.target)
        ordered = found is not None and len(found[0]) == len(merged.net.transitions)
        # Nor can it change an ordering deadlock: every status is the
        # search's, then a second, widened one's, with no state bound.
        timed = tapn.reachable(merged.net, merged.m0, merged.target)
        expected = "consistent" if timed.verdict == tapn.REACHABLE else {
            tapn.REACHABLE: "timing-conflict", tapn.UNREACHABLE: "ordering-deadlock"}[
            tapn.reachable(tapn.widen_guards(merged.net), merged.m0, merged.target).verdict]
        assert verdict.status == expected
        if ordered:
            assert verdict.status in ("consistent", "timing-conflict")
            assert verdict.states_explored == 0
        else:
            assert verdict.status == "ordering-deadlock"
            assert 1 <= verdict.states_explored <= max_states


def _net(transitions, input_arcs=(), output_arcs=(), transport_arcs=()):
    places = sorted({a.place for a in input_arcs} | {a.place for a in output_arcs}
                    | {a.source for a in transport_arcs}
                    | {a.target for a in transport_arcs})
    net = Tapn("hand", tuple(places), tuple(Transition(t) for t in transitions),
               tuple(input_arcs), tuple(output_arcs), tuple(transport_arcs))
    net.check()
    return net


def _chain(marked_middle=False):
    """p0 -> t1 -> p1 -> t2 -> p2, p0 marked (and p1 too if asked)."""
    net = _net(["t1", "t2"],
               [InputArc("p0", "t1"), InputArc("p1", "t2")],
               [OutputArc("t1", "p1"), OutputArc("t2", "p2")])
    m0 = {"p0": (0,), "p1": (0,)} if marked_middle else {"p0": (0,)}
    return net, m0


def _broken_preconditions():
    """Nets that break one precondition each, where reading "every
    transition ordered" as "target reachable" would be wrong."""
    choice = _net(["t1", "t2"], [InputArc("p0", "t1"), InputArc("p0", "t2")],
                  [OutputArc("t1", "p1"), OutputArc("t2", "p2")])
    yield "two consumers", choice, {"p0": (0,)}, {"p1": 1, "p2": 1}
    join = _net(["t1", "t2"], [InputArc("p0", "t1"), InputArc("p1", "t2")],
                [OutputArc("t1", "q"), OutputArc("t2", "q")])
    yield "two producers", join, {"p0": (0,), "p1": (0,)}, {"q": 1}
    both_lead_on = _net(["t1", "t2", "t3"],
                        [InputArc("p0", "t1"), InputArc("p1", "t2"), InputArc("r", "t3")],
                        [OutputArc("t1", "q"), OutputArc("t1", "r"), OutputArc("t2", "q"),
                         OutputArc("t2", "u"), OutputArc("t3", "s")])
    yield "two producers, each on a path to the target", both_lead_on, \
        {"p0": (0,), "p1": (0,)}, {"q": 1, "s": 1, "u": 1}
    net, _ = _chain()
    yield "two initial tokens", net, {"p0": (0, 0)}, {"p2": 1}
    net, m0 = _chain(marked_middle=True)
    yield "initial token on a produced place", net, m0, {"p2": 1}
    net, m0 = _chain()
    yield "target holds an unconsumed start place", net, m0, {"p0": 1, "p2": 1}
    yield "target count 2", net, m0, {"p2": 2}
    unreachable_sink = _net(["t1", "t2"], [InputArc("p0", "t1"), InputArc("p1", "t2")],
                            [OutputArc("t2", "p2")])
    yield "transition without a path to the target", unreachable_sink, \
        {"p1": (0,)}, {"p2": 1}
    moved = _net(["t1", "t2"], [], [],
                 [TransportArc("p0", "t1", "q"), TransportArc("p1", "t2", "q")])
    yield "two producers by transport", moved, {"p0": (0,), "p1": (0,)}, {"q": 1}


def test_causal_order_refuses_broken_preconditions():
    names = []
    for name, net, m0, target in _broken_preconditions():
        names.append(name)
        assert stp.causal_order(net, m0, target) is None, name
        widened = tapn.reachable(tapn.widen_guards(net), m0, target).verdict
        # The precondition matters: the naive reading disagrees.
        naive = _naive_kahn(net, m0) == len(net.transitions)
        assert naive != (widened == tapn.REACHABLE), name
    assert len(names) == 9


def _naive_kahn(net, m0):
    """How many transitions fire when each fires once its input places
    have all been marked or produced, ignoring every precondition."""
    available = {p for p, ages in m0.items() if ages}
    fired: set = set()
    inputs = {t.id: {a.place for a in net.input_arcs if a.transition == t.id}
              | {a.source for a in net.transport_arcs if a.transition == t.id}
              for t in net.transitions}
    outputs = {t.id: {a.place for a in net.output_arcs if a.transition == t.id}
               | {a.target for a in net.transport_arcs if a.transition == t.id}
               for t in net.transitions}
    changed = True
    while changed:
        changed = False
        for tid in inputs:
            if tid not in fired and inputs[tid] <= available:
                fired.add(tid)
                available |= outputs[tid]
                changed = True
    return len(fired)


def test_marked_graph_verdicts_and_state_bound():
    # The causal order needs no states: it orders the chain, whose three
    # search states (nothing, t1, t1 t2) fit in 3 but not in 2.
    net, m0 = _chain()
    assert stp.causal_order(net, m0, {"p2": 1}) == (["t1", "t2"], {
        "t1": [], "t2": ["t1"]})
    widened = tapn.widen_guards(net)
    assert tapn.reachable(widened, m0, {"p2": 1}, max_states=3).verdict == tapn.REACHABLE
    assert tapn.reachable(widened, m0, {"p2": 1}, max_states=2).verdict \
        == tapn.BOUND_EXCEEDED
    # A causal cycle: t1 waits for t2's token and t2 for t1's.
    cycle = _net(["t1", "t2", "t3"],
                 [InputArc("a", "t1"), InputArc("b", "t1"), InputArc("c", "t2"),
                  InputArc("d", "t3")],
                 [OutputArc("t1", "d"), OutputArc("t2", "b"), OutputArc("t3", "c"),
                  OutputArc("t3", "e")])
    m0 = {"a": (0,)}
    assert stp.causal_order(cycle, m0, {"e": 1}) == ([], {
        "t1": ["t2"], "t2": ["t3"], "t3": ["t1"]})
    assert tapn.reachable(tapn.widen_guards(cycle), m0, {"e": 1}).verdict \
        == tapn.UNREACHABLE


_FIXTURE_SETS = {
    "bscu": ("bscu.arch", "tc_command1.tcsd", "tc_monitor1.tcsd", "tc_switch.tcsd"),
    "bscu_repaired": ("bscu.arch", "tc_command1.tcsd", "tc_monitor1.tcsd",
                      "tc_switch.tcsd"),
    "require_all": ("twice.arch", "tc_twice_a.tcsd", "tc_twice_b.tcsd"),
    "timing": ("windows.arch", "window_a.tcsd", "window_b.tcsd"),
}


def test_fixture_classifications_need_no_second_search(monkeypatch):
    # The search runs only for a matching whose causal order is
    # incomplete, once, never on widened guards and never under a delay
    # bound, which cannot undo a deadlock.  ``tapn.search`` is the one
    # search loop, which ``check`` runs on the fused tables.
    from conftest import FIXTURES, load_arch, load_tcsd
    from virtint import translate

    real = tapn.search
    searched = []

    def incomplete_only(sn, m0, **bounds):
        assert set(bounds) == {"max_states"} and not sn.shapes
        searched.append(dict(vars(sn), shapes={}))  # before the search fills them
        return real(sn, m0, **bounds)

    monkeypatch.setattr(tapn, "search", incomplete_only)
    statuses = {}
    for name, (arch, *files) in _FIXTURE_SETS.items():
        tcsds = [load_tcsd(FIXTURES / name / f) for f in files]
        imap = integrate.build_instance_map(load_arch(FIXTURES / name / arch), tcsds)
        units = [translate.translate(t) for t in tcsds]
        for bounds in ({}, {"require_all": True}, {"max_total_delay": 3},
                       {"max_states": 5}):
            searched.clear()
            report = integrate.check_consistency(units, imap, **bounds)
            merged = [integrate.merge(units, v.matching) for v in report.verdicts
                      if v.states_explored]
            assert searched == [vars(_search_net(m.net, m.target)) for m in merged]
            for m in merged:
                order, _ = stp.causal_order(m.net, m.m0, m.target)
                assert len(order) < len(m.net.transitions), "a complete order was searched"
            statuses[name, tuple(bounds)] = {v.status for v in report.verdicts}
    assert statuses["bscu", ()] == {"ordering-deadlock"}
    assert statuses["bscu", ("max_states",)] == {"ordering-deadlock"}
    assert statuses["bscu", ("max_total_delay",)] == {"ordering-deadlock"}
    assert statuses["bscu_repaired", ()] == {"consistent"}
    assert statuses["timing", ()] == {"timing-conflict"}
    # Feasible only past --max-delay: bound-exceeded, also with no search.
    units, imap = _window_pair(5)
    [verdict] = integrate.check_consistency(units, imap, max_total_delay=3).verdicts
    assert (verdict.status, verdict.states_explored) == ("bound-exceeded", 0)


def _replays_to_target(net, m0, target, witness):
    reached = tapn.marking_counts(tapn.replay(net, m0, witness))
    return reached == {p: n for p, n in target.items() if n}


def _witness(net, m0, found, max_total_delay=None):
    """The earliest witness, or None when the causal order is incomplete,
    the constraints are infeasible or the earliest schedule fires its last
    transition after ``max_total_delay``."""
    if len(found[0]) < len(net.transitions):
        return None
    cons = stp.constraints(net, m0, found)
    times = stp.earliest_times(cons)
    if times is None or max_total_delay is not None and max(times) > max_total_delay:
        return None
    return stp.earliest_witness(net, cons, times)


@_SETTINGS
@given(st.integers(0, 2**32 - 1), st.sampled_from([None, 0, 3, 9]))
def test_earliest_witness_is_the_search_witness(seed, max_total_delay):
    # Cut at the last time of the earliest schedule, the witness is the
    # one of the reference search that keeps each state's least delay.
    for unit in random_merged_units(random.Random(seed)):
        net, m0, target = unit.net, unit.m0, unit.target
        witness = _witness(net, m0, stp.causal_order(net, m0, target),
                           max_total_delay)
        engine = _search(net, m0, target, max_total_delay)
        if engine.verdict == tapn.REACHABLE:
            assert witness == engine.trace
            assert _replays_to_target(net, m0, target, witness)
        else:
            assert witness is None


def _window_pair(window_a, window_b=6):
    """The timing fixture's diagrams with their partition times replaced:
    x at most ``window_a`` ticks after sync in TC_WindowA, and at least
    ``window_b`` - 1 in TC_WindowB."""
    from conftest import FIXTURES, load_arch
    from virtint import model, parser, translate

    tcsds = []
    for name, old, new in (("window_a.tcsd", "at 2\n", "at %d\n" % window_a),
                           ("window_b.tcsd", "at 6\n", "at %d\n" % window_b)):
        src = (FIXTURES / "timing" / name).read_text(encoding="utf-8")
        tcsds.append(model.validate(parser.parse_tcsd(src.replace(old, new)).tcsd).tcsd)
    imap = integrate.build_instance_map(load_arch(FIXTURES / "timing" / "windows.arch"),
                                        tcsds)
    return [translate.translate(t) for t in tcsds], imap


def _refuse_to_search(*args, **kwargs):
    raise AssertionError("search run")


def test_consistent_pair_with_a_large_constant_needs_no_search(monkeypatch):
    units, imap = _window_pair(100_000)
    monkeypatch.setattr(tapn, "search", _refuse_to_search)
    t0 = time.perf_counter()
    report = integrate.check_consistency(units, imap)
    elapsed = time.perf_counter() - t0
    [verdict] = report.verdicts
    assert verdict.status == "consistent" and verdict.states_explored == 0
    assert elapsed < 1.0, elapsed
    merged = integrate.merge(units, verdict.matching)
    assert _replays_to_target(merged.net, merged.m0, merged.target, verdict.witness)
    # The earliest schedule: sync at once, x as soon as TC_WindowB's
    # partition at 6 allows.
    times, now = {}, 0
    for step in verdict.witness:
        now += step.delay
        times[step.label] = now
    assert (times["sync"], times["x"]) == (0, 6)
    # Past what --max-delay allows, the search decides, as before.
    monkeypatch.undo()
    bounded = integrate.check_consistency(units, imap, max_states=50,
                                          max_total_delay=3)
    assert [v.status for v in bounded.verdicts] == ["bound-exceeded"]


def test_conflicting_pair_with_a_large_constant_needs_no_search(monkeypatch):
    # x at most 2 ticks after sync in TC_WindowA, at least 99 999 in
    # TC_WindowB: a timing conflict with C = 100 000, however it is bounded.
    units, imap = _window_pair(2, 100_000)
    monkeypatch.setattr(tapn, "search", _refuse_to_search)
    t0 = time.perf_counter()
    for bounds in ({}, {"max_total_delay": 3}, {"max_states": 50}):
        report = integrate.check_consistency(units, imap, **bounds)
        [verdict] = report.verdicts
        assert verdict.status == "timing-conflict", bounds
        assert (verdict.witness, verdict.blocking, verdict.states_explored) \
            == (None, (), 0), bounds
        assert report.overall == "inconsistent", bounds
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, elapsed


def test_widened_timing_fixture_is_a_timing_conflict(monkeypatch):
    # The timing fixture widened to C = 1000 (at 2 -> at 333, at 6 ->
    # at 1000): the search used to run until the default --max-states
    # stopped it, as bound-exceeded.
    units, imap = _window_pair(333, 1000)
    monkeypatch.setattr(tapn, "search", _refuse_to_search)
    [verdict] = integrate.check_consistency(units, imap).verdicts
    assert verdict.status == "timing-conflict" and verdict.states_explored == 0


def _classification(net, m0, target, reachable):
    if reachable(net, m0, target):
        return "consistent"
    if reachable(tapn.widen_guards(net), m0, target):
        return "timing-conflict"
    return "ordering-deadlock"


def _three_ways_agree(units, imap):
    """Each verdict's status is the engine's classification and the naive
    oracle's; returns the statuses."""
    statuses = []
    for verdict in integrate.check_consistency(units, imap).verdicts:
        merged = integrate.merge(units, verdict.matching)
        steps = len(merged.net.transitions)  # each fires at most once
        engine = _classification(merged.net, merged.m0, merged.target,
                                 lambda *a: tapn.reachable(*a).verdict == tapn.REACHABLE)
        naive = _classification(merged.net, merged.m0, merged.target,
                                lambda *a: naive_reachable(*a, step_bound=steps))
        assert verdict.status == engine == naive, (verdict.status, engine, naive)
        statuses.append(verdict.status)
    return statuses


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 5), st.integers(2, 7))
def test_statuses_equal_engine_and_naive_oracle(seed, window_a, window_b):
    # Small diagram pairs, where the naive oracle finishes, plain and in
    # the timing mode (whose two extra messages and partitions make the
    # oracle slower, so its random part is smaller), and window pairs:
    # plain random pairs rarely give a timing conflict.
    _three_ways_agree(*random_diagram_pair(random.Random(seed), max_sut_events=3,
                                           max_depth=1, max_ticks=2))
    _three_ways_agree(*random_diagram_pair(random.Random(seed), max_sut_events=2,
                                           max_depth=1, max_ticks=2, timing=True))
    [status] = _three_ways_agree(*_window_pair(window_a, window_b))
    assert (status == "consistent") == (window_a >= window_b - 1)


def test_broken_preconditions_are_internal_errors(monkeypatch, capsys):
    from conftest import FIXTURES
    from virtint import cli

    units, imap = _window_pair(2)
    monkeypatch.setattr(tapn, "search", _refuse_to_search)
    # A timing conflict: infeasible constraints decide it, with no search.
    [verdict] = integrate.check_consistency(units, imap).verdicts
    assert verdict.status == "timing-conflict"
    assert verdict.states_explored == 0
    assert verdict.witness is None and verdict.blocking == ()
    # Every merged net is an ordered marked graph; one that is not is a
    # bug, reported as such instead of searched.  A broken net in place of
    # TC_WindowA's, with no labeled transition, leaves one empty matching,
    # decided on the union with TC_WindowB's net.
    argv = ["check"] + [str(FIXTURES / "timing" / n) for n in ("window_a.tcsd",
                                                              "window_b.tcsd")] \
        + ["--arch", str(FIXTURES / "timing" / "windows.arch")]
    real_translate = cli.translate.translate
    for name, net, m0, target in _broken_preconditions():
        def broken(tcsd, *args, net=net, m0=m0, target=target):
            unit = real_translate(tcsd, *args)
            if unit.name != units[0].name:
                return unit
            return unit._replace(net=net._replace(name=unit.net.name), m0=m0, target=target)

        monkeypatch.setattr(cli.translate, "translate", broken)
        broken_units = [broken(u.tcsd) for u in units]
        assert [m.pairs for m in integrate.enumerate_matchings(broken_units, imap)] == [()]
        # The union passes Tapn.check, and its graph is refused once; one
        # whose only fault is a transition with no causal path to the target
        # is kept, for a fused pair may add that path, and refused per matching.
        union = integrate._Union(broken_units)
        assert union.ok and union.fuse(()) is None, name
        if name == "transition without a path to the target":
            assert union.graph[2] is False
        else:
            assert union.graph is None, name
        with pytest.raises(integrate.IntegrationError, match="^internal error: "):
            integrate.check_consistency(broken_units, imap)
        capsys.readouterr()
        assert cli.main(argv) == 2, name
        out, err = capsys.readouterr()
        assert "internal error: " in out + err and "Traceback" not in out + err, name


def test_huge_constants_need_no_search(monkeypatch):
    net, m0 = _chain()
    found = stp.causal_order(net, m0, {"p2": 1})
    assert _witness(net, m0, found) == [
        tapn.TraceStep(0, "t1", None, (("p0", None),)),
        tapn.TraceStep(0, "t2", None, (("p1", None),))]
    guarded = net._replace(input_arcs=(InputArc("p0", "t1", tapn.Guard(7)),
                                       InputArc("p1", "t2")))
    assert _witness(guarded, m0, found)[0] == tapn.TraceStep(
        7, "t1", None, (("p0", 7),))
    # An age past the cap is recorded as the cap, as the search does.
    old = {"p0": (12,)}
    witness = _witness(guarded, old, found)
    assert witness[0] == tapn.TraceStep(0, "t1", None, (("p0", 8),))
    assert witness == tapn.reachable(guarded, old, {"p2": 1}).trace
    # Past the search's limit on guard constants, the constraints
    # still give the same witness.
    monkeypatch.setattr(tapn, "MAX_GUARD_CONSTANT", 6)
    assert _witness(guarded, old, found) == witness
    assert tapn.reachable(guarded, m0, {"p2": 1}).verdict == tapn.BOUND_EXCEEDED
    # The earliest schedule's last time is the least total delay: the
    # reference search meets a delay bound of 4, and not one of 3.
    late = net._replace(input_arcs=(InputArc("p0", "t1", tapn.Guard(4)),
                                    InputArc("p1", "t2")))
    cons = stp.constraints(late, m0, found)
    assert stp.earliest_times(cons) == [0, 4, 4]
    assert _witness(late, m0, found, max_total_delay=3) is None
    assert _witness(late, m0, found, max_total_delay=4) == tapn_reference.reachable(
        late, m0, {"p2": 1}, max_total_delay=4).trace
    assert tapn_reference.reachable(late, m0, {"p2": 1}, max_total_delay=3).verdict \
        == tapn.BOUND_EXCEEDED
    # A token moved on at age 4 or more, then read at age 2 or less: no
    # times meet both, whatever the bound, and the search agrees.
    moved = _net(["t1", "t2"], [InputArc("p1", "t2", tapn.Guard(0, 2))],
                 [OutputArc("t2", "p2")],
                 [TransportArc("p0", "t1", "p1", tapn.Guard(4))])
    cons = stp.constraints(moved, m0, stp.causal_order(moved, m0, {"p2": 1}))
    assert stp.earliest_times(cons) is None
    assert tapn.reachable(moved, m0, {"p2": 1}).verdict == tapn.UNREACHABLE
    assert tapn_reference.reachable(moved, m0, {"p2": 1}, max_total_delay=10).verdict \
        == tapn.UNREACHABLE
