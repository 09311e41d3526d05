import random

from hypothesis import given, settings
from hypothesis import strategies as st

from gen import random_diagram_pair, random_merged_units, random_tapn
from virtint import integrate, stp, tapn
from virtint.tapn import InputArc, OutputArc, Tapn, Transition, TransportArc

_SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)
_BOUNDS = st.sampled_from([1, 3, 10, 50, 1_000_000])
_DELAYS = st.one_of(st.none(), st.integers(0, 6))


def _agrees(net, m0, target, max_states, max_total_delay):
    """The causal-order answer, checked against the widened search."""
    got = stp.untimed_verdict(net, m0, target, max_states, max_total_delay)
    widened = tapn.untimed_reachable(net, m0, target, max_states=max_states,
                                     max_total_delay=max_total_delay)
    assert got is None or got == widened.verdict, (got, widened.verdict)
    return got


@_SETTINGS
@given(st.integers(0, 2**32 - 1), _BOUNDS, _DELAYS)
def test_classification_equals_widened_search_on_merged_diagram_pairs(
        seed, max_states, max_total_delay):
    for unit in random_merged_units(random.Random(seed)):
        got = _agrees(unit.net, unit.m0, unit.target, max_states, max_total_delay)
        if max_states == 1_000_000:
            assert got is not None  # every merge is a marked graph


@_SETTINGS
@given(st.integers(0, 2**32 - 1), _BOUNDS, _DELAYS)
def test_classification_equals_widened_search_on_random_nets(
        seed, max_states, max_total_delay):
    net, m0, target = random_tapn(random.Random(seed), max_tokens=4)
    _agrees(net, m0, target, max_states, max_total_delay)


@_SETTINGS
@given(st.integers(0, 2**32 - 1), st.sampled_from([1, 3, 10, 1_000_000]))
def test_check_consistency_statuses_equal_widened_search_classification(
        seed, max_states):
    units, imap = random_diagram_pair(random.Random(seed))
    report = integrate.check_consistency(units, imap, max_states=max_states)
    for verdict in report.verdicts:
        # The classification as it was: a second, widened search.
        merged = integrate.merge(units, verdict.matching)
        timed = tapn.reachable(merged.net, merged.m0, merged.target,
                               max_states=max_states)
        expected = {tapn.REACHABLE: "consistent",
                    tapn.BOUND_EXCEEDED: "bound-exceeded"}.get(timed.verdict)
        if expected is None:
            expected = {tapn.REACHABLE: "timing-conflict",
                        tapn.UNREACHABLE: "ordering-deadlock",
                        tapn.BOUND_EXCEEDED: "bound-exceeded"}[
                tapn.untimed_reachable(merged.net, merged.m0, merged.target,
                                       max_states=max_states).verdict]
        assert verdict.status == expected


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


def test_broken_preconditions_fall_back_to_the_search():
    names = []
    for name, net, m0, target in _broken_preconditions():
        names.append(name)
        assert stp.causal_order(net, m0, target) is None, name
        assert stp.untimed_verdict(net, m0, target) is None, name
        widened = tapn.untimed_reachable(net, m0, target).verdict
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
    net, m0 = _chain()
    assert stp.untimed_verdict(net, m0, {"p2": 1}) == tapn.REACHABLE
    # Three states (nothing, t1, t1 t2) fit in 3 but not in 2.
    assert stp.untimed_verdict(net, m0, {"p2": 1}, max_states=3) == tapn.REACHABLE
    assert stp.untimed_verdict(net, m0, {"p2": 1}, max_states=2) is None
    assert tapn.untimed_reachable(net, m0, {"p2": 1}, max_states=2).verdict \
        == tapn.BOUND_EXCEEDED
    assert stp.untimed_verdict(net, m0, {"p2": 1}, max_total_delay=-1) is None
    # A causal cycle: t1 waits for t2's token and t2 for t1's.
    cycle = _net(["t1", "t2", "t3"],
                 [InputArc("a", "t1"), InputArc("b", "t1"), InputArc("c", "t2"),
                  InputArc("d", "t3")],
                 [OutputArc("t1", "d"), OutputArc("t2", "b"), OutputArc("t3", "c"),
                  OutputArc("t3", "e")])
    m0 = {"a": (0,)}
    assert stp.causal_order(cycle, m0, {"e": 1}) == ([], {
        "t1": ["t2"], "t2": ["t3"], "t3": ["t1"]})
    assert stp.untimed_verdict(cycle, m0, {"e": 1}) == tapn.UNREACHABLE
    assert tapn.untimed_reachable(cycle, m0, {"e": 1}).verdict == tapn.UNREACHABLE


def test_fixture_classifications_need_no_second_search(monkeypatch, bscu):
    from conftest import FIXTURES, load_arch, load_tcsd
    from virtint import translate

    def refuse(*args, **kwargs):
        raise AssertionError("widened search run")

    monkeypatch.setattr(tapn, "untimed_reachable", refuse)
    tcsds, arch = bscu
    report = integrate.check_consistency([translate.translate(t) for t in tcsds],
                                         integrate.build_instance_map(arch, tcsds))
    assert {v.status for v in report.verdicts} == {"ordering-deadlock"}
    files = [FIXTURES / "timing" / n for n in ("window_a.tcsd", "window_b.tcsd")]
    tcsds = [load_tcsd(p) for p in files]
    imap = integrate.build_instance_map(load_arch(FIXTURES / "timing" / "windows.arch"),
                                        tcsds)
    report = integrate.check_consistency([translate.translate(t) for t in tcsds], imap)
    assert [v.status for v in report.verdicts] == ["timing-conflict"]
