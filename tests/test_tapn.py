import random
import time
from collections import Counter

import pytest

import tapn_reference
from gen import _random_guard, random_merged_units, random_tapn
from oracle import naive_reachable
from virtint import integrate, model, parser, stp, tapn, translate
from virtint.tapn import (Guard, InputArc, OutputArc, Tapn, TraceStep, Transition,
                          TransportArc)


def _net(places, transitions, input_arcs=(), output_arcs=(), transport_arcs=()):
    net = Tapn("n", tuple(places), tuple(transitions), tuple(input_arcs),
               tuple(output_arcs), tuple(transport_arcs))
    net.check()
    return net


def test_guard_membership():
    g = Guard(2, 4)
    assert not g.contains(1)
    assert g.contains(2) and g.contains(4)
    assert not g.contains(5)
    assert str(g) == "[2,4]"
    assert str(Guard(0)) == "[0,∞)"
    assert Guard(3).contains(3) and Guard(3).contains(10 ** 9) and not Guard(3).contains(2)
    with pytest.raises(ValueError):
        Guard(4, 2)
    with pytest.raises(ValueError):
        Guard(-1)


def test_unbounded_guard_is_right_open():
    # A guard is [lower,upper], or [lower,∞) without an upper bound: no
    # field says whether a bound is closed.
    assert Guard(2) == Guard(2, None) == (2, None)
    assert Guard(2, 5) == (2, 5)
    with pytest.raises(TypeError):
        Guard(2, 5, False)


def test_enabled_window():
    net = _net(["p"], [Transition("t")], [InputArc("p", "t", Guard(2, 4))])
    assert tapn.enabled(net, {"p": (3,)}) == [("t", (3,))]
    assert tapn.enabled(net, {"p": (5,)}) == []


def test_enabled_needs_every_incoming_arc():
    net = _net(
        ["p", "p2", "q"],
        [Transition("t")],
        input_arcs=[InputArc("q", "t", Guard(1))],
        transport_arcs=[TransportArc("p", "t", "p2", Guard(0, 0))],
    )
    # The transport token fits [0,0] but q's token is too young for [1,oo).
    assert tapn.enabled(net, {"p": (0,), "q": (0,)}) == []
    assert tapn.enabled(net, {"p": (0,), "q": (1,)}) == [("t", (1, 0))]


def test_fire_transport_preserves_age():
    net = _net(["p", "p2"], [Transition("t")],
               transport_arcs=[TransportArc("p", "t", "p2", Guard(0))])
    after = tapn.fire(net, {"p": (7,)}, "t", (7,))
    assert after == {"p2": (7,)}


def test_fire_normal_resets_age():
    net = _net(["p", "p2"], [Transition("t")],
               input_arcs=[InputArc("p", "t", Guard(0))],
               output_arcs=[OutputArc("t", "p2")])
    after = tapn.fire(net, {"p": (7,)}, "t", (7,))
    assert after == {"p2": (0,)}


def test_fire_token_count_change_is_degree_difference():
    net = _net(["a", "b", "c", "d", "e"], [Transition("t")],
               input_arcs=[InputArc("a", "t"), InputArc("b", "t")],
               output_arcs=[OutputArc("t", "c"), OutputArc("t", "d"),
                            OutputArc("t", "e")])
    before = {"a": (0, 0), "b": (0, 0)}
    after = tapn.fire(net, before, "t", (0, 0))
    n_before = sum(len(v) for v in before.values())
    n_after = sum(len(v) for v in after.values())
    assert n_after - n_before == 3 - 2


def test_fire_rejects_non_enabled():
    net = _net(["p"], [Transition("t")], [InputArc("p", "t", Guard(2, 4))])
    with pytest.raises(ValueError):
        tapn.fire(net, {"p": (0,)}, "t", (0,))
    with pytest.raises(ValueError):
        tapn.fire(net, {"p": (3,)}, "t", (9,))


def test_delay_pointwise():
    assert tapn.delay({"p": (0, 3)}, 2) == {"p": (2, 5)}
    m = {"p": (1,), "q": (4,)}
    assert tapn.delay(m, 0) == m
    assert tapn.delay(tapn.delay(m, 2), 3) == tapn.delay(m, 5)
    with pytest.raises(ValueError):
        tapn.delay(m, -1)


def test_bindings_deduped_up_to_multiset_symmetry():
    net = _net(["p", "q"], [Transition("t")],
               input_arcs=[InputArc("p", "t"), InputArc("p", "t")],
               output_arcs=[OutputArc("t", "q")])
    # Two identical tokens, two arcs from the same place: one binding.
    assert tapn.enabled(net, {"p": (0, 0)}) == [("t", (0, 0))]
    # Distinct ages: both orders are distinct bindings.
    assert tapn.enabled(net, {"p": (0, 2)}) == [("t", (0, 2)), ("t", (2, 0))]
    # A single token cannot feed two arcs.
    assert tapn.enabled(net, {"p": (0,)}) == []


def test_reachable_chain():
    net = _net(["s0", "p0"], [Transition("start")],
               input_arcs=[InputArc("s0", "start", Guard(0))],
               output_arcs=[OutputArc("start", "p0")])
    res = tapn.reachable(net, {"s0": (0,)}, {"p0": 1})
    assert res.verdict == "reachable"
    assert [(s.delay, s.transition) for s in res.trace] == [(0, "start")]


def test_reachable_exact_delay():
    net = _net(["p", "q"], [Transition("t")],
               transport_arcs=[TransportArc("p", "t", "q", Guard(5, 5))])
    res = tapn.reachable(net, {"p": (0,)}, {"q": 1})
    assert res.verdict == "reachable"
    assert [(s.delay, s.transition) for s in res.trace] == [(5, "t")]


def test_guard_constant_above_the_limit_is_bound_exceeded(monkeypatch):
    net = _net(["p", "q"], [Transition("t")],
               transport_arcs=[TransportArc("p", "t", "q", Guard(5, 5))])
    monkeypatch.setattr(tapn, "MAX_GUARD_CONSTANT", 4)
    assert tapn.reachable(net, {"p": (0,)}, {"q": 1}) == tapn.ReachResult(
        "bound-exceeded", None, [], 1, 1)
    # A start that already is the target needs no search.
    assert tapn.reachable(net, {"p": (0,)}, {"p": 1}).verdict == "reachable"
    monkeypatch.setattr(tapn, "MAX_GUARD_CONSTANT", 5)
    assert tapn.reachable(net, {"p": (0,)}, {"q": 1}).verdict == "reachable"


def _mutual_wait_net():
    # t1 needs t2's output and vice versa: a classical transition deadlock.
    return _net(
        ["a1", "a2", "b1", "b2"],
        [Transition("t1"), Transition("t2")],
        input_arcs=[InputArc("a1", "t1"), InputArc("b2", "t1"),
                    InputArc("b1", "t2"), InputArc("a2", "t2")],
        output_arcs=[OutputArc("t1", "b1"), OutputArc("t2", "a1")],
    )


def test_reachable_mutual_wait_deadlock():
    net = _mutual_wait_net()
    m0 = {"a1": (0,), "b1": (0,)}
    res = tapn.reachable(net, m0, {"b1": 1, "a1": 1, "a2": 1})
    assert res.verdict == "unreachable"
    assert res.frontier == [m0]
    untimed = tapn.reachable(tapn.widen_guards(net), m0, {"b1": 1, "a1": 1, "a2": 1})
    assert untimed.verdict == "unreachable"


def test_timing_conflict_net_untimed_reachable_only():
    # One token must pass [0,2] first and [5,5] afterwards: impossible in
    # time, trivially possible with relaxed guards.
    net = _net(["a", "b", "c"], [Transition("t1"), Transition("t2")],
               transport_arcs=[TransportArc("a", "t1", "b", Guard(0, 2)),
                               TransportArc("b", "t2", "c", Guard(5, 5))])
    m0 = {"a": (3,)}
    assert tapn.reachable(net, m0, {"c": 1}).verdict == "unreachable"
    assert tapn.reachable(tapn.widen_guards(net), m0, {"c": 1}).verdict == "reachable"


def test_guard_relaxation_is_monotone():
    rng = random.Random(99)
    for _ in range(30):
        net, m0, target = random_tapn(rng)
        timed = tapn.reachable(net, m0, target)
        if timed.verdict == "reachable":
            assert tapn.reachable(tapn.widen_guards(net), m0, target).verdict == "reachable"


def test_structural_conditions():
    with pytest.raises(ValueError):
        _net(["p"], [Transition("p")])  # id overlap
    with pytest.raises(ValueError):
        _net(["p", "a", "b"], [Transition("t")],
             transport_arcs=[TransportArc("p", "t", "a"),
                             TransportArc("p", "t", "b")])
    with pytest.raises(ValueError):
        _net(["p", "a"], [Transition("t")],
             input_arcs=[InputArc("p", "t")],
             transport_arcs=[TransportArc("p", "t", "a")])


def test_reachable_deterministic():
    rng = random.Random(5)
    for _ in range(10):
        net, m0, target = random_tapn(rng)
        r1 = tapn.reachable(net, m0, target)
        r2 = tapn.reachable(net, m0, target)
        assert r1.verdict == r2.verdict
        assert r1.trace == r2.trace
        assert r1.states_explored == r2.states_explored


def test_witness_replays():
    rng = random.Random(6)
    replayed = 0
    for _ in range(40):
        net, m0, target = random_tapn(rng)
        res = tapn.reachable(net, m0, target)
        if res.verdict != "reachable":
            continue
        final = tapn.replay(net, m0, res.trace)
        assert tapn.marking_counts(final) == {p: n for p, n in target.items() if n}
        replayed += 1
    assert replayed >= 5


def _late_read_net():
    """t reads p through [2,oo) only after u and v have each waited 5
    ticks, so p's token is 10 ticks old, past the cap of 6."""
    return _net(["p", "q", "r", "s", "done"], [Transition("u"), Transition("v"), Transition("t")],
                input_arcs=[InputArc("q", "u", Guard(5, 5)), InputArc("r", "v", Guard(5, 5)),
                            InputArc("p", "t", Guard(2)), InputArc("s", "t")],
                output_arcs=[OutputArc("u", "r"), OutputArc("v", "s"), OutputArc("t", "done")])


def test_replay_takes_a_recorded_age_at_the_cap_for_any_older_token():
    net = _late_read_net()
    m0 = {"p": (0,), "q": (0,)}
    res = tapn.reachable(net, m0, {"done": 1})
    assert res.verdict == "reachable"
    assert res.trace[-1] == TraceStep(0, "t", None, (("p", 6), ("s", None)))
    assert tapn.replay(net, m0, res.trace) == {"done": (0,)}
    # Of several tokens at or past the cap, the youngest is taken.
    assert tapn.replay(net, {"p": (1, 0), "q": (0,)}, res.trace) == {"done": (0,), "p": (11,)}
    # An age below the cap must be there exactly.
    exact = res.trace[:-1] + [res.trace[-1]._replace(consumed=(("p", 5), ("s", None)))]
    with pytest.raises(tapn.ReplayError, match="^no token of age 5 in p$"):
        tapn.replay(net, m0, exact)


@pytest.mark.parametrize("m0,consumed,error", [
    ({"p": (0,), "s": (0,)}, (("p", None),), "step arity mismatch on t"),
    ({"p": (0,), "s": (0,)}, (("s", None), ("p", None)), "step consumes from s, arc reads p"),
    ({"p": (0,), "s": (0,)}, (("p", 6), ("s", None)), "no token of age 6 in p"),
    ({"p": (1,), "s": (0,)}, (("p", 1), ("s", None)), "age 1 violates guard [2,∞) on t"),
])
def test_replay_refuses_a_step_that_cannot_fire(m0, consumed, error):
    with pytest.raises(tapn.ReplayError) as err:
        tapn.replay(_late_read_net(), m0, [TraceStep(0, "t", None, consumed)])
    assert str(err.value) == error


def test_bound_exceeded_reported():
    # The search takes no delay bound: its witness waits 5, so the
    # reference search, the one with a delay bound, cuts it at 3.
    net = _net(["p", "q"], [Transition("t")],
               transport_arcs=[TransportArc("p", "t", "q", Guard(5, 5))])
    res = tapn.reachable(net, {"p": (0,)}, {"q": 1})
    assert res.verdict == "reachable" and [s.delay for s in res.trace] == [5]
    res = tapn_reference.reachable(net, {"p": (0,)}, {"q": 1}, max_total_delay=3)
    assert res.verdict == "bound-exceeded"
    res2 = tapn.reachable(net, {"p": (0,)}, {"q": 1}, max_states=1)
    assert res2.verdict == "bound-exceeded"


def test_engine_matches_naive_oracle_sample():
    rng = random.Random(12)
    for i in range(15):
        net, m0, target = random_tapn(rng)
        engine = tapn.reachable(net, m0, target)
        assert engine.verdict in ("reachable", "unreachable")
        assert (engine.verdict == "reachable") == naive_reachable(net, m0, target), i


def test_transition_without_incoming_arc_rejected():
    with pytest.raises(ValueError, match="t has no incoming arc"):
        _net(["q"], [Transition("t")], output_arcs=[OutputArc("t", "q")])


def _detour_net():
    # t1 reaches q only after waiting 5; t2;t3 reach it at once.  t4 then
    # needs q's token aged exactly 3, so the cheapest run waits 3 in total.
    return _net(
        ["p", "q", "r", "s"],
        [Transition(t) for t in ("t1", "t2", "t3", "t4")],
        input_arcs=[InputArc("p", "t1", Guard(5)), InputArc("p", "t2"),
                    InputArc("r", "t3"), InputArc("q", "t4", Guard(3, 3))],
        output_arcs=[OutputArc("t1", "q"), OutputArc("t2", "r"),
                     OutputArc("t3", "q"), OutputArc("t4", "s")],
    )


def test_max_delay_keeps_the_least_delay_per_state():
    # The delay bound lives in the reference search alone.  The search
    # finds the two-step witness, which waits 8; under a bound of 6 the
    # reference finds the three-step one, which waits 3.
    net = _detour_net()
    res = tapn.reachable(net, {"p": (0,)}, {"s": 1})
    assert [step.transition for step in res.trace] == ["t1", "t4"]
    assert sum(step.delay for step in res.trace) == 8
    res = tapn_reference.reachable(net, {"p": (0,)}, {"s": 1}, max_total_delay=6)
    assert res.verdict == "reachable"
    assert sum(step.delay for step in res.trace) == 3
    final = tapn.replay(net, {"p": (0,)}, res.trace)
    assert tapn.marking_counts(final) == {"s": 1}
    res = tapn_reference.reachable(net, {"p": (0,)}, {"s": 1}, max_total_delay=2)
    assert res.verdict == "bound-exceeded"


def test_max_delay_cuts_only_paths_a_cheaper_one_does_not_replace():
    # As the detour net, with a two-step cheap path to q, so that q is
    # expanded at delay 5 (and cut by the bound) before the path that
    # reaches it at delay 0 arrives.  Two tokens never reach s, and no
    # state needs more than 6 ticks at its least delay.
    net = _net(
        ["p", "q", "r", "u", "s"],
        [Transition(t) for t in ("t1", "t2", "t3", "t4", "t5")],
        input_arcs=[InputArc("p", "t1", Guard(5)), InputArc("p", "t2"),
                    InputArc("r", "t3"), InputArc("u", "t5"),
                    InputArc("q", "t4", Guard(3, 3))],
        output_arcs=[OutputArc("t1", "q"), OutputArc("t2", "r"), OutputArc("t3", "u"),
                     OutputArc("t5", "q"), OutputArc("t4", "s")],
    )
    res = tapn_reference.reachable(net, {"p": (0,)}, {"s": 2}, max_total_delay=6)
    assert res.verdict == "unreachable"
    assert res.frontier == [{"s": (0,)}]
    assert tapn.reachable(net, {"p": (0,)}, {"s": 2}).verdict == "unreachable"


def test_max_delay_verdict_is_monotone_and_witnesses_respect_it():
    # Of the reference search, the one with a delay bound, against the
    # search without one.
    rng = random.Random(21)
    for _ in range(25):
        net, m0, target = random_tapn(rng)
        unbounded = tapn.reachable(net, m0, target).verdict
        previous = None
        for bound in range(0, 2 * tapn.max_guard_constant(net) + 3):
            res = tapn_reference.reachable(net, m0, target, max_total_delay=bound)
            if previous == "reachable":
                assert res.verdict == "reachable"
            if res.verdict == "reachable":
                assert sum(step.delay for step in res.trace) <= bound
                final = tapn.replay(net, m0, res.trace)
                assert tapn.marking_counts(final) == {p: n for p, n in target.items() if n}
            elif unbounded == "reachable":
                assert res.verdict == "bound-exceeded"
            previous = res.verdict


def _differential_nets(n_seeds):
    """Seeded random nets with guard constants 0..8.  Each comes a second
    time with one normal input arc doubled under a fresh guard, so that a
    transition reads two tokens of one place (the multiset binding path)."""
    for seed in range(n_seeds):
        rng = random.Random(seed)
        max_const = seed % 9
        net, m0, target = random_tapn(rng, max_const=max_const, max_tokens=4)
        yield rng, net, m0, target
        if net.input_arcs:
            arc = rng.choice(net.input_arcs)
            extra = InputArc(arc.place, arc.transition, _random_guard(rng, max_const))
            yield rng, net._replace(input_arcs=net.input_arcs + (extra,)), m0, target


def test_engine_matches_reference_engine():
    # The reference images every delay 0..C+1 of dense states and tries
    # every transition on each image; the engine must give the very same
    # result: verdict, trace with consumed ages, frontier and counters.
    # The delay bound is the reference's alone; its draw is kept, so the
    # nets and state bounds are those it was drawn with.
    verdicts = {name: Counter() for name in ("none", "states")}
    shared = 0
    for rng, net, m0, target in _differential_nets(2000):
        shared += len({a.place for a in net.input_arcs}) < len(net.input_arcs)
        rng.randint(0, 2 * tapn.max_guard_constant(net) + 2)  # the delay bound
        states = rng.randint(1, 40)
        for name, kwargs in (("none", {}), ("states", {"max_states": states})):
            got = tapn.reachable(net, m0, target, **kwargs)
            assert got == tapn_reference.reachable(net, m0, target, **kwargs), kwargs
            verdicts[name][got.verdict] += 1
    assert shared >= 1500
    assert set(verdicts["none"]) == {"reachable", "unreachable"}
    assert len(verdicts["states"]) == 3, verdicts["states"]


def test_engine_matches_reference_engine_on_merged_diagram_pairs():
    # The nets every check searches: merged translator nets, where every
    # place holds at most one token, so nearly every firing is assembled
    # from a shape's plan instead of enumerated.
    verdicts = {name: Counter() for name in ("none", "states")}
    for seed in range(120):
        rng = random.Random(seed)
        for unit in random_merged_units(rng, max_sut_events=6):
            net, m0, target = unit.net, unit.m0, unit.target
            rng.randint(0, 2 * tapn.max_guard_constant(net) + 2)  # the delay bound
            for name, kwargs in (("none", {}),
                                 ("states", {"max_states": rng.randint(1, 60)})):
                got = tapn.reachable(net, m0, target, **kwargs)
                assert got == tapn_reference.reachable(net, m0, target, **kwargs), (
                    seed, kwargs)
                verdicts[name][got.verdict] += 1
    assert set(verdicts["none"]) == {"reachable", "unreachable"}
    assert len(verdicts["states"]) == 3, verdicts["states"]


def _chain_unit(messages):
    lines = ["tcsd Chain {", "  sut S", "  test T"]
    lines += ["  msg %s : m%d" % ("T -> S" if i % 2 == 0 else "S -> T", i)
              for i in range(messages)]
    src = "\n".join(lines + ["}"]) + "\n"
    return translate.translate(model.validate(parser.parse_tcsd(src).tcsd).tcsd)


def test_long_chain_search_replay_and_blocking_are_linear():
    # Each step of a 4000-message chain must cost its own arcs, not the
    # whole net: scanning every arc per state or step took over 20 s.
    unit = _chain_unit(4000)
    net = unit.net
    every_place = {p: (0,) for p in net.places}
    t0 = time.perf_counter()
    res = tapn.reachable(net, unit.m0, unit.target)
    final = tapn.replay(net, unit.m0, res.trace)
    blocking = integrate._blocking_labels(stp.event_graph(net), [every_place])
    elapsed = time.perf_counter() - t0
    assert res.verdict == "reachable" and res.states_explored == len(net.places)
    assert tapn.marking_counts(final) == unit.target
    assert blocking == tuple(sorted("m%d" % i for i in range(4000)))
    assert elapsed < 5.0, elapsed
