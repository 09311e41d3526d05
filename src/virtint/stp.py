"""Marked graphs decided from their causal order and difference constraints.

The translator only emits marked graphs, and merging fuses transitions
without adding places: each place has at most one producing and one
consuming arc.  Give each place at most one initial token, and only a
place without a producer, and every transition fires at most once.  If
the target is the marking left after every transition fired, once per
place, and each transition has a causal path (output place, its
consumer, ...) to a target place, then reaching the target means firing
every transition.  So, guards aside, the target is reachable exactly
when Kahn's algorithm orders every transition along the producer ->
consumer places (Commoner, Holt, Even & Pnueli, "Marked directed
graphs", 1971).  A transition it cannot order never fires, whatever the
guards, so the target is unreachable: an ordering deadlock.

With the guards, reaching the target means giving each transition a
firing time t >= 0 that meets difference constraints: t_prod <= t_cons
per place, and lo <= a0 + t_cons - t_origin <= hi per guard [lo,hi] on a
token that was made at t_origin (kept along transport arcs; time 0 for an
initial token of age a0).  They are feasible exactly when their graph
has no positive cycle (a Simple Temporal Problem: Dechter, Meiri & Pearl,
AIJ 1991), and Bellman-Ford then finds the earliest schedule, the least
time of each transition.  Firing by that schedule, ties broken by
transition index, is the least (delay, transition) sequence to the
target, which is the witness the breadth-first search returns.  When
they are infeasible, no firing times reach the target although every
transition can be ordered: a timing conflict, found without a search.
``constraints`` builds them once, and ``earliest_times`` solves them.
Every run fires every transition, so the last time of the earliest
schedule is the least total delay of any run.  The bounds are integers,
so the discrete-time answer is the dense-time one.  Their cost does not
depend on the size of the guard constants, so, unlike the search, they
need no limit on them.
"""

from __future__ import annotations

import heapq
from typing import NamedTuple

from . import tapn
from .tapn import Marking, TargetSpec, Tapn, TraceStep


def causal_order(net: Tapn, m0: Marking, target: TargetSpec):
    """(transitions in a causal order, each one's causes) for a marked
    graph of the shape above, or None when the net is not one.

    The order lists only the transitions Kahn's algorithm can order; a
    transition's causes are the producers of its unmarked input places
    (None for such a place that nothing produces).
    """
    producer: dict[str, str] = {}
    consumer: dict[str, str] = {}
    inputs: dict[str, list[str]] = {t.id: [] for t in net.transitions}
    for place, tid in [(a.place, a.transition) for a in net.input_arcs] + [
            (a.source, a.transition) for a in net.transport_arcs]:
        if place in consumer:
            return None
        consumer[place] = tid
        inputs[tid].append(place)
    for tid, place in [(a.transition, a.place) for a in net.output_arcs] + [
            (a.transition, a.target) for a in net.transport_arcs]:
        if place in producer:
            return None
        producer[place] = tid
    marked = set()
    for place, ages in m0.items():
        if len(ages) > 1 or (ages and place in producer):
            return None
        if ages:
            marked.add(place)
    final = {p for p in net.places
             if p not in consumer and (p in producer or p in marked)}
    if any(n not in (0, 1) for n in target.values()) or \
            {p for p, n in target.items() if n} != final:
        return None
    # Every transition must lead to a target place: walk back from them.
    reached = set()
    stack = [producer[p] for p in final if p in producer]
    while stack:
        tid = stack.pop()
        if tid not in reached:
            reached.add(tid)
            stack.extend(producer[p] for p in inputs[tid] if p in producer)
    if len(reached) != len(net.transitions):
        return None
    # Kahn's algorithm; an input place that is neither marked nor
    # produced keeps its consumer out of the order for good.
    causes = {tid: [producer.get(p) for p in places if p not in marked]
              for tid, places in inputs.items()}
    waiting = {tid: len(c) for tid, c in causes.items()}
    order = [tid for tid in inputs if not waiting[tid]]
    outputs: dict[str, list[str]] = {tid: [] for tid in inputs}
    for place, tid in producer.items():
        if place in consumer:
            outputs[tid].append(consumer[place])
    for tid in order:  # grows while it is walked
        for nxt in outputs[tid]:
            waiting[nxt] -= 1
            if not waiting[nxt]:
                order.append(nxt)
    return order, causes


class Constraints(NamedTuple):
    """A marked graph's difference constraints: t_v >= t_u + c per edge
    (u, v, c) over node 0, time 0, and nodes 1.. , the transitions in net
    order."""

    edges: list
    node: dict  # transition -> node
    reads: dict  # per transition (place, origin node, age there) per input
    causes: dict
    cmax: int


def constraints(net: Tapn, m0: Marking, found) -> Constraints:
    """The constraints of a net whose ``causal_order``, ``found``, lists
    every transition, whatever its guard constants."""
    order, causes = found
    node = {t.id: v for v, t in enumerate(net.transitions, 1)}
    incoming, outputs = tapn.transition_arcs(net)
    origin = {p: (0, ages[0]) for p, ages in m0.items() if ages}  # (node, age there)
    made: dict[str, int] = {}  # place -> producer node
    reads: dict[str, list] = {}
    edges = []
    for tid in order:
        v = node[tid]
        reads[tid] = []
        for arc in incoming[tid]:
            p = tapn._arc_source(arc)
            o, a0 = origin[p]
            reads[tid].append((p, o, a0))
            if p in made:
                edges.append((made[p], v, 0))
            if arc.guard.lower > a0:
                edges.append((o, v, arc.guard.lower - a0))
            if arc.guard.upper is not None:
                edges.append((v, o, a0 - arc.guard.upper))
            if isinstance(arc, tapn.TransportArc):
                origin[arc.target], made[arc.target] = (o, a0), v
        for p in outputs[tid]:
            origin[p], made[p] = (v, 0), v
    return Constraints(edges, node, reads, causes, tapn.max_guard_constant(net))


def earliest_times(cons: Constraints) -> list[int] | None:
    """Each node's least time >= 0, by Bellman-Ford; None when the
    constraints are infeasible."""
    t = [0] * (len(cons.node) + 1)
    for _ in range(len(t)):
        changed = False
        for u, v, c in cons.edges:
            if t[u] + c > t[v]:
                t[v] = t[u] + c
                changed = True
        if not changed:
            break
    else:
        return None  # a positive cycle
    return None if t[0] else t  # time 0 may not move


def earliest_witness(net: Tapn, cons: Constraints, t: list[int]) -> list[TraceStep]:
    """The witness ``tapn.reachable`` returns, from the ``earliest_times``
    ``t`` of the net's constraints."""
    relevant = tapn.age_relevant(net)
    node = cons.node
    after: dict[str, list[str]] = {tid: [] for tid in cons.causes}
    waiting = {}
    for tid, cs in cons.causes.items():
        waiting[tid] = len(cs)
        for c in cs:
            after[c].append(tid)
    heap = [(t[node[tid]], node[tid], tid) for tid, n in waiting.items() if not n]
    heapq.heapify(heap)
    trace: list[TraceStep] = []
    now = 0
    while heap:
        x, v, tid = heapq.heappop(heap)
        trace.append(TraceStep(x - now, tid, net.transitions[v - 1].label, tuple(
            (p, min(a0 + x - t[o], cons.cmax + 1) if p in relevant else None)
            for p, o, a0 in cons.reads[tid])))
        now = x
        for nxt in after[tid]:
            waiting[nxt] -= 1
            if not waiting[nxt]:
                heapq.heappush(heap, (t[node[nxt]], node[nxt], nxt))
    return trace
