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
``graph_constraints`` builds them once, and ``earliest_times`` solves them.
Every run fires every transition, so the last time of the earliest
schedule is the least total delay of any run.  The bounds are integers,
so the discrete-time answer is the dense-time one.  Their cost does not
depend on the size of the guard constants, so, unlike the search, they
need no limit on them.

The other functions read an event graph (``Graph``): per transition
its incoming arcs and output places, and each place's producer and
consumer.  ``read_net`` reads one off a net, with its marked places, and
``integrate`` fuses a matching's pairs into the union's.
"""

from __future__ import annotations

import heapq
from typing import NamedTuple

from . import tapn
from .tapn import Marking, TargetSpec, Tapn, TraceStep


class Node(NamedTuple):
    """One transition of an event graph."""

    label: str | None
    arcs: list  # incoming arcs, in ``tapn.transition_arcs`` order
    outputs: list  # normal output places
    inputs: list  # each incoming arc's source place
    produces: list  # the output places, then each transport arc's target


class Graph(NamedTuple):
    """A marked graph's events: node v is the v-th transition of ``nodes``,
    in net order; each place has at most one producer and one consumer."""

    nodes: dict  # transition -> Node
    producer: dict  # place -> transition
    consumer: dict  # place -> transition
    relevant: set  # ``tapn.age_relevant``
    cmax: int  # ``tapn.max_guard_constant``


def read_net(net: Tapn, m0: Marking, target: TargetSpec):
    """(The net's event graph, the places ``m0`` marks, whether every
    transition ``leads_to_target``), or None when the net, ``m0`` or
    ``target`` breaks the shape above otherwise: a place with two
    producing or two consuming arcs, more than one token in a place, a
    token on a produced place, or a target other than one token on each
    place that nothing consumes and something produces or marks."""
    rows = {t.id: ([], [], [], []) for t in net.transitions}  # Node's lists
    producer, consumer = {}, {}
    for a in net.input_arcs:
        arcs, _, inputs, _ = rows[a.transition]
        arcs.append(a)
        inputs.append(a.place)
        consumer[a.place] = a.transition
    for a in net.output_arcs:
        _, outputs, _, produces = rows[a.transition]
        outputs.append(a.place)
        produces.append(a.place)
        producer[a.place] = a.transition
    for a in net.transport_arcs:
        arcs, _, inputs, produces = rows[a.transition]
        arcs.append(a)
        inputs.append(a.source)
        produces.append(a.target)
        consumer[a.source] = producer[a.target] = a.transition
    moved = len(net.transport_arcs)
    if (len(consumer) != len(net.input_arcs) + moved
            or len(producer) != len(net.output_arcs) + moved):
        return None
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
    graph = Graph({t.id: Node(t.label, *rows[t.id]) for t in net.transitions}, producer,
                  consumer, tapn.age_relevant(net), tapn.max_guard_constant(net))
    return graph, marked, leads_to_target(graph, target)


def leads_to_target(graph: Graph, target: TargetSpec) -> bool:
    """Whether every transition has a causal path (output place, its
    consumer, ...) to a target place.  Fusing transitions keeps every
    path, so what holds for a graph holds for it with any pairs fused."""
    nodes, producer = graph.nodes, graph.producer
    reached = set()
    stack = [producer[p] for p, n in target.items() if n and p in producer]
    while stack:
        tid = stack.pop()
        if tid not in reached:
            reached.add(tid)
            stack.extend(producer[p] for p in nodes[tid].inputs if p in producer)
    return len(reached) == len(nodes)


def graph_order(graph: Graph, marked: set):
    """(transitions in a causal order, each one's causes) of a graph whose
    marked places are ``marked``.

    The order lists only the transitions Kahn's algorithm can order; a
    transition's causes are the producers of its unmarked input places
    (None for such a place that nothing produces), which keep it out of
    the order for good.
    """
    nodes, producer = graph.nodes, graph.producer
    causes = {tid: [producer.get(p) for p in n.inputs if p not in marked]
              for tid, n in nodes.items()}
    waiting = {tid: len(c) for tid, c in causes.items()}
    order = [tid for tid, n in waiting.items() if not n]
    consumer = graph.consumer
    for tid in order:  # grows while it is walked
        for p in nodes[tid].produces:
            nxt = consumer.get(p)
            if nxt is not None:
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


def graph_constraints(graph: Graph, m0: Marking, found) -> Constraints:
    """The constraints of a graph whose ``graph_order``, ``found``, lists
    every transition, whatever its guard constants."""
    order, causes = found
    nodes = graph.nodes
    node = {tid: v for v, tid in enumerate(nodes, 1)}
    origin = {p: (0, ages[0]) for p, ages in m0.items() if ages}  # (node, age there)
    made: dict[str, int] = {}  # place -> producer node
    reads: dict[str, list] = {}
    edges = []
    for tid in order:
        v = node[tid]
        reads[tid] = []
        n = nodes[tid]
        for arc, p in zip(n.arcs, n.inputs):
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
        for p in n.outputs:
            origin[p], made[p] = (v, 0), v
    return Constraints(edges, node, reads, causes)


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


def graph_witness(graph: Graph, cons: Constraints, t: list[int]) -> list[TraceStep]:
    """The witness ``tapn.reachable`` returns, from the ``earliest_times``
    ``t`` of the graph's constraints: ``graph_order``'s walk, taking the
    ready transitions by (time, node)."""
    nodes, consumer, relevant = graph.nodes, graph.consumer, graph.relevant
    node, cap = cons.node, graph.cmax + 1
    waiting = {tid: len(cs) for tid, cs in cons.causes.items()}
    heap = [(t[node[tid]], node[tid], tid) for tid, n in waiting.items() if not n]
    heapq.heapify(heap)
    trace: list[TraceStep] = []
    now = 0
    while heap:
        x, v, tid = heapq.heappop(heap)
        trace.append(TraceStep(x - now, tid, nodes[tid].label, tuple(
            (p, min(a0 + x - t[o], cap) if p in relevant else None)
            for p, o, a0 in cons.reads[tid])))
        now = x
        for p in nodes[tid].produces:
            nxt = consumer.get(p)
            if nxt is not None:
                waiting[nxt] -= 1
                if not waiting[nxt]:
                    heapq.heappush(heap, (t[node[nxt]], node[nxt], nxt))
    return trace
