"""Merge per-component nets and decide whether their test cases can agree.

Instance lines are mapped onto architecture components; two message
occurrences may synchronize when their labels match and their sender and
receiver lines map to the same components.  Such transitions are merged
pairwise, every maximum matching of same-class occurrences is tried,
and each merged net is checked for reachability of the union target.

``check_consistency`` builds no merged net per matching.  Its ``_Union``
holds, once per check, the union's net, checked once, and the union's
event graph (``stp.Graph``) in the merged nets' order; each matching
fuses its pairs into that graph, with ``merge``'s ids, labels and arc
order.  Only a matching with a pair that clashes, whose merged net might
not be its fused graph, has its merged net built and checked.  ``merge``
builds and checks the merged net itself, for library users.

A merged net is a marked graph, and ``stp.graph_order`` orders its
transitions; a net it cannot read that way is an internal error.  When
every transition is ordered, the difference constraints decide the
matching with no search: infeasible is a timing conflict, and feasible
is consistent, with the search's own witness, unless the earliest
schedule ends past the delay bound: then it is bound-exceeded.  When
some transition cannot be ordered, it can never fire, so the target is
unreachable whatever the guards and bounds: an ordering deadlock.  Only
these matchings are searched, by ``tapn.search`` on the union's search
tables with the pairs fused, under ``max_states`` alone, for the dead
markings behind ``blocking``; a search cut short leaves ``blocking``
empty.
"""

from __future__ import annotations

import functools
import itertools
import sys
from operator import itemgetter
from typing import NamedTuple

from . import stp, tapn
from .model import Tcsd
from .parser import Architecture
from .tapn import InputArc, OutputArc, Tapn, TraceStep, Transition, TransportArc
from .translate import TranslationUnit

CONSISTENT = "consistent"
ORDERING_DEADLOCK = "ordering-deadlock"
TIMING_CONFLICT = "timing-conflict"
BOUND_EXCEEDED = "bound-exceeded"

MAXIMAL = "maximal"
STRICT = "strict"


class IntegrationError(Exception):
    pass


class InstanceMap(NamedTuple):
    """Total map from (diagram, instance line) to architecture component."""

    relation: dict[tuple[str, str], str]
    sut_components: dict[str, str]

    def component_of(self, tcsd_name: str, instance: str) -> str:
        try:
            return self.relation[(tcsd_name, instance)]
        except KeyError:
            raise IntegrationError(
                "instance %r of %r is not bound to a component" % (instance, tcsd_name)
            ) from None


def build_instance_map(arch: Architecture, tcsds: list[Tcsd]) -> InstanceMap:
    relation: dict[tuple[str, str], str] = {}
    suts: dict[str, str] = {}
    for tcsd in tcsds:
        name = tcsd.base.name
        binding = arch.bindings.get(name)
        if binding is None:
            raise IntegrationError("no binding for diagram %r in architecture %s"
                                   % (name, arch.name))
        relation[(name, tcsd.sut)] = binding.sut_component
        suts[name] = binding.sut_component
        for inst in tcsd.base.instances:
            if inst == tcsd.sut:
                continue
            comp = binding.instance_map.get(inst)
            if comp is None:
                raise IntegrationError(
                    "instance %r of %r is not bound to a component" % (inst, name))
            relation[(name, inst)] = comp
    return InstanceMap(relation, suts)


class SyncMatching(NamedTuple):
    pairs: tuple[tuple[str, str], ...]


def _occurrence_triples(unit: TranslationUnit, imap: InstanceMap):
    """Map each labeled transition to (sender comp, label, receiver comp)."""
    tcsd = unit.tcsd
    name = tcsd.base.name
    owner = {e.id: inst for inst, evs in tcsd.base.events.items() for e in evs}
    msg_by_event = {e: m for m in tcsd.base.messages for e in (m.send, m.receive)}
    event_of = {tid: eid for eid, tids in unit.event_map.items() for tid in tids}
    triples: dict[str, tuple[str, str, str]] = {}
    for t in unit.net.transitions:
        if t.label is None:
            continue
        msg = msg_by_event[event_of[t.id]]
        triples[t.id] = (
            imap.component_of(name, owner[msg.send]),
            msg.label,
            imap.component_of(name, owner[msg.receive]),
        )
    return triples


def _group_by_triple(triples: dict[str, tuple[str, str, str]]):
    groups: dict[tuple[str, str, str], list[str]] = {}
    for tid, triple in triples.items():
        groups.setdefault(triple, []).append(tid)
    for tids in groups.values():
        tids.sort()
    return groups


def enumerate_matchings(units: list[TranslationUnit], imap: InstanceMap,
                        policy: str = MAXIMAL):
    """Yield every combination of synchronization points, deterministically.

    Per unit pair and per occurrence class (sender component, label,
    receiver component), all maximum injective matchings are combined by
    cartesian product, in ``itertools.product``'s order: the last class
    advances fastest.  Combinations are made one at a time, each class's
    permutations generated afresh on every pass, so taking the first few
    costs only what they cost.
    ``strict`` requires equal occurrence counts for every class whose
    endpoints are the pair's two components and errors otherwise, before
    the first matching; ``maximal`` leaves surplus occurrences free-firing.
    """
    if policy not in (MAXIMAL, STRICT):
        raise ValueError("unknown policy %r" % policy)
    if len(units) < 2:
        raise IntegrationError("virtual integration needs at least two diagrams")
    groups = [_group_by_triple(_occurrence_triples(u, imap)) for u in units]
    classes: list[tuple[list[str], list[str]]] = []
    for i in range(len(units)):
        for j in range(i + 1, len(units)):
            ga, gb = groups[i], groups[j]
            if policy == STRICT:
                comp_i = imap.sut_components[units[i].tcsd.base.name]
                comp_j = imap.sut_components[units[j].tcsd.base.name]
                unmatched = []
                for triple in sorted(set(ga) | set(gb)):
                    s, _, r = triple
                    if {s, r} != {comp_i, comp_j}:
                        continue
                    na, nb = len(ga.get(triple, ())), len(gb.get(triple, ()))
                    if na != nb:
                        unmatched.append("%s (%d vs %d)" % (triple[1], na, nb))
                if unmatched:
                    raise IntegrationError(
                        "unmatched message occurrences between %s and %s: %s"
                        % (units[i].name, units[j].name, ", ".join(unmatched)))
            classes.extend((ga[t], gb[t]) for t in sorted(set(ga) & set(gb)))
    streams = [_class_options(a, b) for a, b in classes]
    combo = [next(s) for s in streams]
    while True:
        yield SyncMatching(tuple(sorted(pair for part in combo for pair in part)))
        for n in reversed(range(len(streams))):
            combo[n] = next(streams[n], None)
            if combo[n] is not None:
                break
            streams[n] = _class_options(*classes[n])
            combo[n] = next(streams[n])
        else:
            return


def _class_options(a: list[str], b: list[str]):
    """Every maximum injective matching of the occurrences ``a`` with ``b``."""
    if len(a) <= len(b):
        return (tuple(zip(a, perm)) for perm in itertools.permutations(b, len(a)))
    return (tuple(zip(perm, b)) for perm in itertools.permutations(a, len(b)))


# Per table of the union: the net field, its canonical sort key, and the
# row renamed to another transition (at half the cost of ``_replace``).
_TABLES = (("transitions", itemgetter(0), None),
           ("input_arcs", itemgetter(0, 1), lambda a, tid: InputArc(a.place, tid, a.guard)),
           ("output_arcs", itemgetter(0, 1), lambda a, tid: OutputArc(tid, a.place)),
           ("transport_arcs", itemgetter(0, 1, 2),
            lambda a, tid: TransportArc(a.source, tid, a.target, a.guard)))


class _Union(tuple):
    """The units with their disjoint union, built and checked once.

    ``net`` holds the places sorted and, per table, the units' rows
    concatenated in the units' own order; ``merge`` renames and sorts
    them.  ``check_consistency`` decides each matching on ``fuse``'s
    event graph and builds the search tables, ``tables``, on its first
    ordering deadlock.
    """

    def __new__(cls, units):
        self = super().__new__(cls, units)
        names = [u.name for u in self]
        if len(set(names)) != len(names):
            raise IntegrationError("duplicate diagram names: %s" % names)
        self.by_tid = {}
        for u in self:
            for t in u.net.transitions:
                if t.id in self.by_tid:
                    raise IntegrationError("transition id %s appears in two nets" % t.id)
                self.by_tid[t.id] = t
        places = tuple(sorted(p for u in self for p in u.net.places))
        self.net = Tapn("+".join(sorted(names)), places,
                        *(tuple(r for u in self for r in getattr(u.net, field))
                          for field, *_ in _TABLES))
        try:
            self.net.check()
            self.ok = True
        except ValueError:
            self.ok = False  # every merged net is checked, to raise its own error
        self.places = set(places)
        self.m0 = {p: ages for u in self for p, ages in u.m0.items()}
        self.target = {p: n for u in self for p, n in u.target.items()}
        self.fused: dict[tuple[str, str], tuple] = {}  # pair -> _fused_node's
        self.tables = None
        return self

    def merged_net(self, pairs) -> Tapn:
        """The union with each pair (a, b) renamed to one transition
        ``a+b`` (ids sorted) carrying a's label, guards kept, and each
        table sorted stably by its canonical key (elements by id)."""
        by_tid = self.by_tid
        rename: dict[str, str] = {}
        fused = []
        for a, b in pairs:
            rename[a] = rename[b] = mid = "+".join(sorted((a, b)))
            fused.append(Transition(mid, by_tid[a].label))
        transitions, *arcs = self.net[2:]
        tables = [[t for t in transitions if t.id not in rename] + fused]
        tables += [[renamed(r, rename[r.transition]) if r.transition in rename else r
                    for r in rows] for rows, (*_, renamed) in zip(arcs, _TABLES[1:])]
        for table, (_, key, _) in zip(tables, _TABLES):
            table.sort(key=key)
        return Tapn(self.net.name, self.net.places, *map(tuple, tables))

    @functools.cached_property
    def graph(self):
        """``_shape`` of the merged net of no pair.  Fusing keeps the
        shape and every causal path, so only where some transition does
        not lead to the target is a fused graph tested again."""
        return _shape(self, self.merged_net(()))

    def fuse(self, pairs):
        """The event graph of the merged net of ``pairs`` and its marked
        places, or None when that net is not of ``stp``'s shape.

        Unless a pair clashes, the union's graph has each pair's nodes
        fused into one with ``merge``'s id, label and arc order, and the
        producer and consumer maps renamed: so node numbers, witness
        tie-breaks and printed ids are the merged net's.  A pair clashes
        when its merged id names a transition, a place or another pair's
        merged id; then, and when the union fails ``Tapn.check`` or is not
        of the shape, the merged net is built and checked, as ``merge``
        does.  In a union of the shape each place has one producer and one
        consumer, so a pair can share a place only as a self-loop (a
        produces what b consumes), which the merged net reads the same way.
        """
        if self.ok and self.graph:
            graph, marked, leads = self.graph
            nodes = graph.nodes
            producer, consumer = dict(graph.producer), dict(graph.consumer)
            fused = {}
            for pair in pairs:
                found = self.fused.get(pair)
                if found is None:
                    found = self.fused[pair] = _fused_node(self, nodes, *pair)
                mid, node, consumes, produces, clash = found
                if clash or mid in fused:
                    break
                fused[mid] = node
                consumer.update(consumes)
                producer.update(produces)
            else:
                renamed = {tid for pair in pairs for tid in pair}
                ids = [tid for tid in nodes if tid not in renamed]
                ids += fused
                ids.sort()
                graph = stp.Graph({tid: fused[tid] if tid in fused else nodes[tid]
                                   for tid in ids},
                                  producer, consumer, graph.relevant, graph.cmax)
                return (graph, marked) if leads or stp.leads_to_target(
                    graph, self.target) else None
        net = self.merged_net(pairs)
        net.check()
        found = _shape(self, net)
        return found[:2] if found and found[2] else None


def _shape(union: _Union, net: Tapn):
    """(The event graph of a merged net of ``union``, its marked places,
    whether every transition leads to the target), or None when the net
    breaks ``stp``'s shape otherwise."""
    graph = stp.event_graph(net)
    marked = None if graph is None else stp.marked_places(graph, net.places, union.m0,
                                                           union.target)
    if marked is None:
        return None
    return graph, marked, stp.leads_to_target(graph, union.target)


def _fused_node(union: _Union, nodes, a: str, b: str):
    """(``a+b``, the node of a and b fused, the consumer and producer
    entries that rename them, whether ``a+b`` names a transition or a
    place) in a marked graph, where no two of their arcs share a key, so
    that sorting by key gives ``merge``'s order."""
    mid = "+".join(sorted((a, b)))
    normal, transport = [], []
    for arc in nodes[a].arcs + nodes[b].arcs:
        if isinstance(arc, TransportArc):
            transport.append(TransportArc(arc.source, mid, arc.target, arc.guard))
        else:
            normal.append(InputArc(arc.place, mid, arc.guard))
    normal.sort(key=_TABLES[1][1])
    transport.sort(key=_TABLES[3][1])
    outputs = sorted(nodes[a].outputs + nodes[b].outputs)
    node = stp.Node(union.by_tid[a].label, normal + transport, outputs,
                    [x.place for x in normal] + [x.source for x in transport],
                    outputs + [x.target for x in transport])
    return (mid, node, dict.fromkeys(node.inputs, mid), dict.fromkeys(node.produces, mid),
            mid in union.by_tid or mid in union.places)


def merge(units: list[TranslationUnit], matching: SyncMatching) -> TranslationUnit:
    """Disjoint union of the nets with matched transition pairs collapsed.

    The rows of each matched pair (a, b) are renamed to one transition
    ``a+b`` (ids sorted) carrying the shared label, guards kept, and each
    table is sorted stably by its canonical key (elements by id).  So the
    merge order of the units does not matter, and rows that the renaming
    makes equal keep the units' order.  ``units`` may be a list, or a
    ``_Union``; the merged net is always checked.  ``check_consistency``
    does not merge: it decides each matching on ``_Union.fuse``'s graph.
    """
    union = units if isinstance(units, _Union) else _Union(units)
    by_tid = union.by_tid
    for a, b in matching.pairs:
        for tid in (a, b):
            if tid not in by_tid:
                raise IntegrationError("matching references unknown transition %s" % tid)
            if by_tid[tid].label is None:
                raise IntegrationError("matching references unlabeled transition %s" % tid)
        if by_tid[a].label != by_tid[b].label:
            raise IntegrationError("matched transitions %s and %s have different labels"
                                   % (a, b))
    used = [tid for pair in matching.pairs for tid in pair]
    if len(used) != len(set(used)):
        raise IntegrationError("matching is not injective: %s" % sorted(used))
    net = union.merged_net(matching.pairs)
    net.check()
    return TranslationUnit(tcsd=None, net=net, m0=dict(union.m0),
                           target=dict(union.target), event_map={})


class Verdict(NamedTuple):
    status: str  # consistent | ordering-deadlock | timing-conflict | bound-exceeded
    matching: SyncMatching
    pair_labels: tuple[str, ...]  # label per matching pair
    witness: list[TraceStep] | None
    blocking: tuple[str, ...]  # labels of transitions stuck at the dead frontier
    states_explored: int


class AnalysisReport(NamedTuple):
    overall: str  # consistent | inconsistent | inconclusive
    verdicts: list[Verdict]
    policy: str
    require_all: bool
    matchings_truncated: bool
    unit_names: tuple[str, ...]

    @property
    def failure_classes(self) -> tuple[str, ...]:
        return tuple(sorted({v.status for v in self.verdicts
                             if v.status in (ORDERING_DEADLOCK, TIMING_CONFLICT)}))


def _blocking_labels(graph: stp.Graph, frontier) -> tuple[str, ...]:
    """Labeled transitions with some marked input place in a dead marking.

    A heuristic presentation of the deadlock cause, not claimed minimal:
    every dead marking disables all transitions, so any labeled transition
    whose input side is partly supplied is a stuck synchronization point.
    In a marked graph that is the consumer of a marked place.
    """
    marked = {p for m in frontier for p, ages in m.items() if ages}
    consumer, nodes = graph.consumer, graph.nodes
    return tuple(sorted({nodes[consumer[p]].label for p in marked if p in consumer}
                        - {None}))


def check_consistency(units: list[TranslationUnit], imap: InstanceMap,
                      policy: str = MAXIMAL, require_all: bool = False,
                      max_states: int = 1_000_000,
                      max_total_delay: int | None = None,
                      max_matchings: int = 64) -> AnalysisReport:
    """Run the full analysis: one verdict per synchronization combination.

    A matching is consistent when the merged target is reachable, and
    bound-exceeded when its earliest schedule ends after
    ``max_total_delay``.  An unreachable matching is a timing conflict
    when its causal order is complete and an ordering deadlock otherwise
    (see the module docstring).  ``max_states`` and the guard-constant
    limit bound only the search behind an ordering deadlock's
    ``blocking``, empty when the search is cut short; a matching decided
    from the difference constraints reports ``states_explored`` 0.  The overall verdict
    accepts the first consistent matching unless ``require_all`` is set.
    """
    names = [u.name for u in units]
    suts = [imap.sut_components[n] for n in names]
    if len(set(suts)) != len(suts):
        raise IntegrationError(
            "two diagrams test the same component: %s"
            % sorted(c for c in suts if suts.count(c) > 1))

    stream = enumerate_matchings(units, imap, policy)
    # No enumeration reaches sys.maxsize matchings; islice takes no more.
    matchings = list(itertools.islice(stream, min(max_matchings, sys.maxsize)))
    truncated = next(stream, None) is not None
    if matchings:
        union = _Union(units)  # built and checked once for every matching

    verdicts: list[Verdict] = []
    for matching in matchings:
        fused = union.fuse(matching.pairs)
        if fused is None:
            raise IntegrationError("internal error: the merged net of %s is not an "
                                   "ordered marked graph" % (matching.pairs,))
        graph, marked = fused
        found = stp.graph_order(graph, marked)
        pair_labels = tuple(union.by_tid[a].label for a, _ in matching.pairs)
        if len(found[0]) == len(graph.nodes):
            cons = stp.graph_constraints(graph, union.m0, found)
            times = stp.earliest_times(cons)
            if times is None:
                status, witness = TIMING_CONFLICT, None
            elif max_total_delay is not None and max(times) > max_total_delay:
                status, witness = BOUND_EXCEEDED, None
            else:
                status, witness = CONSISTENT, stp.graph_witness(graph, cons, times)
            verdicts.append(Verdict(status, matching, pair_labels, witness, (), 0))
            continue
        # Some transition can never fire, whatever the delays: an ordering
        # deadlock.  The search only finds the dead markings behind
        # ``blocking``, which stays empty when a bound cuts it short.
        if union.tables is None:
            union.tables = tapn.SearchTables(union.net.places, graph.relevant, graph.cmax,
                                             union.target)
        timed = tapn.search(union.tables.search_net(graph.nodes), union.m0,
                            max_states=max_states)
        blocking = (_blocking_labels(graph, timed.frontier)
                    if timed.verdict == tapn.UNREACHABLE else ())
        verdicts.append(Verdict(ORDERING_DEADLOCK, matching, pair_labels, None,
                                blocking, timed.states_explored))

    concluded = [v.status for v in verdicts]
    if require_all:
        if any(s in (ORDERING_DEADLOCK, TIMING_CONFLICT) for s in concluded):
            overall = "inconsistent"
        elif truncated or any(s == BOUND_EXCEEDED for s in concluded):
            overall = "inconclusive"
        else:
            overall = CONSISTENT
    else:
        if any(s == CONSISTENT for s in concluded):
            overall = CONSISTENT
        elif truncated or any(s == BOUND_EXCEEDED for s in concluded):
            overall = "inconclusive"
        else:
            overall = "inconsistent"
    return AnalysisReport(overall, verdicts, policy, require_all, truncated,
                          tuple(names))
