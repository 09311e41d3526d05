"""``integrate.merge`` and ``integrate._blocking_labels`` as they were
before the units' union was built once per check, and
``integrate.enumerate_matchings`` as it was before matchings were made
one at a time.

Verbatim copies: ``merge`` builds the whole union again for every
matching, renames every arc with ``_replace``, sorts the four lists and
checks the merged net, ``_blocking_labels`` scans every labeled
transition against every dead marking, and ``enumerate_matchings``
lists every class's permutations before ``itertools.product`` combines
them.  They are the references that ``test_integrate``'s differential
tests compare the fast paths with; nothing in ``src`` uses them.
"""

from __future__ import annotations

import itertools

from virtint import tapn
from virtint.integrate import (MAXIMAL, STRICT, IntegrationError, SyncMatching,
                               _group_by_triple, _occurrence_triples)
from virtint.tapn import Tapn, Transition
from virtint.translate import TranslationUnit


def merge(units: list[TranslationUnit], matching: SyncMatching) -> TranslationUnit:
    """Disjoint union of the nets with matched transition pairs collapsed.

    Every matched pair is replaced by one transition carrying the shared
    label; all arcs of both originals are redirected to it, guards kept.
    The result is canonical (elements sorted by id), so the merge order
    of the units does not matter.
    """
    names = [u.name for u in units]
    if len(set(names)) != len(names):
        raise IntegrationError("duplicate diagram names: %s" % names)
    by_tid: dict[str, Transition] = {}
    for u in units:
        for t in u.net.transitions:
            if t.id in by_tid:
                raise IntegrationError("transition id %s appears in two nets" % t.id)
            by_tid[t.id] = t

    parent: dict[str, str] = {}

    def find(x):
        while parent.get(x, x) != x:
            parent[x] = parent.get(parent[x], parent[x])
            x = parent[x]
        return x

    for a, b in matching.pairs:
        for tid in (a, b):
            if tid not in by_tid:
                raise IntegrationError("matching references unknown transition %s" % tid)
            if by_tid[tid].label is None:
                raise IntegrationError("matching references unlabeled transition %s" % tid)
        if by_tid[a].label != by_tid[b].label:
            raise IntegrationError("matched transitions %s and %s have different labels"
                                   % (a, b))
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    used = [tid for pair in matching.pairs for tid in pair]
    if len(used) != len(set(used)):
        raise IntegrationError("matching is not injective: %s" % sorted(used))

    members: dict[str, list[str]] = {}
    for tid in used:
        members.setdefault(find(tid), []).append(tid)
    rename: dict[str, str] = {}
    merged_transitions: list[Transition] = []
    for root, tids in members.items():
        tids = sorted(set(tids))
        mid = "+".join(tids)
        for tid in tids:
            rename[tid] = mid
        merged_transitions.append(Transition(mid, by_tid[tids[0]].label))

    transitions = list(merged_transitions)
    places: list[str] = []
    input_arcs = []
    output_arcs = []
    transport_arcs = []
    m0: dict[str, tuple[int, ...]] = {}
    target: dict[str, int] = {}
    for u in units:
        places.extend(u.net.places)
        transitions.extend(t for t in u.net.transitions if t.id not in rename)
        input_arcs.extend(a._replace(transition=rename.get(a.transition, a.transition))
                          for a in u.net.input_arcs)
        output_arcs.extend(a._replace(transition=rename.get(a.transition, a.transition))
                           for a in u.net.output_arcs)
        transport_arcs.extend(a._replace(transition=rename.get(a.transition, a.transition))
                              for a in u.net.transport_arcs)
        m0.update(u.m0)
        target.update(u.target)

    net = Tapn(
        name="+".join(sorted(names)),
        places=tuple(sorted(places)),
        transitions=tuple(sorted(transitions, key=lambda t: t.id)),
        input_arcs=tuple(sorted(input_arcs, key=lambda a: (a.place, a.transition))),
        output_arcs=tuple(sorted(output_arcs, key=lambda a: (a.transition, a.place))),
        transport_arcs=tuple(sorted(transport_arcs,
                                    key=lambda a: (a.source, a.transition, a.target))),
    )
    net.check()
    return TranslationUnit(
        tcsd=None,
        net=net,
        m0=m0,
        target=target,
        event_map={},
    )


def _blocking_labels(net: Tapn, frontier) -> tuple[str, ...]:
    """Labeled transitions with some marked input place in a dead marking.

    A heuristic presentation of the deadlock cause, not claimed minimal:
    every dead marking disables all transitions, so any labeled transition
    whose input side is partly supplied is a stuck synchronization point.
    """
    incoming, _ = tapn.transition_arcs(net)
    found: set[str] = set()
    for t in net.transitions:
        if t.label is None:
            continue
        sources = [tapn._arc_source(a) for a in incoming[t.id]]
        for m in frontier:
            if any(m.get(p) for p in sources):
                found.add(t.label)
                break
    return tuple(sorted(found))


def enumerate_matchings(units, imap, policy=MAXIMAL):
    """Yield every combination of synchronization points, deterministically.

    Per unit pair and per occurrence class (sender component, label,
    receiver component), all maximum injective matchings are produced and
    combined by cartesian product.
    ``strict`` requires equal occurrence counts for every class whose
    endpoints are the pair's two components and errors otherwise;
    ``maximal`` leaves surplus occurrences free-firing.
    """
    if policy not in (MAXIMAL, STRICT):
        raise ValueError("unknown policy %r" % policy)
    if len(units) < 2:
        raise IntegrationError("virtual integration needs at least two diagrams")
    groups = [_group_by_triple(_occurrence_triples(u, imap)) for u in units]
    class_options: list[list[tuple[tuple[str, str], ...]]] = []
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
            for triple in sorted(set(ga) & set(gb)):
                a, b = ga[triple], gb[triple]
                if len(a) <= len(b):
                    options = [tuple(zip(a, perm))
                               for perm in itertools.permutations(b, len(a))]
                else:
                    options = [tuple(zip(perm, b))
                               for perm in itertools.permutations(a, len(b))]
                class_options.append(options)
    for combo in itertools.product(*class_options):
        pairs = tuple(sorted(pair for part in combo for pair in part))
        yield SyncMatching(pairs)
