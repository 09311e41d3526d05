"""The discrete-time search before enabled-delay windows and sparse states.

A verbatim copy of ``tapn._SearchNet`` and ``tapn.reachable`` as they
were when every state was a dense vector over all places, every delay
0..C+1 was imaged and every transition was tried on every image.  It is
the reference that ``test_tapn``'s differential test compares the
engine with; nothing in ``src`` uses it.  Since every guard became a
closed interval, it no longer rejects right-open ones before searching.

``check`` is a verbatim copy of ``Tapn.check`` as it was when it walked
every arc, the reference for ``test_translate``'s differential test of
the structural check.
"""

from __future__ import annotations

import itertools
from collections import deque

from virtint.tapn import (BOUND_EXCEEDED, REACHABLE, UNREACHABLE, InputArc,
                          Marking, ReachResult, TargetSpec, Tapn, TraceStep,
                          incoming_arcs, max_guard_constant, normalize_marking)


def _arc_source(arc) -> str:
    return arc.place if isinstance(arc, InputArc) else arc.source


class _SearchNet:
    def __init__(self, net: Tapn):
        self.net = net
        self.places = list(net.places)
        self.pidx = {p: i for i, p in enumerate(self.places)}
        self.cmax = max_guard_constant(net)
        self.cap = self.cmax + 1
        self.trans = [(t.id, t.label) for t in net.transitions]
        # Per transition: incoming (source idx, lower, upper or None,
        # transport target idx or -1) in incoming_arcs order, plus normal
        # output place idxs.
        self.inc: list[list[tuple[int, int, int | None, int]]] = []
        self.out: list[list[int]] = []
        self.distinct_sources: list[bool] = []
        for t in net.transitions:
            arcs = incoming_arcs(net, t.id)
            row = []
            for arc in arcs:
                g = arc.guard
                if isinstance(arc, InputArc):
                    row.append((self.pidx[arc.place], g.lower, g.upper, -1))
                else:
                    row.append((self.pidx[arc.source], g.lower, g.upper,
                                self.pidx[arc.target]))
            self.inc.append(row)
            sources = [pi for pi, _, _, _ in row]
            self.distinct_sources.append(len(set(sources)) == len(sources))
            self.out.append([self.pidx[a.place] for a in net.output_arcs
                             if a.transition == t.id])
        # Token ages only matter in places read through a non-trivial guard,
        # directly or further down a transport-arc chain.  Everywhere else
        # the canonical state stores age 0: an exact quotient, since every
        # guard touching those tokens accepts any age.
        relevant = [False] * len(self.places)
        for arc in list(net.input_arcs) + list(net.transport_arcs):
            if arc.guard.lower > 0 or arc.guard.upper is not None:
                relevant[self.pidx[_arc_source(arc)]] = True
        changed = True
        while changed:
            changed = False
            for arc in net.transport_arcs:
                src, tgt = self.pidx[arc.source], self.pidx[arc.target]
                if relevant[tgt] and not relevant[src]:
                    relevant[src] = True
                    changed = True
        self.age_relevant = relevant

    def encode(self, m: Marking):
        vec = [()] * len(self.places)
        for p, ages in normalize_marking(m).items():
            i = self.pidx[p]
            if self.age_relevant[i]:
                vec[i] = tuple(min(a, self.cap) for a in ages)
            else:
                vec[i] = (0,) * len(ages)
        return tuple(vec)

    def decode(self, state) -> Marking:
        return {self.places[i]: ages for i, ages in enumerate(state) if ages}

    def delayed(self, state, d):
        cap = self.cap
        rel = self.age_relevant
        return tuple(
            tuple(min(a + d, cap) for a in ages) if rel[i] else ages
            for i, ages in enumerate(state)
        )

    def fire_bindings(self, state, ti):
        row = self.inc[ti]
        candidates = []
        for pi, lo, hi, _ in row:
            ages = state[pi]
            if not ages:
                return ()
            if hi is None:
                cands = [a for a in dict.fromkeys(ages) if a >= lo]
            else:
                cands = [a for a in dict.fromkeys(ages) if lo <= a <= hi]
            if not cands:
                return ()
            candidates.append(cands)
        if len(row) == 1:
            return [(a,) for a in candidates[0]]
        if self.distinct_sources[ti]:
            return list(itertools.product(*candidates))
        # Shared source places: enforce multiset availability.
        pools = {}
        for pi, _, _, _ in row:
            if pi not in pools:
                counts: dict[int, int] = {}
                for a in state[pi]:
                    counts[a] = counts.get(a, 0) + 1
                pools[pi] = counts
        out = []
        chosen: list[int] = []

        def rec(k):
            if k == len(row):
                out.append(tuple(chosen))
                return
            pi = row[k][0]
            pool = pools[pi]
            for age in candidates[k]:
                if pool[age] <= 0:
                    continue
                pool[age] -= 1
                chosen.append(age)
                rec(k + 1)
                chosen.pop()
                pool[age] += 1

        rec(0)
        return out

    def fire(self, state, ti, binding):
        vec = list(state)
        touched: dict[int, list[int]] = {}

        def pool(pi):
            if pi not in touched:
                touched[pi] = list(vec[pi])
            return touched[pi]

        for (pi, _, _, tgt), age in zip(self.inc[ti], binding):
            pool(pi).remove(age)
            if tgt >= 0:
                pool(tgt).append(age if self.age_relevant[tgt] else 0)
        for pi in self.out[ti]:
            pool(pi).append(0)
        for pi, ages in touched.items():
            ages.sort()
            vec[pi] = tuple(ages)
        return tuple(vec)



def reachable(net: Tapn, m0: Marking, target: TargetSpec,
              max_states: int = 1_000_000,
              max_total_delay: int | None = None) -> ReachResult:
    """Decide whether some delay/fire sequence reaches the target counts.

    The target names the exact token count per place (token ages do not
    matter); every unlisted place must be empty.  Search is breadth-first
    over (delay, fire) successors, so without ``max_total_delay`` a
    returned witness has a minimal number of steps.  With it, each state
    keeps the least total delay of the paths found to it and is expanded
    again when a path with less delay reaches it, so the bound cuts only
    paths that no cheaper path to the same state makes unnecessary.
    Unreachable results carry the dead markings found, which feed the
    deadlock diagnostics.
    """
    for p in target:
        if p not in net.places:
            raise ValueError("target names unknown place %r" % p)
    sn = _SearchNet(net)
    tvec = [0] * len(sn.places)
    for p, n in target.items():
        tvec[sn.pidx[p]] = n
    tvec = tuple(tvec)

    def matches(state):
        return all(len(ages) == n for ages, n in zip(state, tvec))

    start = sn.encode(m0)
    if matches(start):
        return ReachResult(REACHABLE, [], [], 1, 1)

    parents: dict = {start: None}
    queue = deque([(start, 0)])
    dead: dict = {}  # dead states in discovery order
    peak = 1
    truncated = False  # max_states was hit
    # Under max_total_delay: each state's least total delay, and the states
    # whose expansion at that delay had to skip a delay past the bound.
    best = None if max_total_delay is None else {start: 0}
    clipped: set = set()

    def build_trace(state):
        steps = []
        while parents[state] is not None:
            prev, step = parents[state]
            steps.append(step)
            state = prev
        steps.reverse()
        return steps

    while queue:
        peak = max(peak, len(queue))
        state, total_delay = queue.popleft()
        if best is not None:
            if total_delay > best[state]:
                continue  # queued again with less delay
            clipped.discard(state)
            dead.pop(state, None)
        expanded = False
        images = set()
        for d in range(sn.cap + 1):
            img = sn.delayed(state, d)
            if img in images:
                continue
            images.add(img)
            if best is not None and total_delay + d > max_total_delay:
                clipped.add(state)
                continue
            for ti, (tid, label) in enumerate(sn.trans):
                for binding in sn.fire_bindings(img, ti):
                    expanded = True
                    succ = sn.fire(img, ti, binding)
                    if succ in parents:
                        if best is None or total_delay + d >= best[succ]:
                            continue
                    elif len(parents) >= max_states:
                        truncated = True
                        continue
                    consumed = tuple(
                        (sn.places[pi], age if sn.age_relevant[pi] else None)
                        for (pi, _, _, _), age in zip(sn.inc[ti], binding)
                    )
                    step = TraceStep(d, tid, label, consumed)
                    parents[succ] = (state, step)
                    if best is not None:
                        best[succ] = total_delay + d
                    if matches(succ):
                        return ReachResult(REACHABLE, build_trace(succ), [],
                                           len(parents), peak)
                    queue.append((succ, total_delay + d))
        if not expanded:
            dead[state] = None

    verdict = BOUND_EXCEEDED if truncated or clipped else UNREACHABLE
    frontier = [sn.decode(s) for s in dead]
    return ReachResult(verdict, None, frontier, len(parents), peak)


def check(net: Tapn):
    """Raise ValueError when the structural side conditions fail."""
    pset = set(net.places)
    tset = {t.id for t in net.transitions}
    if len(pset) != len(net.places):
        raise ValueError("duplicate place ids")
    if len(tset) != len(net.transitions):
        raise ValueError("duplicate transition ids")
    if pset & tset:
        raise ValueError("place and transition ids overlap: %s" % (pset & tset))
    for arc in net.input_arcs:
        if arc.place not in pset or arc.transition not in tset:
            raise ValueError("dangling input arc %s" % (arc,))
    for arc in net.output_arcs:
        if arc.place not in pset or arc.transition not in tset:
            raise ValueError("dangling output arc %s" % (arc,))
    normal_in = {(a.place, a.transition) for a in net.input_arcs}
    normal_out = {(a.transition, a.place) for a in net.output_arcs}
    seen_in: set[tuple[str, str]] = set()
    seen_out: set[tuple[str, str]] = set()
    for arc in net.transport_arcs:
        if (arc.source not in pset or arc.target not in pset
                or arc.transition not in tset):
            raise ValueError("dangling transport arc %s" % (arc,))
        if (arc.source, arc.transition) in seen_in:
            raise ValueError("two transport arcs leave %s via %s"
                             % (arc.source, arc.transition))
        if (arc.transition, arc.target) in seen_out:
            raise ValueError("two transport arcs reach %s via %s"
                             % (arc.target, arc.transition))
        seen_in.add((arc.source, arc.transition))
        seen_out.add((arc.transition, arc.target))
        if (arc.source, arc.transition) in normal_in:
            raise ValueError("%s->%s is both a normal and a transport arc"
                             % (arc.source, arc.transition))
        if (arc.transition, arc.target) in normal_out:
            raise ValueError("%s->%s is both a normal and a transport arc"
                             % (arc.transition, arc.target))
    fed = {a.transition for a in net.input_arcs}
    fed.update(a.transition for a in net.transport_arcs)
    for t in net.transitions:
        if t.id not in fed:
            # Such a transition is always enabled: no search would end.
            raise ValueError("transition %s has no incoming arc" % t.id)
