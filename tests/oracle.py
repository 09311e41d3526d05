"""Naive bounded reachability enumerator, independent of the engine.

Explores (delay, fire) steps over exact uncapped markings with its own
token bookkeeping; single-step delays range over 0..C+1 for the largest
finite guard constant C, and the path length is bounded by the caller.
Used as the oracle side of the engine equivalence checks.
"""

import itertools
from collections import deque


def _constants(net):
    c = 0
    for arc in list(net.input_arcs) + list(net.transport_arcs):
        c = max(c, arc.guard.lower)
        if arc.guard.upper is not None:
            c = max(c, arc.guard.upper)
    return c


def _satisfies(guard, age):
    if age < guard.lower:
        return False
    if guard.upper is None:
        return True
    return age <= guard.upper


def _freeze(m):
    return tuple(sorted((p, age) for p, ages in m.items() for age in ages))


def _incoming(net, tid):
    rows = []
    for a in net.input_arcs:
        if a.transition == tid:
            rows.append((a.place, a.guard, None))
    for a in net.transport_arcs:
        if a.transition == tid:
            rows.append((a.source, a.guard, a.target))
    return rows


def _successors(net, m, cmax):
    outs = {}
    for a in net.output_arcs:
        outs.setdefault(a.transition, []).append(a.place)
    for d in range(cmax + 2):
        md = {p: [a + d for a in ages] for p, ages in m.items()}
        for t in net.transitions:
            rows = _incoming(net, t.id)
            index_choices = []
            for place, guard, _ in rows:
                ok = [i for i, a in enumerate(md.get(place, []))
                      if _satisfies(guard, a)]
                index_choices.append(ok)
            if any(not c for c in index_choices):
                continue
            for combo in itertools.product(*index_choices):
                taken = {}
                valid = True
                for (place, _, _), idx in zip(rows, combo):
                    if (place, idx) in taken:
                        valid = False
                        break
                    taken[(place, idx)] = True
                if not valid:
                    continue
                new = {p: list(ages) for p, ages in md.items()}
                produced = []
                for (place, _, tgt), idx in zip(rows, combo):
                    new[place][idx] = None
                    if tgt is not None:
                        produced.append((tgt, md[place][idx]))
                for place in outs.get(t.id, []):
                    produced.append((place, 0))
                for place, age in produced:
                    new.setdefault(place, []).append(age)
                yield {p: tuple(a for a in ages if a is not None)
                       for p, ages in new.items() if any(a is not None for a in ages)}


def _matches(m, target):
    counts = {p: len(ages) for p, ages in m.items() if ages}
    for p, n in target.items():
        if n and counts.get(p, 0) != n:
            return False
    return all(p in target and target[p] == n for p, n in counts.items() if n)


def naive_reachable(net, m0, target, step_bound=None) -> bool:
    """True iff the target counts are reachable within the step bound."""
    cmax = _constants(net)
    if step_bound is None:
        step_bound = 2 * len(net.transitions) * (cmax + 2)
    m0 = {p: tuple(ages) for p, ages in m0.items() if ages}
    if _matches(m0, target):
        return True
    seen = {_freeze(m0)}
    queue = deque([(m0, 0)])
    while queue:
        m, depth = queue.popleft()
        if depth >= step_bound:
            continue
        for succ in _successors(net, m, cmax):
            key = _freeze(succ)
            if key in seen:
                continue
            seen.add(key)
            if _matches(succ, target):
                return True
            queue.append((succ, depth + 1))
    return False
