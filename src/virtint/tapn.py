"""Timed-arc Petri nets with transport arcs and a reachability engine.

Tokens carry integer ages.  Input arcs (normal and transport) are guarded
by closed intervals, ``[a,b]`` or ``[a,oo)``; firing consumes one token of
matching age per incoming arc and produces age-0 tokens on normal output
arcs and age-preserving tokens on transport arcs.  A delay increases every
age uniformly.

The engine works in discrete time.  Token ages above the largest finite
guard constant C are indistinguishable to every guard, so states store
ages capped at C+1 and single-step delays range over 0..C+1; this keeps
the state space finite without losing reachability.

A search state is sparse: only its marked places, as ``(place index,
ages)`` pairs sorted by index, so firing, hashing and the target test cost
the marked places, not the whole net.  Delays never change which places
are marked, so a state's successors come only from the transitions whose
source places are all marked.  For each of them the engine computes the
delays at which every guard can hold (a token of age a < C+1 meets
``[lo,hi]`` after d = lo-a..hi-a; a capped token meets only ``[lo,oo)``),
and it images only those delays, in ascending order, up to the first
delay at which every age-relevant token is capped.  Later delays would
repeat that image.  The successors and their order are those of imaging
every delay 0..C+1 and trying every transition on each image.

The untimed structure is paid for once per *shape*, a state's marked
places with their token counts, not once per state: many timed states
share a shape.  Per search and per shape the engine keeps the candidate
transitions, and per candidate a firing plan: which state entries its
guards read, the successor's shape, and, when each source holds one token
and each produced token lands in an empty place (always so in the marked
graphs the translator emits), where each entry of the successor comes
from.  Such a successor is assembled from the delayed image without
copying, sorting or enumerating bindings.  Any other firing, as in a net
with several tokens in a place, goes through ``fire``'s rule: the
bindings of ``_bindings``, each fired by ``_fire``.  Trace steps are
built only for a witness.

``integrate`` decides a merged net whose causal order is complete from
its difference constraints (``stp``), whose earliest schedule gives the
very witness this search returns.  In ``check`` the search runs only for
an ordering deadlock, a net with an incomplete causal order, to find the
dead markings behind its ``blocking`` labels; it never sets a status,
and it takes no delay bound: ``check`` compares ``--max-delay`` with
the earliest schedule.  ``search`` is the one search loop, and
``SearchTables.search_net`` the one way to compile a net for it:
``reachable`` compiles a net's own tables and transitions, and
``check`` the union's tables with a matching's pairs fused, which equal
the merged net's.
``age_relevant`` is the one rule, shared with ``stp``, for which consumed
ages a witness records.
"""

from __future__ import annotations

import itertools
import operator
from collections import Counter, deque
from typing import NamedTuple

_FIRST, _SECOND, _THIRD = map(operator.itemgetter, range(3))


class _GuardFields(NamedTuple):
    lower: int
    upper: int | None = None  # None means unbounded


class Guard(_GuardFields):
    """An age interval: ``[lower,upper]``, or ``[lower,∞)`` when ``upper``
    is None.  The constructor checks it.  ``_replace`` would skip the
    checks, so build a changed guard with ``Guard(...)``."""

    __slots__ = ()

    def __new__(cls, lower: int, upper: int | None = None):
        if lower < 0:
            raise ValueError("guard lower bound must be >= 0")
        if upper is not None and upper < lower:
            raise ValueError("guard upper bound below lower bound")
        return super().__new__(cls, lower, upper)

    def contains(self, age: int) -> bool:
        return self.lower <= age and (self.upper is None or age <= self.upper)

    def __str__(self):
        if self.upper is None:
            return "[%d,∞)" % self.lower
        return "[%d,%d]" % (self.lower, self.upper)


ANY_AGE = Guard(0)


def exact(delta: int) -> Guard:
    return Guard(delta, delta)


def at_most(delta: int) -> Guard:
    return Guard(0, delta)


class Transition(NamedTuple):
    id: str
    label: str | None = None  # None renders as the silent label


class InputArc(NamedTuple):
    place: str
    transition: str
    guard: Guard = ANY_AGE


class OutputArc(NamedTuple):
    transition: str
    place: str


class TransportArc(NamedTuple):
    source: str
    transition: str
    target: str
    guard: Guard = ANY_AGE


class Tapn(NamedTuple):
    name: str
    places: tuple[str, ...]
    transitions: tuple[Transition, ...]
    input_arcs: tuple[InputArc, ...]
    output_arcs: tuple[OutputArc, ...]
    transport_arcs: tuple[TransportArc, ...]

    def check(self):
        """Raise ValueError when the structural side conditions fail.

        Set operations over the ids and the arcs' ends show a net sound.
        Where they cannot, the arcs are walked in net order and the first
        one at fault is named.  (place, transition) pairs are compared
        only where a transition has two transport arcs, or where a place
        is on both a normal arc and a transport arc.
        """
        places, transitions = self.places, self.transitions
        inputs, outputs, transport = self.input_arcs, self.output_arcs, self.transport_arcs
        pset = set(places)
        tset = set(map(_FIRST, transitions))
        if len(pset) != len(places):
            raise ValueError("duplicate place ids")
        if len(tset) != len(transitions):
            raise ValueError("duplicate transition ids")
        if not pset.isdisjoint(tset):
            raise ValueError("place and transition ids overlap: %s" % (pset & tset))
        if not (pset.issuperset(map(_FIRST, inputs)) and tset.issuperset(map(_SECOND, inputs))):
            for arc in inputs:
                if arc.place not in pset or arc.transition not in tset:
                    raise ValueError("dangling input arc %s" % (arc,))
        if not (tset.issuperset(map(_FIRST, outputs)) and pset.issuperset(map(_SECOND, outputs))):
            for arc in outputs:
                if arc.place not in pset or arc.transition not in tset:
                    raise ValueError("dangling output arc %s" % (arc,))
        moved = set(map(_SECOND, transport))  # transitions with a transport arc
        sources, targets = set(map(_FIRST, transport)), set(map(_THIRD, transport))
        if not (pset.issuperset(sources) and pset.issuperset(targets)
                and tset.issuperset(moved) and len(moved) == len(transport)
                and sources.isdisjoint(map(_FIRST, inputs))
                and targets.isdisjoint(map(_SECOND, outputs))):
            normal_in = {(a.place, a.transition) for a in inputs}
            normal_out = {(a.transition, a.place) for a in outputs}
            seen_in: set[tuple[str, str]] = set()
            seen_out: set[tuple[str, str]] = set()
            for arc in transport:
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
        fed = moved.union(map(_SECOND, inputs))  # within tset: no arc dangles
        if len(fed) != len(tset):
            for t in transitions:
                if t.id not in fed:
                    # Such a transition is always enabled: no search would end.
                    raise ValueError("transition %s has no incoming arc" % t.id)


Marking = dict[str, tuple[int, ...]]
TargetSpec = dict[str, int]


def normalize_marking(m: Marking) -> Marking:
    return {p: tuple(sorted(ages)) for p, ages in m.items() if ages}


def delay(m: Marking, d: int) -> Marking:
    """Age every token by exactly d ticks."""
    if d < 0:
        raise ValueError("delay must be >= 0")
    return {p: tuple(a + d for a in ages) for p, ages in m.items()}


def transition_arcs(net: Tapn):
    """Per transition id, its incoming arcs and its normal output places.

    Built in one pass over the arcs.  Incoming arcs come normal arcs
    first, each kind in net order; a binding lists one age per incoming
    arc in this order.
    """
    incoming: dict[str, list[InputArc | TransportArc]] = {
        t.id: [] for t in net.transitions}
    outputs: dict[str, list[str]] = {t.id: [] for t in net.transitions}
    for arc in itertools.chain(net.input_arcs, net.transport_arcs):
        incoming.setdefault(arc.transition, []).append(arc)
    for arc in net.output_arcs:
        outputs.setdefault(arc.transition, []).append(arc.place)
    return incoming, outputs


def incoming_arcs(net: Tapn, tid: str):
    """Incoming arcs of a transition, normal arcs first, in net order."""
    return transition_arcs(net)[0].get(tid, [])


def _arc_source(arc) -> str:
    return arc.place if isinstance(arc, InputArc) else arc.source


def _bindings(arcs, m: Marking):
    """All age choices satisfying the guards, up to multiset symmetry."""
    pools = {p: Counter(m.get(p, ())) for p in {_arc_source(a) for a in arcs}}
    chosen: list[int] = []
    out: list[tuple[int, ...]] = []

    def rec(k):
        if k == len(arcs):
            out.append(tuple(chosen))
            return
        arc = arcs[k]
        pool = pools[_arc_source(arc)]
        for age in sorted(a for a, n in pool.items() if n > 0 and arc.guard.contains(a)):
            pool[age] -= 1
            chosen.append(age)
            rec(k + 1)
            chosen.pop()
            pool[age] += 1

    rec(0)
    return out


def enabled(net: Tapn, m: Marking):
    """All (transition id, binding) pairs fireable in marking m.

    A binding lists one consumed token age per incoming arc, aligned with
    ``incoming_arcs``.
    """
    m = normalize_marking(m)
    incoming, _ = transition_arcs(net)
    result = []
    for t in net.transitions:
        for binding in _bindings(incoming[t.id], m):
            result.append((t.id, binding))
    return result


def fire(net: Tapn, m: Marking, tid: str, binding) -> Marking:
    """Fire a transition, consuming the bound token ages.

    Raises ValueError when the binding is not enabled in m.
    """
    incoming, outputs = transition_arcs(net)
    return _fire(incoming.get(tid, []), outputs.get(tid, []), m, tid, binding)


def _fire(arcs, outputs, m: Marking, tid: str, binding) -> Marking:
    m = normalize_marking(m)
    if len(binding) != len(arcs):
        raise ValueError("binding arity %d does not match %d incoming arcs"
                         % (len(binding), len(arcs)))
    pools = {p: Counter(m.get(p, ())) for p in {_arc_source(a) for a in arcs}}
    produced: list[tuple[str, int]] = []
    for arc, age in zip(arcs, binding):
        if not arc.guard.contains(age):
            raise ValueError("age %d violates guard %s on %s" % (age, arc.guard, tid))
        pool = pools[_arc_source(arc)]
        if pool[age] <= 0:
            raise ValueError("no token of age %d in %s" % (age, _arc_source(arc)))
        pool[age] -= 1
        if isinstance(arc, TransportArc):
            produced.append((arc.target, age))
    produced.extend((place, 0) for place in outputs)
    new = {p: list(ages) for p, ages in m.items()}
    for arc, age in zip(arcs, binding):
        new[_arc_source(arc)].remove(age)
    for place, age in produced:
        new.setdefault(place, []).append(age)
    return normalize_marking({p: tuple(v) for p, v in new.items()})


def max_guard_constant(net: Tapn) -> int:
    """Largest finite constant appearing in any guard (0 when none)."""
    c = 0
    for arc in list(net.input_arcs) + list(net.transport_arcs):
        c = max(c, arc.guard.lower)
        if arc.guard.upper is not None:
            c = max(c, arc.guard.upper)
    return c


def widen_guards(net: Tapn) -> Tapn:
    """Copy of the net with every guard relaxed to allow any age."""
    return net._replace(
        input_arcs=tuple(a._replace(guard=ANY_AGE) for a in net.input_arcs),
        transport_arcs=tuple(a._replace(guard=ANY_AGE) for a in net.transport_arcs),
    )


def age_relevant(net: Tapn) -> set[str]:
    """The places whose token ages matter: those read through a guard
    other than ``[0,oo)``, directly or further down a transport-arc chain.
    A witness records the consumed age only for these places."""
    relevant = {_arc_source(a) for a in itertools.chain(net.input_arcs, net.transport_arcs)
                if a.guard.lower > 0 or a.guard.upper is not None}
    feeders: dict[str, list[str]] = {}
    for arc in net.transport_arcs:
        feeders.setdefault(arc.target, []).append(arc.source)
    stack = list(relevant)
    while stack:
        for src in feeders.get(stack.pop(), ()):
            if src not in relevant:
                relevant.add(src)
                stack.append(src)
    return relevant


class TraceStep(NamedTuple):
    delay: int
    transition: str
    label: str | None
    # One (place, age) per incoming arc; age None means the engine proved
    # the age irrelevant (any token of that place works).
    consumed: tuple[tuple[str, int | None], ...]


class ReachResult(NamedTuple):
    verdict: str  # reachable | unreachable | bound-exceeded
    trace: list[TraceStep] | None
    frontier: list[Marking]
    states_explored: int
    peak_frontier: int


REACHABLE = "reachable"
UNREACHABLE = "unreachable"
BOUND_EXCEEDED = "bound-exceeded"

# Largest guard constant the search takes on.  Its delay windows are bit
# sets of up to C+2 bits, so a constant of 10**12 would ask for terabytes;
# above this limit ``reachable`` answers bound-exceeded without searching.
MAX_GUARD_CONSTANT = 1_000_000


class _Shape:
    """The untimed part of search states: their marked places, with counts.

    Delays never change a shape, and firing a transition from one shape
    always gives the same successor shape, so what depends on the shape
    alone is worked out once per search, on the shape's first expansion.
    """

    __slots__ = ("key", "relevant", "goal", "plans")

    def __init__(self, key, relevant, goal):
        self.key = key  # ((place index, token count), ...) sorted by index
        self.relevant = relevant  # entry indexes of the age-relevant places
        self.goal = goal  # whether the shape is the target's
        self.plans = None  # a _Plan per candidate transition, in index order


class _Plan:
    """How one transition fires from one shape.

    ``guards`` holds (entry index, lower, upper or None) per incoming arc
    whose source is age-relevant; ``succ`` is the successor's shape, or
    None when the arcs need more tokens than the shape holds.  When every
    source holds one token, the sources are distinct and every produced
    token lands in an otherwise empty place, the delay window already
    proves the single binding and the successor is assembled: ``sources``
    gives the entry each incoming arc consumes, and each entry of
    ``layout`` is a kept entry of the delayed image (index >= 0) or the
    new one-token entry ``~index`` of ``new``, made from (place index,
    entry whose age is transported, or -1 for age 0).  Any other plan has
    ``layout`` None, and ``_SearchNet.fire_all`` fires it.
    """

    __slots__ = ("ti", "guards", "succ", "sources", "layout", "new")

    def __init__(self, ti, guards, succ, sources=None, layout=None, new=None):
        self.ti = ti
        self.guards = guards
        self.succ = succ
        self.sources = sources
        self.layout = layout
        self.new = new


_AGE_0 = (0,)


class SearchTables:
    """What a search reads of a net's places, guards and target, and a
    memo of per-transition rows; ``search_net`` compiles transitions with
    them into a ``_SearchNet``.

    ``reachable`` makes one per search and compiles the net's transitions
    as ``transition_arcs`` reads them.  ``integrate`` makes one per check
    for the union of its units, on the first ordering deadlock, and a
    search net per deadlock from the event graph with that matching's
    pairs fused: fusing renames transitions but adds no place, arc or
    guard, so the places, target and guards stay the union's, and a
    transition's row is reused for as long as its arc list is the same.
    """

    def __init__(self, places, relevant: set[str], cmax: int, target: TargetSpec):
        self.places = list(places)
        self.pidx = {p: i for i, p in enumerate(self.places)}
        self.goal = tuple(sorted((self.pidx[p], n) for p, n in target.items() if n))
        self.cmax = cmax
        # Age-irrelevant places store age 0: an exact quotient, since every
        # guard touching their tokens accepts any age.
        self.age_relevant = [p in relevant for p in self.places]
        self.rows: dict[str, tuple] = {}

    def row(self, tid: str, arcs, outputs) -> tuple:
        """(incoming (source idx, lower, upper or None, transport target
        idx or -1) per arc, produced (place idx, source idx of a transport
        arc or -1) per token, the distinct source places, whether one token
        per source fires it in exactly one way, the arcs, the output
        places) of a transition with these incoming arcs, in
        ``transition_arcs`` order, and normal output places."""
        row = self.rows.get(tid)
        if row is not None and row[4] is arcs:
            return row
        pidx = self.pidx
        inc = []
        produced = []
        for arc in arcs:
            g = arc.guard
            if isinstance(arc, InputArc):
                inc.append((pidx[arc.place], g.lower, g.upper, -1))
            else:
                src, tgt = pidx[arc.source], pidx[arc.target]
                inc.append((src, g.lower, g.upper, tgt))
                produced.append((tgt, src))
        produced += [(pidx[p], -1) for p in outputs]
        sources = tuple(dict.fromkeys(pi for pi, _, _, _ in inc))
        distinct = (len(sources) == len(inc)
                    and len({pi for pi, _ in produced}) == len(produced))
        row = self.rows[tid] = (inc, produced, sources, distinct, arcs, outputs)
        return row

    def search_net(self, nodes) -> _SearchNet:
        """The search net of the transitions ``nodes``, in index order:
        transition id -> (label, incoming arcs, normal output places, ...),
        as ``stp.Graph.nodes`` holds them."""
        return _SearchNet(self, nodes)


class _SearchNet:
    """The net compiled for search: places and transitions by index.

    A state holds only its marked places, as ``(place index, ages)`` pairs
    sorted by index, with ages sorted and capped (age-irrelevant places
    store age 0).  Shapes are interned per search in ``shapes``.
    """

    def __init__(self, tables: SearchTables, nodes):
        self.places, self.pidx, self.goal = tables.places, tables.pidx, tables.goal
        self.cmax = tables.cmax
        self.cap = self.cmax + 1
        self.age_relevant = tables.age_relevant
        self.trans = [(tid, n[0]) for tid, n in nodes.items()]
        # Per transition index the fields of ``SearchTables.row``; both
        # guard bounds are inclusive, as every guard is closed.
        rows = [tables.row(tid, n[1], n[2]) for tid, n in nodes.items()]
        (self.inc, self.produced, self.sources, self.distinct_arcs, self.incoming,
         self.outputs) = list(zip(*rows)) or [()] * 6
        # Per place the transitions reading it, in index order.
        self.consumers: list[list[int]] = [[] for _ in self.places]
        for ti, sources in enumerate(self.sources):
            for pi in sources:
                self.consumers[pi].append(ti)
        self.shapes: dict[tuple, _Shape] = {}

    def encode(self, m: Marking):
        state = []
        for p, ages in normalize_marking(m).items():
            i = self.pidx[p]
            if self.age_relevant[i]:
                state.append((i, tuple(min(a, self.cap) for a in ages)))
            else:
                state.append((i, (0,) * len(ages)))
        state.sort()
        return tuple(state)

    def decode(self, state) -> Marking:
        return {self.places[i]: ages for i, ages in state}

    def shape(self, key) -> _Shape:
        found = self.shapes.get(key)
        if found is None:
            rel = self.age_relevant
            found = self.shapes[key] = _Shape(
                key, tuple(k for k, (pi, _) in enumerate(key) if rel[pi]),
                key == self.goal)
        return found

    def saturation(self, state, shape) -> int:
        """The least delay after which no delay changes the state: every
        age-relevant token is capped by then (0 when there is none)."""
        if not shape.relevant:
            return 0
        return self.cap - min([state[k][1][0] for k in shape.relevant])

    def candidates(self, marked) -> list[int]:
        """Transitions whose source places are all marked, in index order.

        Delays never change which places are marked, so no other
        transition can fire after any delay.
        """
        found = set()
        for pi in marked:
            for ti in self.consumers[pi]:
                if ti not in found and all(s in marked for s in self.sources[ti]):
                    found.add(ti)
        return sorted(found)

    def plans(self, shape) -> list[_Plan]:
        if shape.plans is None:
            index = {pi: k for k, (pi, _) in enumerate(shape.key)}
            shape.plans = [self._plan(shape, index, ti)
                           for ti in self.candidates(index)]
        return shape.plans

    def _plan(self, shape, index, ti) -> _Plan:
        rel = self.age_relevant
        key = shape.key
        guards = tuple([(index[pi], lo, hi) for pi, lo, hi, _ in self.inc[ti]
                        if rel[pi]])
        sources = self.sources[ti]
        produced = self.produced[ti]
        if (self.distinct_arcs[ti] and all(key[index[pi]][1] == 1 for pi in sources)
                and all(pi in sources or pi not in index for pi, _ in produced)):
            slots = [(pi, k) for k, (pi, _) in enumerate(key) if pi not in sources]
            slots += [(pi, ~j) for j, (pi, _) in enumerate(produced)]
            slots.sort()
            layout = tuple([k for _, k in slots])
            succ = self.shape(tuple([key[k] if k >= 0 else (pi, 1)
                                     for pi, k in slots]))
            return _Plan(ti, guards, succ,
                         sources=tuple([index[pi] for pi, _, _, _ in self.inc[ti]]),
                         layout=layout,
                         new=tuple([(pi, index[src] if src >= 0 and rel[pi] else -1)
                                    for pi, src in produced]))
        counts = dict(key)
        for pi, _, _, _ in self.inc[ti]:
            counts[pi] -= 1
        if min(counts.values()) < 0:
            return _Plan(ti, guards, None)  # no binding exists
        for pi, _ in produced:
            counts[pi] = counts.get(pi, 0) + 1
        return _Plan(ti, guards,
                     self.shape(tuple(sorted((pi, n) for pi, n in counts.items() if n))))

    def window(self, state, guards, horizon: int) -> int:
        """Bit set of the delays 0..horizon at which every incoming arc of
        a plan finds a token meeting its guard."""
        cap = self.cap
        full = (2 << horizon) - 1
        mask = full
        for k, lo, hi in guards:
            arc_mask = 0
            for a in state[k][1]:
                if a >= cap:  # a capped token meets only [lo,oo)
                    if hi is None:
                        arc_mask = full
                        break
                    continue
                first = max(lo - a, 0)
                last = horizon if hi is None else min(hi - a, horizon)
                if first <= last:
                    arc_mask |= ((2 << last) - 1) ^ ((1 << first) - 1)
            mask &= arc_mask
            if not mask:
                break
        return mask

    def delayed(self, state, shape, d):
        """The state's entries after a delay of d (a list unless d is 0)."""
        if not d:
            return state
        img = list(state)
        cap = self.cap
        for k in shape.relevant:
            pi, ages = img[k]
            if len(ages) == 1:
                if ages[0] < cap:
                    a = ages[0] + d
                    img[k] = (pi, (a if a < cap else cap,))
            elif ages[0] < cap:
                img[k] = (pi, tuple([a + d if a + d < cap else cap for a in ages]))
        return img

    def fire_all(self, plan, img):
        """(successor, binding) pairs of a plan without a layout, in
        binding order: each binding fired by ``tapn.fire``'s rule."""
        m = self.decode(img)
        tid = self.trans[plan.ti][0]
        arcs, outputs = self.incoming[plan.ti], self.outputs[plan.ti]
        return [(self.encode(_fire(arcs, outputs, m, tid, b)), b)
                for b in _bindings(arcs, m)]

    def trace_step(self, ti, d, binding) -> TraceStep:
        tid, label = self.trans[ti]
        rel = self.age_relevant
        consumed = tuple((self.places[pi], age if rel[pi] else None)
                         for (pi, _, _, _), age in zip(self.inc[ti], binding))
        return TraceStep(d, tid, label, consumed)


def reachable(net: Tapn, m0: Marking, target: TargetSpec,
              max_states: int = 1_000_000) -> ReachResult:
    """Decide whether some delay/fire sequence reaches the target counts.

    The target names the exact token count per place (token ages do not
    matter); every unlisted place must be empty.  Search is breadth-first
    over (delay, fire) successors, so a returned witness has a minimal
    number of steps.  Unreachable results carry the dead markings found,
    which feed the deadlock diagnostics.
    """
    for p in target:
        if p not in net.places:
            raise ValueError("target names unknown place %r" % p)
    incoming, outputs = transition_arcs(net)
    tables = SearchTables(net.places, age_relevant(net), max_guard_constant(net), target)
    return search(tables.search_net({t.id: (t.label, incoming[t.id], outputs[t.id])
                                     for t in net.transitions}), m0, max_states)


def search(sn: _SearchNet, m0: Marking, max_states: int = 1_000_000) -> ReachResult:
    """``reachable``'s breadth-first search, on a compiled net; the one
    search loop, also run by ``integrate`` on the fused tables of a
    deadlocked matching."""
    start = sn.encode(m0)
    start_shape = sn.shape(tuple((pi, len(ages)) for pi, ages in start))
    if start_shape.goal:
        return ReachResult(REACHABLE, [], [], 1, 1)
    if sn.cmax > MAX_GUARD_CONSTANT:
        return ReachResult(BOUND_EXCEEDED, None, [], 1, 1)

    # Per stored state: None for the start, else (parent, delay,
    # transition index, binding); trace steps are built only for a witness.
    parents: dict = {start: None}
    queue = deque([(start, start_shape)])
    dead = []  # dead states in discovery order
    peak = 1
    truncated = False  # max_states was hit

    def build_trace(state):
        steps = []
        while parents[state] is not None:
            prev, d, ti, binding = parents[state]
            steps.append(sn.trace_step(ti, d, binding))
            state = prev
        steps.reverse()
        return steps

    while queue:
        if len(queue) > peak:
            peak = len(queue)
        state, shape = queue.popleft()
        # Images past the saturation delay repeat its image.
        horizon = sn.saturation(state, shape)
        windows = []
        pending = 0
        for plan in sn.plans(shape):
            window = sn.window(state, plan.guards, horizon)
            if window:
                windows.append((plan, window))
                pending |= window
        expanded = False
        while pending:
            low = pending & -pending
            pending ^= low
            d = low.bit_length() - 1
            img = sn.delayed(state, shape, d)
            for plan, window in windows:
                if not window >> d & 1:
                    continue
                if plan.layout is not None:
                    # The window proves the single binding: assemble.
                    new = [(pi, (img[k][1][0],) if k >= 0 else _AGE_0)
                           for pi, k in plan.new]
                    fired = ((tuple([img[k] if k >= 0 else new[~k]
                                     for k in plan.layout]), None),)
                else:
                    fired = sn.fire_all(plan, img)
                for succ, binding in fired:
                    expanded = True
                    if succ in parents:
                        continue
                    if len(parents) >= max_states:
                        truncated = True
                        continue
                    if binding is None:
                        binding = tuple([img[k][1][0] for k in plan.sources])
                    parents[succ] = (state, d, plan.ti, binding)
                    if plan.succ.goal:
                        return ReachResult(REACHABLE, build_trace(succ), [],
                                           len(parents), peak)
                    queue.append((succ, plan.succ))
        if not expanded:
            dead.append(state)

    verdict = BOUND_EXCEEDED if truncated else UNREACHABLE
    frontier = [sn.decode(s) for s in dead]
    return ReachResult(verdict, None, frontier, len(parents), peak)


class ReplayError(Exception):
    pass


def replay(net: Tapn, m0: Marking, trace) -> Marking:
    """Re-execute a witness trace through delay/fire with exact ages.

    Recorded consumed ages come from the capped search: an age below the
    cap must match exactly, the cap stands for any age at or above it, and
    None-aged entries accept any token of the place.  Raises ReplayError
    when a step cannot fire.
    """
    cap = max_guard_constant(net) + 1
    incoming, outputs = transition_arcs(net)
    m = normalize_marking(m0)
    for step in trace:
        m = delay(m, step.delay)
        arcs = incoming.get(step.transition, [])
        if len(arcs) != len(step.consumed):
            raise ReplayError("step arity mismatch on %s" % step.transition)
        pools = {p: Counter(m.get(p, ())) for p in {_arc_source(a) for a in arcs}}
        binding = []
        for arc, (place, age) in zip(arcs, step.consumed):
            if _arc_source(arc) != place:
                raise ReplayError("step consumes from %s, arc reads %s"
                                  % (place, _arc_source(arc)))
            pool = pools[place]
            if age is None:
                candidates = sorted(a for a, n in pool.items()
                                    if n > 0 and arc.guard.contains(a))
                pick = candidates[0] if candidates else None
            elif age < cap:
                pick = age if pool[age] > 0 else None
            else:
                candidates = sorted(a for a, n in pool.items() if n > 0 and a >= cap)
                pick = candidates[0] if candidates else None
            if pick is None:
                raise ReplayError("no token of age %s in %s" % (age, place))
            pool[pick] -= 1
            binding.append(pick)
        try:
            m = _fire(arcs, outputs.get(step.transition, []), m,
                      step.transition, tuple(binding))
        except ValueError as exc:
            raise ReplayError(str(exc)) from exc
    return m


def marking_counts(m: Marking) -> dict[str, int]:
    return {p: len(ages) for p, ages in normalize_marking(m).items()}
