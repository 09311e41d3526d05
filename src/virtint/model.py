"""In-memory model of timed test-case sequence diagrams.

A diagram consists of instance lines (one of which is the system under
test), per-line ordered event lists, messages between a test line and the
SUT line, a forest of interaction fragments (strict/par/opt/alt/loop),
absolute-time partition lines and relative timeouts.  ``validate`` checks
every clause, reading the fragments in one pass, and returns a normalized,
immutable diagram with its region tree, which the translator folds over:
``sut_regions`` nests the SUT line's ``Event``s in ``FragmentNode``s.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import operator
from operator import itemgetter
from typing import NamedTuple

SEND = "send"
RECEIVE = "receive"
FRAGMENT_ENTER = "fragment-enter"
FRAGMENT_EXIT = "fragment-exit"
PARTITION = "partition"

EVENT_KINDS = (SEND, RECEIVE, FRAGMENT_ENTER, FRAGMENT_EXIT, PARTITION)
_KINDS = frozenset(EVENT_KINDS)
_BORDERS = frozenset((FRAGMENT_ENTER, FRAGMENT_EXIT))
_MESSAGE_KINDS = frozenset((SEND, RECEIVE))
_SEND_ONLY = frozenset((SEND,))
_RECEIVE_ONLY = frozenset((RECEIVE,))

OPERATORS = ("strict", "par", "opt", "alt", "loop")


class Event(NamedTuple):
    """One occurrence on an instance line."""

    id: str
    instance: str
    kind: str
    fragment: str | None = None  # set for fragment-enter/exit only


class Message(NamedTuple):
    send: str
    label: str
    receive: str


class Operand(NamedTuple):
    """One operand of a fragment: its events (all lines) and direct children."""

    events: tuple[str, ...]
    children: tuple[str, ...] = ()


class Fragment(NamedTuple):
    id: str
    operator: str
    operands: tuple[Operand, ...]
    loop_bound: int | None = None


class PartitionLine(NamedTuple):
    """A horizontal cut at absolute time ``timestamp``, one event per line."""

    events: tuple[str, ...]
    timestamp: int


class Timeout(NamedTuple):
    """At most ``bound`` ticks may pass between two SUT events."""

    start: str
    end: str
    bound: int


class SequenceDiagram(NamedTuple):
    name: str
    instances: tuple[str, ...]
    events: dict[str, tuple[Event, ...]]  # instance -> ordered event list
    messages: tuple[Message, ...]
    fragments: tuple[Fragment, ...]


class Tcsd(NamedTuple):
    base: SequenceDiagram
    sut: str
    partitions: tuple[PartitionLine, ...]
    timeouts: tuple[Timeout, ...]


class Violation(NamedTuple):
    clause: str
    elements: tuple[str, ...]
    detail: str

    def __str__(self):
        return "%s: %s [%s]" % (self.clause, self.detail, " ".join(self.elements))


class ValidationResult(NamedTuple):
    violations: list[Violation]
    tcsd: Tcsd | None = None  # normalized diagram, present iff ok
    regions: list | None = None  # sut_regions(tcsd), present iff ok

    @property
    def ok(self) -> bool:
        return not self.violations


class LayoutError(Exception):
    """SUT-line events cannot be arranged into a fragment region tree."""


# --------------------------------------------------------------------------
# Region tree: the SUT line parsed into nested fragment operands.


class FragmentNode(NamedTuple):
    fragment: Fragment
    enter: Event
    exit: Event
    operand_items: list[list]  # one item list per operand


# Fields read in bulk: an Event's id, instance, kind and fragment, a
# Message's send and receive, a PartitionLine's timestamp.
_ID = itemgetter(0)
_INSTANCE = itemgetter(1)
_KIND = itemgetter(2)
_FRAGMENT = itemgetter(3)
_RECEIVER = itemgetter(2)
_TIMESTAMP = itemgetter(1)

# The records built here, made without their Python-level __new__.
_new_fragment_node = functools.partial(tuple.__new__, FragmentNode)
_new_violation = functools.partial(tuple.__new__, Violation)


def _sut_events(tcsd: Tcsd) -> tuple[Event, ...]:
    return tcsd.base.events.get(tcsd.sut, ())


def _listing(operands) -> dict[str, tuple[int, ...]]:
    """What a fragment lists: each event of its ``operands`` and the
    numbers of the operands that list it, ascending."""
    listed: dict[str, tuple[int, ...]] = {}
    for x, op in enumerate(operands):
        own = dict.fromkeys(op.events, (x,))
        if not listed:
            listed = own
        elif listed.keys().isdisjoint(own):
            listed.update(own)
        else:  # some event is in an earlier operand too
            for eid in own:
                listed[eid] = listed.get(eid, ()) + (x,)
    return listed


def _parse_items(line, i, j) -> list:
    """The items of ``events[i:j]``, where ``line`` is what ``_region_tree``
    works out once: (events, ids, borders, exit_of, frags, members)."""
    events, ids, borders, exit_of, frags, members = line
    n = bisect.bisect_left(borders, i)
    items = []
    k = i
    while n < len(borders) and borders[n] < j:
        b = borders[n]
        items += events[k:b]
        e = events[b]
        if e.kind == FRAGMENT_EXIT:
            raise LayoutError("unmatched fragment exit %s" % e.id)
        frag = frags.get(e.fragment)
        if frag is None:
            raise LayoutError("enter event %s names unknown fragment" % e.id)
        end = exit_of[b]
        if end is None or end >= j:
            raise LayoutError("fragment %s has no exit on the SUT line" % frag.id)
        listed = members[frag.id]
        inner = ids[b + 1:end]
        # With no border inside the fragment, each operand is a slice of
        # the line.
        leaf = borders[n + 1] == end
        if len(frag.operands) == 1 and all(map(listed.__contains__, inner)):
            operand_items = [events[b + 1:end] if leaf else _parse_items(line, b + 1, end)]
        else:
            owners = list(map(listed.get, inner, itertools.repeat(())))
            if set(map(len, owners)) - {1}:
                for eid, ops in zip(inner, owners):
                    if len(ops) != 1:
                        raise LayoutError("event %s is in %d operands of fragment %s"
                                          % (eid, len(ops), frag.id))
            if owners != sorted(owners):
                raise LayoutError(
                    "operands of fragment %s are interleaved on the SUT line" % frag.id)
            # Operand x holds the run of (x,) in owners.
            operand_items = []
            lo = b + 1
            for x in range(len(frag.operands)):
                hi = bisect.bisect_right(owners, (x,), lo - b - 1) + b + 1
                operand_items.append(events[lo:hi] if leaf else _parse_items(line, lo, hi))
                lo = hi
        items.append(_new_fragment_node((frag, e, events[end], operand_items)))
        k = end + 1
        n = bisect.bisect_left(borders, k, n)
    items += events[k:j]
    return items


def _region_tree(tcsd: Tcsd, frags, members) -> list:
    """The SUT line's item tree of events and ``FragmentNode``s; ``frags``
    and ``members`` map each fragment id to its fragment and ``_listing``.

    Every fragment's exit is found from one pass over the line's borders,
    from the right: an enter closes at the first exit of its fragment
    after it.  An operand with no border inside is a slice of the line's
    events.  Faults are raised in the order a walk of the line from the
    left meets them, a fragment's own before those inside it.

    Then every fragment must list, of the SUT line's events, exactly
    those drawn between its borders.  Each node's inner events are listed,
    so when the line repeats no id and draws no fragment twice, a count
    shows it: the fragments list as many SUT events as their borders
    enclose.  Only when they do not are the listings searched.
    """
    events = list(_sut_events(tcsd))
    kinds = list(map(_KIND, events))
    borders = list(itertools.compress(range(len(events)), map(_BORDERS.__contains__, kinds)))
    exit_of: dict[int, int | None] = {}  # enter position -> exit position
    after: dict[str, int] = {}  # fragment -> its first exit right of the pass
    for b in reversed(borders):
        if kinds[b] == FRAGMENT_EXIT:
            after[events[b].fragment] = b
        else:
            exit_of[b] = after.get(events[b].fragment)
    ids = list(map(_ID, events))
    items = _parse_items((events, ids, borders, exit_of, frags, members), 0, len(events))
    # Every enter is now a fragment node, and exit_of holds its borders.
    sut = set(ids)
    listed = len(list(filter(sut.__contains__, itertools.chain.from_iterable(members.values()))))
    enclosed = sum(exit_of.values()) - sum(exit_of) - len(exit_of)
    if listed != enclosed or len(sut) < len(ids) or len(after) + len(exit_of) < len(borders):
        # The fragment nodes by enter position, then the fragments with none.
        inside = [(events[b].fragment, ids[b + 1:exit_of[b]]) for b in sorted(exit_of)]
        drawn = set(map(_ID, inside))
        inside += [(fid, ()) for fid in frags if fid not in drawn]
        for fid, inner in inside:
            outside = sut.difference(inner)
            for eid in (e for op in frags[fid].operands for e in op.events if e in outside):
                raise LayoutError("fragment %s lists %s, not drawn between its borders on "
                                  "the SUT line" % (fid, eid))
    return items


def sut_regions(tcsd: Tcsd) -> list:
    """Parse the SUT line into the nested item tree used by the translator.

    Raises LayoutError when borders are unmatched, operands interleave or
    a fragment lists a SUT event not drawn between its borders;
    ``validate`` reports that as a ``fragment-layout`` violation.
    ``ValidationResult.regions`` is this tree of the normalized diagram.
    """
    frags = {f.id: f for f in tcsd.base.fragments}
    return _region_tree(tcsd, frags, {fid: _listing(f.operands) for fid, f in frags.items()})


# --------------------------------------------------------------------------
# Validation.


def _add(violations, clause, elements, detail):
    violations.append(_new_violation((clause, tuple(elements), detail)))


def _index_events(tcsd: Tcsd):
    """Index the declared lines' events and the fragments: (event, kinds,
    malformed violations, fragment index).

    ``event`` maps each event id to its event and ``kinds`` lists the
    events' kinds; dangling references are ``malformed`` violations.  The
    events are indexed and checked in bulk, and only a fault in them is
    looked for event by event.

    One pass over the fragments checks them and builds the fragment index,
    (frags, members, children, position, owners, strict, shape): each
    fragment id's fragment, ``_listing``, direct children and place in
    ``base.fragments``; each listed event's fragments, in fragment order;
    the strict fragments; the ``operand-count``, ``loop-bound`` and
    ``empty-operand`` violations.
    """
    v: list[Violation] = []
    base = tcsd.base
    frags = {f.id: f for f in base.fragments}
    lines = list(map(base.events.get, base.instances, itertools.repeat(())))
    events = list(itertools.chain.from_iterable(lines))
    event = dict(zip(map(_ID, events), events))
    kinds = list(map(_KIND, events))
    if not (len(event) == len(events) and _KINDS.issuperset(kinds)
            and all(map(_filed_on, base.instances, lines))):
        _name_event_faults(base, v)
    stray_border = not all(map(frags.__contains__, itertools.compress(
        map(_FRAGMENT, events), map(_BORDERS.__contains__, kinds))))
    undeclared = False
    for inst in base.events:
        if inst not in base.instances:
            undeclared = True
            _add(v, "malformed", [inst], "event list for undeclared instance")
    if tcsd.sut not in base.instances:
        _add(v, "malformed", [tcsd.sut], "SUT is not a declared instance")

    known = event.__contains__
    members: dict[str, dict[str, tuple[int, ...]]] = {}
    children: dict[str, list[str]] = {}
    position: dict[str, int] = {}
    owners: dict[str, list[str]] = {}
    strict, shape = set(), []
    for n, (fid, operator, operands, loop_bound) in enumerate(base.fragments):
        if fid in position:
            _add(v, "malformed", [fid], "duplicate fragment id")
        position[fid] = n
        if operator not in OPERATORS:
            _add(v, "malformed", [fid], "unknown operator %r" % operator)
        elif operator == "strict":
            strict.add(fid)
        n_ops = len(operands)
        if operator in ("strict", "opt", "loop") and n_ops != 1:
            _add(shape, "operand-count", [fid],
                 "%s requires exactly 1 operand, has %d" % (operator, n_ops))
        if operator in ("par", "alt") and n_ops < 2:
            _add(shape, "operand-count", [fid],
                 "%s requires at least 2 operands, has %d" % (operator, n_ops))
        if operator == "loop":
            if loop_bound is None:
                _add(shape, "loop-bound", [fid], "loop without a constant bound")
            elif loop_bound < 0:
                _add(shape, "loop-bound", [fid], "negative loop bound")
        elif loop_bound is not None:
            _add(shape, "loop-bound", [fid], "bound on a non-loop fragment")
        nested = children[fid] = []
        for x, (op_events, op_children) in enumerate(operands):
            if not op_events:
                _add(shape, "empty-operand", [fid], "operand %d is empty" % x)
            elif not all(map(known, op_events)):
                for eid in op_events:
                    if eid not in event:
                        _add(v, "malformed", [fid, eid], "operand references unknown event")
            for cid in op_children:
                if cid not in frags:
                    _add(v, "malformed", [fid, cid], "operand references unknown fragment")
            nested += op_children
        listed = members[fid] = _listing(operands)
        for eid in listed:
            owners.setdefault(eid, []).append(fid)
    messages = base.messages
    if not (all(map(known, map(_ID, messages))) and all(map(known, map(_RECEIVER, messages)))):
        for m in messages:
            for eid in (m.send, m.receive):
                if eid not in event:
                    _add(v, "malformed", [eid], "message endpoint is not an event")
    for p in tcsd.partitions:
        for eid in p.events:
            if eid not in event:
                _add(v, "malformed", [eid], "partition references unknown event")
        if p.timestamp < 0:
            _add(v, "malformed", [str(p.timestamp)], "negative partition timestamp")
    for c in tcsd.timeouts:
        for eid in (c.start, c.end):
            if eid not in event:
                _add(v, "malformed", [eid], "timeout endpoint is not an event")
        if c.bound < 1:
            _add(v, "malformed", [c.start, c.end], "timeout bound must be positive")
    # Reported last, line by line in the order the event lists are keyed.
    if stray_border or undeclared:
        for e_list in base.events.values():
            for e in e_list:
                if e.kind in _BORDERS and e.fragment not in frags:
                    _add(v, "malformed", [e.id], "border event names unknown fragment")
    return event, kinds, v, (frags, members, children, position, owners, strict, shape)


def _filed_on(inst: str, line) -> bool:
    return all(map(inst.__eq__, map(_INSTANCE, line)))


def _name_event_faults(base: SequenceDiagram, v):
    """Add a ``malformed`` violation for each repeated event id, event
    filed under another instance's line and unknown kind, in line order."""
    seen = set()
    for inst in base.instances:
        for eid, owner, k, _ in base.events.get(inst, ()):
            if eid in seen:
                _add(v, "malformed", [eid], "duplicate event id")
            seen.add(eid)
            if owner != inst:
                _add(v, "malformed", [eid], "event filed under wrong instance line")
            if k not in _KINDS:
                _add(v, "malformed", [eid], "unknown event kind %r" % k)


def _positions(tcsd: Tcsd, wanted) -> dict[str, int]:
    """Each event of ``wanted`` and its index on its line."""
    at: dict[str, int] = {}
    for line in tcsd.base.events.values():
        ids = list(map(_ID, line))
        at.update(itertools.compress(zip(ids, itertools.count()), map(wanted.__contains__, ids)))
    return at


def _check_messages(tcsd: Tcsd, event, v, off_sut):
    """Add the violations of the message clauses, message by message: the
    path taken when the bulk check in ``validate`` finds a fault."""
    base, sut = tcsd.base, tcsd.sut
    at = _positions(tcsd, {eid for m in base.messages
                           if event[m.send].instance == event[m.receive].instance
                           for eid in (m.send, m.receive)})
    usage: dict[str, int] = {}
    for send, label, receive in base.messages:
        usage[send] = usage.get(send, 0) + 1
        usage[receive] = usage.get(receive, 0) + 1
        s, r = event[send], event[receive]
        ends_on_sut = (s.instance == sut) + (r.instance == sut)
        if ends_on_sut != 1:
            _add(off_sut, "sut-endpoint", [send, receive],
                 "message %r has %d endpoints on the SUT line" % (label, ends_on_sut))
        if send == receive:
            _add(v, "message-endpoints", [send], "message with identical endpoints")
            continue
        if s.kind != SEND:
            _add(v, "message-endpoints", [send], "send endpoint is not a send event")
        if r.kind != RECEIVE:
            _add(v, "message-endpoints", [receive], "receive endpoint is not a receive event")
        if s.instance == r.instance and at[send] >= at[receive]:
            _add(v, "message-order", [send, receive],
                 "same-line message must send before it receives")
    for eid, n in usage.items():
        if n > 1:
            _add(v, "message-endpoints", [eid], "event is an endpoint of %d messages" % n)
    for eid, e in event.items():
        if e.kind in (SEND, RECEIVE) and eid not in usage:
            _add(v, "message-endpoints", [eid], "%s event belongs to no message" % e.kind)


def _descendants(children: dict[str, list[str]]) -> dict[str, set[str]]:
    """Each fragment's id and the ids of the fragments nested in it."""
    out: dict[str, set[str]] = {}
    for fid, direct in children.items():
        reached: set[str] = set()
        frontier = list(direct)
        while frontier:
            cid = frontier.pop()
            if cid not in reached:
                reached.add(cid)
                frontier += children[cid]
        out[fid] = reached
    return out


def _check_shared_events(owners, desc, position, v):
    """Add a ``no-shared-events`` violation for each two fragments, neither
    nested in the other, that list a common event, in fragment order.

    This is the one statement of the rule, run on every diagram.  Events
    with the same owners share the same fragment pairs, so each distinct
    chain is checked once, as a tuple; only a fault looks at the events.
    """
    disjoint = {}
    for chain in {tuple(c) for c in owners.values() if len(c) > 1}:
        pairs = [(f1, f2) for x, f1 in enumerate(chain) for f2 in chain[x + 1:]
                 if f1 not in desc[f2] and f2 not in desc[f1]]
        if pairs:
            disjoint[chain] = pairs
    if disjoint:
        shared: dict[tuple[str, str], set[str]] = {}
        for eid, chain in owners.items():
            for pair in disjoint.get(tuple(chain), ()):
                shared.setdefault(pair, set()).add(eid)
        for f1, f2 in sorted(shared, key=lambda pair: (position[pair[0]], position[pair[1]])):
            _add(v, "no-shared-events", [f1, f2],
                 "disjoint fragments share events %s" % ",".join(sorted(shared[f1, f2])))


def _check_ordering(partitions, event, at, v):
    """Add an ``ordering`` violation for each pair of events of two
    partition lines on one line where the later timestamp is drawn at or
    above the earlier one, in the order of the lines sorted by timestamp
    and then of their events.  Each line's cuts are sorted once, bottom
    up; a cut then pairs with the cuts at or below it of a smaller
    timestamp, kept sorted by timestamp."""
    cuts: dict[str, list[tuple]] = {}
    for a, p in enumerate(sorted(partitions, key=_TIMESTAMP)):
        for k, eid in enumerate(p.events):
            cuts.setdefault(event[eid].instance, []).append((at[eid], p.timestamp, a, k, eid))
    found = []
    for inst, line in cuts.items():
        below: list[tuple] = []  # (timestamp, a, k, event id) of the cuts seen
        for _, level in itertools.groupby(sorted(line, reverse=True), key=_ID):
            level = list(level)
            for cut in level:
                bisect.insort(below, cut[1:])
            for _, t2, b, k2, e2 in level:
                for t1, a, k1, e1 in below[:bisect.bisect_left(below, (t2,))]:
                    found.append(((a, b, k1, k2), e1, e2, t1, t2, inst))
    found.sort()
    for _, e1, e2, t1, t2, inst in found:
        _add(v, "ordering", [e1, e2],
             "partition at %d is drawn after partition at %d on line %s" % (t1, t2, inst))


def validate(tcsd: Tcsd) -> ValidationResult:
    """Check every well-formedness clause of a raw diagram.

    Dangling references are reported as ``malformed`` violations and block
    the semantic checks, which read the fragment index ``_index_events``
    builds.  On success the result carries a normalized copy (partitions
    sorted by timestamp and the implicit start partition, time 0, inserted
    when absent) and that copy's region tree, which ``translate.translate``
    takes instead of building it again.
    """
    event, kinds, malformed, index = _index_events(tcsd)
    if malformed:
        return ValidationResult(malformed)
    frags, members, children, position, owners, strict, shape = index

    v: list[Violation] = []
    base = tcsd.base
    sut = tcsd.sut

    # Message endpoints: kinds match, no sharing, every send/receive used once.
    # A message must also connect the SUT line with exactly one test line;
    # those violations are reported after the layout check.  In bulk: the
    # endpoints are as many as the send and receive events and distinct,
    # each of its kind, and one end of each message is on the SUT line.
    messages = base.messages
    send_events = list(map(event.__getitem__, map(_ID, messages)))
    receive_events = list(map(event.__getitem__, map(_RECEIVER, messages)))
    ends = set(map(_ID, send_events))
    ends.update(map(_ID, receive_events))
    off_sut: list[Violation] = []
    if not (len(ends) == 2 * len(messages) == sum(map(_MESSAGE_KINDS.__contains__, kinds))
            and _SEND_ONLY.issuperset(map(_KIND, send_events))
            and _RECEIVE_ONLY.issuperset(map(_KIND, receive_events))
            and all(map(operator.ne, map(sut.__eq__, map(_INSTANCE, send_events)),
                        map(sut.__eq__, map(_INSTANCE, receive_events))))):
        _check_messages(tcsd, event, v, off_sut)

    # Fragment shape: operand counts, loop bounds, empty operands.
    v += shape

    # Fragment consistency: self-nesting, shared events, containment.
    desc = _descendants(children)
    for fid, reached in desc.items():
        if fid in reached:
            _add(v, "no-self-nesting", [fid], "fragment is nested inside itself")
    _check_shared_events(owners, desc, position, v)
    for f in base.fragments:
        listed = members[f.id]
        for x, op in enumerate(f.operands):
            for cid in op.children:
                nested = members[cid]
                if set(map(listed.get, nested)) != {(x,)}:
                    missing = [eid for eid in nested if x not in listed.get(eid, ())]
                    if missing:
                        _add(v, "event-containment", [f.id, cid],
                             "operand %d misses nested events %s"
                             % (x, ",".join(sorted(missing))))

    # SUT-line layout must parse into a region tree (translation precondition).
    sut_line = _sut_events(tcsd)
    regions = None
    try:
        regions = _region_tree(tcsd, frags, members)
    except LayoutError as exc:
        _add(v, "fragment-layout", [sut], str(exc))
    v.extend(off_sut)

    # Partition lines.
    by_delta: dict[int, list[int]] = {}
    for n, p in enumerate(tcsd.partitions):
        by_delta.setdefault(p.timestamp, []).append(n)
    for delta, idxs in sorted(by_delta.items()):
        if len(idxs) > 1:
            elems = [e for n in idxs for e in tcsd.partitions[n].events]
            _add(v, "uniqueness", elems,
                 "%d partition lines share timestamp %d" % (len(idxs), delta))
    for p in tcsd.partitions:
        covered = {}
        for eid in p.events:
            _, inst, kind, _ = event[eid]
            covered[inst] = covered.get(inst, 0) + 1
            if kind != PARTITION:
                _add(v, "completeness", [eid], "partition line uses a non-partition event")
        if set(covered) != set(base.instances) or any(n != 1 for n in covered.values()):
            _add(v, "completeness", list(p.events),
                 "partition at %d does not cut every line exactly once" % p.timestamp)
    part_of: dict[str, int] = {}
    for n, p in enumerate(tcsd.partitions):
        for eid in p.events:
            if eid in part_of:
                _add(v, "completeness", [eid], "event shared between partition lines")
            part_of[eid] = n
    # Every partition event lies on a partition line, which may also use
    # events of other kinds.  ``kinds`` is in the order of ``event``.
    for eid, kind in zip(event, kinds):
        if kind == PARTITION and eid not in part_of:
            _add(v, "completeness", [eid], "partition event lies on no partition line")
    at = _positions(tcsd, {eid for c in tcsd.timeouts for eid in (c.start, c.end)}.union(
        part_of))
    _check_ordering(tcsd.partitions, event, at, v)
    for p in tcsd.partitions:
        for eid in p.events:
            if eid in owners:
                _add(v, "no-fragment-cutting", [eid, owners[eid][0]],
                     "partition event lies inside a fragment operand")

    # Timeouts.  A strict fragment's items are inlined into the enclosing
    # operand, so a timeout may cross its borders, but not anchor on them.
    spans = []  # (start, end, number) of each ordered timeout on the SUT line
    for n, c in enumerate(tcsd.timeouts):
        start, end = event[c.start], event[c.end]
        if start.instance != sut or end.instance != sut:
            _add(v, "timeout-endpoints", [c.start, c.end],
                 "timeout endpoints must lie on the SUT line")
            continue
        sn, en = at[c.start], at[c.end]
        if sn >= en:
            _add(v, "timeout-ordered", [c.start, c.end],
                 "timeout start must precede its end")
        else:
            spans.append((sn, en, n))
        for fid in sorted(set(owners.get(c.start, ())).union(owners.get(c.end, ()))
                          .difference(strict), key=position.get):
            listed = members[fid]
            for x in sorted(set(listed.get(c.start, ())) ^ set(listed.get(c.end, ()))):
                _add(v, "timeout-same-fragment", [c.start, c.end, fid],
                     "endpoints split across operand %d of fragment %s" % (x, fid))
        if start.kind == PARTITION or end.kind == PARTITION:
            _add(v, "timeout-partition-span", [c.start, c.end],
                 "timeout anchored on a partition event")
        else:
            for e in sut_line[min(sn, en) + 1:max(sn, en)]:
                if e.kind == PARTITION:
                    _add(v, "timeout-partition-span", [c.start, c.end, e.id],
                         "timeout spans the partition event %s" % e.id)
        for e in dict.fromkeys((start, end)):
            if e.kind in _BORDERS and e.fragment in strict:
                _add(v, "timeout-strict-border", [c.start, c.end, e.fragment],
                     "timeout anchored on %s, a border of strict fragment %s"
                     % (e.id, e.fragment))
    # Two spans overlap without nesting when one starts inside the other
    # and ends after it.  In start order, the spans that start inside a
    # span are a run after it; sharing an anchor is no overlap.
    spans.sort()
    starts = [s1 for s1, _, _ in spans]
    for a, b in sorted((min(m, n), max(m, n)) for k, (s1, e1, m) in enumerate(spans)
                       for s2, e2, n in spans[k + 1:bisect.bisect_left(starts, e1)]
                       if s1 < s2 and e1 < e2):
        c1, c2 = tcsd.timeouts[a], tcsd.timeouts[b]
        _add(v, "timeout-nesting", [c1.start, c1.end, c2.start, c2.end],
             "timeouts %s..%s and %s..%s overlap without nesting"
             % (c1.start, c1.end, c2.start, c2.end))

    if v:
        return ValidationResult(v)
    normalized = _normalize(tcsd, event)
    line = _sut_events(normalized)
    if len(line) > len(sut_line):  # the time-0 partition event was put first
        regions.insert(0, line[0])
    return ValidationResult([], normalized, regions)


def _normalize(tcsd: Tcsd, taken) -> Tcsd:
    """Sort the partitions and put the time-0 one first, adding it to every
    line when it is absent; ``taken`` holds every event id of ``tcsd``."""
    partitions = sorted(tcsd.partitions, key=_TIMESTAMP)
    if partitions and partitions[0].timestamp == 0:
        return tcsd._replace(partitions=tuple(partitions))
    base = tcsd.base
    fresh = set()
    new_events = dict(base.events)
    tau_events = []
    for inst in base.instances:
        eid = "t0_%s" % inst
        while eid in taken or eid in fresh:
            eid += "_"
        fresh.add(eid)
        tau_events.append(eid)
        new_events[inst] = (Event(eid, inst, PARTITION),) + new_events.get(inst, ())
    tau0 = PartitionLine(tuple(tau_events), 0)
    return tcsd._replace(base=base._replace(events=new_events),
                         partitions=(tau0,) + tuple(partitions))
