"""``model.validate`` and its region-tree parser as they were before the
SUT line's fragment exits were found in one pass, the ordering clause
was listed from each line's sorted cuts and the nesting of fragments was
used to rule out shared events.

A verbatim copy, for the differential tests in ``test_model``: the
violations, their order, the normalized diagram and the region tree must
all come out the same.  Nothing in ``src`` uses it.  The rules that
``translate`` relies on were added to both later, each written here
plainly: a fragment lists exactly the SUT events drawn between its
borders, every partition event lies on a partition line, no timeout is
anchored on a strict fragment's border, and any two timeouts nest or
are disjoint.  A timeout may cross a strict fragment's borders, as the
translator inlines its items.  The region tree holds the SUT line's
events themselves next to ``FragmentNode``s, as ``model``'s does.
"""

from __future__ import annotations

from virtint.model import (EVENT_KINDS, FRAGMENT_ENTER, FRAGMENT_EXIT, OPERATORS, PARTITION,
                           RECEIVE, SEND, Event, Fragment, FragmentNode, PartitionLine,
                           Tcsd, ValidationResult, Violation)

_BORDERS = (FRAGMENT_ENTER, FRAGMENT_EXIT)


class LayoutError(Exception):
    """SUT-line events cannot be arranged into a fragment region tree."""


def _index_fragments(tcsd: Tcsd) -> dict[str, Fragment]:
    return {f.id: f for f in tcsd.base.fragments}


def _sut_events(tcsd: Tcsd) -> tuple[Event, ...]:
    return tcsd.base.events.get(tcsd.sut, ())


def _operand_index(fragments) -> dict[str, dict[str, list[int]]]:
    """Event id -> fragment id -> numbers of the operands that list the event."""
    index: dict[str, dict[str, list[int]]] = {}
    for f in fragments:
        for x, op in enumerate(f.operands):
            for eid in dict.fromkeys(op.events):
                index.setdefault(eid, {}).setdefault(f.id, []).append(x)
    return index


def _parse_items(events, i, j, frags, operands_of) -> list:
    items = []
    k = i
    while k < j:
        e = events[k]
        if e.kind == FRAGMENT_EXIT:
            raise LayoutError("unmatched fragment exit %s" % e.id)
        if e.kind != FRAGMENT_ENTER:
            items.append(e)
            k += 1
            continue
        frag = frags.get(e.fragment)
        if frag is None:
            raise LayoutError("enter event %s names unknown fragment" % e.id)
        end = None
        for n in range(k + 1, j):
            if events[n].kind == FRAGMENT_EXIT and events[n].fragment == frag.id:
                end = n
                break
        if end is None:
            raise LayoutError("fragment %s has no exit on the SUT line" % frag.id)
        membership = []
        for n in range(k + 1, end):
            inner = events[n]
            owners = operands_of.get(inner.id, {}).get(frag.id, [])
            if len(owners) != 1:
                raise LayoutError(
                    "event %s is in %d operands of fragment %s"
                    % (inner.id, len(owners), frag.id)
                )
            membership.append(owners[0])
        if membership != sorted(membership):
            raise LayoutError(
                "operands of fragment %s are interleaved on the SUT line" % frag.id
            )
        slices = []
        pos = k + 1
        for x in range(len(frag.operands)):
            lo = pos
            while pos < end and membership[pos - (k + 1)] == x:
                pos += 1
            slices.append((lo, pos))
        if pos != end:
            raise LayoutError("fragment %s has stray interior events" % frag.id)
        operand_items = [_parse_items(events, lo, hi, frags, operands_of)
                         for lo, hi in slices]
        items.append(FragmentNode(frag, e, events[end], operand_items))
        k = end + 1
    return items


def _check_listing(items, on_sut, drawn: set):
    """Raise LayoutError for the first fragment in a walk of the tree that
    lists a SUT event not drawn inside it; gather the fragments met."""
    for item in items:
        if isinstance(item, FragmentNode):
            inside = {e.id for op in item.operand_items for e in _flatten(op)}
            for op in item.fragment.operands:
                for eid in op.events:
                    if eid in on_sut and eid not in inside:
                        raise LayoutError("fragment %s lists %s, not drawn between its "
                                          "borders on the SUT line" % (item.fragment.id, eid))
            drawn.add(item.fragment.id)
            for op in item.operand_items:
                _check_listing(op, on_sut, drawn)


def _flatten(items) -> list:
    """The events of a region tree in line order, borders included."""
    out = []
    for item in items:
        if isinstance(item, FragmentNode):
            out.append(item.enter)
            for op in item.operand_items:
                out += _flatten(op)
            out.append(item.exit)
        else:
            out.append(item)
    return out


def _region_tree(tcsd: Tcsd, operands_of) -> list:
    events = _sut_events(tcsd)
    frags = _index_fragments(tcsd)
    items = _parse_items(events, 0, len(events), frags, operands_of)
    # Each fragment lists, of the SUT line's events, those drawn inside it.
    on_sut = {e.id for e in events}
    drawn: set[str] = set()
    _check_listing(items, on_sut, drawn)
    for frag in frags.values():
        if frag.id in drawn:
            continue
        for op in frag.operands:
            for eid in op.events:
                if eid in on_sut:
                    raise LayoutError("fragment %s lists %s, not drawn between its "
                                      "borders on the SUT line" % (frag.id, eid))
    return items


# --------------------------------------------------------------------------
# Validation.


def _add(violations, clause, elements, detail):
    violations.append(Violation(clause, tuple(elements), detail))


def _index_events(tcsd: Tcsd):
    """One pass over the declared lines: (pos, kind, malformed violations).

    ``pos`` maps each event id to its (line, index) and ``kind`` to its
    kind; dangling references are ``malformed`` violations.
    """
    v: list[Violation] = []
    base = tcsd.base
    frag_ids = {f.id for f in base.fragments}
    pos: dict[str, tuple[str, int]] = {}
    kind: dict[str, str] = {}
    stray_border = False
    for inst in base.instances:
        for n, (eid, line, k, fragment) in enumerate(base.events.get(inst, ())):
            if eid in pos:
                _add(v, "malformed", [eid], "duplicate event id")
            pos[eid] = (inst, n)
            kind[eid] = k
            if line != inst:
                _add(v, "malformed", [eid], "event filed under wrong instance line")
            if k not in EVENT_KINDS:
                _add(v, "malformed", [eid], "unknown event kind %r" % k)
            elif k in _BORDERS and fragment not in frag_ids:
                stray_border = True
    undeclared = False
    for inst in base.events:
        if inst not in base.instances:
            undeclared = True
            _add(v, "malformed", [inst], "event list for undeclared instance")
    if tcsd.sut not in base.instances:
        _add(v, "malformed", [tcsd.sut], "SUT is not a declared instance")

    dup = set()
    for f in base.fragments:
        if f.id in dup:
            _add(v, "malformed", [f.id], "duplicate fragment id")
        dup.add(f.id)
        if f.operator not in OPERATORS:
            _add(v, "malformed", [f.id], "unknown operator %r" % f.operator)
        for op in f.operands:
            for eid in op.events:
                if eid not in pos:
                    _add(v, "malformed", [f.id, eid], "operand references unknown event")
            for cid in op.children:
                if cid not in frag_ids:
                    _add(v, "malformed", [f.id, cid], "operand references unknown fragment")
    for m in base.messages:
        for eid in (m.send, m.receive):
            if eid not in pos:
                _add(v, "malformed", [eid], "message endpoint is not an event")
    for p in tcsd.partitions:
        for eid in p.events:
            if eid not in pos:
                _add(v, "malformed", [eid], "partition references unknown event")
        if p.timestamp < 0:
            _add(v, "malformed", [str(p.timestamp)], "negative partition timestamp")
    for c in tcsd.timeouts:
        for eid in (c.start, c.end):
            if eid not in pos:
                _add(v, "malformed", [eid], "timeout endpoint is not an event")
        if c.bound < 1:
            _add(v, "malformed", [c.start, c.end], "timeout bound must be positive")
    # Reported last, line by line in the order the event lists are keyed.
    if stray_border or undeclared:
        for e_list in base.events.values():
            for e in e_list:
                if e.kind in _BORDERS and e.fragment not in frag_ids:
                    _add(v, "malformed", [e.id], "border event names unknown fragment")
    return pos, kind, v


def _descendants(fragments: tuple[Fragment, ...]) -> dict[str, set[str]]:
    children: dict[str, set[str]] = {}
    for f in fragments:
        kids = set()
        for op in f.operands:
            kids |= set(op.children)
        children[f.id] = kids
    out: dict[str, set[str]] = {}
    for f in fragments:
        reached: set[str] = set()
        frontier = set(children[f.id])
        while frontier:
            fid = frontier.pop()
            if fid in reached:
                continue
            reached.add(fid)
            frontier |= children.get(fid, set()) - reached
        out[f.id] = reached
    return out


def _drawn_out_of_order(partitions, pos) -> bool:
    """Whether some line draws a partition at or below one with a later timestamp."""
    cuts: dict[str, list[tuple[int, int]]] = {}
    for p in partitions:
        for eid in p.events:
            inst, n = pos[eid]
            cuts.setdefault(inst, []).append((n, p.timestamp))
    for line in cuts.values():
        line.sort()
        for (n1, t1), (n2, t2) in zip(line, line[1:]):
            if t2 < t1 or (n1 == n2 and t1 != t2):
                return True
    return False


def validate(tcsd: Tcsd) -> ValidationResult:
    """Check every well-formedness clause of a raw diagram.

    Dangling references are reported as ``malformed`` violations and block
    the semantic checks.  On success the result carries a normalized copy
    (partitions sorted by timestamp and the implicit start partition, time
    0, inserted when absent) and that copy's region tree, which
    ``translate.translate`` takes instead of building it again.
    """
    pos, kind, malformed = _index_events(tcsd)
    if malformed:
        return ValidationResult(malformed)

    v: list[Violation] = []
    base = tcsd.base
    sut = tcsd.sut

    # Message endpoints: kinds match, no sharing, every send/receive used once.
    # A message must also connect the SUT line with exactly one test line;
    # those violations are reported after the layout check.
    usage: dict[str, int] = {}
    off_sut: list[Violation] = []
    for send, label, receive in base.messages:
        usage[send] = usage.get(send, 0) + 1
        usage[receive] = usage.get(receive, 0) + 1
        si, sn = pos[send]
        ri, rn = pos[receive]
        ends_on_sut = (si == sut) + (ri == sut)
        if ends_on_sut != 1:
            _add(off_sut, "sut-endpoint", [send, receive],
                 "message %r has %d endpoints on the SUT line" % (label, ends_on_sut))
        if send == receive:
            _add(v, "message-endpoints", [send], "message with identical endpoints")
            continue
        if kind[send] != SEND:
            _add(v, "message-endpoints", [send], "send endpoint is not a send event")
        if kind[receive] != RECEIVE:
            _add(v, "message-endpoints", [receive], "receive endpoint is not a receive event")
        if si == ri and sn >= rn:
            _add(v, "message-order", [send, receive],
                 "same-line message must send before it receives")
    for eid, n in usage.items():
        if n > 1:
            _add(v, "message-endpoints", [eid], "event is an endpoint of %d messages" % n)
    for eid, k in kind.items():
        if k in (SEND, RECEIVE) and eid not in usage:
            _add(v, "message-endpoints", [eid], "%s event belongs to no message" % k)

    # Fragment shape: operand counts, loop bounds, empty operands.
    for f in base.fragments:
        n_ops = len(f.operands)
        if f.operator in ("strict", "opt", "loop") and n_ops != 1:
            _add(v, "operand-count", [f.id],
                 "%s requires exactly 1 operand, has %d" % (f.operator, n_ops))
        if f.operator in ("par", "alt") and n_ops < 2:
            _add(v, "operand-count", [f.id],
                 "%s requires at least 2 operands, has %d" % (f.operator, n_ops))
        if f.operator == "loop":
            if f.loop_bound is None:
                _add(v, "loop-bound", [f.id], "loop without a constant bound")
            elif f.loop_bound < 0:
                _add(v, "loop-bound", [f.id], "negative loop bound")
        elif f.loop_bound is not None:
            _add(v, "loop-bound", [f.id], "bound on a non-loop fragment")
        for x, op in enumerate(f.operands):
            if not op.events:
                _add(v, "empty-operand", [f.id], "operand %d is empty" % x)

    # Fragment consistency: self-nesting, shared events, containment.
    desc = _descendants(base.fragments)
    for f in base.fragments:
        if f.id in desc[f.id]:
            _add(v, "no-self-nesting", [f.id], "fragment is nested inside itself")
    frag_events = {
        f.id: set().union(*[set(op.events) for op in f.operands]) if f.operands else set()
        for f in base.fragments
    }
    frags = list(base.fragments)
    frag_pos = {f.id: n for n, f in enumerate(frags)}
    operands_of = _operand_index(frags)
    # Events listed by the same fragments share the same fragment pairs, so
    # each distinct owner tuple is checked once.
    by_owners: dict[tuple[str, ...], list[str]] = {}
    for eid, owners in operands_of.items():
        by_owners.setdefault(tuple(owners), []).append(eid)
    shared: dict[tuple[int, int], set[str]] = {}
    for owners, eids in by_owners.items():
        for x, f1 in enumerate(owners):
            for f2 in owners[x + 1:]:
                if f1 not in desc[f2] and f2 not in desc[f1]:
                    shared.setdefault((frag_pos[f1], frag_pos[f2]), set()).update(eids)
    for a, b in sorted(shared):
        _add(v, "no-shared-events", [frags[a].id, frags[b].id],
             "disjoint fragments share events %s" % ",".join(sorted(shared[a, b])))
    for f in base.fragments:
        for x, op in enumerate(f.operands):
            have = set(op.events)
            for cid in op.children:
                missing = frag_events[cid] - have
                if missing:
                    _add(v, "event-containment", [f.id, cid],
                         "operand %d misses nested events %s"
                         % (x, ",".join(sorted(missing))))

    # SUT-line layout must parse into a region tree (translation precondition).
    sut_line = _sut_events(tcsd)
    regions = None
    try:
        regions = _region_tree(tcsd, operands_of)
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
            inst = pos[eid][0]
            covered[inst] = covered.get(inst, 0) + 1
            if kind[eid] != PARTITION:
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
    for eid, k in kind.items():
        if k == PARTITION and eid not in part_of:
            _add(v, "completeness", [eid], "partition event lies on no partition line")
    if _drawn_out_of_order(tcsd.partitions, pos):
        ordered = sorted(tcsd.partitions, key=lambda p: p.timestamp)
        for a in range(len(ordered)):
            for b in range(a + 1, len(ordered)):
                p1, p2 = ordered[a], ordered[b]
                if p1.timestamp == p2.timestamp:
                    continue
                for e1 in p1.events:
                    i1, n1 = pos[e1]
                    for e2 in p2.events:
                        i2, n2 = pos[e2]
                        if i1 == i2 and n1 >= n2:
                            _add(v, "ordering", [e1, e2],
                                 "partition at %d is drawn after partition at %d on line %s"
                                 % (p1.timestamp, p2.timestamp, i1))
    for p in tcsd.partitions:
        for eid in p.events:
            if eid in operands_of:
                _add(v, "no-fragment-cutting", [eid, next(iter(operands_of[eid]))],
                     "partition event lies inside a fragment operand")

    # Timeouts.
    border_of = {e.id: e.fragment for line in base.events.values() for e in line
                 if e.kind in _BORDERS}
    spans = []  # (timeout, start, end) of each ordered timeout on the SUT line
    for c in tcsd.timeouts:
        si, sn = pos[c.start]
        ei, en = pos[c.end]
        if si != tcsd.sut or ei != tcsd.sut:
            _add(v, "timeout-endpoints", [c.start, c.end],
                 "timeout endpoints must lie on the SUT line")
            continue
        if sn >= en:
            _add(v, "timeout-ordered", [c.start, c.end],
                 "timeout start must precede its end")
        else:
            spans.append((c, sn, en))
        s_ops, e_ops = operands_of.get(c.start, {}), operands_of.get(c.end, {})
        for fid in sorted(s_ops.keys() | e_ops.keys(), key=frag_pos.get):
            if frags[frag_pos[fid]].operator == "strict":
                continue  # a timeout may cross a strict fragment's borders
            for x in sorted(set(s_ops.get(fid, ())) ^ set(e_ops.get(fid, ()))):
                _add(v, "timeout-same-fragment", [c.start, c.end, fid],
                     "endpoints split across operand %d of fragment %s" % (x, fid))
        if kind[c.start] == PARTITION or kind[c.end] == PARTITION:
            _add(v, "timeout-partition-span", [c.start, c.end],
                 "timeout anchored on a partition event")
        else:
            for e in sut_line[min(sn, en) + 1:max(sn, en)]:
                if e.kind == PARTITION:
                    _add(v, "timeout-partition-span", [c.start, c.end, e.id],
                         "timeout spans the partition event %s" % e.id)
        for eid in [c.start] if c.start == c.end else [c.start, c.end]:
            fid = border_of.get(eid)
            if fid is not None and frags[frag_pos[fid]].operator == "strict":
                _add(v, "timeout-strict-border", [c.start, c.end, fid],
                     "timeout anchored on %s, a border of strict fragment %s" % (eid, fid))
    for x, (c1, s1, e1) in enumerate(spans):
        for c2, s2, e2 in spans[x + 1:]:
            if s1 < s2 < e1 < e2 or s2 < s1 < e2 < e1:
                _add(v, "timeout-nesting", [c1.start, c1.end, c2.start, c2.end],
                     "timeouts %s..%s and %s..%s overlap without nesting"
                     % (c1.start, c1.end, c2.start, c2.end))

    if v:
        return ValidationResult(v)
    normalized = _normalize(tcsd, pos)
    line = _sut_events(normalized)
    if len(line) > len(sut_line):  # the time-0 partition event was put first
        regions.insert(0, line[0])
    return ValidationResult([], normalized, regions)


def _normalize(tcsd: Tcsd, taken) -> Tcsd:
    """Sort the partitions and put the time-0 one first, adding it to every
    line when it is absent; ``taken`` holds every event id of ``tcsd``."""
    partitions = sorted(tcsd.partitions, key=lambda p: p.timestamp)
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
