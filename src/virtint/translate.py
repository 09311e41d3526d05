"""Compile a validated diagram into a marked timed-arc Petri net.

The SUT line becomes one main sequence of transport-arc steps carrying a
clock token: an unguarded start step (so nets merged later may begin with
an arbitrary offset), one labeled step per message event, one ``[d,d]``
step per partition event.  par/alt/opt fragments branch one age-0 token
per operand between an enter and an exit transition; loops unroll their
single operand a constant number of times; strict fragments add nothing.
A timeout feeds a fresh token into a wait place at its start anchor and
drains it through a ``[0,d]`` guard at its end anchor.
"""

from __future__ import annotations

import functools
import operator
from typing import NamedTuple

from . import model, tapn
from .model import EventNode, Tcsd
from .tapn import (ANY_AGE, InputArc, Marking, OutputArc, Tapn, TargetSpec,
                   Transition, TransportArc)

START = "start"
MESSAGE = "message"
PARTITION_STEP = "partition"
FRAGMENT_ENTER = "fragment-enter"
FRAGMENT_EXIT = "fragment-exit"
# Largest net a diagram may unroll to; loops multiply their body's size.
MAX_TRANSITIONS = 100_000


class TranslationError(Exception):
    pass


class TranslationUnit(NamedTuple):
    tcsd: Tcsd | None  # None for merged units
    net: Tapn
    m0: Marking
    target: TargetSpec
    event_map: dict[str, tuple[str, ...]]  # SUT event -> its transitions
    transition_kinds: dict[str, str]
    wait_places: frozenset[str]

    @property
    def name(self) -> str:
        return self.net.name


# The records of a net, made without their Python-level __new__.
_new_transition = functools.partial(tuple.__new__, Transition)
_new_input_arc = functools.partial(tuple.__new__, InputArc)
_new_output_arc = functools.partial(tuple.__new__, OutputArc)
_new_transport_arc = functools.partial(tuple.__new__, TransportArc)
_FIRST = operator.itemgetter(0)


class _Builder:
    """The net of one diagram, built by a fold over its SUT region tree."""

    def __init__(self, tcsd: Tcsd):
        self.prefix = tcsd.base.name
        self.places: list[str] = []
        self.transitions: list[Transition] = []
        self.input_arcs: list[InputArc] = []
        self.output_arcs: list[OutputArc] = []
        self.transport_arcs: list[TransportArc] = []
        self.kinds: dict[str, str] = {}
        self.waits: set[str] = set()
        # Each step's event and transition, in the order they are built.
        self.stepped: list[str] = []
        self.steps: list[str] = []
        self.timeouts = tcsd.timeouts
        self.open_waits: dict[int, str] = {}
        # What an event's step carries: a message's label, a partition's guard.
        self.label_of = {}
        for m in tcsd.base.messages:
            self.label_of[m.send] = m.label
            self.label_of[m.receive] = m.label
        self.guard_of = {}
        for p in tcsd.partitions:
            self.guard_of.update(dict.fromkeys(p.events, tapn.exact(p.timestamp)))
        self.starts: dict[str, list[int]] = {}
        self.ends: dict[str, list[int]] = {}
        for n, c in enumerate(tcsd.timeouts):
            self.starts.setdefault(c.start, []).append(n)
            self.ends.setdefault(c.end, []).append(n)
        self.anchors = self.starts.keys() | self.ends.keys()

    def place(self) -> str:
        pid = "%s.P%d" % (self.prefix, len(self.places))
        self.places.append(pid)
        return pid

    def transition(self, label: str | None, kind: str) -> str:
        tid = "%s.T%d" % (self.prefix, len(self.transitions))
        self.transitions.append(_new_transition((tid, label)))
        self.kinds[tid] = kind
        return tid

    def net(self) -> Tapn:
        """The net built, after ``Tapn.check`` has passed it."""
        net = Tapn(
            name=self.prefix,
            places=tuple(self.places),
            transitions=tuple(self.transitions),
            input_arcs=tuple(self.input_arcs),
            output_arcs=tuple(self.output_arcs),
            transport_arcs=tuple(self.transport_arcs),
        )
        net.check()
        return net

    def anchor(self, event_id: str, tid: str):
        """End the timeouts that end at ``event_id``, and start those that
        start there, on the step ``tid``."""
        for n in self.ends.get(event_id, ()):
            if n not in self.open_waits:
                raise TranslationError(
                    "timeout ending at %s was never started" % event_id)
            wait = self.open_waits.pop(n)
            guard = tapn.at_most(self.timeouts[n].bound)
            self.input_arcs.append(_new_input_arc((wait, tid, guard)))
        for n in self.starts.get(event_id, ()):
            wait = self.place()
            self.waits.add(wait)
            self.output_arcs.append(_new_output_arc((tid, wait)))
            self.open_waits[n] = wait

    def attach(self, event_id: str, tid: str):
        self.stepped.append(event_id)
        self.steps.append(tid)
        if event_id in self.anchors:
            self.anchor(event_id, tid)

    def emit_items(self, items, p: str, in_branch: bool = False) -> str:
        """Fold ``items`` into steps from place ``p``; give the last place.

        An event's step is built here without a call, unless the event
        anchors a timeout; fragments go through ``emit_fragment``.
        """
        prefix = self.prefix
        places, transitions, arcs = self.places, self.transitions, self.transport_arcs
        kinds, stepped, steps = self.kinds, self.stepped, self.steps
        label_of, guard_of, anchors = self.label_of, self.guard_of, self.anchors
        for item in items:
            if type(item) is not EventNode:
                p = self.emit_fragment(item, p, in_branch)
                continue
            eid, _, kind, _ = item.event
            if kind == model.SEND or kind == model.RECEIVE:
                if eid not in label_of:
                    raise TranslationError("message event %s has no message" % eid)
                label, guard, kind = label_of[eid], ANY_AGE, MESSAGE
            elif kind == model.PARTITION:
                if in_branch:
                    # Branch tokens carry no global clock; the validator
                    # rejects partitions inside operands before this.
                    raise TranslationError(
                        "partition event %s inside a fragment operand" % eid)
                guard = guard_of.get(eid)
                if guard is None:
                    raise TranslationError("partition event %s has no line" % eid)
                label, kind = None, PARTITION_STEP
            else:
                raise TranslationError("unexpected %s event %s on the SUT walk" % (kind, eid))
            t = "%s.T%d" % (prefix, len(transitions))
            transitions.append(_new_transition((t, label)))
            kinds[t] = kind
            p2 = "%s.P%d" % (prefix, len(places))
            places.append(p2)
            arcs.append(_new_transport_arc((p, t, p2, guard)))
            p = p2
            stepped.append(eid)
            steps.append(t)
            if eid in anchors:
                self.anchor(eid, t)
        return p

    def emit_fragment(self, item, p: str, in_branch: bool) -> str:
        f = item.fragment
        if f.operator == "strict":
            for eid in (item.enter.id, item.exit.id):
                if eid in self.anchors:
                    raise TranslationError(
                        "timeout anchored on strict fragment border %s" % eid)
            return self.emit_items(item.operand_items[0], p, in_branch)
        tfs = self.transition(None, FRAGMENT_ENTER)
        pmid = self.place()
        self.transport_arcs.append(_new_transport_arc((p, tfs, pmid, ANY_AGE)))
        self.attach(item.enter.id, tfs)
        tfe = self.transition(None, FRAGMENT_EXIT)
        pend = self.place()
        self.transport_arcs.append(_new_transport_arc((pmid, tfe, pend, ANY_AGE)))
        if f.operator == "loop":
            branch = self.place()
            self.output_arcs.append(_new_output_arc((tfs, branch)))
            cur = branch
            for _ in range(f.loop_bound):
                cur = self.emit_items(item.operand_items[0], cur, True)
            self.input_arcs.append(_new_input_arc((cur, tfe, ANY_AGE)))
        else:
            for op_items in item.operand_items:
                branch = self.place()
                self.output_arcs.append(_new_output_arc((tfs, branch)))
                cur = self.emit_items(op_items, branch, True)
                self.input_arcs.append(_new_input_arc((cur, tfe, ANY_AGE)))
        self.attach(item.exit.id, tfe)
        return pend

    def event_map(self) -> dict[str, tuple[str, ...]]:
        """Each event with a step and its transitions, in the order built."""
        out = dict(zip(self.stepped, zip(self.steps)))
        if len(out) < len(self.stepped):  # some event was unrolled more than once
            out = dict.fromkeys(self.stepped, ())
            for eid, tid in zip(self.stepped, self.steps):
                out[eid] += (tid,)
        return out


def _check_timeout_shape(tcsd: Tcsd):
    """Reject two timeouts that overlap without one nesting in the other.

    Positions are read off the raw SUT line, which is the region tree
    flattened.  One pass over the spans sorted by (start, -end) keeps a
    stack of open spans, each nested in the one below: spans ending at or
    before the current start close, and the current span must end within
    the innermost one still open.  Spans sharing only an anchor are chained.
    """
    line = tcsd.base.events.get(tcsd.sut, ())
    pos = dict(zip(map(_FIRST, line), range(len(line))))  # event id -> index
    spans = sorted(((pos[c.start], pos[c.end], c) for c in tcsd.timeouts),
                   key=lambda span: (span[0], -span[1]))
    open_spans = []
    for start, end, c in spans:
        while open_spans and open_spans[-1][1] <= start:
            open_spans.pop()
        if open_spans and end > open_spans[-1][1]:
            outer = open_spans[-1][2]
            raise TranslationError(
                "timeouts %s..%s and %s..%s overlap without nesting"
                % (outer.start, outer.end, c.start, c.end))
        open_spans.append((start, end, c))


def _unrolled_transitions(items) -> int:
    """Transitions that ``_Builder.emit_items`` builds for a region list."""
    n = 0
    for item in items:
        if isinstance(item, EventNode):
            n += 1
            continue
        f = item.fragment
        if f.operator == "strict":
            n += _unrolled_transitions(item.operand_items[0])
        elif f.operator == "loop":
            if f.loop_bound is None:
                raise TranslationError("loop %s has no constant bound" % f.id)
            n += 2 + f.loop_bound * _unrolled_transitions(item.operand_items[0])
        else:
            n += 2 + sum(_unrolled_transitions(op) for op in item.operand_items)
    return n


def translate(tcsd: Tcsd, regions: list | None = None) -> TranslationUnit:
    """Build the net, its initial marking and its target for one diagram.

    Expects the normalized diagram produced by ``model.validate``; the
    construction is a deterministic fold over its region tree, so identical
    inputs yield identical nets.  ``regions`` is that tree as
    ``ValidationResult.regions`` carries it; without it the tree is built
    here by ``model.sut_regions``.  Raises TranslationError, before
    building anything, when the net with every loop unrolled would have
    more than ``MAX_TRANSITIONS`` transitions.  ``Tapn.check`` checks the
    net, and a fault raises its ValueError before any unit is returned.
    """
    if regions is None:
        regions = model.sut_regions(tcsd)
    _check_timeout_shape(tcsd)
    count = 1 + _unrolled_transitions(regions)  # the start step comes first
    if count > MAX_TRANSITIONS:
        raise TranslationError(
            "unrolling the loops of %s gives %d transitions, more than the limit of %d"
            % (tcsd.base.name, count, MAX_TRANSITIONS))

    b = _Builder(tcsd)
    p_pre = b.place()
    t_start = b.transition(None, START)
    p0 = b.place()
    b.input_arcs.append(_new_input_arc((p_pre, t_start, ANY_AGE)))
    b.output_arcs.append(_new_output_arc((t_start, p0)))

    final = b.emit_items(regions, p0)
    if b.open_waits:
        raise TranslationError("timeouts %s never reached their end anchor"
                               % sorted(b.open_waits))

    return TranslationUnit(
        tcsd=tcsd,
        net=b.net(),
        m0={p_pre: (0,)},
        target={final: 1},
        event_map=b.event_map(),
        transition_kinds=dict(b.kinds),
        wait_places=frozenset(b.waits),
    )
