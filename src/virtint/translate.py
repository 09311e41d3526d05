"""Compile a validated diagram into a marked timed-arc Petri net.

The SUT line becomes one main sequence of transport-arc steps carrying a
clock token: an unguarded start step (so nets merged later may begin with
an arbitrary offset), one labeled step per message event, one ``[d,d]``
step per partition event.  par/alt/opt fragments branch one age-0 token
per operand between an enter and an exit transition; loops unroll their
single operand a constant number of times; strict fragments add nothing.
A timeout feeds a fresh token into a wait place at its start anchor and
drains it through a ``[0,d]`` guard at its end anchor.

Only diagrams that pass ``model.validate`` are translated: every rule the
construction relies on is one of its clauses.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

from . import model, tapn
from .model import FragmentNode, Tcsd
from .tapn import (ANY_AGE, InputArc, Marking, OutputArc, Tapn, TargetSpec,
                   Transition, TransportArc)

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

    @property
    def name(self) -> str:
        return self.net.name


# The records of a net, made without their Python-level __new__.
_new_transition = functools.partial(tuple.__new__, Transition)
_new_input_arc = functools.partial(tuple.__new__, InputArc)
_new_output_arc = functools.partial(tuple.__new__, OutputArc)
_new_transport_arc = functools.partial(tuple.__new__, TransportArc)


class _Builder:
    """The net of one diagram, built by a fold over its SUT region tree."""

    def __init__(self, tcsd: Tcsd):
        self.prefix = tcsd.base.name
        self.places: list[str] = []
        self.transitions: list[Transition] = []
        self.input_arcs: list[InputArc] = []
        self.output_arcs: list[OutputArc] = []
        self.transport_arcs: list[TransportArc] = []
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

    def transition(self, label: str | None) -> str:
        tid = "%s.T%d" % (self.prefix, len(self.transitions))
        self.transitions.append(_new_transition((tid, label)))
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
            wait = self.open_waits.pop(n)
            guard = tapn.at_most(self.timeouts[n].bound)
            self.input_arcs.append(_new_input_arc((wait, tid, guard)))
        for n in self.starts.get(event_id, ()):
            wait = self.place()
            self.output_arcs.append(_new_output_arc((tid, wait)))
            self.open_waits[n] = wait

    def attach(self, event_id: str, tid: str):
        self.stepped.append(event_id)
        self.steps.append(tid)
        if event_id in self.anchors:
            self.anchor(event_id, tid)

    def emit_items(self, items, p: str) -> str:
        """Fold ``items`` into steps from place ``p``; give the last place.

        Fragments go through ``emit_fragment``.  The other items are
        message and partition events, each one step: a message's carries
        its label, a partition's its guard.
        """
        for item in items:
            if type(item) is FragmentNode:
                p = self.emit_fragment(item, p)
                continue
            eid = item[0]
            t = self.transition(self.label_of.get(eid))
            p2 = self.place()
            self.transport_arcs.append(
                _new_transport_arc((p, t, p2, self.guard_of.get(eid, ANY_AGE))))
            self.attach(eid, t)
            p = p2
        return p

    def emit_fragment(self, item, p: str) -> str:
        f = item.fragment
        if f.operator == "strict":
            return self.emit_items(item.operand_items[0], p)
        tfs = self.transition(None)
        pmid = self.place()
        self.transport_arcs.append(_new_transport_arc((p, tfs, pmid, ANY_AGE)))
        self.attach(item.enter.id, tfs)
        tfe = self.transition(None)
        pend = self.place()
        self.transport_arcs.append(_new_transport_arc((pmid, tfe, pend, ANY_AGE)))
        # One branch per operand; a loop's one branch is its body unrolled.
        branches = ([item.operand_items[0] * f.loop_bound] if f.operator == "loop"
                    else item.operand_items)
        for items in branches:
            branch = self.place()
            self.output_arcs.append(_new_output_arc((tfs, branch)))
            last = self.emit_items(items, branch)
            self.input_arcs.append(_new_input_arc((last, tfe, ANY_AGE)))
        self.attach(item.exit.id, tfe)
        return pend

    def event_map(self) -> dict[str, tuple[str, ...]]:
        """Each event with a step and its transitions, in the order built:
        an event in a loop's body has one per round."""
        gathered: dict[str, list[str]] = {}
        for eid, tid in zip(self.stepped, self.steps):
            gathered.setdefault(eid, []).append(tid)
        return {eid: tuple(tids) for eid, tids in gathered.items()}


def _unrolled_transitions(items) -> int:
    """Transitions that ``_Builder.emit_items`` builds for a region list."""
    n = 0
    for item in items:
        if not isinstance(item, FragmentNode):
            n += 1
            continue
        f = item.fragment
        if f.operator == "strict":
            n += _unrolled_transitions(item.operand_items[0])
        elif f.operator == "loop":
            n += 2 + f.loop_bound * _unrolled_transitions(item.operand_items[0])
        else:
            n += 2 + sum(_unrolled_transitions(op) for op in item.operand_items)
    return n


def translate(tcsd: Tcsd, regions: list | None = None) -> TranslationUnit:
    """Build the net, its initial marking and its target for one diagram.

    ``tcsd`` must be the normalized diagram that ``model.validate`` gives
    for a diagram with no violation: the construction relies on its
    clauses and checks none of them again.  It is a deterministic fold
    over the region tree, so identical inputs yield identical nets.
    ``regions`` is that tree as ``ValidationResult.regions`` carries it;
    without it the tree is built here by ``model.sut_regions``.  The one
    TranslationError is raised, before building anything, when the net
    with every loop unrolled would have more than ``MAX_TRANSITIONS``
    transitions.  ``Tapn.check`` checks the net, and a fault raises its
    ValueError before any unit is returned.
    """
    if regions is None:
        regions = model.sut_regions(tcsd)
    count = 1 + _unrolled_transitions(regions)  # the start step comes first
    if count > MAX_TRANSITIONS:
        raise TranslationError(
            "unrolling the loops of %s gives %d transitions, more than the limit of %d"
            % (tcsd.base.name, count, MAX_TRANSITIONS))

    b = _Builder(tcsd)
    p_pre = b.place()
    t_start = b.transition(None)
    p0 = b.place()
    b.input_arcs.append(_new_input_arc((p_pre, t_start, ANY_AGE)))
    b.output_arcs.append(_new_output_arc((t_start, p0)))
    final = b.emit_items(regions, p0)
    return TranslationUnit(
        tcsd=tcsd,
        net=b.net(),
        m0={p_pre: (0,)},
        target={final: 1},
        event_map=b.event_map(),
    )
