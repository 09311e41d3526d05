"""Serializers: DOT drawings, TAPAAL-style XML, and the JSON report.

All exporters are pure functions of their inputs and emit byte-identical
output for identical input.
"""

from __future__ import annotations

import itertools
import json
import re

from .integrate import AnalysisReport
from .tapn import Guard, Marking, Tapn
from .translate import TranslationUnit

REPORT_SCHEMA = "virtint-report/1"
TAPAAL_DIALECT = "tapaal-3.x"
_TAPAAL_NS = "http://www.informatik.hu-berlin.de/top/pnml/ptNetb"
_NON_WORD = re.compile(r"\W")
# json.dumps's string escaping (ensure_ascii), C-accelerated where available.
_quote = json.encoder.encode_basestring_ascii
# What ElementTree escapes in an attribute value.
_ATTR_ESCAPES = str.maketrans({
    "&": "&amp;", "<": "&lt;", ">": "&gt;", '"': "&quot;",
    "\r": "&#13;", "\n": "&#10;", "\t": "&#09;",
})


def _dot_quote(s: str) -> str:
    return '"%s"' % s.replace("\\", "\\\\").replace('"', '\\"')


def _dot_label(*parts: str) -> str:
    escaped = [p.replace("\\", "\\\\").replace('"', '\\"') for p in parts]
    return '"%s"' % "\\n".join(escaped)


class _Memo(dict):
    """``memo[key]`` is ``convert(key)``, worked out on first use.  A writer
    keeps one per document, so each node name and guard is converted once
    however many arcs name it, and a name outside the net still converts."""

    def __init__(self, convert):
        super().__init__()
        self.convert = convert

    def __missing__(self, key):
        value = self[key] = self.convert(key)
        return value


def dot_lines(net: Tapn, marking: Marking | None = None):
    """Yield the graphviz drawing line by line; transport arcs get diamond arrowheads."""
    marking = marking or {}
    quoted = _Memo(_dot_quote)
    guard = _Memo(lambda g: _dot_quote(str(g)))
    yield "digraph %s {\n" % _dot_quote(net.name)
    yield "  rankdir=LR;\n"
    for p in net.places:
        qp = quoted[p] = _dot_quote(p)
        ages = marking.get(p, ())
        if ages:
            label = _dot_label(p, "%d @ %s" % (len(ages), ",".join(str(a) for a in ages)))
            yield "  %s [shape=doublecircle, label=%s];\n" % (qp, label)
        else:
            yield "  %s [shape=circle, label=%s];\n" % (qp, qp)
    for tid, label in net.transitions:
        qt = quoted[tid] = _dot_quote(tid)
        # An unlabeled transition's label is its quoted id.
        label = qt if label is None else _dot_label(tid, label)
        yield "  %s [shape=box, label=%s];\n" % (qt, label)
    for place, transition, g in net.input_arcs:
        yield "  %s -> %s [label=%s];\n" % (quoted[place], quoted[transition], guard[g])
    for transition, place in net.output_arcs:
        yield "  %s -> %s;\n" % (quoted[transition], quoted[place])
    for source, transition, target, g in net.transport_arcs:
        yield "  %s -> %s [label=%s, arrowhead=diamond];\n" % (
            quoted[source], quoted[transition], guard[g])
        yield "  %s -> %s [arrowhead=diamond];\n" % (quoted[transition], quoted[target])
    yield "}\n"


def to_dot(net: Tapn, marking: Marking | None = None) -> str:
    """Render the net for graphviz (the joined ``dot_lines``)."""
    return "".join(dot_lines(net, marking))


def guard_inscription(guard: Guard) -> str:
    """Interval string in the external tool's convention (infinity as inf)."""
    if guard.upper is None:
        return "[%d,inf)" % guard.lower
    return "[%d,%d]" % (guard.lower, guard.upper)


def _xml_id(raw: str) -> str:
    """Replace every character that is not alphanumeric or '_' by '_'."""
    name = raw.replace(".", "_")
    # A net's own names hold only word characters and dots: str.isalnum
    # is the rule \w applies to each character other than '_'.
    if name.replace("_", "0").isalnum():
        return name
    return _NON_WORD.sub("_", raw)


def tapaal_xml_lines(tu: TranslationUnit):
    """Yield the interchange XML for the external timed-net tool line by line.

    The document has the pinned 3.x shape.  Places carry their initial
    token count and the explicit default invariant; transport arcs pair
    their input and output side with a shared interval.  A reachability
    query for the target marking is appended.  Loading the file in the
    external tool is a manual step.

    Ids pass through ``_xml_id`` and every other value except the label
    is built from digits and fixed text, so only the label is escaped.
    The layout is that of an ElementTree document indented by two spaces.
    """
    net = tu.net
    counts = {p: len(ages) for p, ages in tu.m0.items()}
    ids = _Memo(_xml_id)
    inscription = _Memo(guard_inscription)
    yield '<?xml version="1.0" encoding="utf-8"?>\n'
    yield '<pnml xmlns="%s">\n' % _TAPAAL_NS
    yield "  <!--format: %s-->\n" % TAPAAL_DIALECT
    net_tag = '<net active="true" id="%s" type="P/T net"' % _xml_id(net.name)
    if not (net.places or net.transitions or net.input_arcs or net.output_arcs
            or net.transport_arcs):
        yield "  %s />\n" % net_tag
    else:
        yield "  %s>\n" % net_tag
        for n, p in enumerate(net.places):
            pid = ids[p] = _xml_id(p)
            yield ('    <place id="%s" name="%s" initialMarking="%d" invariant="&lt; inf"'
                   ' positionX="%d" positionY="0" />\n' % (pid, pid, counts.get(p, 0), 120 * n))
        for n, (t, label) in enumerate(net.transitions):
            tid = ids[t] = _xml_id(t)
            label = "" if label is None else label.translate(_ATTR_ESCAPES)
            yield ('    <transition id="%s" name="%s" label="%s"'
                   ' positionX="%d" positionY="160" />\n' % (tid, tid, label, 120 * n))
        for place, transition, guard in net.input_arcs:
            yield ('    <inputArc source="%s" target="%s" inscription="%s" weight="1" />\n'
                   % (ids[place], ids[transition], inscription[guard]))
        for transition, place in net.output_arcs:
            yield ('    <outputArc source="%s" target="%s" weight="1" />\n'
                   % (ids[transition], ids[place]))
        for source, transition, target, guard in net.transport_arcs:
            yield ('    <transportArc source="%s" transition="%s" target="%s"'
                   ' inscription="%s" weight="1" />\n'
                   % (ids[source], ids[transition], ids[target], inscription[guard]))
        yield "  </net>\n"
    yield "  <queries>\n"
    yield '    <query name="target-reachability">EF (%s)</query>\n' % " and ".join(map(
        "%s = %d".__mod__, zip(map(ids.__getitem__, net.places),
                               map(tu.target.get, net.places, itertools.repeat(0)))))
    yield "  </queries>\n"
    yield "</pnml>\n"


def to_tapaal_xml(tu: TranslationUnit) -> str:
    """Interchange XML for the external timed-net tool (the joined ``tapaal_xml_lines``)."""
    return "".join(tapaal_xml_lines(tu))


def build_report_document(report: AnalysisReport, inputs=()) -> dict:
    """Assemble the schema-versioned report (see docs/report-schema.md)."""
    verdicts = []
    for n, v in enumerate(report.verdicts):
        witness = None
        if v.witness is not None:
            witness = [
                {"delay": step.delay, "transition": step.transition,
                 "label": step.label}
                for step in v.witness
            ]
        verdicts.append({
            "index": n,
            "status": v.status,
            "matching": [
                {"left": a, "right": b, "label": label}
                for (a, b), label in zip(v.matching.pairs, v.pair_labels)
            ],
            "witness": witness,
            "blocking": sorted(v.blocking),
            "states_explored": v.states_explored,
        })
    return {
        "schema": REPORT_SCHEMA,
        "inputs": [{"path": path, "sha256": digest} for path, digest in inputs],
        "units": list(report.unit_names),
        "policy": report.policy,
        "require_all": report.require_all,
        "overall": report.overall,
        "failure_classes": list(report.failure_classes),
        "matchings_considered": len(report.verdicts),
        "matchings_truncated": report.matchings_truncated,
        "verdicts": verdicts,
    }


def _json(value, indent: str = "") -> str:
    """``json.dumps(value, indent=2)`` for the dicts, lists, strings,
    integers, booleans and None of a report, without the pure-Python
    encoder that ``indent`` selects; strings go through json's own
    (C-accelerated) escaping."""
    if isinstance(value, str):
        return _quote(value)
    inner = indent + "  "
    if isinstance(value, dict):
        items = [_quote(k) + ": " + _json(v, inner) for k, v in value.items()]
        return "{\n%s%s\n%s}" % (inner, (",\n" + inner).join(items), indent) if items else "{}"
    if isinstance(value, list):
        items = [_json(v, inner) for v in value]
        return "[\n%s%s\n%s]" % (inner, (",\n" + inner).join(items), indent) if items else "[]"
    if isinstance(value, int) and not isinstance(value, bool):
        return int.__repr__(value)
    return json.dumps(value)


def to_report_json(report: AnalysisReport, inputs=()) -> str:
    """The report as ``json.dumps(build_report_document(...), indent=2)``
    followed by a newline, byte for byte."""
    return _json(build_report_document(report, inputs)) + "\n"
