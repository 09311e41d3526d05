"""Serializers: DOT drawings, TAPAAL-style XML, and the JSON report.

All exporters are pure functions of their inputs and emit byte-identical
output for identical input.
"""

from __future__ import annotations

import json
import re
import xml.etree.ElementTree as ET

from .integrate import AnalysisReport
from .tapn import Guard, Marking, Tapn
from .translate import TranslationUnit

REPORT_SCHEMA = "virtint-report/1"
TAPAAL_DIALECT = "tapaal-3.x"
_TAPAAL_NS = "http://www.informatik.hu-berlin.de/top/pnml/ptNetb"
_NON_WORD = re.compile(r"\W")


def _dot_quote(s: str) -> str:
    return '"%s"' % s.replace("\\", "\\\\").replace('"', '\\"')


def _dot_label(*parts: str) -> str:
    escaped = [p.replace("\\", "\\\\").replace('"', '\\"') for p in parts]
    return '"%s"' % "\\n".join(escaped)


def to_dot(net: Tapn, marking: Marking | None = None) -> str:
    """Render the net for graphviz; transport arcs get diamond arrowheads."""
    marking = marking or {}
    lines = ["digraph %s {" % _dot_quote(net.name), "  rankdir=LR;"]
    for p in net.places:
        ages = marking.get(p, ())
        if ages:
            label = _dot_label(p, "%d @ %s" % (len(ages), ",".join(str(a) for a in ages)))
            lines.append("  %s [shape=doublecircle, label=%s];"
                         % (_dot_quote(p), label))
        else:
            lines.append("  %s [shape=circle, label=%s];"
                         % (_dot_quote(p), _dot_quote(p)))
    for t in net.transitions:
        label = _dot_label(t.id) if t.label is None else _dot_label(t.id, t.label)
        lines.append("  %s [shape=box, label=%s];"
                     % (_dot_quote(t.id), label))
    for a in net.input_arcs:
        lines.append("  %s -> %s [label=%s];"
                     % (_dot_quote(a.place), _dot_quote(a.transition),
                        _dot_quote(str(a.guard))))
    for a in net.output_arcs:
        lines.append("  %s -> %s;" % (_dot_quote(a.transition), _dot_quote(a.place)))
    for a in net.transport_arcs:
        lines.append("  %s -> %s [label=%s, arrowhead=diamond];"
                     % (_dot_quote(a.source), _dot_quote(a.transition),
                        _dot_quote(str(a.guard))))
        lines.append("  %s -> %s [arrowhead=diamond];"
                     % (_dot_quote(a.transition), _dot_quote(a.target)))
    lines.append("}")
    return "\n".join(lines) + "\n"


def guard_inscription(guard: Guard) -> str:
    """Interval string in the external tool's convention (infinity as inf)."""
    if guard.upper is None:
        return "[%d,inf)" % guard.lower
    close = "]" if guard.upper_closed else ")"
    return "[%d,%d%s" % (guard.lower, guard.upper, close)


def _xml_id(raw: str) -> str:
    """Replace every character that is not alphanumeric or '_' by '_'."""
    return _NON_WORD.sub("_", raw)


def to_tapaal_xml(tu: TranslationUnit) -> str:
    """Interchange XML for the external timed-net tool (pinned 3.x shape).

    Places carry their initial token count and the explicit default
    invariant; transport arcs pair their input and output side with a
    shared interval.  A reachability query for the target marking is
    appended.  Loading the file in the external tool is a manual step.
    """
    net = tu.net
    counts = {p: len(ages) for p, ages in tu.m0.items()}
    root = ET.Element("pnml", {"xmlns": _TAPAAL_NS})
    root.append(ET.Comment("format: %s" % TAPAAL_DIALECT))
    net_el = ET.SubElement(root, "net", {
        "active": "true", "id": _xml_id(net.name), "type": "P/T net",
    })
    for n, p in enumerate(net.places):
        ET.SubElement(net_el, "place", {
            "id": _xml_id(p), "name": _xml_id(p),
            "initialMarking": str(counts.get(p, 0)),
            "invariant": "< inf",
            "positionX": str(120 * n), "positionY": "0",
        })
    for n, t in enumerate(net.transitions):
        ET.SubElement(net_el, "transition", {
            "id": _xml_id(t.id), "name": _xml_id(t.id),
            "label": t.label if t.label is not None else "",
            "positionX": str(120 * n), "positionY": "160",
        })
    for a in net.input_arcs:
        ET.SubElement(net_el, "inputArc", {
            "source": _xml_id(a.place), "target": _xml_id(a.transition),
            "inscription": guard_inscription(a.guard), "weight": "1",
        })
    for a in net.output_arcs:
        ET.SubElement(net_el, "outputArc", {
            "source": _xml_id(a.transition), "target": _xml_id(a.place),
            "weight": "1",
        })
    for a in net.transport_arcs:
        ET.SubElement(net_el, "transportArc", {
            "source": _xml_id(a.source), "transition": _xml_id(a.transition),
            "target": _xml_id(a.target),
            "inscription": guard_inscription(a.guard), "weight": "1",
        })
    queries = ET.SubElement(root, "queries")
    terms = []
    for p in net.places:
        terms.append("%s = %d" % (_xml_id(p), tu.target.get(p, 0)))
    query = ET.SubElement(queries, "query", {"name": "target-reachability"})
    query.text = "EF (%s)" % " and ".join(terms)
    ET.indent(root)
    body = ET.tostring(root, encoding="unicode")
    return '<?xml version="1.0" encoding="utf-8"?>\n' + body + "\n"


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


def to_report_json(report: AnalysisReport, inputs=()) -> str:
    return json.dumps(build_report_document(report, inputs), indent=2) + "\n"
