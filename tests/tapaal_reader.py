"""Read a ``--tapaal`` document back into the parts of a net.

Built on ``xml.etree`` and the format alone, not on ``virtint.export``,
so that the writer is checked against what the document says rather
than against a second writer built the same way.  Anything the format
does not allow fails an assertion.
"""

from __future__ import annotations

import re
import xml.etree.ElementTree as ET
from typing import NamedTuple

from virtint.tapn import Guard

_NS = "{http://www.informatik.hu-berlin.de/top/pnml/ptNetb}"
_GUARD = re.compile(r"\[(\d+),(?:(\d+)\]|inf\))\Z")
_TERM = re.compile(r"(\w+) = (\d+)\Z")


class Document(NamedTuple):
    name: str
    places: tuple[str, ...]
    transitions: tuple[tuple[str, str | None], ...]  # (id, label or None)
    input_arcs: tuple[tuple[str, str, Guard], ...]  # (place, transition, guard)
    output_arcs: tuple[tuple[str, str], ...]  # (transition, place)
    transport_arcs: tuple[tuple[str, str, str, Guard], ...]  # (source, transition, target, guard)
    marking: dict[str, int]  # initial token count per place
    target: dict[str, int]  # token count per place that the query asks for


def guard(inscription: str) -> Guard:
    """``[a,b]`` or ``[a,inf)`` as a guard."""
    m = _GUARD.match(inscription)
    assert m, inscription
    return Guard(int(m[1]), None if m[2] is None else int(m[2]))


def _attrs(element, *names, **fixed):
    """The values of ``names`` on ``element``, which must carry exactly
    those attributes and the ``fixed`` ones with their given values."""
    attrib = dict(element.attrib)
    for key, value in fixed.items():
        assert attrib.pop(key, None) == value, (element.tag, key, element.attrib)
    assert set(attrib) == set(names), (element.tag, element.attrib)
    return [attrib[n] for n in names]


def read(text: str) -> Document:
    root = ET.fromstring(text)
    assert root.tag == _NS + "pnml" and not root.attrib
    net, queries = root
    [name] = _attrs(net, "id", active="true", type="P/T net")
    places, transitions, marking = [], [], {}
    arcs = {"inputArc": [], "outputArc": [], "transportArc": []}
    for element in net:
        assert element.tag.startswith(_NS) and len(element) == 0 and not element.text
        tag = element.tag[len(_NS):]
        if tag == "place":
            pid, pname, count, _ = _attrs(element, "id", "name", "initialMarking",
                                          "positionX", invariant="< inf", positionY="0")
            assert pname == pid and pid not in marking
            places.append(pid)
            marking[pid] = int(count)
        elif tag == "transition":
            tid, tname, label, _ = _attrs(element, "id", "name", "label", "positionX",
                                          positionY="160")
            assert tname == tid
            transitions.append((tid, label or None))
        elif tag == "inputArc":
            source, target, inscription = _attrs(element, "source", "target",
                                                 "inscription", weight="1")
            arcs[tag].append((source, target, guard(inscription)))
        elif tag == "outputArc":
            arcs[tag].append(tuple(_attrs(element, "source", "target", weight="1")))
        else:
            assert tag == "transportArc", tag
            source, transition, target, inscription = _attrs(
                element, "source", "transition", "target", "inscription", weight="1")
            arcs[tag].append((source, transition, target, guard(inscription)))
    assert queries.tag == _NS + "queries" and not queries.attrib
    [query] = queries
    assert query.tag == _NS + "query" and query.attrib == {"name": "target-reachability"}
    assert query.text.startswith("EF (") and query.text.endswith(")"), query.text
    terms = query.text[4:-1]
    target = {}
    for term in terms.split(" and ") if terms else ():
        m = _TERM.match(term)
        assert m and m[1] not in target, term
        target[m[1]] = int(m[2])
    return Document(name, tuple(places), tuple(transitions), *map(tuple, arcs.values()),
                    marking, target)
