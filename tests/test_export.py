import json
import re
import xml.etree.ElementTree as ET

import pytest

from virtint import export, integrate, model, parser, tapn, translate
from virtint.tapn import Guard, Tapn, Transition, TransportArc
from virtint.translate import TranslationUnit


def _unit(src):
    checked = model.validate(parser.parse_tcsd(src).tcsd)
    return translate.translate(checked.tcsd)


def _check_dot_grammar(text):
    """Minimal structural check: one digraph, balanced braces, known lines."""
    lines = text.strip().splitlines()
    assert lines[0].startswith("digraph ") and lines[0].endswith("{")
    assert lines[-1] == "}"
    node = re.compile(r'^\s*"[^"]+" \[.*\];$')
    edge = re.compile(r'^\s*"[^"]+" -> "[^"]+"( \[.*\])?;$')
    for line in lines[1:-1]:
        if line.strip() in ("rankdir=LR;",):
            continue
        assert node.match(line) or edge.match(line), line


def test_dot_single_place():
    net = Tapn("one", ("p",), (), (), (), ())
    text = export.to_dot(net)
    assert text.count("shape=circle") == 1
    assert "->" not in text
    _check_dot_grammar(text)


def test_dot_start_arc_annotation():
    unit = _unit("tcsd T { sut S test A msg A -> S : x }")
    text = export.to_dot(unit.net, unit.m0)
    assert "[0,∞)" in text
    assert "doublecircle" in text  # the marked pre-start place
    assert "arrowhead=diamond" in text
    _check_dot_grammar(text)


def test_dot_deterministic():
    unit = _unit("tcsd T { sut S test A par { op { msg A -> S : x } "
                 "op { msg S -> A : y } } }")
    assert export.to_dot(unit.net, unit.m0) == export.to_dot(unit.net, unit.m0)


def _minimal_unit():
    net = Tapn("tiny", ("p0", "p1"), (Transition("t0"),), (), (),
               (TransportArc("p0", "t0", "p1", Guard(0)),))
    return TranslationUnit(tcsd=None, net=net, m0={"p0": (0,)},
                           target={"p1": 1}, event_map={},
                           transition_kinds={"t0": "message"},
                           wait_places=frozenset())


def test_tapaal_minimal_unit():
    text = export.to_tapaal_xml(_minimal_unit())
    root = ET.fromstring(text)
    ns = "{http://www.informatik.hu-berlin.de/top/pnml/ptNetb}"
    places = root.findall(".//%splace" % ns)
    transitions = root.findall(".//%stransition" % ns)
    assert len(places) == 2
    assert len(transitions) == 1
    assert sum(int(p.get("initialMarking")) for p in places) == 1
    assert all(p.get("invariant") == "< inf" for p in places)
    queries = root.findall(".//%squery" % ns)
    assert len(queries) == 1
    assert queries[0].text.startswith("EF (")
    assert "format: tapaal-3.x" in text


def test_tapaal_partition_inscription():
    unit = _unit("tcsd T { sut S test A msg A -> S : x at 5 }")
    text = export.to_tapaal_xml(unit)
    assert 'inscription="[5,5]"' in text
    assert 'inscription="[0,inf)"' in text
    ET.fromstring(text)  # well-formed


def test_tapaal_deterministic():
    unit = _unit("tcsd T { sut S test A msg A -> S : x at 5 }")
    assert export.to_tapaal_xml(unit) == export.to_tapaal_xml(unit)


def _xml_id_reference(raw):
    return "".join(ch if ch.isalnum() or ch == "_" else "_" for ch in raw)


@pytest.mark.parametrize("raw", [
    "p_12", "t:enter.f1", "a-b c", 'x"y<z>&', "", "__",
    "Ström", "naïve→x", "日本語", "٣٤", "²Ⅻ", "e\u0301", "\U0001F600", "\u200bzw",
])
def test_xml_id_matches_per_character_rule(raw):
    assert export._xml_id(raw) == _xml_id_reference(raw)


def test_xml_id_matches_per_character_rule_on_every_code_point():
    every = "".join(map(chr, range(0x110000)))
    assert export._xml_id(every) == _xml_id_reference(every)


def _report(sources, arch_src):
    tcsds = [model.validate(parser.parse_tcsd(s).tcsd).tcsd for s in sources]
    arch = parser.parse_architecture(arch_src)
    units = [translate.translate(t) for t in tcsds]
    imap = integrate.build_instance_map(arch, tcsds)
    return integrate.check_consistency(units, imap)


_ARCH = """
architecture Demo {
  components CompA, CompB
  bind TA { sut = CompA  B -> CompB }
  bind TB { sut = CompB  C -> CompA }
}
"""


def test_report_json_consistent_run():
    report = _report(["tcsd TA { sut S test B msg S -> B : m }",
                      "tcsd TB { sut R test C msg C -> R : m }"], _ARCH)
    doc = json.loads(export.to_report_json(report, [("a.tcsd", "00ff")]))
    assert doc["schema"] == "virtint-report/1"
    assert doc["overall"] == "consistent"
    assert doc["inputs"] == [{"path": "a.tcsd", "sha256": "00ff"}]
    [verdict] = doc["verdicts"]
    assert verdict["status"] == "consistent"
    assert verdict["witness"], "non-empty witness expected"
    assert all(set(step) == {"delay", "transition", "label"}
               for step in verdict["witness"])


def test_report_json_deadlock_blocking_sorted():
    report = _report(["tcsd TA { sut S test B msg S -> B : m1 msg S -> B : m2 }",
                      "tcsd TB { sut R test C msg C -> R : m2 msg C -> R : m1 }"],
                     _ARCH)
    doc = json.loads(export.to_report_json(report))
    [verdict] = doc["verdicts"]
    assert verdict["status"] == "ordering-deadlock"
    assert verdict["witness"] is None
    assert verdict["blocking"] == sorted(verdict["blocking"])
    assert doc["failure_classes"] == ["ordering-deadlock"]


def test_report_json_deterministic():
    report = _report(["tcsd TA { sut S test B msg S -> B : m }",
                      "tcsd TB { sut R test C msg C -> R : m }"], _ARCH)
    assert export.to_report_json(report) == export.to_report_json(report)
