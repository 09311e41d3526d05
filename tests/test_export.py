import gc
import json
import random
import re
import time
import xml.etree.ElementTree as ET

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tapaal_reader
from conftest import FIXTURES, ROOT, load_arch, load_tcsd
from gen import random_tcsd_source
from virtint import cli, export, integrate, model, parser, tapn, translate
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
                           target={"p1": 1}, event_map={})


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


def _to_dot_reference(net, marking=None):
    """The list-building DOT renderer the streaming writer replaced."""
    q = export._dot_quote
    marking = marking or {}
    lines = ["digraph %s {" % q(net.name), "  rankdir=LR;"]
    for p in net.places:
        ages = marking.get(p, ())
        if ages:
            label = export._dot_label(p, "%d @ %s" % (len(ages), ",".join(str(a) for a in ages)))
            lines.append("  %s [shape=doublecircle, label=%s];" % (q(p), label))
        else:
            lines.append("  %s [shape=circle, label=%s];" % (q(p), q(p)))
    for t in net.transitions:
        label = export._dot_label(t.id) if t.label is None else export._dot_label(t.id, t.label)
        lines.append("  %s [shape=box, label=%s];" % (q(t.id), label))
    for a in net.input_arcs:
        lines.append("  %s -> %s [label=%s];" % (q(a.place), q(a.transition), q(str(a.guard))))
    for a in net.output_arcs:
        lines.append("  %s -> %s;" % (q(a.transition), q(a.place)))
    for a in net.transport_arcs:
        lines.append("  %s -> %s [label=%s, arrowhead=diamond];"
                     % (q(a.source), q(a.transition), q(str(a.guard))))
        lines.append("  %s -> %s [arrowhead=diamond];" % (q(a.transition), q(a.target)))
    lines.append("}")
    return "\n".join(lines) + "\n"


def _to_tapaal_xml_reference(tu):
    """The ElementTree serialiser the streaming writer replaced."""
    xml_id = export._xml_id
    net = tu.net
    counts = {p: len(ages) for p, ages in tu.m0.items()}
    root = ET.Element("pnml", {"xmlns": export._TAPAAL_NS})
    root.append(ET.Comment("format: %s" % export.TAPAAL_DIALECT))
    net_el = ET.SubElement(root, "net", {
        "active": "true", "id": xml_id(net.name), "type": "P/T net",
    })
    for n, p in enumerate(net.places):
        ET.SubElement(net_el, "place", {
            "id": xml_id(p), "name": xml_id(p),
            "initialMarking": str(counts.get(p, 0)),
            "invariant": "< inf",
            "positionX": str(120 * n), "positionY": "0",
        })
    for n, t in enumerate(net.transitions):
        ET.SubElement(net_el, "transition", {
            "id": xml_id(t.id), "name": xml_id(t.id),
            "label": t.label if t.label is not None else "",
            "positionX": str(120 * n), "positionY": "160",
        })
    for a in net.input_arcs:
        ET.SubElement(net_el, "inputArc", {
            "source": xml_id(a.place), "target": xml_id(a.transition),
            "inscription": export.guard_inscription(a.guard), "weight": "1",
        })
    for a in net.output_arcs:
        ET.SubElement(net_el, "outputArc", {
            "source": xml_id(a.transition), "target": xml_id(a.place),
            "weight": "1",
        })
    for a in net.transport_arcs:
        ET.SubElement(net_el, "transportArc", {
            "source": xml_id(a.source), "transition": xml_id(a.transition),
            "target": xml_id(a.target),
            "inscription": export.guard_inscription(a.guard), "weight": "1",
        })
    queries = ET.SubElement(root, "queries")
    terms = []
    for p in net.places:
        terms.append("%s = %d" % (xml_id(p), tu.target.get(p, 0)))
    query = ET.SubElement(queries, "query", {"name": "target-reachability"})
    query.text = "EF (%s)" % " and ".join(terms)
    ET.indent(root)
    body = ET.tostring(root, encoding="unicode")
    return '<?xml version="1.0" encoding="utf-8"?>\n' + body + "\n"


def _assert_matches_references(unit):
    xml = export.to_tapaal_xml(unit)
    assert xml == _to_tapaal_xml_reference(unit)
    ET.fromstring(xml)
    assert export.to_dot(unit.net, unit.m0) == _to_dot_reference(unit.net, unit.m0)


VALID_FIXTURES = sorted(p for p in FIXTURES.glob("*/*.tcsd") if p.parent.name != "invalid")


@pytest.mark.parametrize("path", VALID_FIXTURES,
                         ids=lambda p: "%s/%s" % (p.parent.name, p.name))
def test_writers_match_references_on_fixtures(path):
    _assert_matches_references(_unit(path.read_text(encoding="utf-8")))


def test_writers_match_references_on_generated_diagrams():
    rng = random.Random(31)
    for n in range(60):
        src = random_tcsd_source(rng, "G%d" % n, max_sut_events=30, max_depth=3)
        _assert_matches_references(_unit(src))


def _assert_tapaal_reads_back(unit):
    """The ``--tapaal`` document of ``unit`` read back is the unit's net,
    initial token counts and target, with ids mapped through ``_xml_id``."""
    x = export._xml_id
    net = unit.net
    assert all(a == 0 for ages in unit.m0.values() for a in ages)  # counts suffice
    expected = tapaal_reader.Document(
        x(net.name), tuple(map(x, net.places)),
        tuple((x(t.id), t.label) for t in net.transitions),
        tuple((x(a.place), x(a.transition), a.guard) for a in net.input_arcs),
        tuple((x(a.transition), x(a.place)) for a in net.output_arcs),
        tuple((x(a.source), x(a.transition), x(a.target), a.guard)
              for a in net.transport_arcs),
        {x(p): len(unit.m0.get(p, ())) for p in net.places},
        {x(p): unit.target.get(p, 0) for p in net.places})
    assert tapaal_reader.read(export.to_tapaal_xml(unit)) == expected


@pytest.mark.parametrize("path", VALID_FIXTURES,
                         ids=lambda p: "%s/%s" % (p.parent.name, p.name))
def test_tapaal_export_reads_back_on_fixtures(path):
    _assert_tapaal_reads_back(_unit(path.read_text(encoding="utf-8")))


def test_tapaal_export_reads_back_on_generated_diagrams():
    rng = random.Random(47)
    for n in range(240):
        src = random_tcsd_source(rng, "G%d" % n, max_depth=3, nest_in_timeouts=n % 2 == 1)
        _assert_tapaal_reads_back(_unit(src))


def test_writers_escape_labels_like_the_references():
    src = ('tcsd T { sut S test A msg A -> S : "a&b<c>d\\"e\tf\rg\\\nh" '
           'msg S -> A : "Ström → 日本 \U0001F600" msg A -> S : "&amp;" }')
    unit = _unit(src)
    labels = [t.label for t in unit.net.transitions if t.label]
    assert labels == ['a&b<c>d"e\tf\rg\nh', "Ström → 日本 \U0001F600", "&amp;"]
    _assert_matches_references(unit)
    ns = "{%s}" % export._TAPAAL_NS
    parsed = [t.get("label") for t in
              ET.fromstring(export.to_tapaal_xml(unit)).iter(ns + "transition")]
    assert [lab for lab in parsed if lab] == labels


def test_writers_match_references_on_empty_net():
    net = Tapn("empty", (), (), (), (), ())
    unit = TranslationUnit(tcsd=None, net=net, m0={}, target={}, event_map={})
    _assert_matches_references(unit)


def _awkward_unit(input_arcs=(), output_arcs=(), transport_arcs=()):
    """A hand-built unit whose names need quoting or collide as XML ids."""
    places = ('p"0', "p\\1", "a.b", "a-b", "Ström.P2", "日本-3", 'q\\"x', "a_b")
    transitions = (Transition('t"0'), Transition("t\\1", 'lab"el\\'),
                   Transition("a.b.T", "x"), Transition("a-b-T"), Transition("Ström.T9", "ü"))
    guards = (tapn.ANY_AGE, tapn.at_most(3), tapn.exact(7), Guard(2, 5))
    inputs = [tapn.InputArc(p, t.id, guards[n % 4])
              for n, (p, t) in enumerate(zip(places, transitions))]
    outputs = [tapn.OutputArc(t.id, p) for t, p in zip(transitions, reversed(places))]
    transports = [TransportArc(places[-1 - n], t.id, places[n], guards[-1 - n % 4])
                  for n, t in enumerate(transitions)]
    net = Tapn("Awk.ward-net", places, transitions,
               tuple(inputs) + tuple(input_arcs), tuple(outputs) + tuple(output_arcs),
               tuple(transports) + tuple(transport_arcs))
    return TranslationUnit(tcsd=None, net=net, m0={'p"0': (0, 3, 3), "a.b": (1,)},
                           target={"a-b": 1, "日本-3": 2}, event_map={})


def test_writers_match_references_on_awkward_names():
    unit = _awkward_unit()
    unit.net.check()
    assert export._xml_id("a.b") == export._xml_id("a-b") == export._xml_id("a_b")
    _assert_matches_references(unit)
    dot = export.to_dot(unit.net, unit.m0)
    assert '"q\\\\\\"x" [shape=circle, label="q\\\\\\"x"];' in dot
    # Three places keep their names in DOT and share one XML id.
    assert [dot.count('  "%s" [shape=' % p) for p in ("a.b", "a-b", "a_b")] == [1, 1, 1]
    assert export.to_tapaal_xml(unit).count('<place id="a_b" name="a_b"') == 3


def test_writers_match_references_on_arcs_outside_the_net():
    # Arcs whose ends are not nodes of the net still export, quoted as the
    # references quote them.
    unit = _awkward_unit(
        input_arcs=[tapn.InputArc('ghost"place', 't"0', tapn.at_most(9)),
                    tapn.InputArc("a.b", "ghost.T", tapn.ANY_AGE)],
        output_arcs=[tapn.OutputArc("ghost\\T", "Ström.P2"), tapn.OutputArc("t\\1", "nowhere-")],
        transport_arcs=[TransportArc("ghost-1", "ghost.1", "ghost_1", Guard(4, None))])
    with pytest.raises(ValueError):
        unit.net.check()
    _assert_matches_references(unit)
    assert '  "ghost\\"place" -> "t\\"0" [label="[0,9]"];\n' in export.to_dot(unit.net)
    assert '<transportArc source="ghost_1" transition="ghost_1" target="ghost_1"' \
        in export.to_tapaal_xml(unit)


def test_writers_match_references_on_a_merged_net():
    tcsds = [load_tcsd(FIXTURES / "timing" / name)
             for name in ("window_a.tcsd", "window_b.tcsd")]
    arch = load_arch(FIXTURES / "timing" / "windows.arch")
    units = [translate.translate(t) for t in tcsds]
    imap = integrate.build_instance_map(arch, tcsds)
    matchings = list(integrate.enumerate_matchings(units, imap))
    assert matchings
    for matching in matchings:
        merged = integrate.merge(units, matching)
        assert len(merged.m0) == 2
        _assert_matches_references(merged)


def test_writers_match_golden_files():
    unit = _unit((FIXTURES / "bscu" / "tc_switch.tcsd").read_text(encoding="utf-8"))
    golden = ROOT / "tests" / "golden"
    assert export.to_dot(unit.net, unit.m0).encode() == (golden / "tc_switch.dot").read_bytes()
    assert export.to_tapaal_xml(unit).encode() == (golden / "tc_switch.xml").read_bytes()


# Fixture set -> (diagrams, architecture, extra options, exit code).
GOLDEN_REPORTS = {
    "bscu": (["tc_command1", "tc_monitor1", "tc_switch"], "bscu", [], 1),
    "bscu_repaired": (["tc_command1", "tc_monitor1", "tc_switch"], "bscu", [], 0),
    "timing": (["window_a", "window_b"], "windows", [], 1),
    "require_all": (["tc_twice_a", "tc_twice_b"], "twice", ["--require-all"], 1),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_REPORTS))
def test_reports_match_golden_files(name, tmp_path, monkeypatch, capsys):
    # Pins verdicts, witnesses, blocking labels and states_explored.  The
    # golden files were written from the repository root with these
    # relative paths, which the report records.
    files, arch, extra, code = GOLDEN_REPORTS[name]
    monkeypatch.chdir(ROOT)
    out = tmp_path / "report.json"
    argv = ["check", *("fixtures/%s/%s.tcsd" % (name, f) for f in files),
            "--arch", "fixtures/%s/%s.arch" % (name, arch), *extra, "--report", str(out)]
    assert cli.main(argv) == code
    capsys.readouterr()
    golden = ROOT / "tests" / "golden" / ("%s.report.json" % name)
    assert out.read_bytes() == golden.read_bytes()


def test_translate_files_equal_the_string_writers(tmp_path, capsys):
    big = tmp_path / "big.tcsd"  # its documents take several writes
    big.write_text(_front_end_source(70), encoding="utf-8")
    for path in (FIXTURES / "bscu" / "tc_switch.tcsd", big):
        dot, xml = tmp_path / "net.dot", tmp_path / "net.xml"
        assert cli.main(["translate", str(path), "--dot", str(dot), "--tapaal", str(xml)]) == 0
        capsys.readouterr()
        unit = _unit(path.read_text(encoding="utf-8"))
        assert dot.read_bytes() == export.to_dot(unit.net, unit.m0).encode()
        assert xml.read_bytes() == export.to_tapaal_xml(unit).encode()
    assert len(xml.read_text().splitlines()) > 2 * 256


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


_text = st.text(st.sampled_from('ab"\\/\x00\x01\x1f\x7f\t\n\r\u00e9\u2028\ufeff\U0001f600'),
                max_size=6)
_steps = st.lists(st.builds(tapn.TraceStep, st.integers(0, 10**12), _text,
                            st.none() | _text, st.just(())), max_size=3)
_verdicts = st.builds(
    lambda status, pairs, witness, blocking, states: integrate.Verdict(
        status, integrate.SyncMatching(tuple((a, b) for a, b, _ in pairs)),
        tuple(label for _, _, label in pairs), witness, tuple(blocking), states),
    st.sampled_from(["consistent", "ordering-deadlock", "timing-conflict",
                     "bound-exceeded"]),
    st.lists(st.tuples(_text, _text, _text), max_size=3),
    st.none() | _steps, st.lists(_text, max_size=3), st.integers(0, 10**9))
_reports = st.builds(integrate.AnalysisReport,
                     st.sampled_from(["consistent", "inconsistent", "inconclusive"]),
                     st.lists(_verdicts, max_size=4), st.sampled_from(["maximal", "strict"]),
                     st.booleans(), st.booleans(), st.lists(_text, max_size=3).map(tuple))


@settings(max_examples=300, deadline=None)
@given(_reports, st.lists(st.tuples(_text, _text), max_size=3))
def test_report_writer_equals_json_dumps(report, inputs):
    doc = export.build_report_document(report, inputs)
    assert export.to_report_json(report, inputs) == json.dumps(doc, indent=2) + "\n"


def _front_end_source(messages):
    """A valid diagram of ``messages`` messages, every construct repeated."""
    rounds = messages // 10
    lines = ["tcsd Big {", "  sut S", "  test A", "  test B"]
    for r in range(rounds):
        m = "r%d_" % r
        lines += [
            "  msg A -> S : %sa" % m,
            "  par {", "    op { msg S -> A : %sb }" % m, "    op { msg B -> S : %sc }" % m, "  }",
            "  timeout 3 {", "    msg S -> B : %sd" % m, "    alt {",
            "      op { msg A -> S : %se }" % m, "      op { msg B -> S : %sf }" % m,
            "    }", "  }",
            "  loop 2 { strict { msg S -> A : %sg } }" % m,
            '  opt { msg A -> S : "%sh label" msg S -> A : %si }' % (m, m),
            "  msg S -> B : %sj" % m,
            "  at %d" % (r + 1),
        ]
    lines.append("}")
    # A comment on every line makes the source long for its work, as a
    # rescan of the source per statement would pay for.
    return "".join("%-40s # %s\n" % (line, "c" * 120) for line in lines)


def _front_end_seconds(src):
    """Seconds to parse, validate, translate and export ``src``, per stage,
    with the cyclic collector paused as the CLI pauses it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t = [time.perf_counter()]
        tcsd = parser.parse_tcsd(src).tcsd
        t.append(time.perf_counter())
        checked = model.validate(tcsd)
        t.append(time.perf_counter())
        unit = translate.translate(checked.tcsd)
        t.append(time.perf_counter())
        "".join(export.dot_lines(unit.net, unit.m0))
        "".join(export.tapaal_xml_lines(unit))
        t.append(time.perf_counter())
    finally:
        if enabled:
            gc.enable()
    assert checked.ok, checked.violations
    return [b - a for a, b in zip(t, t[1:])]


def test_front_end_time_grows_linearly_with_diagram_size():
    # Eight times the messages should take about eight times as long in
    # each stage; on a 2-CPU Xeon VM validate and translate take 12-15
    # times as long, as their tables outgrow the caches.  A step that
    # rescans the source or the diagram per statement heads for 64: one
    # that slices off the rest of the source makes parsing take over 100
    # times as long.  Sizes alternate so that a slow spell slows both, and
    # each stage keeps its fastest run.
    small, large = _front_end_source(2000), _front_end_source(16000)
    best = {}
    for _ in range(3):
        for src in (small, large):
            best[src] = [min(pair) for pair in zip(best.get(src, [float("inf")] * 4),
                                                   _front_end_seconds(src))]
    ratios = [b / a for a, b in zip(best[small], best[large])]
    assert max(ratios) < 24, dict(zip(("parse", "validate", "translate", "export"), ratios))
