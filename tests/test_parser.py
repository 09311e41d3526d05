import contextlib
import io
import random
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from canon import canonical_form
from conftest import FIXTURES
from gen import random_tcsd_source
from virtint import cli, model, parser
from virtint.parser import ParseError


def test_minimal_program():
    res = parser.parse_tcsd("tcsd T { sut S test A msg A -> S : x }")
    tcsd = res.tcsd
    assert tcsd.base.name == "T"
    assert tcsd.sut == "S"
    assert len(tcsd.base.messages) == 1
    m = tcsd.base.messages[0]
    owner = {e.id: e.instance for evs in tcsd.base.events.values() for e in evs}
    assert owner[m.send] == "A"
    assert owner[m.receive] == "S"
    assert m.label == "x"


def test_partitions_and_timeout():
    res = parser.parse_tcsd(
        "tcsd T { sut S test A at 0 at 10 "
        "timeout 5 { msg A -> S : go msg S -> A : done } }")
    tcsd = res.tcsd
    assert [p.timestamp for p in tcsd.partitions] == [0, 10]
    assert len(tcsd.timeouts) == 1
    assert tcsd.timeouts[0].bound == 5
    # Anchors are the first and last SUT events of the block.
    sut_ids = [e.id for e in tcsd.base.events["S"]]
    assert sut_ids.index(tcsd.timeouts[0].start) < sut_ids.index(tcsd.timeouts[0].end)


def test_loop_fragment_and_round_trip():
    src = "tcsd T { sut S test A loop 2 { msg S -> A : st } }"
    first = parser.parse_tcsd(src).tcsd
    frag = first.base.fragments[0]
    assert frag.operator == "loop"
    assert frag.loop_bound == 2
    printed = parser.format_tcsd(first)
    second = parser.parse_tcsd(printed).tcsd
    assert canonical_form(first) == canonical_form(second)


def test_partition_line_covers_every_instance():
    res = parser.parse_tcsd("tcsd T { sut S test A test B at 3 }")
    part = res.tcsd.partitions[0]
    owner = {e.id: e.instance for evs in res.tcsd.base.events.values() for e in evs}
    assert sorted(owner[e] for e in part.events) == ["A", "B", "S"]


def test_ids_deterministic_across_parses():
    src = "tcsd T { sut S test A par { op { msg A -> S : x } op { msg S -> A : y } } }"
    assert parser.parse_tcsd(src).tcsd == parser.parse_tcsd(src).tcsd


def test_spans_inside_input():
    src = "tcsd T {\n  sut S\n  test A\n  msg A -> S : x\n  at 4\n}\n"
    res = parser.parse_tcsd(src, filename="f.tcsd")
    n_lines = src.count("\n")
    for span in res.spans.values():
        assert span.file == "f.tcsd"
        assert 1 <= span.line <= n_lines
        assert span.column >= 1


@pytest.mark.parametrize("src,needle", [
    ("tcsd T { sut S test S }", "duplicate instance"),
    ("tcsd T { sut S test A msg A -> Q : x }", "unknown instance"),
    ("tcsd T { sut S test A at -3 }", "partition time"),
    ("tcsd T { sut S test A timeout 0 { msg A -> S : x } }", "timeout bound"),
    ("tcsd T { sut S test A timeout 4 { } }", "no SUT event"),
    ("tcsd T { sut S test A par { op { msg A -> S : x } } }", "at least 2"),
    ("tcsd T { sut S test A msg A -> S : x", "unexpected end"),
    ("tcsd T { sut S }", "test"),
])
def test_parse_errors(src, needle):
    with pytest.raises(ParseError) as err:
        parser.parse_tcsd(src)
    assert needle in str(err.value)


def test_parse_error_carries_span_and_expectations():
    with pytest.raises(ParseError) as err:
        parser.parse_tcsd("tcsd T { sut S test A msg A : x }")
    assert err.value.span.line == 1
    assert err.value.expected == ("->",)


def test_architecture_parse():
    arch = parser.parse_architecture(
        "architecture BSCU { components Command1, Monitor1, Switch "
        "bind TC_Com { sut = Command1 M -> Monitor1 } }")
    assert arch.components == ("Command1", "Monitor1", "Switch")
    assert set(arch.bindings) == {"TC_Com"}
    assert arch.bindings["TC_Com"].sut_component == "Command1"
    assert arch.bindings["TC_Com"].instance_map == {"M": "Monitor1"}


def test_empty_architecture():
    arch = parser.parse_architecture("architecture Nil { }")
    assert arch.components == ()
    assert arch.bindings == {}


@pytest.mark.parametrize("src,needle", [
    ("architecture A { components C bind T { sut = Valve } }", "unknown component"),
    ("architecture A { components C, D bind T { sut = C } bind T { sut = D } }",
     "duplicate binding"),
    ("architecture A { components C, D bind T { sut = C M -> C } }",
     "own SUT component"),
    ("architecture A { components C, C }", "duplicate component"),
])
def test_architecture_errors(src, needle):
    with pytest.raises(ParseError) as err:
        parser.parse_architecture(src)
    assert needle in str(err.value)


def test_architecture_round_trip():
    src = ("architecture BSCU { components Command1, Monitor1, Switch "
           "bind TC_Com { sut = Command1 M -> Monitor1 Sw -> Switch } "
           "bind TC_Mon { sut = Monitor1 C -> Command1 } }")
    first = parser.parse_architecture(src)
    second = parser.parse_architecture(parser.format_architecture(first))
    assert first == second


def test_round_trip_on_fixture_files():
    for path in sorted(FIXTURES.rglob("*.tcsd")):
        if "invalid" in str(path):
            continue
        first = parser.parse_tcsd(path.read_text(), filename=str(path)).tcsd
        printed = parser.format_tcsd(first)
        second = parser.parse_tcsd(printed).tcsd
        assert canonical_form(first) == canonical_form(second), path


def test_round_trip_on_random_sources():
    rng = random.Random(4711)
    for n in range(40):
        src = random_tcsd_source(rng, "R%d" % n)
        first = parser.parse_tcsd(src).tcsd
        printed = parser.format_tcsd(first)
        second = parser.parse_tcsd(printed).tcsd
        assert canonical_form(first) == canonical_form(second), src


def test_fragment_borders_bracket_exactly_the_operand_events():
    rng = random.Random(2024)
    for n in range(150):
        tcsd = parser.parse_tcsd(random_tcsd_source(rng, "B%d" % n, max_sut_events=30,
                                                    max_depth=4)).tcsd
        for f in tcsd.base.fragments:
            body = {eid for op in f.operands for eid in op.events}
            for inst, line in tcsd.base.events.items():
                ids = [e.id for e in line]
                borders = [k for k, e in enumerate(line) if e.fragment == f.id]
                inside = {e.id for e in line} & body
                if not inside:
                    assert borders == []
                    continue
                enter, exit_ = borders
                assert line[enter].kind == "fragment-enter"
                assert line[exit_].kind == "fragment-exit"
                assert set(ids[enter + 1:exit_]) == inside
                assert exit_ - enter - 1 == len(inside)


def test_round_trip_after_validation_normalization():
    src = "tcsd T { sut S test A msg A -> S : x at 7 }"
    checked = model.validate(parser.parse_tcsd(src).tcsd)
    printed = parser.format_tcsd(checked.tcsd)
    reparsed = model.validate(parser.parse_tcsd(printed).tcsd)
    assert canonical_form(checked.tcsd) == canonical_form(reparsed.tcsd)


def test_comments_and_quoted_labels():
    src = ('tcsd T { # header\n  sut S\n  test A\n'
           '  msg A -> S : "weird label {x}" # trailing\n}\n')
    tcsd = parser.parse_tcsd(src).tcsd
    assert tcsd.base.messages[0].label == "weird label {x}"
    reparsed = parser.parse_tcsd(parser.format_tcsd(tcsd)).tcsd
    assert canonical_form(tcsd) == canonical_form(reparsed)


@pytest.mark.parametrize("ch", ["\x00", "\x08", "\x0b", "\x0c", "\x0e", "\x1f",
                                "\ud800", "\udfff", "\ufffe", "\uffff"])
@pytest.mark.parametrize("escape", ["", "\\"])
def test_labels_reject_characters_xml_cannot_hold(ch, escape):
    src = 'tcsd T { sut S test A\n  msg A -> S : "ab%s%s" }' % (escape, ch)
    with pytest.raises(ParseError) as err:
        parser.parse_tcsd(src)
    assert (err.value.span.line, err.value.span.column) == (2, 19 + len(escape))
    assert "U+%04X" % ord(ch) in str(err.value)


def test_labels_keep_characters_xml_can_hold():
    label = "\t\r\n\x7f\ud7ff\ue000\ufffd\U00010000"
    src = 'tcsd T { sut S test A msg A -> S : "\t\r\\\n\x7f\ud7ff\ue000\ufffd\U00010000" }'
    assert parser.parse_tcsd(src).tcsd.base.messages[0].label == label


def test_escaped_newline_in_label_counts_the_line():
    src = 'tcsd T { sut S test A msg A -> S : "a\\\nb" msg A -> S : @ }'
    with pytest.raises(ParseError) as err:
        parser.parse_tcsd(src)
    assert str(err.value.span) == "<tcsd>:2:17"
    res = parser.parse_tcsd(src.replace("@", "c"))
    assert res.spans[res.tcsd.base.messages[1].send].line == 2


def test_round_trip_of_label_with_newline():
    src = 'tcsd T { sut S test A msg A -> S : "a\\\nb\\\\" msg S -> A : c }'
    tcsd = parser.parse_tcsd(src).tcsd
    assert tcsd.base.messages[0].label == "a\nb\\"
    printed = parser.format_tcsd(tcsd)
    reparsed = parser.parse_tcsd(printed).tcsd
    assert canonical_form(tcsd) == canonical_form(reparsed)
    assert parser.format_tcsd(reparsed) == printed


@pytest.mark.parametrize("parse,src,error", [
    (parser.parse_tcsd, 'tcsd X { sut S bogus "a\nb" }',
     "<tcsd>:1:16: found 'bogus' (expected test)"),
    (parser.parse_tcsd, "tcsd X { sut S test T msg T -> S : a } } \u00b2",
     "<tcsd>:1:40: found '}' (expected end of input)"),
    (parser.parse_tcsd, "tcsd X { sut S test T msg T -> Q : a \u00b2",
     "<tcsd>:1:32: unknown instance 'Q'"),
    (parser.parse_architecture, "architecture A { components C, C \u00b2",
     "<arch>:1:32: duplicate component 'C'"),
])
def test_first_error_in_source_order_wins(parse, src, error):
    # Tokens are lexed as the parser reaches them, so a lexical error
    # further on (the unterminated string, the stray superscript two)
    # does not hide an earlier parse error.
    with pytest.raises(ParseError) as err:
        parse(src)
    assert str(err.value) == error


_FIXTURE_FILES = sorted(FIXTURES.rglob("*.tcsd"))
_FIXTURE_SOURCES = [path.read_text(encoding="utf-8") for path in _FIXTURE_FILES]
# Pieces of the grammar and characters the lexer treats specially.
_PIECES = st.sampled_from([
    "{", "}", ":", "->", "-", ",", "=", '"', "\\", "#", "\n", "\r", " ", "\t",
    "0", "7", "-3", "\u00b2", "\u0663", "x", "_", "\u00e9", "\x00", "\ufffe", "@",
    "msg", "at", "timeout", "par", "alt", "op", "opt", "strict", "loop",
    "test", "sut", "tcsd", "A", "S",
])
# (position, characters cut there or None for the rest of the source,
# text put there); a negative position is the end of the source.
_EDITS = st.lists(st.tuples(st.integers(-1, 10**6), st.integers(0, 6) | st.none(),
                            st.lists(_PIECES, max_size=3).map("".join)),
                  min_size=1, max_size=4)


def _mutated(k, edits):
    """Fixture source ``k`` with the edits applied in turn."""
    src = _FIXTURE_SOURCES[k]
    for at, cut, text in edits:
        at = at % (len(src) + 1) if at >= 0 else len(src)
        src = src[:at] + text + ("" if cut is None else src[at + cut:])
    return src


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.integers(0, len(_FIXTURE_SOURCES) - 1), _EDITS)
@example(0, [(-1, 0, "-")])  # the input ends inside a token
@example(0, [(-1, 0, '"\\')])
@example(0, [(-1, 0, "\r")])
@example(0, [(_FIXTURE_SOURCES[0].index(" : ") + 3, 4, '"a\\"b\\\\c"')])  # label a"b\c
def test_mutated_fixtures_raise_only_parse_errors_and_round_trip(k, edits):
    src = _mutated(k, edits)
    try:
        first = parser.parse_tcsd(src, filename="m.tcsd").tcsd
    except ParseError as exc:
        assert exc.span.file == "m.tcsd"
        assert exc.span.line >= 1 and exc.span.column >= 1
        return
    if model.validate(first).ok:
        second = parser.parse_tcsd(parser.format_tcsd(first)).tcsd
        assert canonical_form(first) == canonical_form(second), src


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.integers(0, len(_FIXTURE_SOURCES) - 1), _EDITS)
def test_cli_exits_0_to_3_on_mutated_fixtures(k, edits):
    # The mutated diagram is checked with the rest of its fixture set, over
    # that set's architecture (the bscu one for the invalid diagrams).
    original = _FIXTURE_FILES[k]
    siblings = [str(p) for p in sorted(original.parent.glob("*.tcsd")) if p != original]
    arch = next(original.parent.glob("*.arch"), FIXTURES / "bscu" / "bscu.arch")
    with tempfile.TemporaryDirectory() as tmp, \
            contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        path = Path(tmp) / original.name
        path.write_bytes(_mutated(k, edits).encode("utf-8"))
        for argv in (["validate", str(path)],
                     ["translate", str(path), "--dot", str(Path(tmp) / "net.dot"),
                      "--tapaal", str(Path(tmp) / "net.xml")],
                     ["check", str(path), *siblings, "--arch", str(arch),
                      "--max-states", "2000"]):
            assert cli.main(argv) in (0, 1, 2, 3), argv
