import contextlib
import io
import random
import re
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import parser_reference
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
    ("architecture A { components C, D bind T { sut = C M -> Valve } }",
     "1:56: unknown component 'Valve'"),
    ("architecture A { components C, D, E bind T { sut = C M -> D\n  M -> E } }",
     "2:3: instance 'M' mapped twice"),
])
def test_architecture_errors(src, needle):
    with pytest.raises(ParseError) as err:
        parser.parse_architecture(src)
    assert needle in str(err.value)


def test_round_trip_on_fixture_files():
    for path in sorted(FIXTURES.rglob("*.tcsd")):
        if "invalid" in str(path):
            continue
        first = parser.parse_tcsd(path.read_text(), filename=str(path)).tcsd
        printed = parser.format_tcsd(first)
        second = parser.parse_tcsd(printed).tcsd
        assert canonical_form(first) == canonical_form(second), path


def test_round_trip_on_random_sources():
    for nest in (False, True):  # blocks in timeouts, or only messages
        rng = random.Random(4711)
        for n in range(40):
            src = random_tcsd_source(rng, "R%d" % n, nest_in_timeouts=nest)
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


def _blocks(rng, depth):
    """Random statements with timeouts round any block, strict ones too."""
    out = []
    for _ in range(rng.randint(1, 3)):
        head = rng.choice(["strict", "strict", "opt", "loop 2", "timeout 3", "timeout %d"
                           % rng.randint(1, 9), "par", "alt", "msg", "msg"])
        if depth == 4 or head == "msg":
            out.append(rng.choice(["msg A -> S : m", "msg S -> A : n"]))
        elif head in ("par", "alt"):
            out.append("%s { op { %s } op { %s } }"
                       % (head, _blocks(rng, depth + 1), _blocks(rng, depth + 1)))
        else:
            out.append("%s { %s }" % (head, _blocks(rng, depth + 1)))
    return " ".join(out)


@pytest.mark.parametrize("body", [
    "timeout 7 { timeout 6 { timeout 5 { msg A -> S : a msg S -> A : b } msg A -> S : c } "
    "strict { msg S -> A : d } }",
    "timeout 5 { timeout 3 { opt { msg S -> A : a } msg A -> S : b } } msg S -> A : c",
], ids=["nested-ends", "same-anchors"])
def test_timeouts_from_one_anchor_print_outermost_first(body):
    first = parser.parse_tcsd("tcsd T { sut S test A %s }" % body).tcsd
    assert len({c.start for c in first.timeouts}) == 1
    printed = parser.format_tcsd(first)
    second = parser.parse_tcsd(printed).tcsd
    assert canonical_form(first) == canonical_form(second)
    assert parser.format_tcsd(second) == printed


def test_round_trip_of_timeouts_round_blocks():
    rng = random.Random(7)
    checked = 0
    for _ in range(300):
        first = parser.parse_tcsd("tcsd T { sut S test A %s }" % _blocks(rng, 0)).tcsd
        if not model.validate(first).ok:
            continue
        checked += 1
        printed = parser.format_tcsd(first)
        second = parser.parse_tcsd(printed).tcsd
        assert canonical_form(first) == canonical_form(second), printed
        assert parser.format_tcsd(second) == printed
    assert checked > 80


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


def test_an_empty_label_on_a_plain_line_is_a_parse_error():
    # The pattern would take the statement whole but refuses "": the token
    # path reports it at the label, after an undeclared instance.
    src = 'tcsd T { sut S test A\n  msg A -> S : "" }'
    with pytest.raises(ParseError) as err:
        parser.parse_tcsd(src)
    assert str(err.value) == "<tcsd>:2:16: empty label"
    assert _outcome(parser.parse_tcsd, src) == _outcome(parser_reference.parse_tcsd, src)
    with pytest.raises(ParseError) as err:
        parser.parse_tcsd(src.replace("-> S", "-> Q"))
    assert err.value.message == "unknown instance 'Q'"


def test_an_empty_label_split_from_its_statement_is_a_parse_error():
    # Only the token path reads a statement split by a comment and a line
    # break; it refuses "" there too.
    src = 'tcsd T { sut S test A\n  msg A -> S : # c\n  ""\n  msg S -> A : y }'
    with pytest.raises(ParseError) as err:
        parser.parse_tcsd(src)
    assert str(err.value) == "<tcsd>:3:3: empty label"
    assert _outcome(parser.parse_tcsd, src) == _outcome(parser_reference.parse_tcsd, src)


def test_leading_byte_order_mark_is_skipped():
    bom = "\ufeff"
    src = (FIXTURES / "timing" / "window_a.tcsd").read_text(encoding="utf-8")
    assert parser.parse_tcsd(bom + src) == parser.parse_tcsd(src)  # spans too
    arch = (FIXTURES / "timing" / "windows.arch").read_text(encoding="utf-8")
    assert parser.parse_architecture(bom + arch) == parser.parse_architecture(arch)
    # Errors keep their columns; only one mark, and only at the start.
    for text in ("tcsd T { sut S test A msg A -> S : x } ?", "tcsd T {\n  ? }"):
        with pytest.raises(ParseError) as plain:
            parser.parse_tcsd(text)
        with pytest.raises(ParseError) as marked:
            parser.parse_tcsd(bom + text)
        assert str(marked.value) == str(plain.value)
    for text in (bom + bom + src, src.replace("tcsd", bom + "tcsd", 1), " " + bom + src):
        with pytest.raises(ParseError) as raised:
            parser.parse_tcsd(text)
        assert raised.value.message == "unexpected character '\\ufeff'"


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


def _outcome(parse, src):
    """What ``parse`` makes of ``src``: the diagram and every span by its
    key, or the error's text, span, message and expectations."""
    try:
        res = parse(src, "f.tcsd")
    except ParseError as exc:
        return str(exc), exc.span, exc.message, exc.expected
    return res.tcsd, dict(res.spans)


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
    assert _outcome(parser.parse_tcsd, src) == _outcome(parser_reference.parse_tcsd, src), src
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


def test_matches_reference_on_fixtures_and_generated_sources():
    sources = list(_FIXTURE_SOURCES)
    rng = random.Random(77)
    sources += [random_tcsd_source(rng, "G%d" % n, max_sut_events=40, max_depth=3)
                for n in range(60)]
    for src in sources:
        assert _outcome(parser.parse_tcsd, src) == _outcome(parser_reference.parse_tcsd, src)
        for eol in ("\r\n", "\r", "\n\n", "\r\n \r\n", "\n\r"):
            crlf = src.replace("\n", eol)
            assert _outcome(parser.parse_tcsd, crlf) == _outcome(parser_reference.parse_tcsd, crlf)


def test_plain_statements_never_reach_the_token_path(monkeypatch):
    src = ("tcsd T {\n  sut S\n  test A\n  test B\n"
           "  msg A -> S : go\n"  # the first statement, after a peeked token
           "\tmsg A->S:m1\n  msg S -> B : 42\n  msg B -> S : -7\n"
           '  msg S -> A : "a label {x} # no comment"\n  msg A -> S : at\n'
           "  at 3\n  timeout 5 {\n    msg A -> S : t1 msg S -> A : t2\n  }\n"
           "  par{ op{ msg A -> S : p1 } op { msg S -> B : p2 } }\n"
           "  alt { op { msg A -> S : a1 }\n  op { msg B -> S : a2 } }\n"
           "  opt { msg A -> S : o1 } strict { msg S -> A : s1 }\n"
           "  loop 0 { msg A -> S : l1 }\n"
           "}\n")
    expected = _outcome(parser_reference.parse_tcsd, src)
    calls = []
    real = parser._parse_statement
    monkeypatch.setattr(parser, "_parse_statement",
                        lambda c, b: calls.append((c.peek().value, c.span().line))
                        or real(c, b))
    assert _outcome(parser.parse_tcsd, src) == expected
    assert calls == []


@pytest.mark.parametrize("statement", [
    "msg A -> S : x # a comment inside\n",
    "msg A -> S :\n x",
    "msg A\r\n-> S : x",
    'msg A -> S : "a\\"b"',
    'msg A -> S : "a\\\nb"',
    'msg A -> S : "tab\there"',
    "msg A -> Q : x",
    "msg msg -> S : x",
    "msg A -> S : été",
    "msg A -> S : xé",
    "msgA -> S : x",
    "at3",
    "loop2 { msg A -> S : x }",
    "timeout 0 { msg A -> S : x }",
    "op { msg A -> S : x }",
    "at -0",
    "at ٣",
    "loop 2\n{ msg A -> S : x }",
    "par { msg A -> S : x }",
    "par { op { msg A -> S : x } }",
    "par { op\n{ msg A -> S : x } op # c\n{ msg S -> A : y } }",
    "alt { op { msg A -> S : x }\n}",
    "alt { op { msg A -> S : x } msg S -> A : y }",
])
def test_statements_off_the_fast_path_parse_as_before(statement):
    for src in ("tcsd T { sut S test A msg A -> S : first\n  %s\n}" % statement,
                "tcsd T { sut S test A msg A -> S : first\n  opt { %s }\n}" % statement):
        assert _outcome(parser.parse_tcsd, src) == _outcome(parser_reference.parse_tcsd, src)


def test_block_nesting_limit_is_reported_as_before():
    for depth in (parser.MAX_NESTING, parser.MAX_NESTING + 1):
        for head in ("opt {", "timeout 3 {", "par { op {"):
            closing = "} }" if head.startswith("par") else "}"
            src = ("tcsd T { sut S test A\n" + "opt {\n" * (depth - 1) + head
                   + " msg A -> S : x " + closing + "\n}" * (depth - 1) + "\n}\n")
            assert (_outcome(parser.parse_tcsd, src)
                    == _outcome(parser_reference.parse_tcsd, src)), (depth, head)



@pytest.mark.parametrize("statement", ["at %s", "timeout %s { msg A -> S : x msg S -> A : y }",
                                       "loop %s { msg A -> S : x }"])
def test_integer_longer_than_the_limit_is_a_parse_error(monkeypatch, statement):
    limit = parser.MAX_INT_DIGITS
    calls = []
    real = parser._parse_statement
    monkeypatch.setattr(parser, "_parse_statement",
                        lambda c, b: calls.append(c.span().line) or real(c, b))
    for digits in (limit, limit + 1, 5000):
        text = statement % ("1" * digits)
        column = 3 + text.index(" ") + 1
        # The statement would be matched whole, after the header or after
        # another statement, but with a long integer it is left to the
        # token path.
        for line, src in ((2, "tcsd T { sut S test A\n  %s\n}\n" % text),
                          (3, "tcsd T { sut S test A\n  msg A -> S : x\n  %s\n}\n" % text)):
            calls.clear()
            if digits <= limit:
                assert parser.parse_tcsd(src).tcsd.base.name == "T"
                assert calls == [], calls
                continue
            with pytest.raises(ParseError) as err:
                parser.parse_tcsd(src)
            assert str(err.value) == (
                "<tcsd>:%d:%d: integer of %d digits is longer than the limit of %d"
                % (line, column, digits, limit))
            assert calls == [line], calls
    # A minus sign is not a digit; the error comes before the range check.
    with pytest.raises(ParseError, match=r":2:6: integer of %d digits" % (limit + 1)):
        parser.parse_tcsd("tcsd T { sut S test A\n  at -%s\n}" % ("1" * (limit + 1)))
    # A long label is a word, not a number.
    [m] = parser.parse_tcsd("tcsd T { sut S test A\n  msg A -> S : %s\n}"
                            % ("1" * 5000)).tcsd.base.messages
    assert m.label == "1" * 5000

# -- a token-stream fuzzer that knows the grammar ----------------------------
#
# A program is a list of (separator, token, role) triples.  The role says
# what a token is in the grammar: "line" for one that starts a statement,
# a block's "}" or an operand, "name" for an instance, "label", "int", and
# "other".  Edits then work token by token.

_LABELS = ["m1", "go", "_x", "xé", "at", "42", "-7", "0", '"a b {c}"']
# Labels with escapes or characters a plain label cannot hold, and the
# empty label, which is a parse error.
_ODD_LABELS = ['""', '"a\\\\b"', '"a\\"b"', '"a\\\nb"', '"a\\\r\nb"', '"a\\\rb"',
               '"tab\tc"', '"cr\rd"', '"\\\x01"', '"\x7f"', '"open']
# Keywords and undeclared or odd names, for an instance.
_ODD_NAMES = ["msg", "at", "op", "sut", "test", "timeout", "Q", "Z9", "é", "Aé"]
_ODD_INTS = ["0", "-0", "-3", "007", "٣", "1²", "99999999999"]
# Any token in any place.
_ANY_TOKENS = ["-", "->", "{", "}", ":", "7", "@", "#", "x", "par", "op"]
# What may stand between two tokens, and before a line's first token.
_SEPARATORS = ["", " ", "\t", "\n", "\r", "\r\n", " # c\n", " # c\r\n", " #"]
_LINE_BREAKS = ["\n\n", "\r\r", "\r\n\r\n", "\n \n\t", " # c\n\n  ", "\r\n# c\r  "]


def _message(rnd, pairs):
    src, dst = rnd.choice(pairs)
    return [("msg", "line"), (src, "name"), ("->", "other"), (dst, "name"), (":", "other"),
            (rnd.choice(_LABELS), "label")]


def _statements(rnd, pairs, depth):
    """Tokens of zero to three statements, as (token, role) pairs."""
    toks = []
    for _ in range(rnd.randint(0, 3)):
        kind = rnd.choice(["msg", "msg", "msg", "at"] + ["timeout", "par", "alt", "opt",
                                                         "strict", "loop"] * (depth < 3))
        if kind == "msg":
            toks += _message(rnd, pairs)
        elif kind == "at":
            toks += [("at", "line"), (str(rnd.randint(0, 9)), "int")]
        elif kind in ("par", "alt"):
            toks += [(kind, "line"), ("{", "other")]
            for _ in range(rnd.randint(2, 3)):
                toks += [("op", "line"), ("{", "other"), *_statements(rnd, pairs, depth + 1),
                         ("}", "line")]
            toks.append(("}", "line"))
        else:
            toks.append((kind, "line"))
            if kind in ("timeout", "loop"):
                toks.append((str(rnd.randint(kind == "timeout", 4)), "int"))
            toks.append(("{", "other"))
            if kind == "timeout":  # most have an anchor
                toks += _message(rnd, pairs)
            toks += [*_statements(rnd, pairs, depth + 1), ("}", "line")]
    return toks


@st.composite
def _token_programs(draw):
    """A program built from the grammar, then edited token by token."""
    rnd = draw(st.randoms(use_true_random=False))
    tests = rnd.choice([["A"], ["A", "B"]])
    # Most messages have the SUT at one end.
    pairs = [pair for t in tests for pair in (("S", t), (t, "S"))] + [(tests[-1], "A")]
    toks = [("tcsd", "other"), ("T", "other"), ("{", "other"), ("sut", "line"), ("S", "other")]
    for name in tests:
        toks += [("test", "line"), (name, "other")]
    # The statement after the header is parsed token by token (the header
    # ends on a peeked token); the ones after it can be matched whole.
    toks += _message(rnd, [("S", "A")])
    header = len(toks)
    toks += [*_statements(rnd, pairs, 0), ("}", "line")]
    # One statement a line, its tokens one space apart.
    toks = [["\n  " if role == "line" else " ", tok, role] for tok, role in toks]
    for _ in range(rnd.randint(0, 3)):
        # Three edits in four fall after the header.
        lo = min(rnd.choice([0, header, header, header]), len(toks) - 1)
        k = rnd.randrange(lo, len(toks))
        edit = rnd.choice(["drop", "dup", "swap", "sep", "any", "typed", "typed", "typed"])
        if edit == "typed":  # a token of a role drawn first
            role = rnd.choice(["line", "name", "label", "int"])
            k = rnd.choice([i for i in range(lo, len(toks)) if toks[i][2] == role] or [k])
        role = toks[k][2]
        if edit == "drop":
            del toks[k]
        elif edit == "dup":
            toks.insert(k, list(toks[k]))
        elif edit == "swap" and k + 1 < len(toks):
            toks[k], toks[k + 1] = toks[k + 1], toks[k]
        elif edit == "sep" or (edit == "typed" and role == "line"):
            toks[k][0] = rnd.choice(_LINE_BREAKS if edit == "typed" else _SEPARATORS)
        elif edit == "any":
            toks[k][1] = rnd.choice(_ANY_TOKENS)
        elif role in ("name", "label", "int"):
            # An odd token of its kind, or the same token glued to the one before.
            if rnd.random() < 0.7:
                toks[k][1] = rnd.choice({"name": _ODD_NAMES, "label": _ODD_LABELS,
                                         "int": _ODD_INTS}[role])
            else:
                toks[k][0] = ""
    return "".join(sep + tok for sep, tok, _ in toks) + rnd.choice(["", "\n", " # end"])


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(_token_programs())
@example("tcsd T { sut S test A\n  msg A -> S : x\n  at 1 #")  # a comment ends the input
@example('tcsd T { sut S test A\n  msg A -> S : "a\\\nb" msg A -> S : y }')
def test_token_stream_fuzz_matches_reference_parser(src):
    assert _outcome(parser.parse_tcsd, src) == _outcome(parser_reference.parse_tcsd, src), src
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        path = Path(tmp) / "f.tcsd"
        path.write_bytes(src.encode("utf-8"))
        assert cli.main(["validate", str(path)]) in (0, 1, 2, 3)


def test_blank_lines_before_a_statement_off_the_fast_path_cost_linear_time():
    # Were a CRLF in the statement pattern's blanks readable two ways, a
    # statement the pattern fails to match after k blank lines would cost
    # 2**k steps: 24 lines would take tens of seconds.
    for blank in ("\r\n", " # c\r\n", "\r\r\n"):
        src = "tcsd T { sut S test A\n  msg A -> S : x\n" + blank * 24 + "  msg A : x }"
        t0 = time.perf_counter()
        assert _outcome(parser.parse_tcsd, src) == _outcome(parser_reference.parse_tcsd, src)
        assert time.perf_counter() - t0 < 1.0


# -- source positions: offsets resolved on demand ----------------------------

def test_spans_are_a_read_only_mapping():
    src = ("tcsd T {\r\n  sut S\r  test A\n  at 1\n"
           "  opt { msg A -> S : x }\n  timeout 3 { msg S -> A : y }\n}\n")
    res = parser.parse_tcsd(src, "t.tcsd")
    spans = res.spans
    assert list(spans) == ["tcsd:T"] + ["e%d" % n for n in range(1, 11)] + [
        "msg:e3", "msg:e9", "f1", "partition:0", "timeout:0"]
    assert len(spans) == 16 and dict(spans) == dict(spans.items())
    assert str(spans["tcsd:T"]) == "t.tcsd:1:1"
    assert str(spans["msg:e3"]) == "t.tcsd:5:9" and str(spans["e3"]) == "t.tcsd:5:13"
    assert str(spans["f1"]) == "t.tcsd:5:3" and str(spans["e5"]) == "t.tcsd:5:3"
    assert str(spans["partition:0"]) == "t.tcsd:4:3" and str(spans["e1"]) == "t.tcsd:4:6"
    assert str(spans["timeout:0"]) == "t.tcsd:6:3"
    for key in ("e0", "e01", "e11", "e+1", "e\u0661", "f0", "f2", "msg:e4", "msg:e99",
                "partition:1", "partition:-0", "timeout:01", "tcsd:U", "tcsd", "S", "", 3, None):
        assert key not in spans and spans.get(key) is None
        with pytest.raises(KeyError):
            spans[key]
    with pytest.raises(TypeError):
        spans["e1"] = spans["e2"]


# Line ends as the lexer reads them, and the comments and labels around them.
_EOLS = ["\n", "\r\n", "\r", "\n\r", "\r\r\n"]
_COMMENTS = ["", "", ' # a "quoted" comment', ' # "', " # '\"'", " #"]
_LABELS_ACROSS_LINES = ['"a\\\nb"', '"a\\\r\nb"', '"a\\\rb"', '"raw\rcr"', '"cr\r\\\nlf"',
                        '"# not a comment"', '"a\\"', '"\\\\\r"']


@st.composite
def _line_end_programs(draw):
    """A grammar-built program whose line ends, comments and labels are
    redrawn; sometimes cut short, and sometimes after a byte-order mark."""
    src = draw(_token_programs())
    rnd = draw(st.randoms(use_true_random=False))
    pieces = re.split(r"(\r\n|\r|\n)", src)
    for k in range(1, len(pieces), 2):
        pieces[k] = rnd.choice(_COMMENTS) + rnd.choice(_EOLS)
    src = "".join(pieces)
    for _ in range(rnd.randint(0, 2)):  # a label across lines or holding a raw CR
        at = src.find(" : ", rnd.randrange(len(src) + 1))
        if at >= 0:
            end = re.compile(r"\S*").match(src, at + 3).end()
            src = src[:at + 3] + rnd.choice(_LABELS_ACROSS_LINES) + src[end:]
    if rnd.random() < 0.25:  # an error at the end of input
        src = src[:rnd.randrange(len(src) + 1)]
    return rnd.random() < 0.3, src


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(_line_end_programs())
@example((True, "tcsd T { sut S test A\r\n  msg A -> S : \"a\\\r\nb\rc\" # \"\r  at"))
@example((False, "tcsd T { sut S test A\r  msg A -> S : \"open\r\n}"))
def test_spans_and_errors_match_the_reference_across_line_ends(case):
    # The reference lexer counts lines as it goes and knows no byte-order
    # mark, so the marked source must read as the unmarked one does.
    marked, src = case
    ours = _outcome(parser.parse_tcsd, "\ufeff" + src if marked else src)
    assert ours == _outcome(parser_reference.parse_tcsd, src), src


# -- the block stack: nested blocks against the recursive reference -----------

_LONG = "1" * (parser.MAX_INT_DIGITS + 1)
# Statements the pattern takes whole, ones it leaves to the token path, and
# ones the token path must reject.
_FAST_STATEMENTS = ["msg A -> S : f", "msg S -> A : g", "at 3", 'msg S -> A : "q r"',
                    "strict { msg A -> S : s }"]
_TOKEN_STATEMENTS = ["msg A -> S : c # note", "msg A\n-> S : n", "at\n7", 'msg S -> A : "e\\"s"',
                     "opt\n{ msg S -> A : o }", "loop 2\n{ msg A -> S : l }", "msg A -> S : at"]
_REFUSED_STATEMENTS = ["op { msg A -> S : o }", "timeout 0 { msg A -> S : z }",
                       "loop %s { msg A -> S : d }" % _LONG, "at %s" % _LONG,
                       "timeout %s { msg A -> S : t }" % _LONG, "msg A -> Q : u",
                       'msg A -> S : ""']
# Block heads, as the pattern reads them and as only the token path does.
_HEADS = ["opt {", "strict {", "loop 2 {", "loop 0 {", "timeout 3 {", "par {", "alt {",
          "opt\n{", "strict # c\n{", "loop\t1 {", "loop 1\n{", "timeout\n4 {", "par\n{", "alt {"]
# An operand's head, as the pattern reads it and as only the token path does.
_OP_HEADS = ["op {", "op{", "op\n{", "op # c\n{"]


def _block_program(rnd, depth, heads=_HEADS, refused=0.03):
    """A diagram with ``depth`` blocks nested one in the next, each head
    drawn from ``heads``, and fast and token-path statements mixed in
    every block; with ``refused`` 0, only those nesting no block."""
    def statements():
        out = []
        for _ in range(rnd.randint(0, 2)):
            pool = _FAST_STATEMENTS if rnd.random() < 0.6 else _TOKEN_STATEMENTS
            if rnd.random() < refused:
                pool = _REFUSED_STATEMENTS
            out.append(rnd.choice([s for s in pool if refused or "{" not in s]))
        return out
    opening, closing = [], []
    for level in range(depth):
        head = rnd.choice(heads)
        body = (["msg A -> S : a%d" % level] if rnd.random() < 0.95 else []) + statements()
        rnd.shuffle(body)
        if head.startswith(("par", "alt")):
            opening.append("%s\n  %s\n%s" % (head, rnd.choice(_OP_HEADS), "\n".join(body)))
            closing.append("%s\n  }\n  op { msg S -> A : b%d }\n}" % ("\n".join(statements()),
                                                                    level))
        else:
            opening.append("%s\n%s" % (head, "\n".join(body)))
            closing.append("%s\n}" % "\n".join(statements()))
    return ("tcsd T {\n  sut S\n  test A\n  msg A -> S : first\n" + "\n".join(opening)
            + "\n" + "\n".join(statements() + ["msg S -> A : last"]) + "\n"
            + "\n".join(reversed(closing)) + "\n}\n")


@pytest.mark.parametrize("head", sorted(set(_HEADS)))
def test_every_block_head_at_and_past_the_nesting_limit_parses_as_the_reference(head):
    rnd = random.Random(head)
    for depth in (parser.MAX_NESTING, parser.MAX_NESTING + 1):
        for _ in range(3):
            src = _block_program(rnd, depth, heads=[head], refused=0)
            expected = _outcome(parser_reference.parse_tcsd, src)
            assert _outcome(parser.parse_tcsd, src) == expected
            assert isinstance(expected[0], str) == (depth > parser.MAX_NESTING)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.randoms(use_true_random=False),
       st.sampled_from([parser.MAX_NESTING, parser.MAX_NESTING + 1, 1, 2, 3, 5]))
def test_nested_blocks_parse_as_the_reference(rnd, depth):
    # About one program in three holds a statement the token path refuses.
    src = _block_program(rnd, depth, refused=0.5 / (3 * depth + 4))
    try:
        expected = _outcome(parser_reference.parse_tcsd, src)
    except ValueError:
        # The reference predates MAX_INT_DIGITS: int() refused the first
        # integer longer than the limit, which the parser reports there.
        at = src.index(_LONG)
        span = parser.SourceSpan("f.tcsd", src.count("\n", 0, at) + 1,
                                 at - src.rfind("\n", 0, at))
        message = "integer of %d digits is longer than the limit of %d" % (
            len(_LONG), parser.MAX_INT_DIGITS)
        expected = "%s: %s" % (span, message), span, message, ()
    assert _outcome(parser.parse_tcsd, src) == expected, src
