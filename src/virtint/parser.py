"""Parsers for the ``.tcsd`` diagram DSL and the ``.arch`` binding DSL.

Grammar (see README for the full summary)::

    tcsd NAME { sut ID (test ID)+ STMT* }
    STMT := msg ID -> ID : LABEL
          | at INT
          | timeout INT { STMT* }
          | par { op { STMT* } op { STMT* } (op { STMT* })* }
          | alt { ... like par ... }
          | opt { STMT* } | strict { STMT* } | loop INT { STMT* }

    architecture NAME { components ID (, ID)* (bind NAME { sut = ID (ID -> ID)* })* }

Comments run from ``#`` to end of line.  Event and fragment ids are
synthesized in source order, so parsing the same bytes twice yields the
same ids.
"""

from __future__ import annotations

import re
from typing import Iterator, NamedTuple

from . import model
from .model import Event, Fragment, Message, Operand, PartitionLine, SequenceDiagram, Tcsd, Timeout


class SourceSpan(NamedTuple):
    file: str
    line: int
    column: int

    def __str__(self):
        return "%s:%d:%d" % (self.file, self.line, self.column)


class Binding(NamedTuple):
    tcsd: str
    sut_component: str
    instance_map: dict[str, str]


class Architecture(NamedTuple):
    name: str
    components: tuple[str, ...]
    bindings: dict[str, Binding]


class ParseResult(NamedTuple):
    tcsd: Tcsd
    spans: dict[str, SourceSpan]


class ParseError(Exception):
    def __init__(self, span: SourceSpan, message: str, expected: tuple[str, ...] = ()):
        self.span = span
        self.message = message
        self.expected = expected
        suffix = " (expected %s)" % ", ".join(expected) if expected else ""
        super().__init__("%s: %s%s" % (span, message, suffix))


KEYWORDS = frozenset(
    "tcsd sut test msg at timeout par alt opt strict loop op "
    "architecture components bind".split()
)

_PUNCT = {"{": "LBRACE", "}": "RBRACE", ":": "COLON", ",": "COMMA", "=": "EQUALS"}

_STMT_KEYWORDS = ("msg", "at", "timeout", "par", "alt", "opt", "strict", "loop")

# Characters XML 1.0 cannot carry: a label holding one has no TAPAAL export.
_XML_FORBIDDEN = re.compile(r"[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]").match

# Deepest block nesting accepted.  Parsing, validation and translation recurse
# per level; this keeps them well below the interpreter's recursion limit.
MAX_NESTING = 100


class Token(NamedTuple):
    kind: str  # IDENT KEYWORD INT STRING ARROW LBRACE RBRACE COLON COMMA EQUALS EOF
    value: str
    line: int
    column: int


def _lex(text: str, filename: str) -> Iterator[Token]:
    """Yield the tokens of ``text`` as the parser asks for them, ending
    with EOF; a lexical error is raised when the parser reaches it."""
    line, col, i, n = 1, 1, 0, len(text)
    while i < n:
        ch = text[i]
        # Outside strings a line ends with LF, CRLF or a lone CR.
        if ch == "\n" or (ch == "\r" and not text.startswith("\n", i + 1)):
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] not in "\r\n":
                i += 1
            continue
        start_line, start_col = line, col
        if ch == "-" and i + 1 < n and text[i + 1] == ">":
            yield Token("ARROW", "->", start_line, start_col)
            i += 2
            col += 2
            continue
        if ch in _PUNCT:
            yield Token(_PUNCT[ch], ch, start_line, start_col)
            i += 1
            col += 1
            continue
        if ch == '"':
            i += 1
            col += 1
            out = []
            while i < n and text[i] != '"':
                if text[i] == "\n":
                    raise ParseError(SourceSpan(filename, start_line, start_col),
                                     "unterminated string literal")
                ch = text[i]
                if ch == "\\" and i + 1 < n:
                    i += 1
                    col += 1
                    ch = text[i]
                    if ch == "\r":  # an escaped CRLF or CR line end reads as LF
                        i += text.startswith("\n", i + 1)
                        ch = "\n"
                if _XML_FORBIDDEN(ch):
                    raise ParseError(SourceSpan(filename, line, col),
                                     "character U+%04X is not allowed in a string"
                                     % ord(ch))
                out.append(ch)
                i += 1
                col += 1
                if ch == "\n":  # an escaped newline: the string goes on below
                    line, col = line + 1, 1
            if i >= n:
                raise ParseError(SourceSpan(filename, start_line, start_col),
                                 "unterminated string literal")
            i += 1
            col += 1
            yield Token("STRING", "".join(out), start_line, start_col)
            continue
        if ch == "-" or ch.isdecimal():  # the digits int() reads
            j = i + 1
            while j < n and text[j].isdecimal():
                j += 1
            word = text[i:j]
            if word == "-":
                raise ParseError(SourceSpan(filename, start_line, start_col),
                                 "stray '-'")
            yield Token("INT", word, start_line, start_col)
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            kind = "KEYWORD" if word in KEYWORDS else "IDENT"
            yield Token(kind, word, start_line, start_col)
            col += j - i
            i = j
            continue
        raise ParseError(SourceSpan(filename, start_line, start_col),
                         "unexpected character %r" % ch)
    yield Token("EOF", "", line, col)


class _Cursor:
    """The parser's view of the token stream: the current token only.

    The grammar is LL(1), so no more is ever needed.  A consumed token's
    successor is lexed on the next ``peek``, so errors are raised in the
    order the parser meets them, which is source order.
    """

    def __init__(self, tokens: Iterator[Token], filename):
        self.tokens = tokens
        self.filename = filename
        self.tok: Token | None = None  # None once consumed

    def peek(self) -> Token:
        if self.tok is None:
            self.tok = next(self.tokens)
        return self.tok

    def span(self, tok: Token | None = None) -> SourceSpan:
        tok = tok or self.peek()
        return SourceSpan(self.filename, tok.line, tok.column)

    def advance(self) -> Token:
        tok = self.peek()
        if tok.kind != "EOF":
            self.tok = None
        return tok

    def at_keyword(self, word) -> bool:
        tok = self.peek()
        return tok.kind == "KEYWORD" and tok.value == word

    _LEXEMES = {"ARROW": "->", "LBRACE": "{", "RBRACE": "}", "COLON": ":",
                "COMMA": ",", "EQUALS": "=", "IDENT": "identifier",
                "INT": "integer", "STRING": "string", "EOF": "end of input"}

    def expect(self, kind, value=None) -> Token:
        tok = self.peek()
        if tok.kind != kind or (value is not None and tok.value != value):
            want = value if value is not None else self._LEXEMES.get(kind, kind)
            raise ParseError(self.span(), "found %r" % (tok.value or tok.kind),
                             expected=(want,))
        return self.advance()

    def expect_keyword(self, word) -> Token:
        return self.expect("KEYWORD", word)

    def expect_int(self, what, minimum=0) -> tuple[int, Token]:
        tok = self.peek()
        if tok.kind != "INT":
            raise ParseError(self.span(), "found %r" % (tok.value or tok.kind),
                             expected=("integer",))
        value = int(tok.value)
        if value < minimum:
            raise ParseError(self.span(), "%s must be >= %d, got %d" % (what, minimum, value))
        return value, self.advance()


class _Collector(NamedTuple):
    # Each line's length when the block opened: the block's events are
    # always the suffix of every line from there on.
    starts: dict[str, int]
    events: list[str]
    frags: list[str]


class _DiagramBuilder:
    def __init__(self, filename):
        self.filename = filename
        self.name = ""
        self.sut = ""
        self.instances: list[str] = []
        self.lines: dict[str, list[Event]] = {}
        self.messages: list[Message] = []
        self.fragments: list[Fragment] = []
        self.partitions: list[PartitionLine] = []
        self.timeouts: list[Timeout] = []
        self.spans: dict[str, SourceSpan] = {}
        self.collectors: list[_Collector] = []
        self.strict_ids: set[str] = set()
        self._e = 0
        self._f = 0

    def declare(self, name, span):
        if name in self.instances:
            raise ParseError(span, "duplicate instance name %r" % name)
        self.instances.append(name)
        self.lines[name] = []

    def new_event(self, instance, kind, span, fragment=None, at=None) -> str:
        self._e += 1
        eid = "e%d" % self._e
        ev = Event(eid, instance, kind, fragment)
        if at is None:
            self.lines[instance].append(ev)
        else:
            self.lines[instance].insert(at, ev)
        for coll in self.collectors:
            coll.events.append(eid)
        self.spans[eid] = span
        return eid

    def build(self) -> Tcsd:
        sd = SequenceDiagram(
            name=self.name,
            instances=tuple(self.instances),
            events={i: tuple(evs) for i, evs in self.lines.items()},
            messages=tuple(self.messages),
            fragments=tuple(self.fragments),
        )
        return Tcsd(sd, self.sut, tuple(self.partitions), tuple(self.timeouts))


_ANCHOR_KINDS = (model.SEND, model.RECEIVE, model.FRAGMENT_ENTER, model.FRAGMENT_EXIT)


def _anchor_events(b: _DiagramBuilder, coll: _Collector) -> list[str]:
    """SUT events of a block a timeout may anchor on, in line order."""
    return [e.id for e in b.lines[b.sut][coll.starts[b.sut]:]
            if e.kind in _ANCHOR_KINDS and e.fragment not in b.strict_ids]


def _parse_statement(c: _Cursor, b: _DiagramBuilder):
    tok = c.peek()
    if tok.kind != "KEYWORD" or tok.value not in _STMT_KEYWORDS:
        raise ParseError(c.span(), "found %r" % (tok.value or tok.kind),
                         expected=_STMT_KEYWORDS + ("}",))
    if tok.value == "msg":
        c.advance()
        src = c.expect("IDENT")
        c.expect("ARROW")
        dst = c.expect("IDENT")
        c.expect("COLON")
        lab = c.peek()
        if lab.kind not in ("IDENT", "STRING", "INT", "KEYWORD"):
            raise ParseError(c.span(), "found %r" % (lab.value or lab.kind),
                             expected=("label",))
        c.advance()
        for name, t in ((src.value, src), (dst.value, dst)):
            if name not in b.instances:
                raise ParseError(c.span(t), "unknown instance %r" % name)
        send = b.new_event(src.value, model.SEND, c.span(src))
        recv = b.new_event(dst.value, model.RECEIVE, c.span(dst))
        b.messages.append(Message(send, lab.value, recv))
        b.spans["msg:%s" % send] = c.span(tok)
        return
    if tok.value == "at":
        c.advance()
        delta, dtok = c.expect_int("partition time", minimum=0)
        events = [b.new_event(inst, model.PARTITION, c.span(dtok)) for inst in b.instances]
        b.partitions.append(PartitionLine(tuple(events), delta))
        b.spans["partition:%d" % (len(b.partitions) - 1)] = c.span(tok)
        return
    if tok.value == "timeout":
        c.advance()
        bound, _ = c.expect_int("timeout bound", minimum=1)
        coll = _parse_block(c, b)
        # A timeout is no fragment: what it nests belongs to the enclosing operand.
        if b.collectors:
            b.collectors[-1].frags.extend(coll.frags)
        anchors = _anchor_events(b, coll)
        if not anchors:
            raise ParseError(c.span(tok), "timeout block contains no SUT event to anchor on")
        b.timeouts.append(Timeout(anchors[0], anchors[-1], bound))
        b.spans["timeout:%d" % (len(b.timeouts) - 1)] = c.span(tok)
        return
    if tok.value in ("par", "alt"):
        c.advance()
        c.expect("LBRACE")
        operands = []
        while c.at_keyword("op"):
            c.advance()
            operands.append(_parse_block(c, b))
        c.expect("RBRACE")
        if len(operands) < 2:
            raise ParseError(c.span(tok), "%s needs at least 2 operands" % tok.value)
        _finish_fragment(c, b, tok, operands, tok.value, None)
        return
    if tok.value in ("opt", "strict"):
        c.advance()
        coll = _parse_block(c, b)
        _finish_fragment(c, b, tok, [coll], tok.value, None)
        return
    if tok.value == "loop":
        c.advance()
        bound, _ = c.expect_int("loop bound", minimum=0)
        coll = _parse_block(c, b)
        _finish_fragment(c, b, tok, [coll], "loop", bound)
        return


def _finish_fragment(c, b, tok, operand_colls, operator, loop_bound):
    b._f += 1
    fid = "f%d" % b._f
    operands = tuple(
        Operand(tuple(coll.events), tuple(coll.frags)) for coll in operand_colls
    )
    span = c.span(tok)
    for inst in b.instances:
        start = operand_colls[0].starts[inst]
        if start == len(b.lines[inst]):
            continue
        b.new_event(inst, model.FRAGMENT_ENTER, span, fid, at=start)
        b.new_event(inst, model.FRAGMENT_EXIT, span, fid)
    b.fragments.append(Fragment(fid, operator, operands, loop_bound))
    if operator == "strict":
        b.strict_ids.add(fid)
    if b.collectors:
        b.collectors[-1].frags.append(fid)
    b.spans[fid] = span


def _parse_block(c: _Cursor, b: _DiagramBuilder) -> _Collector:
    """Parse ``{ STMT* }`` and collect the events/fragments created inside."""
    brace = c.expect("LBRACE")
    if len(b.collectors) >= MAX_NESTING:
        raise ParseError(c.span(brace), "blocks nested deeper than %d" % MAX_NESTING)
    coll = _Collector({inst: len(evs) for inst, evs in b.lines.items()}, [], [])
    b.collectors.append(coll)
    while c.peek().kind != "RBRACE":
        if c.peek().kind == "EOF":
            raise ParseError(c.span(), "unexpected end of input", expected=("}",))
        _parse_statement(c, b)
    c.expect("RBRACE")
    b.collectors.pop()
    return coll


def parse_tcsd(source: str, filename: str = "<tcsd>") -> ParseResult:
    """Parse one diagram; the result is raw and still needs ``model.validate``."""
    c = _Cursor(_lex(source, filename), filename)
    b = _DiagramBuilder(filename)
    head = c.expect_keyword("tcsd")
    name = c.expect("IDENT")
    b.name = name.value
    b.spans["tcsd:%s" % name.value] = c.span(head)
    c.expect("LBRACE")
    c.expect_keyword("sut")
    sut = c.expect("IDENT")
    b.declare(sut.value, c.span(sut))
    b.sut = sut.value
    c.expect_keyword("test")
    t = c.expect("IDENT")
    b.declare(t.value, c.span(t))
    while c.at_keyword("test"):
        c.advance()
        t = c.expect("IDENT")
        b.declare(t.value, c.span(t))
    while c.peek().kind != "RBRACE":
        if c.peek().kind == "EOF":
            raise ParseError(c.span(), "unexpected end of input", expected=("}",))
        _parse_statement(c, b)
    c.expect("RBRACE")
    c.expect("EOF")
    return ParseResult(b.build(), b.spans)


def parse_architecture(source: str, filename: str = "<arch>") -> Architecture:
    c = _Cursor(_lex(source, filename), filename)
    c.expect_keyword("architecture")
    name = c.expect("IDENT").value
    c.expect("LBRACE")
    components: list[str] = []
    if c.at_keyword("components"):
        c.advance()
        while c.peek().kind == "IDENT":
            tok = c.advance()
            if tok.value in components:
                raise ParseError(c.span(tok), "duplicate component %r" % tok.value)
            components.append(tok.value)
            if c.peek().kind == "COMMA":
                c.advance()
            else:
                break
    bindings: dict[str, Binding] = {}
    while c.at_keyword("bind"):
        c.advance()
        target = c.expect("IDENT")
        if target.value in bindings:
            raise ParseError(c.span(target), "duplicate binding for %r" % target.value)
        c.expect("LBRACE")
        c.expect_keyword("sut")
        c.expect("EQUALS")
        sut_comp = c.expect("IDENT")
        if sut_comp.value not in components:
            raise ParseError(c.span(sut_comp), "unknown component %r" % sut_comp.value)
        imap: dict[str, str] = {}
        while c.peek().kind == "IDENT":
            inst = c.advance()
            c.expect("ARROW")
            comp = c.expect("IDENT")
            if comp.value not in components:
                raise ParseError(c.span(comp), "unknown component %r" % comp.value)
            if comp.value == sut_comp.value:
                raise ParseError(
                    c.span(comp),
                    "test instance %r mapped to the binding's own SUT component" % inst.value,
                )
            if inst.value in imap:
                raise ParseError(c.span(inst), "instance %r mapped twice" % inst.value)
            imap[inst.value] = comp.value
        c.expect("RBRACE")
        bindings[target.value] = Binding(target.value, sut_comp.value, imap)
    c.expect("RBRACE")
    c.expect("EOF")
    return Architecture(name, tuple(components), bindings)


# --------------------------------------------------------------------------
# Pretty-printing (round-trip partner of the parsers).


def _label_text(label: str) -> str:
    if label and all(ch.isalnum() or ch == "_" for ch in label):
        return label
    escaped = label.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\\n")
    return '"%s"' % escaped


def format_tcsd(tcsd: Tcsd) -> str:
    """Render a diagram back into DSL source.

    The output reparses to a structurally identical diagram (up to event id
    renaming).  Only diagrams whose timeouts anchor on block boundaries, as
    all parser-produced diagrams do, are printable.
    """
    base = tcsd.base
    owner = {e.id: inst for inst, evs in base.events.items() for e in evs}
    msg_by_event = {}
    for m in base.messages:
        msg_by_event[m.send] = m
        msg_by_event[m.receive] = m
    part_by_event = {e: p for p in tcsd.partitions for e in p.events}
    starts: dict[str, list[Timeout]] = {}
    for cst in tcsd.timeouts:
        starts.setdefault(cst.start, []).append(cst)

    out: list[str] = []

    def emit(line, depth):
        out.append("  " * depth + line)

    def direct_events(item):
        # Anchors handled at this nesting level: plain events and fragment
        # borders.  Fragment-interior anchors belong to the recursion.
        if isinstance(item, model.EventNode):
            return [item.event.id]
        return [item.enter.id, item.exit.id]

    def emit_items(items, depth):
        open_ends: list[str] = []
        for item in items:
            covered = set(direct_events(item))
            wrapped = []
            spanning = []
            for eid in direct_events(item):
                for cst in starts.get(eid, ()):
                    if cst.end in covered:
                        wrapped.append(cst)
                    else:
                        spanning.append(cst)
            for cst in spanning:
                emit("timeout %d {" % cst.bound, depth)
                depth += 1
                open_ends.append(cst.end)
            for cst in wrapped:
                emit("timeout %d {" % cst.bound, depth)
                depth += 1
            emit_item(item, depth)
            for _ in wrapped:
                depth -= 1
                emit("}", depth)
            while open_ends and open_ends[-1] in covered:
                open_ends.pop()
                depth -= 1
                emit("}", depth)

    def emit_item(item, depth):
        if isinstance(item, model.EventNode):
            e = item.event
            if e.kind == model.PARTITION:
                emit("at %d" % part_by_event[e.id].timestamp, depth)
                return
            m = msg_by_event[e.id]
            emit("msg %s -> %s : %s"
                 % (owner[m.send], owner[m.receive], _label_text(m.label)), depth)
            return
        f = item.fragment
        if f.operator in ("par", "alt"):
            emit("%s {" % f.operator, depth)
            for op_items in item.operand_items:
                emit("op {", depth + 1)
                emit_items(op_items, depth + 2)
                emit("}", depth + 1)
            emit("}", depth)
        elif f.operator == "loop":
            emit("loop %d {" % f.loop_bound, depth)
            emit_items(item.operand_items[0], depth + 1)
            emit("}", depth)
        else:
            emit("%s {" % f.operator, depth)
            emit_items(item.operand_items[0], depth + 1)
            emit("}", depth)

    emit("tcsd %s {" % base.name, 0)
    emit("sut %s" % tcsd.sut, 1)
    for inst in base.instances:
        if inst != tcsd.sut:
            emit("test %s" % inst, 1)
    emit_items(model.sut_regions(tcsd), 1)
    emit("}", 0)
    return "\n".join(out) + "\n"


def format_architecture(arch: Architecture) -> str:
    out = ["architecture %s {" % arch.name]
    if arch.components:
        out.append("  components %s" % ", ".join(arch.components))
    for name in arch.bindings:
        b = arch.bindings[name]
        out.append("  bind %s {" % name)
        out.append("    sut = %s" % b.sut_component)
        for inst, comp in b.instance_map.items():
            out.append("    %s -> %s" % (inst, comp))
        out.append("  }")
    out.append("}")
    return "\n".join(out) + "\n"
