"""The ``.tcsd`` parser before whole statements were matched in one go.

A verbatim copy of ``parser.parse_tcsd`` as it was when every statement
went token by token through a generator lexer and an LL(1) cursor.  It
is the reference that ``test_parser``'s differential tests compare the
parser with; nothing in ``src`` uses it.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple

from virtint import model
from virtint.model import (Event, Fragment, Message, Operand, PartitionLine,
                           SequenceDiagram, Tcsd, Timeout)
from virtint.parser import (_XML_FORBIDDEN, KEYWORDS, MAX_NESTING, ParseError,
                            ParseResult, SourceSpan)


class Token(NamedTuple):
    """A token with the line and column the lexer counted as it went."""

    kind: str
    value: str
    line: int
    column: int


_PUNCT = {"{": "LBRACE", "}": "RBRACE", ":": "COLON", ",": "COMMA", "=": "EQUALS"}

_STMT_KEYWORDS = ("msg", "at", "timeout", "par", "alt", "opt", "strict", "loop")


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
        if not lab.value:
            raise ParseError(c.span(lab), "empty label")
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
