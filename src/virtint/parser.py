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

import functools
import re
from typing import NamedTuple

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

# Longest integer literal accepted, in digits: CPython's default limit for
# int() of a string, fixed here so that every interpreter reads the same.
MAX_INT_DIGITS = 4300

# Deepest block nesting accepted.  Parsing, validation and translation recurse
# per level; this keeps them well below the interpreter's recursion limit.
MAX_NESTING = 100


class Token(NamedTuple):
    kind: str  # IDENT KEYWORD INT STRING ARROW LBRACE RBRACE COLON COMMA EQUALS EOF
    value: str
    line: int
    column: int


# What lies between tokens: spaces, tabs, comments and line ends, where a
# line ends with LF, CRLF or a lone CR.  ``ends`` runs to the start of the
# last line, ``indent`` to the next token and ``comment`` is one that runs
# to the end of input.
_BLANK = r"(?P<ends>(?:[ \t]*(?:\#[^\r\n]*)?(?:\r\n?|\n))*) (?P<indent>[ \t]*)"
_BLANKS = re.compile(_BLANK + r"(?P<comment>\#[^\r\n]*)?", re.VERBOSE).match
# In str patterns \d is exactly isdecimal() and \w exactly isalnum() or "_".
_DIGITS = re.compile(r"\d*").match
_WORD = re.compile(r"\w*").match

# Blanks, then a whole statement or block head on one line with only
# spaces or tabs between its tokens; each token ends where the lexer would
# end it.  ``lastgroup`` names the kind.
_STATEMENT = re.compile(_BLANK + r"""
    (?: msg [ \t]+ (?P<src>[A-Za-z_]\w*) [ \t]* -> [ \t]* (?P<dst>[A-Za-z_]\w*) [ \t]* : [ \t]*
            (?P<label> [A-Za-z_]\w* | -?\d+ | "[^"\\\x00-\x1f\ud800-\udfff\ufffe\uffff]*" )
      | at [ \t]+ (?P<at>\d+)
      | (?P<close>\})
      | (?P<head>par|alt|opt|strict|op) [ \t]* \{
      | (?P<bounded>loop|timeout) [ \t]+ (?P<bound>\d+) [ \t]* \{ )
""", re.VERBOSE).match


class _Lexer:
    """The tokens of ``text``, lexed one at a time as the parser asks for
    them, so a lexical error is raised when the parser reaches it.

    ``pos`` is the offset lexing has reached, ``line`` its line and
    ``line_start`` the offset where that line starts: offset ``i`` on the
    current line is column ``i - line_start + 1``.  Outside strings a line
    ends with LF, CRLF or a lone CR.  One byte-order mark (U+FEFF) at the
    start is skipped, and columns are counted after it.
    """

    def __init__(self, text: str, filename: str):
        self.text = text
        self.filename = filename
        self.pos = self.line_start = 1 if text.startswith("\ufeff") else 0
        self.line = 1

    def skip_to(self, m: re.Match, end: int):
        """Move past the blanks ``m`` matched at ``pos``, to ``end``."""
        i, j = m.span("ends")
        if i != j:
            text = self.text
            self.line += 1 if j - i == 1 else (
                text.count("\n", i, j) + text.count("\r", i, j) - text.count("\r\n", i, j))
            self.line_start = j
        self.pos = end

    def next(self) -> Token:
        m = _BLANKS(self.text, self.pos)
        self.skip_to(m, m.start("comment") if m["comment"] else m.end())
        text, i = self.text, self.pos
        line, col = self.line, i - self.line_start + 1
        if i == len(text) or m["comment"]:  # the end, placed at a comment running to it
            self.pos = len(text)
            return Token("EOF", "", line, col)
        ch = text[i]
        if ch == "-" and text.startswith(">", i + 1):
            self.pos = i + 2
            return Token("ARROW", "->", line, col)
        if ch in _PUNCT:
            self.pos = i + 1
            return Token(_PUNCT[ch], ch, line, col)
        if ch == '"':
            return self._string(line, col)
        if ch == "-" or ch.isdecimal():  # the digits int() reads
            j = _DIGITS(text, i + 1).end()
            if ch == "-" and j == i + 1:
                raise ParseError(SourceSpan(self.filename, line, col), "stray '-'")
            self.pos = j
            return Token("INT", text[i:j], line, col)
        if ch.isalpha() or ch == "_":
            j = _WORD(text, i + 1).end()
            self.pos = j
            word = text[i:j]
            return Token("KEYWORD" if word in KEYWORDS else "IDENT", word, line, col)
        raise ParseError(SourceSpan(self.filename, line, col), "unexpected character %r" % ch)

    def _string(self, line, col) -> Token:
        text, n = self.text, len(self.text)
        i = self.pos + 1
        out = []
        while i < n and text[i] not in '"\n':
            ch = text[i]
            if ch == "\\" and i + 1 < n:
                i += 1
                ch = text[i]
                if ch == "\r":  # an escaped CRLF or CR line end reads as LF
                    i += text.startswith("\n", i + 1)
                    ch = "\n"
            if _XML_FORBIDDEN(ch):
                raise ParseError(SourceSpan(self.filename, self.line, i - self.line_start + 1),
                                 "character U+%04X is not allowed in a string" % ord(ch))
            out.append(ch)
            i += 1
            if ch == "\n":  # an escaped newline: the string goes on below
                self.line += 1
                self.line_start = i
        if i >= n or text[i] == "\n":
            raise ParseError(SourceSpan(self.filename, line, col), "unterminated string literal")
        self.pos = i + 1
        return Token("STRING", "".join(out), line, col)


class _Cursor:
    """The parser's view of the token stream: the current token only.

    The grammar is LL(1), so no more is ever needed.  A consumed token's
    successor is lexed on the next ``peek``, so errors are raised in the
    order the parser meets them, which is source order.
    """

    def __init__(self, lexer: _Lexer):
        self.lexer = lexer
        self.filename = lexer.filename
        self.tok: Token | None = None  # None once consumed

    def peek(self) -> Token:
        if self.tok is None:
            self.tok = self.lexer.next()
        return self.tok

    def statement(self) -> re.Match | None:
        """The ``_STATEMENT`` match at the next token, whose blanks are then
        skipped but whose statement is not consumed yet; None when it does
        not match or a token is peeked already."""
        if self.tok is not None:
            return None
        lx = self.lexer
        m = _STATEMENT(lx.text, lx.pos)
        if m is not None:
            lx.skip_to(m, m.end("indent"))
        return m

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
        digits = len(tok.value) - tok.value.startswith("-")
        if digits > MAX_INT_DIGITS:
            raise ParseError(self.span(), "integer of %d digits is longer than the limit of %d"
                             % (digits, MAX_INT_DIGITS))
        value = int(tok.value)
        if value < minimum:
            raise ParseError(self.span(), "%s must be >= %d, got %d" % (what, minimum, value))
        return value, self.advance()


# The records built per message, made without their Python-level __new__.
_new_span = functools.partial(tuple.__new__, SourceSpan)
_new_event = functools.partial(tuple.__new__, Event)
_new_message = functools.partial(tuple.__new__, Message)


class _Collector(NamedTuple):
    # Each line's length when the block opened: the block's events are
    # always the suffix of every line from there on.
    starts: dict[str, int]
    first: int  # how many events there were when the block opened
    frags: list[str]


class _DiagramBuilder:
    def __init__(self, filename):
        self.filename = filename
        self.name = ""
        self.sut = ""
        self.lines: dict[str, list[Event]] = {}  # in declaration order
        self.eids: list[str] = []  # in creation order
        self.messages: list[Message] = []
        self.fragments: list[Fragment] = []
        self.partitions: list[PartitionLine] = []
        self.timeouts: list[Timeout] = []
        self.spans: dict[str, SourceSpan] = {}
        self.collectors: list[_Collector] = []
        self.strict_ids: set[str] = set()

    def declare(self, name, span):
        if name in self.lines:
            raise ParseError(span, "duplicate instance name %r" % name)
        self.lines[name] = []

    def new_event(self, instance, kind, span, fragment=None, at=None) -> str:
        eid = "e%d" % (len(self.eids) + 1)
        ev = Event(eid, instance, kind, fragment)
        if at is None:
            self.lines[instance].append(ev)
        else:
            self.lines[instance].insert(at, ev)
        self.eids.append(eid)
        self.spans[eid] = span
        return eid

    def message(self, src, dst, label, span, src_span, dst_span):
        eids = self.eids
        send = "e%d" % (len(eids) + 1)
        recv = "e%d" % (len(eids) + 2)
        eids += send, recv
        self.lines[src].append(_new_event((send, src, model.SEND, None)))
        self.lines[dst].append(_new_event((recv, dst, model.RECEIVE, None)))
        spans = self.spans
        spans[send] = src_span
        spans[recv] = dst_span
        self.messages.append(_new_message((send, label, recv)))
        spans["msg:" + send] = span

    def partition(self, delta, span, delta_span):
        events = [self.new_event(inst, model.PARTITION, delta_span) for inst in self.lines]
        self.partitions.append(PartitionLine(tuple(events), delta))
        self.spans["partition:%d" % (len(self.partitions) - 1)] = span

    def build(self) -> Tcsd:
        sd = SequenceDiagram(
            name=self.name,
            instances=tuple(self.lines),
            events={i: tuple(evs) for i, evs in self.lines.items()},
            messages=tuple(self.messages),
            fragments=tuple(self.fragments),
        )
        return Tcsd(sd, self.sut, tuple(self.partitions), tuple(self.timeouts))


_ANCHOR_KINDS = (model.SEND, model.RECEIVE, model.FRAGMENT_ENTER, model.FRAGMENT_EXIT)


def _parse_statement(c: _Cursor, b: _DiagramBuilder):
    """One statement, token by token: the path that reports every error."""
    tok = c.peek()
    if tok.kind != "KEYWORD" or tok.value not in _STMT_KEYWORDS:
        raise ParseError(c.span(), "found %r" % (tok.value or tok.kind),
                         expected=_STMT_KEYWORDS + ("}",))
    c.advance()
    span = c.span(tok)
    if tok.value == "msg":
        src = c.expect("IDENT")
        c.expect("ARROW")
        dst = c.expect("IDENT")
        c.expect("COLON")
        lab = c.peek()
        if lab.kind not in ("IDENT", "STRING", "INT", "KEYWORD"):
            raise ParseError(c.span(), "found %r" % (lab.value or lab.kind),
                             expected=("label",))
        c.advance()
        for t in (src, dst):
            if t.value not in b.lines:
                raise ParseError(c.span(t), "unknown instance %r" % t.value)
        b.message(src.value, dst.value, lab.value, span, c.span(src), c.span(dst))
    elif tok.value == "at":
        delta, dtok = c.expect_int("partition time", minimum=0)
        b.partition(delta, span, c.span(dtok))
    elif tok.value == "timeout":
        bound, _ = c.expect_int("timeout bound", minimum=1)
        _parse_timeout(c, b, span, bound)
    elif tok.value in ("par", "alt"):
        c.expect("LBRACE")
        _parse_operands(c, b, tok.value, span)
    else:
        bound = c.expect_int("loop bound", minimum=0)[0] if tok.value == "loop" else None
        _finish_fragment(b, span, [_parse_block(c, b)], tok.value, bound)


def _take_statement(c: _Cursor, b: _DiagramBuilder, m: re.Match) -> bool:
    """Build the statement ``m`` matched at the lexer's ``pos``, or leave it
    to the token path (False): an undeclared instance or a keyword where a
    name belongs, an ``op`` outside par and alt, a timeout bound of 0, an
    integer longer than ``MAX_INT_DIGITS`` and a block nested too deep."""
    lx = c.lexer
    kind = m.lastgroup
    filename, line, base = lx.filename, lx.line, lx.line_start - 1
    if kind == "label":
        src, dst, label = m.group("src", "dst", "label")
        if src not in b.lines or dst not in b.lines:
            return False
        b.message(src, dst, label[1:-1] if label[0] == '"' else label,
                  _new_span((filename, line, lx.pos - base)),
                  _new_span((filename, line, m.start("src") - base)),
                  _new_span((filename, line, m.start("dst") - base)))
        lx.pos = m.end()
        return True
    number = m["at"] or m["bound"]
    if number is not None and len(number) > MAX_INT_DIGITS:
        return False
    if kind == "at":
        b.partition(int(number), SourceSpan(filename, line, lx.pos - base),
                    SourceSpan(filename, line, m.start("at") - base))
        lx.pos = m.end()
        return True
    word = m["head"] or m["bounded"]
    bound = int(number) if kind == "bound" else None
    if word == "op" or (word == "timeout" and bound == 0) or len(b.collectors) >= MAX_NESTING:
        return False
    span = SourceSpan(filename, line, lx.pos - base)
    lx.pos = m.end()
    if word == "timeout":
        _parse_timeout(c, b, span, bound, opened=True)
    elif word in ("par", "alt"):
        _parse_operands(c, b, word, span)
    else:
        _finish_fragment(b, span, [_parse_block(c, b, opened=True)], word, bound)
    return True


def _parse_statements(c: _Cursor, b: _DiagramBuilder):
    """Statements up to the ``}`` that closes their block, which is consumed.

    A statement ``_STATEMENT`` matches is taken from that one match; any
    other goes token by token.
    """
    while True:
        m = c.statement()
        if m is not None:
            if m.lastgroup == "close":
                c.lexer.pos = m.end()
                return
            if _take_statement(c, b, m):
                continue
        kind = c.peek().kind
        if kind == "RBRACE":
            c.advance()
            return
        if kind == "EOF":
            raise ParseError(c.span(), "unexpected end of input", expected=("}",))
        _parse_statement(c, b)


def _parse_block(c: _Cursor, b: _DiagramBuilder, opened=False) -> tuple[_Collector, Operand]:
    """Parse ``{ STMT* }``, the ``{`` already consumed when ``opened``; give
    the block's collector and the events and fragments created inside."""
    if not opened:
        brace = c.expect("LBRACE")
        if len(b.collectors) >= MAX_NESTING:
            raise ParseError(c.span(brace), "blocks nested deeper than %d" % MAX_NESTING)
    coll = _Collector({inst: len(evs) for inst, evs in b.lines.items()}, len(b.eids), [])
    b.collectors.append(coll)
    _parse_statements(c, b)
    b.collectors.pop()
    return coll, Operand(tuple(b.eids[coll.first:]), tuple(coll.frags))


def _parse_timeout(c: _Cursor, b: _DiagramBuilder, span, bound, opened=False):
    coll, body = _parse_block(c, b, opened)
    # A timeout is no fragment: what it nests belongs to the enclosing operand.
    if b.collectors:
        b.collectors[-1].frags.extend(body.children)
    # Its anchors: the block's SUT events a timeout may anchor on, in line order.
    anchors = [e.id for e in b.lines[b.sut][coll.starts[b.sut]:]
               if e.kind in _ANCHOR_KINDS and e.fragment not in b.strict_ids]
    if not anchors:
        raise ParseError(span, "timeout block contains no SUT event to anchor on")
    b.timeouts.append(Timeout(anchors[0], anchors[-1], bound))
    b.spans["timeout:%d" % (len(b.timeouts) - 1)] = span


def _parse_operands(c: _Cursor, b: _DiagramBuilder, operator, span):
    """The ``{ op { STMT* } ... }`` of a par or alt."""
    blocks = []
    while True:
        m = c.statement()
        if m is not None and m["head"] == "op" and len(b.collectors) < MAX_NESTING:
            c.lexer.pos = m.end()
            blocks.append(_parse_block(c, b, opened=True))
        elif m is not None and m.lastgroup == "close":
            c.lexer.pos = m.end()
            break
        elif c.at_keyword("op"):
            c.advance()
            blocks.append(_parse_block(c, b))
        else:
            c.expect("RBRACE")
            break
    if len(blocks) < 2:
        raise ParseError(span, "%s needs at least 2 operands" % operator)
    _finish_fragment(b, span, blocks, operator, None)


def _finish_fragment(b: _DiagramBuilder, span, blocks, operator, loop_bound):
    fid = "f%d" % (len(b.fragments) + 1)
    first_starts = blocks[0][0].starts
    for inst, line in b.lines.items():
        start = first_starts[inst]
        if start == len(line):
            continue
        b.new_event(inst, model.FRAGMENT_ENTER, span, fid, at=start)
        b.new_event(inst, model.FRAGMENT_EXIT, span, fid)
    b.fragments.append(Fragment(fid, operator, tuple(body for _, body in blocks), loop_bound))
    if operator == "strict":
        b.strict_ids.add(fid)
    if b.collectors:
        b.collectors[-1].frags.append(fid)
    b.spans[fid] = span


def parse_tcsd(source: str, filename: str = "<tcsd>") -> ParseResult:
    """Parse one diagram; the result is raw and still needs ``model.validate``."""
    c = _Cursor(_Lexer(source, filename))
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
    _parse_statements(c, b)
    c.expect("EOF")
    return ParseResult(b.build(), b.spans)


def parse_architecture(source: str, filename: str = "<arch>") -> Architecture:
    c = _Cursor(_Lexer(source, filename))
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
