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

Parsing records source offsets only.  An offset becomes a line and column
when a ``ParseError`` is raised or a span is looked up, from a table of
line starts drawn up by the lexer's rules on first need.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import re
from collections.abc import Mapping
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
    """A raw diagram and where its elements were written.

    ``spans`` is a read-only mapping with a key for the header,
    ``tcsd:NAME``, then each event id, ``msg:SEND`` for the message whose
    send event is ``SEND``, each fragment id, and ``partition:N`` and
    ``timeout:N`` for the N-th partition line and timeout (from 0); it
    iterates in that order.  A span is resolved when it is looked up.
    """

    tcsd: Tcsd
    spans: Mapping[str, SourceSpan]


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

# Deepest block nesting accepted.  Validation and translation recurse per
# level; this keeps them well below the interpreter's recursion limit.
MAX_NESTING = 100


class Token(NamedTuple):
    kind: str  # IDENT KEYWORD INT STRING ARROW LBRACE RBRACE COLON COMMA EQUALS EOF
    value: str
    offset: int  # where the token starts in the source


# What lies between tokens: spaces, tabs, line ends (LF, CRLF or a lone CR)
# and comments, each ended by a line end; ``comment`` is one that runs to
# the end of input.  Every blank character has one reading, so when
# ``_STATEMENT`` fails after many blank lines, it fails in linear time.
_BLANK = r"[ \t\r\n]* (?: \#[^\r\n]* [\r\n] [ \t\r\n]* )*"
_BLANKS = re.compile(_BLANK + r"(?P<comment>\#[^\r\n]*)?", re.VERBOSE).match
# In str patterns \d is exactly isdecimal() and \w exactly isalnum() or "_".
_DIGITS = re.compile(r"\d*").match
_WORD = re.compile(r"\w*").match

# Blanks, then a whole statement or block head on one line with only
# spaces or tabs between its tokens; each token ends where the lexer would
# end it.  ``start`` marks where the statement starts and ``lastgroup``
# names its kind.
_STATEMENT = re.compile(_BLANK + r"""
    (?P<start>)
    (?: msg [ \t]+ (?P<src>[A-Za-z_]\w*) [ \t]* -> [ \t]* (?P<dst>[A-Za-z_]\w*) [ \t]* : [ \t]*
            (?P<label> [A-Za-z_]\w* | -?\d+ | "[^"\\\x00-\x1f\ud800-\udfff\ufffe\uffff]+" )
      | at [ \t]+ (?P<at>\d+)
      | (?P<close>\})
      | (?P<head>par|alt|opt|strict|op) [ \t]* \{
      | (?P<bounded>loop|timeout) [ \t]+ (?P<bound>\d+) [ \t]* \{ )
""", re.VERBOSE).match

# Where lines start, by the lexer's rules: outside strings every LF, CRLF
# or lone CR ends a line, and a comment may hold quotes.  A string ends at
# its closing quote or a raw LF; inside it only an escaped line end starts
# a line, and a raw CR is part of the label.  Only a lookup or an error
# needs these, so ``re`` compiles them on first use.
_LINE_ENDS = r'"(?:[^"\\\n]|\\(?:\r\n?|[\s\S]))*"?|\#[^\r\n]*|\r\n?|\n'
_ESCAPES = r"\\(?:\r\n?|[\s\S])"


def _line_starts(text: str) -> list[int]:
    """The offset at which each line of ``text`` starts; line 1 starts
    after a leading byte-order mark.

    Where every CR is followed by LF, each line starts after an LF: an
    escaped line end starts a line where its LF, or its CR's LF, does.
    Only a lone CR, which a string keeps raw, needs the lexer's rules.
    """
    starts = [1 if text.startswith("\ufeff") else 0]
    if text.count("\r") == text.count("\r\n"):
        ends = itertools.accumulate(map((1).__add__, map(len, text.split("\n"))))
        starts += itertools.islice(ends, text.count("\n"))
        return starts
    for m in re.finditer(_LINE_ENDS, text):
        s = m.group()
        if s[0] == '"':
            if "\\\n" in s or "\\\r" in s:
                at = m.start()
                starts += [at + e.end() for e in re.finditer(_ESCAPES, s)
                           if e.group()[1] in "\r\n"]
        elif s[0] != "#":
            starts.append(m.end())
    return starts


class _Lexer:
    """The tokens of ``text`` and the parser's view of them: the current
    token only, since the grammar is LL(1).  A consumed token's successor
    is lexed on the next ``peek``, so a lexical error is raised when the
    parser reaches it, and errors come in source order.

    ``pos`` is the offset lexing has reached, and each token carries the
    offset it starts at; ``span`` turns an offset into a line and column.
    Outside strings a line ends with LF, CRLF or a lone CR.  One
    byte-order mark (U+FEFF) at the start is skipped, and columns are
    counted after it.
    """

    def __init__(self, text: str, filename: str):
        self.text = text
        self.filename = filename
        self.pos = 1 if text.startswith("\ufeff") else 0
        self.tok: Token | None = None  # the current token; None once consumed
        self.starts: list[int] | None = None  # _line_starts(text), drawn up on first need

    def span(self, offset: int | None = None) -> SourceSpan:
        """Where ``offset`` is, by default the current token's offset."""
        if offset is None:
            offset = self.peek().offset
        if self.starts is None:
            self.starts = _line_starts(self.text)
        line = bisect.bisect_right(self.starts, offset)
        return SourceSpan(self.filename, line, offset - self.starts[line - 1] + 1)

    def peek(self) -> Token:
        if self.tok is None:
            self.tok = self._lex()
        return self.tok

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

    def _lex(self) -> Token:
        text = self.text
        m = _BLANKS(text, self.pos)
        if m["comment"]:  # the end, placed at a comment running to it
            self.pos = len(text)
            return Token("EOF", "", m.start("comment"))
        i = self.pos = m.end()
        if i == len(text):
            return Token("EOF", "", i)
        ch = text[i]
        if ch == "-" and text.startswith(">", i + 1):
            self.pos = i + 2
            return Token("ARROW", "->", i)
        if ch in _PUNCT:
            self.pos = i + 1
            return Token(_PUNCT[ch], ch, i)
        if ch == '"':
            return self._string(i)
        if ch == "-" or ch.isdecimal():  # the digits int() reads
            j = _DIGITS(text, i + 1).end()
            if ch == "-" and j == i + 1:
                raise ParseError(self.span(i), "stray '-'")
            self.pos = j
            return Token("INT", text[i:j], i)
        if ch.isalpha() or ch == "_":
            j = _WORD(text, i + 1).end()
            self.pos = j
            word = text[i:j]
            return Token("KEYWORD" if word in KEYWORDS else "IDENT", word, i)
        raise ParseError(self.span(i), "unexpected character %r" % ch)

    def _string(self, start: int) -> Token:
        text, n = self.text, len(self.text)
        i = start + 1
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
                raise ParseError(self.span(i),
                                 "character U+%04X is not allowed in a string" % ord(ch))
            out.append(ch)
            i += 1
        if i >= n or text[i] == "\n":
            raise ParseError(self.span(start), "unterminated string literal")
        self.pos = i + 1
        return Token("STRING", "".join(out), start)


# The records of a diagram, made without their Python-level __new__.
_new_event = functools.partial(tuple.__new__, Event)
_new_message = functools.partial(tuple.__new__, Message)
_new_operand = functools.partial(tuple.__new__, Operand)
_new_fragment = functools.partial(tuple.__new__, Fragment)
_new_partition = functools.partial(tuple.__new__, PartitionLine)
_new_timeout = functools.partial(tuple.__new__, Timeout)

_OPERAND_LISTS = ("par", "alt")
_ANCHOR_KINDS = (model.SEND, model.RECEIVE, model.FRAGMENT_ENTER, model.FRAGMENT_EXIT)


class _Open(NamedTuple):
    """A block, or the operand list of a par or alt, open around the
    statements being read; the diagram's body is the first."""

    word: str  # the head's keyword: par or alt for an operand list
    at: int  # where the head starts
    bound: int | None
    first: int  # how many events there were when it opened
    # Each line's length when a fragment or timeout opened: its events are
    # always the suffix of every line from there on.  An op block has none,
    # since its fragment's operand list has them.
    starts: list[int] | None
    items: list  # a block's child fragment ids, an operand list's operands


_new_open = functools.partial(tuple.__new__, _Open)


class _DiagramBuilder:
    def __init__(self, lexer: _Lexer):
        self.span = lexer.span
        self.name = ""
        self.sut = ""
        self.lines: dict[str, list[Event]] = {}  # in declaration order, the SUT first
        self.eids: list[str] = []  # in creation order
        self.messages: list[Message] = []
        self.fragments: list[Fragment] = []
        self.partitions: list[PartitionLine] = []
        self.timeouts: list[Timeout] = []
        # The source offset of each element, per kind in creation order.
        self.event_at: list[int] = []
        self.message_at: list[int] = []
        self.fragment_at: list[int] = []
        self.partition_at: list[int] = []
        self.timeout_at: list[int] = []
        self.stack: list[_Open] = [_Open("", 0, None, 0, None, [])]
        self.depth = 0  # how many blocks are open
        self.strict_ids: set[str] = set()

    def declare(self, tok: Token):
        if tok.value in self.lines:
            raise ParseError(self.span(tok.offset), "duplicate instance name %r" % tok.value)
        self.lines[tok.value] = []

    def message(self, src, dst, label, at, src_at, dst_at):
        eids = self.eids
        send = "e%d" % (len(eids) + 1)
        recv = "e%d" % (len(eids) + 2)
        eids += send, recv
        self.lines[src].append(_new_event((send, src, model.SEND, None)))
        self.lines[dst].append(_new_event((recv, dst, model.RECEIVE, None)))
        self.event_at += src_at, dst_at
        self.messages.append(_new_message((send, label, recv)))
        self.message_at.append(at)

    def partition(self, delta, at, delta_at):
        eids = self.eids
        n = len(eids)
        events = ["e%d" % k for k in range(n + 1, n + 1 + len(self.lines))]
        eids += events
        for eid, (inst, line) in zip(events, self.lines.items()):
            line.append(_new_event((eid, inst, model.PARTITION, None)))
        self.event_at += [delta_at] * len(events)
        self.partitions.append(_new_partition((tuple(events), delta)))
        self.partition_at.append(at)

    def open(self, word, at, bound):
        """Open the block or operand list whose head, up to its ``{``, is read."""
        starts = None if word == "op" else list(map(len, self.lines.values()))
        if word not in _OPERAND_LISTS:
            self.depth += 1
        self.stack.append(_new_open((word, at, bound, len(self.eids), starts, [])))

    def close(self):
        """Close the innermost open block or operand list, whose ``}`` is read."""
        top = self.stack.pop()
        if top.word in _OPERAND_LISTS:
            if len(top.items) < 2:
                raise ParseError(self.span(top.at), "%s needs at least 2 operands" % top.word)
            self._fragment(top, top.items)
            return
        self.depth -= 1
        body = _new_operand((tuple(self.eids[top.first:]), tuple(top.items)))
        parent = self.stack[-1]
        if top.word == "op":
            parent.items.append(body)
        elif top.word == "timeout":
            # A timeout is no fragment: what it nests belongs to the enclosing block.
            parent.items.extend(body.children)
            # Its anchors: the block's SUT events a timeout may anchor on, in line order.
            anchors = [e.id for e in self.lines[self.sut][top.starts[0]:]
                       if e.kind in _ANCHOR_KINDS and e.fragment not in self.strict_ids]
            if not anchors:
                raise ParseError(self.span(top.at),
                                 "timeout block contains no SUT event to anchor on")
            self.timeouts.append(_new_timeout((anchors[0], anchors[-1], top.bound)))
            self.timeout_at.append(top.at)
        else:
            self._fragment(top, [body])

    def _fragment(self, top: _Open, operands):
        """Finish the fragment ``top`` opened, putting its borders round
        every line that has events inside it."""
        fid = "f%d" % (len(self.fragments) + 1)
        eids = self.eids
        n = len(eids)
        for (inst, line), start in zip(self.lines.items(), top.starts):
            if start < len(line):
                enter = "e%d" % (len(eids) + 1)
                exit_ = "e%d" % (len(eids) + 2)
                eids += enter, exit_
                line.insert(start, _new_event((enter, inst, model.FRAGMENT_ENTER, fid)))
                line.append(_new_event((exit_, inst, model.FRAGMENT_EXIT, fid)))
        self.event_at += [top.at] * (len(eids) - n)
        self.fragments.append(_new_fragment((fid, top.word, tuple(operands), top.bound)))
        if top.word == "strict":
            self.strict_ids.add(fid)
        self.stack[-1].items.append(fid)
        self.fragment_at.append(top.at)

    def build(self) -> Tcsd:
        sd = SequenceDiagram(
            name=self.name,
            instances=tuple(self.lines),
            events={i: tuple(evs) for i, evs in self.lines.items()},
            messages=tuple(self.messages),
            fragments=tuple(self.fragments),
        )
        return Tcsd(sd, self.sut, tuple(self.partitions), tuple(self.timeouts))


def _nth(offsets: list[int], number: str, first: int) -> int | None:
    """The offset of element ``number``, counted from ``first``; None
    unless ``number`` is such a number in plain decimal."""
    if number.isascii() and number.isdigit() and len(number) < 20 and number == str(int(number)):
        n = int(number) - first
        if 0 <= n < len(offsets):
            return offsets[n]
    return None


class _Spans(Mapping):
    """``ParseResult.spans``: the offset of each element, resolved to a
    ``SourceSpan`` by the lexer's line-start table when looked up."""

    def __init__(self, lexer: _Lexer, b: _DiagramBuilder, head_at: int):
        self._lexer = lexer
        self._name = b.name
        self._head_at = head_at
        self._messages = b.messages
        self._event_at = b.event_at
        self._message_at = b.message_at
        self._fragment_at = b.fragment_at
        self._partition_at = b.partition_at
        self._timeout_at = b.timeout_at
        self._message_of: dict[str, int] | None = None  # send event id -> message number

    def _offset(self, key) -> int | None:
        if not isinstance(key, str):
            return None
        kind, colon, rest = key.partition(":")
        if not colon:
            if key[:1] == "e":
                return _nth(self._event_at, key[1:], 1)
            return _nth(self._fragment_at, key[1:], 1) if key[:1] == "f" else None
        if kind == "msg":
            if self._message_of is None:
                self._message_of = {m.send: n for n, m in enumerate(self._messages)}
            n = self._message_of.get(rest)
            return None if n is None else self._message_at[n]
        if kind == "partition":
            return _nth(self._partition_at, rest, 0)
        if kind == "timeout":
            return _nth(self._timeout_at, rest, 0)
        return self._head_at if kind == "tcsd" and rest == self._name else None

    def __getitem__(self, key) -> SourceSpan:
        at = self._offset(key)
        if at is None:
            raise KeyError(key)
        return self._lexer.span(at)

    def __iter__(self):
        yield "tcsd:" + self._name
        yield from ("e%d" % n for n in range(1, len(self._event_at) + 1))
        yield from ("msg:" + m.send for m in self._messages)
        yield from ("f%d" % n for n in range(1, len(self._fragment_at) + 1))
        yield from ("partition:%d" % n for n in range(len(self._partition_at)))
        yield from ("timeout:%d" % n for n in range(len(self._timeout_at)))

    def __len__(self):
        return (1 + len(self._event_at) + len(self._messages) + len(self._fragment_at)
                + len(self._partition_at) + len(self._timeout_at))


def _parse_statement(lx: _Lexer, b: _DiagramBuilder):
    """One statement, token by token: the path that reports every error.
    A block head is read up to its ``{``, and the block opened."""
    tok = lx.peek()
    if tok.kind != "KEYWORD" or tok.value not in _STMT_KEYWORDS:
        raise ParseError(lx.span(), "found %r" % (tok.value or tok.kind),
                         expected=_STMT_KEYWORDS + ("}",))
    lx.advance()
    at = tok.offset
    if tok.value == "msg":
        src = lx.expect("IDENT")
        lx.expect("ARROW")
        dst = lx.expect("IDENT")
        lx.expect("COLON")
        lab = lx.peek()
        if lab.kind not in ("IDENT", "STRING", "INT", "KEYWORD"):
            raise ParseError(lx.span(), "found %r" % (lab.value or lab.kind),
                             expected=("label",))
        lx.advance()
        for t in (src, dst):
            if t.value not in b.lines:
                raise ParseError(lx.span(t.offset), "unknown instance %r" % t.value)
        if not lab.value:  # "": no TAPAAL file tells it from no label
            raise ParseError(lx.span(lab.offset), "empty label")
        b.message(src.value, dst.value, lab.value, at, src.offset, dst.offset)
    elif tok.value == "at":
        delta, dtok = lx.expect_int("partition time", minimum=0)
        b.partition(delta, at, dtok.offset)
    elif tok.value == "timeout":
        bound, _ = lx.expect_int("timeout bound", minimum=1)
        _open_block(lx, b, "timeout", at, bound)
    elif tok.value in _OPERAND_LISTS:
        lx.expect("LBRACE")
        b.open(tok.value, at, None)
    else:
        bound = lx.expect_int("loop bound", minimum=0)[0] if tok.value == "loop" else None
        _open_block(lx, b, tok.value, at, bound)


def _open_block(lx: _Lexer, b: _DiagramBuilder, word, at, bound=None):
    """Read the ``{`` of a block whose head is read, and open the block."""
    brace = lx.expect("LBRACE")
    if b.depth >= MAX_NESTING:
        raise ParseError(lx.span(brace.offset), "blocks nested deeper than %d" % MAX_NESTING)
    b.open(word, at, bound)


def _parse_statements(lx: _Lexer, b: _DiagramBuilder):
    """The diagram's statements, up to and with the ``}`` that closes it.

    One loop reads the statements of every block; ``b.stack`` holds the
    blocks and operand lists open around the one being read.  A statement
    that ``_STATEMENT`` matches whole is taken from that one match, unless
    the token path must report it: an undeclared instance or a keyword
    where a name belongs, an ``op`` outside par and alt, a timeout bound of
    0, an integer longer than ``MAX_INT_DIGITS`` and a block nested too
    deep.  Those, and every statement the pattern does not match, go token
    by token through ``_parse_statement``.  A ``}`` after any blanks is
    always the pattern's, so the token path never closes a block.
    """
    text = lx.text
    lines = b.lines
    stack = b.stack
    # Re-read the token that ended the declarations, so that every
    # statement, the first too, starts with no token peeked.
    lx.pos = lx.tok.offset
    lx.tok = None
    while True:
        m = _STATEMENT(text, lx.pos)
        if m is not None:
            at = m.start("start")
            kind = m.lastgroup
            if kind == "close":
                lx.pos = m.end()
                if len(stack) == 1:
                    return
                b.close()
                continue
            if stack[-1].word in _OPERAND_LISTS:
                if m["head"] == "op" and b.depth < MAX_NESTING:
                    lx.pos = m.end()
                    b.open("op", at, None)
                    continue
            elif kind == "label":
                src, dst, label = m.group("src", "dst", "label")
                if src in lines and dst in lines:
                    lx.pos = m.end()
                    b.message(src, dst, label[1:-1] if label[0] == '"' else label,
                              at, m.start("src"), m.start("dst"))
                    continue
            elif kind == "at":
                if len(m["at"]) <= MAX_INT_DIGITS:
                    lx.pos = m.end()
                    b.partition(int(m["at"]), at, m.start("at"))
                    continue
            else:  # a block head
                word = m["head"] or m["bounded"]
                number = m["bound"] or ""
                if (word != "op" and b.depth < MAX_NESTING and len(number) <= MAX_INT_DIGITS
                        and (word != "timeout" or int(number))):
                    lx.pos = m.end()
                    b.open(word, at, int(number) if number else None)
                    continue
            lx.pos = at  # the token path takes it from here
        if stack[-1].word in _OPERAND_LISTS:
            if not lx.at_keyword("op"):
                lx.expect("RBRACE")  # raises: it is no "}"
            _open_block(lx, b, "op", lx.advance().offset)
        elif lx.peek().kind == "EOF":
            raise ParseError(lx.span(), "unexpected end of input", expected=("}",))
        else:
            _parse_statement(lx, b)


def parse_tcsd(source: str, filename: str = "<tcsd>") -> ParseResult:
    """Parse one diagram; the result is raw and still needs ``model.validate``."""
    lx = _Lexer(source, filename)
    b = _DiagramBuilder(lx)
    head = lx.expect_keyword("tcsd")
    b.name = lx.expect("IDENT").value
    lx.expect("LBRACE")
    lx.expect_keyword("sut")
    sut = lx.expect("IDENT")
    b.declare(sut)
    b.sut = sut.value
    lx.expect_keyword("test")
    b.declare(lx.expect("IDENT"))
    while lx.at_keyword("test"):
        lx.advance()
        b.declare(lx.expect("IDENT"))
    _parse_statements(lx, b)
    lx.expect("EOF")
    return ParseResult(b.build(), _Spans(lx, b, head.offset))


def parse_architecture(source: str, filename: str = "<arch>") -> Architecture:
    lx = _Lexer(source, filename)
    lx.expect_keyword("architecture")
    name = lx.expect("IDENT").value
    lx.expect("LBRACE")
    components: list[str] = []
    if lx.at_keyword("components"):
        lx.advance()
        while lx.peek().kind == "IDENT":
            tok = lx.advance()
            if tok.value in components:
                raise ParseError(lx.span(tok.offset), "duplicate component %r" % tok.value)
            components.append(tok.value)
            if lx.peek().kind == "COMMA":
                lx.advance()
            else:
                break
    bindings: dict[str, Binding] = {}
    while lx.at_keyword("bind"):
        lx.advance()
        target = lx.expect("IDENT")
        if target.value in bindings:
            raise ParseError(lx.span(target.offset), "duplicate binding for %r" % target.value)
        lx.expect("LBRACE")
        lx.expect_keyword("sut")
        lx.expect("EQUALS")
        sut_comp = lx.expect("IDENT")
        if sut_comp.value not in components:
            raise ParseError(lx.span(sut_comp.offset), "unknown component %r" % sut_comp.value)
        imap: dict[str, str] = {}
        while lx.peek().kind == "IDENT":
            inst = lx.advance()
            lx.expect("ARROW")
            comp = lx.expect("IDENT")
            if comp.value not in components:
                raise ParseError(lx.span(comp.offset), "unknown component %r" % comp.value)
            if comp.value == sut_comp.value:
                raise ParseError(
                    lx.span(comp.offset),
                    "test instance %r mapped to the binding's own SUT component" % inst.value,
                )
            if inst.value in imap:
                raise ParseError(lx.span(inst.offset), "instance %r mapped twice" % inst.value)
            imap[inst.value] = comp.value
        lx.expect("RBRACE")
        bindings[target.value] = Binding(target.value, sut_comp.value, imap)
    lx.expect("RBRACE")
    lx.expect("EOF")
    return Architecture(name, tuple(components), bindings)


# --------------------------------------------------------------------------
# Pretty-printing (round-trip partner of ``parse_tcsd``).


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

    at = {e.id: n for n, e in enumerate(base.events.get(tcsd.sut, ()))}
    out: list[str] = []

    def emit(line, depth):
        out.append("  " * depth + line)

    def direct_events(item):
        # Anchors handled at this nesting level: plain events and fragment
        # borders.  The parser anchors no timeout on a strict fragment's
        # borders, but on the first and last anchors inside it.
        if not isinstance(item, model.FragmentNode):
            return [item.id]
        if item.fragment.operator != "strict":
            return [item.enter.id, item.exit.id]
        inner = [eid for sub in item.operand_items[0] for eid in direct_events(sub)]
        return inner[:1] + inner[-1:]

    def emit_items(items, depth):
        open_ends: list[str] = []
        for item in items:
            covered = direct_events(item)
            wrapped = []
            spanning = []
            for eid in dict.fromkeys(covered):
                # A timeout is printed once, in the innermost item list that
                # holds both its anchors: one that also ends inside this
                # fragment is left to the fragment's items.
                for cst in starts.pop(eid, ()):
                    if (isinstance(item, model.FragmentNode)
                            and at[item.enter.id] < at.get(cst.end, -1) < at[item.exit.id]):
                        starts.setdefault(eid, []).append(cst)
                    elif cst.end in covered:
                        wrapped.append(cst)
                    else:
                        spanning.append(cst)
            # Timeouts from one anchor open outermost first: the one with the
            # later end, or with the same end the one declared later, as the
            # parser declares a timeout when its block closes.
            spanning = sorted(reversed(spanning), key=lambda cst: at.get(cst.end, -1),
                              reverse=True)
            for cst in spanning:
                emit("timeout %d {" % cst.bound, depth)
                depth += 1
                open_ends.append(cst.end)
            for cst in reversed(wrapped):
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
        if not isinstance(item, model.FragmentNode):  # a message or partition event
            if item.kind == model.PARTITION:
                emit("at %d" % part_by_event[item.id].timestamp, depth)
                return
            m = msg_by_event[item.id]
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

