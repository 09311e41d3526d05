"""Seeded workload generators whose answers are fixed by construction.

Every instance carries the answer implied by the rule that built it:
a crossing pairing of two message chains closes a causal cycle (ordering
deadlock), a window pair whose required gap exceeds the allowed gap is
a timing conflict, an injected violation names its clause.  Nothing here
asks ``virtint`` what the answer is.

The pool of a workload has a fixed composition of families and sizes;
the seed picks names, labels, operand orders, the position of a swap or
an injected fault and small variations of the time constants.  Costs
per pass therefore stay comparable across seeds.
"""

from __future__ import annotations

import random
import string
from dataclasses import dataclass

CONSISTENT = "consistent"
INCONSISTENT = "inconsistent"
DEADLOCK = "ordering-deadlock"
CONFLICT = "timing-conflict"

WORKLOADS = ("timed-search", "matching-fanout", "frontend-large")


@dataclass(frozen=True)
class Op:
    """One ``virtint`` command line and the answer it must give."""

    argv: tuple[str, ...]
    exit_code: int
    # check: overall verdict, failure classes and every verdict's status
    overall: str | None = None
    failure_classes: tuple[str, ...] = ()
    statuses: tuple[str, ...] = ()
    # validate/translate: the one clause an invalid diagram violates
    clause: str | None = None


@dataclass
class Instance:
    name: str
    files: dict[str, str]
    ops: list[Op]


def _word(rng: random.Random, prefix: str) -> str:
    return prefix + "".join(rng.choice(string.ascii_lowercase) for _ in range(5))


def _tcsd(name, sut, tests, body) -> str:
    lines = ["tcsd %s {" % name, "  sut %s" % sut]
    lines += ["  test %s" % t for t in tests]
    lines += ["  " + line for line in body]
    lines.append("}")
    return "\n".join(lines) + "\n"


def _arch(name, components, bindings) -> str:
    """bindings: [(diagram, sut component, {test line: component})]."""
    lines = ["architecture %s {" % name, "  components %s" % ", ".join(components)]
    for diagram, sut, tests in bindings:
        lines.append("  bind %s {" % diagram)
        lines.append("    sut = %s" % sut)
        lines += ["    %s -> %s" % (t, c) for t, c in tests.items()]
        lines.append("  }")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _check(uid, files, arch, extra=(), *, overall, failure_classes, statuses):
    tcsds = sorted(f for f in files if f.endswith(".tcsd"))
    argv = ("check", *tcsds, "--arch", arch, "--report", "%s.report.json" % uid,
            *extra)
    return Op(argv, 0 if overall == CONSISTENT else 1, overall,
              tuple(failure_classes), tuple(statuses))


def _single(uid, files, arch, status):
    """A check with one matching whose status is known."""
    if status == CONSISTENT:
        return _check(uid, files, arch, overall=CONSISTENT, failure_classes=(),
                      statuses=(CONSISTENT,))
    return _check(uid, files, arch, overall=INCONSISTENT, failure_classes=(status,),
                  statuses=(status,))


# -- timed-search ---------------------------------------------------------

def bscu(rng, uid, timeout, repaired):
    """Command, monitor and switch test cases of a brake control unit.

    The switch accepts both commands only after the monitor's status and
    within ``timeout`` ticks.  In the faulty variant the command channel
    sends each switch command before its monitor copy, while the monitor
    needs both copies before it publishes the status: a cyclic wait.  The
    repaired variant sends the monitor copy first.
    """
    cmd, ask = _word(rng, "Cmd"), _word(rng, "Anti")
    status = _word(rng, "Status")
    n_cmd, n_mon, n_sw = "TCmd_" + uid, "TMon_" + uid, "TSw_" + uid
    sigs = [(cmd, cmd + "m"), (ask, ask + "m")]
    rng.shuffle(sigs)

    def cmd_op(sig, copy):
        pair = ["msg C -> M : %s" % copy, "msg C -> W : %s" % sig]
        if not repaired:
            pair.reverse()
        return ["op {"] + ["  " + p for p in pair] + ["}"]

    body = ["par {"] + ["  " + x for s, m in sigs for x in cmd_op(s, m)] + ["}"]
    files = {
        n_cmd + ".tcsd": _tcsd(n_cmd, "C", ["W", "M"], body),
        n_mon + ".tcsd": _tcsd(n_mon, "M", ["C", "W"], [
            "par {",
            "  op { msg C -> M : %s }" % sigs[0][1],
            "  op { msg C -> M : %s }" % sigs[1][1],
            "}",
            "msg M -> W : %s" % status]),
        n_sw + ".tcsd": _tcsd(n_sw, "W", ["M", "C"], [
            "msg M -> W : %s" % status,
            "timeout %d {" % timeout,
            "  par {",
            "    op { msg C -> W : %s }" % sigs[1][0],
            "    op { msg C -> W : %s }" % sigs[0][0],
            "  }",
            "}"]),
    }
    arch = "bscu_%s.arch" % uid
    files[arch] = _arch("A_" + uid, ["Cmd", "Mon", "Sw"], [
        (n_cmd, "Cmd", {"W": "Sw", "M": "Mon"}),
        (n_mon, "Mon", {"C": "Cmd", "W": "Sw"}),
        (n_sw, "Sw", {"M": "Mon", "C": "Cmd"}),
    ])
    status_ = CONSISTENT if repaired else DEADLOCK
    return Instance(uid, files, [_single(uid, files, arch, status_)])


def chain(rng, uid, length, gap, swapped):
    """Two diagrams exchange ``length`` messages with partitions every ``gap``.

    Both sides place the same partition lines, so the order-preserving run
    meets every window.  With ``swapped`` the receiver expects one adjacent
    pair in the opposite order, which closes a causal cycle.
    """
    labels = [_word(rng, "m%d" % i) for i in range(length)]
    recv = list(labels)
    if swapped:
        i = length // 2 - 1
        recv[i], recv[i + 1] = recv[i + 1], recv[i]

    def body(order, line):
        out = []
        for n, label in enumerate(order):
            if n:
                out.append("at %d" % (n * gap))
            out.append(line % label)
        return out

    na, nb = "ChA_" + uid, "ChB_" + uid
    files = {
        na + ".tcsd": _tcsd(na, "S", ["T"], body(labels, "msg S -> T : %s")),
        nb + ".tcsd": _tcsd(nb, "R", ["U"], body(recv, "msg U -> R : %s")),
    }
    arch = "chain_%s.arch" % uid
    files[arch] = _arch("A_" + uid, ["P", "Q"],
                        [(na, "P", {"T": "Q"}), (nb, "Q", {"U": "P"})])
    return Instance(uid, files,
                    [_single(uid, files, arch, DEADLOCK if swapped else CONSISTENT)])


def window(rng, uid, allowed, required):
    """A sync message followed by ``x``: one side allows at most ``allowed``
    ticks between them, the other needs at least ``required``.

    Side A puts both messages above ``at allowed``; side B sends sync above
    ``at 2`` and x below ``at 2 + required``.  The pair is consistent iff
    required <= allowed.
    """
    sync, x = _word(rng, "sync"), _word(rng, "x")
    b1 = 2
    na, nb = "WinA_" + uid, "WinB_" + uid
    files = {
        na + ".tcsd": _tcsd(na, "S", ["T"], [
            "msg T -> S : %s" % sync, "msg T -> S : %s" % x, "at %d" % allowed]),
        nb + ".tcsd": _tcsd(nb, "R", ["U"], [
            "msg R -> U : %s" % sync, "at %d" % b1, "at %d" % (b1 + required),
            "msg R -> U : %s" % x]),
    }
    arch = "win_%s.arch" % uid
    files[arch] = _arch("A_" + uid, ["P", "Q"],
                        [(na, "P", {"T": "Q"}), (nb, "Q", {"U": "P"})])
    status = CONSISTENT if required <= allowed else CONFLICT
    return Instance(uid, files, [_single(uid, files, arch, status)])


def par_timeout(rng, uid, width, gap, timeout):
    """A sends ``width`` messages in parallel inside ``timeout``; B receives
    them in order with two partition lines ``gap`` apart between each.

    Message n of B lies in [(2n-2)*gap, (2n-1)*gap], so B forces at least
    (2*width-3)*gap ticks from the first to the last message, and the pair
    is consistent iff that span fits the timeout.
    """
    labels = [_word(rng, "p%d" % i) for i in range(width)]
    ops = ["  op { msg S -> X : %s }" % lab for lab in rng.sample(labels, width)]
    recv = []
    for n, label in enumerate(labels):
        if n:
            recv += ["at %d" % ((2 * n - 1) * gap), "at %d" % (2 * n * gap)]
        recv.append("msg Y -> R : %s" % label)
    na, nb = "ParA_" + uid, "ParB_" + uid
    files = {
        na + ".tcsd": _tcsd(na, "S", ["X"],
                            ["timeout %d {" % timeout, "  par {"]
                            + ["  " + o for o in ops] + ["  }", "}"]),
        nb + ".tcsd": _tcsd(nb, "R", ["Y"], recv),
    }
    arch = "par_%s.arch" % uid
    files[arch] = _arch("A_" + uid, ["P", "Q"],
                        [(na, "P", {"X": "Q"}), (nb, "Q", {"Y": "P"})])
    status = CONSISTENT if (2 * width - 3) * gap <= timeout else CONFLICT
    return Instance(uid, files, [_single(uid, files, arch, status)])


def timed_search(rng, smallest=False):
    """The pool: every family, both outcomes, time constants C of 4..36."""
    if smallest:
        return [bscu(rng, "b0", 3, False), bscu(rng, "b1", 3, True),
                chain(rng, "c0", 3, 2, False), chain(rng, "c1", 3, 2, True),
                window(rng, "w0", 5, 3), window(rng, "w1", 5, 7),
                par_timeout(rng, "p0", 2, 2, 4), par_timeout(rng, "p1", 2, 3, 2)]
    pool = []
    # Outcomes alternate within each family, so both answers occur at
    # about every size.  Sizes, margins and the swapped pair are fixed, so
    # the seed varies only names and orders and a pass costs the same.
    for n, timeout in enumerate((4, 5, 6, 7, 8, 10)):
        pool.append(bscu(rng, "t%02d" % len(pool), timeout, repaired=n % 2 == 1))
    for n, (length, gap) in enumerate(((3, 3), (4, 2), (4, 3), (4, 4), (5, 3), (5, 4))):
        pool.append(chain(rng, "t%02d" % len(pool), length, gap, swapped=n % 2 == 1))
    for n, allowed in enumerate((6, 10, 14, 18, 22, 28, 34)):
        required = allowed + 2 if n % 2 else allowed - 2
        pool.append(window(rng, "t%02d" % len(pool), allowed, required))
    for n, (width, gap) in enumerate(((2, 6), (2, 10), (3, 4), (3, 6), (4, 2), (4, 3))):
        span = (2 * width - 3) * gap
        timeout = span - 1 if n % 2 else span + 1
        pool.append(par_timeout(rng, "t%02d" % len(pool), width, gap, timeout))
    return pool


# -- matching-fanout ------------------------------------------------------

def fanout_pair(rng, uid, k, c, require_all, strict, cap):
    """k equal ``ping`` messages between two diagrams.

    Only the order-preserving pairing is acyclic; every other permutation
    crosses two pings and deadlocks.  The identity pairing is enumerated
    first, so verdict 0 is consistent and every other one a deadlock.
    The receiver takes the pings within a ``timeout c`` (C = c <= 3), which
    keeps each search tiny.
    """
    ping, done = _word(rng, "ping"), _word(rng, "done")
    send = ["msg S -> B : %s" % ping] * k + ["msg S -> B : %s" % done]
    recv = ["timeout %d {" % c] + ["  msg C -> R : %s" % ping] * k + ["}",
                                                                      "msg C -> R : %s" % done]
    na, nb = "FanA_" + uid, "FanB_" + uid
    files = {
        na + ".tcsd": _tcsd(na, "S", ["B"], send),
        nb + ".tcsd": _tcsd(nb, "R", ["C"], recv),
    }
    arch = "fan_%s.arch" % uid
    files[arch] = _arch("A_" + uid, ["P", "Q"],
                        [(na, "P", {"B": "Q"}), (nb, "Q", {"C": "P"})])
    return _fanout_instance(uid, files, arch, _factorial(k),
                            require_all, strict, cap)


def fanout_triple(rng, uid, k, j, c, require_all, strict, cap):
    """A -> B carries k pings, B -> C carries j pongs: k!*j! matchings,
    only the pairing that preserves both orders is consistent."""
    ping, pong = _word(rng, "ping"), _word(rng, "pong")
    na, nb, nc = "TriA_" + uid, "TriB_" + uid, "TriC_" + uid
    files = {
        na + ".tcsd": _tcsd(na, "S", ["B"], ["msg S -> B : %s" % ping] * k),
        nb + ".tcsd": _tcsd(nb, "R", ["A", "C"],
                            ["msg A -> R : %s" % ping] * k
                            + ["msg R -> C : %s" % pong] * j),
        nc + ".tcsd": _tcsd(nc, "T", ["B"],
                            ["timeout %d {" % c] + ["  msg B -> T : %s" % pong] * j
                            + ["}"]),
    }
    arch = "tri_%s.arch" % uid
    files[arch] = _arch("A_" + uid, ["P", "Q", "W"], [
        (na, "P", {"B": "Q"}),
        (nb, "Q", {"A": "P", "C": "W"}),
        (nc, "W", {"B": "Q"}),
    ])
    return _fanout_instance(uid, files, arch, _factorial(k) * _factorial(j),
                            require_all, strict, cap)


def _factorial(n):
    out = 1
    for i in range(2, n + 1):
        out *= i
    return out


def _fanout_instance(uid, files, arch, total, require_all, strict, cap):
    considered = min(total, cap)
    statuses = (CONSISTENT,) + (DEADLOCK,) * (considered - 1)
    extra = ["--max-matchings", str(cap)]
    if require_all:
        extra.append("--require-all")
    if strict:
        extra += ["--policy", "strict"]
    overall = INCONSISTENT if require_all and considered > 1 else CONSISTENT
    classes = (DEADLOCK,) if considered > 1 else ()
    op = _check(uid, files, arch, extra, overall=overall, failure_classes=classes,
                statuses=statuses)
    return Instance(uid, files, [op])


def matching_fanout(rng, smallest=False):
    """The pool: k = 3..6 pairs and small triples, half under --require-all."""
    if smallest:
        return [fanout_pair(rng, "f0", 3, 1, False, False, 64),
                fanout_pair(rng, "f1", 3, 2, True, True, 64),
                fanout_triple(rng, "f2", 2, 2, 3, True, False, 64)]
    pool = []
    # (k, --max-matchings): 64 is the default and truncates k >= 5, the
    # other caps lie above k! so that every matching is analysed.
    pairs = ((3, 64), (3, 10), (4, 64), (4, 64), (4, 30), (5, 64), (5, 64),
             (5, 150), (6, 64), (6, 64), (3, 64))
    for n, (k, cap) in enumerate(pairs):
        pool.append(fanout_pair(rng, "m%02d" % len(pool), k, 1 + n % 3,
                                require_all=n % 2 == 1,
                                strict=n % 3 == 0, cap=cap))
    for n, (k, j) in enumerate(((2, 2), (3, 2), (2, 3), (3, 2))):
        pool.append(fanout_triple(rng, "m%02d" % len(pool), k, j, 1 + n % 3,
                                  require_all=n % 2 == 0,
                                  strict=n % 2 == 1, cap=64))
    return pool


# -- frontend-large -------------------------------------------------------

FRONTEND_CLAUSES = ("uniqueness", "ordering", "no-fragment-cutting",
                    "timeout-ordered", "sut-endpoint")


class _Writer:
    """Emits a valid diagram of about ``budget`` messages using every construct."""

    def __init__(self, rng, budget):
        self.rng = rng
        self.budget = budget
        self.n = 0
        self.stamp = 0
        self.stamps: list[int] = []  # partition timestamps, in order

    def msg(self, indent, tests=("A", "B")):
        self.n += 1
        t = self.rng.choice(tests)
        if self.rng.random() < 0.5:
            return "%smsg S -> %s : m%d" % (indent, t, self.n)
        return "%smsg %s -> S : m%d" % (indent, t, self.n)

    def block(self, indent, depth):
        """Body of a fragment operand: messages and nested fragments."""
        out = [self.msg(indent)]
        for _ in range(self.rng.randint(0, 2)):
            if depth < 2 and self.rng.random() < 0.3:
                out += self.fragment(indent, depth + 1)
            else:
                out.append(self.msg(indent))
        return out

    def fragment(self, indent, depth):
        op = self.rng.choice(("par", "alt", "opt", "strict", "loop", "timeout"))
        inner = indent + "  "
        if op in ("par", "alt"):
            out = ["%s%s {" % (indent, op)]
            for _ in range(self.rng.randint(2, 3)):
                out.append("%sop {" % inner)
                out += self.block(inner + "  ", depth)
                out.append("%s}" % inner)
            return out + ["%s}" % indent]
        if op == "loop":
            head = "%sloop %d {" % (indent, self.rng.randint(1, 2))
        elif op == "timeout":
            # Anchored on messages at both ends, so the anchors differ and lie
            # in one operand.  Inside a fragment the body holds messages only:
            # the parser files a fragment nested in such a timeout under the
            # timeout instead of the operand, and the validator then reports
            # a spurious no-shared-events violation.
            if depth:
                body = [self.msg(inner) for _ in range(self.rng.randint(1, 3))]
            else:
                body = self.block(inner, depth)
            return (["%stimeout %d {" % (indent, self.rng.randint(2, 9))]
                    + body + [self.msg(inner), "%s}" % indent])
        else:
            head = "%s%s {" % (indent, op)
        return [head] + self.block(inner, depth) + ["%s}" % indent]

    def partition(self):
        self.stamp += self.rng.randint(2, 4)
        self.stamps.append(self.stamp)
        return ["  at %d" % self.stamp]

    def body(self):
        """Top-level statements, each as its list of lines."""
        chunks = []
        while self.n < self.budget or len(self.stamps) < 2:
            roll = self.rng.random()
            if roll < 0.08 or (self.n >= self.budget and len(self.stamps) < 2):
                chunks.append(self.partition())
            elif roll < 0.45:
                chunks.append(self.fragment("  ", 0))
            else:
                chunks.append([self.msg("  ")])
        return chunks


def _inject(rng, chunks, stamps, clause):
    """Insert one violation of ``clause`` between top-level statements."""
    tops = [n for n, c in enumerate(chunks) if c[0].startswith("  at ")]
    if clause == "uniqueness":
        n = rng.choice(tops)
        chunks.insert(n + 1, list(chunks[n]))
    elif clause == "ordering":
        # a stamp below the first partition, drawn after the last one
        chunks.insert(tops[-1] + 1, ["  at 1"])
    elif clause == "no-fragment-cutting":
        # a stamp strictly between two neighbours, inside a par operand
        i = rng.randrange(len(stamps) - 1)
        chunks.insert(tops[i] + 1, [
            "  par {", "    op {", "      msg S -> A : cut1",
            "      at %d" % (stamps[i] + 1), "    }",
            "    op {", "      msg A -> S : cut2", "    }", "  }"])
    elif clause == "timeout-ordered":
        chunks.insert(rng.randrange(len(chunks) + 1),
                      ["  timeout 4 {", "    msg S -> A : lonely", "  }"])
    elif clause == "sut-endpoint":
        chunks.insert(rng.randrange(len(chunks) + 1), ["  msg A -> B : stray"])
    else:
        raise ValueError(clause)


def frontend(rng, uid, messages, clause=None):
    """One large diagram; invalid when ``clause`` names an injected fault."""
    w = _Writer(rng, messages)
    chunks = w.body()
    if clause:
        _inject(rng, chunks, w.stamps, clause)
    name = "Big_" + uid
    path = name + ".tcsd"
    text = "tcsd %s {\n  sut S\n  test A\n  test B\n%s\n}\n" % (
        name, "\n".join(line for c in chunks for line in c))
    if clause:
        ops = [Op(("validate", path), 1, clause=clause)]
    else:
        ops = [Op(("validate", path), 0),
               Op(("translate", path, "--dot", uid + ".dot", "--tapaal", uid + ".xml"), 0)]
    return Instance(uid, {path: text}, ops)


def frontend_large(rng, smallest=False):
    """The pool: 300..3000 messages; every valid diagram is validated and
    translated, every third is invalid and only validated."""
    if smallest:
        return [frontend(rng, "g0", 60), frontend(rng, "g1", 60, "ordering")]
    # every third diagram carries a fault, so each clause occurs once
    sizes = (300, 300, 350, 400, 450, 500, 600, 700, 800, 1000, 1200, 1500, 2000,
             2500, 3000)
    clauses = list(FRONTEND_CLAUSES)
    rng.shuffle(clauses)
    out = []
    for n, size in enumerate(sizes):
        clause = clauses[n // 3] if n % 3 == 2 else None
        out.append(frontend(rng, "g%02d" % n, size, clause))
    return out


def make_pool(workload: str, seed: int, smallest: bool = False) -> list[Instance]:
    """The workload's instances in a seeded order.

    A full pool holds 25 operations (15 for matching-fanout, whose checks
    are shorter and which makes more passes).  With an odd count the median
    of a run's samples falls in the middle of one operation's repeats and
    not on the boundary between two operations of different cost; with
    5 mod 10 operations the 90th percentile does too.
    """
    rng = random.Random("%s/%d" % (workload, seed))
    make = {"timed-search": timed_search, "matching-fanout": matching_fanout,
            "frontend-large": frontend_large}[workload]
    pool = make(rng, smallest)
    rng.shuffle(pool)
    return pool
