"""One rejecting diagram per validation clause, plus a passing mutation.

Clauses reachable through the DSL are written as source snippets; the
rest (shapes the parser cannot produce) are built directly on the model
types.
"""

from virtint import parser
from virtint.model import (Event, Fragment, Message, Operand, PartitionLine,
                           SequenceDiagram, Tcsd, Timeout)


def _diagram(sut_events, test_events, messages=(), fragments=(), partitions=(),
             timeouts=()):
    events = {
        "S": tuple(sut_events),
        "A": tuple(test_events),
    }
    sd = SequenceDiagram("Clause", ("S", "A"), events, tuple(messages),
                         tuple(fragments))
    return Tcsd(sd, "S", tuple(partitions), tuple(timeouts))


def _msg_events(n, frag=None):
    return (Event("s%d" % n, "S", "send", frag),
            Event("r%d" % n, "A", "receive", frag))


def _self_nesting():
    s1, r1 = _msg_events(1)
    bad = _diagram(
        [Event("en", "S", "fragment-enter", "f"), s1,
         Event("ex", "S", "fragment-exit", "f")],
        [r1],
        messages=[Message("s1", "x", "r1")],
        fragments=[Fragment("f", "opt", (Operand(("s1", "r1"), ("f",)),))],
    )
    good = _diagram(
        [Event("en", "S", "fragment-enter", "f"), s1,
         Event("ex", "S", "fragment-exit", "f")],
        [r1],
        messages=[Message("s1", "x", "r1")],
        fragments=[Fragment("f", "opt", (Operand(("s1", "r1"), ()),))],
    )
    return "no-self-nesting", bad, good


def _shared_events():
    s1, r1 = _msg_events(1, None)
    s2, r2 = _msg_events(2, None)

    def build(g_events):
        return _diagram(
            [Event("en1", "S", "fragment-enter", "f"),
             Event("s1", "S", "send", None),
             Event("ex1", "S", "fragment-exit", "f"),
             Event("en2", "S", "fragment-enter", "g"),
             Event("s2", "S", "send", None),
             Event("ex2", "S", "fragment-exit", "g")],
            [r1, r2],
            messages=[Message("s1", "x", "r1"), Message("s2", "y", "r2")],
            fragments=[
                Fragment("f", "opt", (Operand(("s1", "r1")),)),
                Fragment("g", "opt", (Operand(g_events),)),
            ],
        )

    # The sibling fragments share the test-line event r1.
    return "no-shared-events", build(("s2", "r2", "r1")), build(("s2", "r2"))


def _containment():
    def build(parent_events):
        return _diagram(
            [Event("en1", "S", "fragment-enter", "f"),
             Event("en2", "S", "fragment-enter", "g"),
             Event("s1", "S", "send", None),
             Event("ex2", "S", "fragment-exit", "g"),
             Event("ex1", "S", "fragment-exit", "f")],
            [Event("r1", "A", "receive", None)],
            messages=[Message("s1", "x", "r1")],
            fragments=[
                Fragment("f", "opt", (Operand(parent_events, ("g",)),)),
                Fragment("g", "opt", (Operand(("s1", "r1")),)),
            ],
        )

    # The parent operand misses the nested test-line event r1.
    return "event-containment", build(("en2", "ex2", "s1")), \
        build(("en2", "ex2", "s1", "r1"))


def _completeness():
    def build(partition_events, extra_test_events):
        return _diagram(
            [Event("s1", "S", "send"), Event("pS", "S", "partition")],
            [Event("r1", "A", "receive")] + extra_test_events,
            messages=[Message("s1", "x", "r1")],
            partitions=[PartitionLine(partition_events, 3)],
        )

    bad = build(("pS",), [])
    good = build(("pS", "pA"), [Event("pA", "A", "partition")])
    return "completeness", bad, good


def _timeout_same_fragment():
    def build(start):
        return _diagram(
            [Event("en", "S", "fragment-enter", "f"),
             Event("s1", "S", "send"),
             Event("ex", "S", "fragment-exit", "f"),
             Event("s2", "S", "send")],
            [Event("r1", "A", "receive"), Event("r2", "A", "receive")],
            messages=[Message("s1", "x", "r1"), Message("s2", "y", "r2")],
            fragments=[Fragment("f", "opt", (Operand(("s1", "r1")),))],
            timeouts=[Timeout(start, "s2", 4)],
        )

    # Start sits inside the fragment operand, end outside.
    return "timeout-same-fragment", build("s1"), build("ex")


_DSL_CASES = [
    # (clause, rejecting source, passing mutation)
    ("uniqueness",
     "tcsd C { sut S test A msg A -> S : x at 5 at 5 }",
     "tcsd C { sut S test A msg A -> S : x at 5 at 6 }"),
    ("ordering",
     "tcsd C { sut S test A at 5 msg A -> S : x at 3 }",
     "tcsd C { sut S test A at 3 msg A -> S : x at 5 }"),
    ("no-fragment-cutting",
     "tcsd C { sut S test A par { op { msg A -> S : x at 3 } op { msg A -> S : y } } }",
     "tcsd C { sut S test A par { op { msg A -> S : x } op { msg A -> S : y } } at 3 }"),
    ("timeout-ordered",
     "tcsd C { sut S test A timeout 5 { msg A -> S : x } }",
     "tcsd C { sut S test A timeout 5 { msg A -> S : x msg S -> A : y } }"),
    ("sut-endpoint",
     "tcsd C { sut S test A test B msg A -> B : x msg A -> S : y }",
     "tcsd C { sut S test A test B msg A -> S : x msg A -> S : y }"),
]


def all_clause_cases():
    """[(clause, rejecting Tcsd, passing Tcsd)] covering all ten rules."""
    cases = [
        _self_nesting(),
        _shared_events(),
        _containment(),
        _completeness(),
        _timeout_same_fragment(),
    ]
    for clause, bad_src, good_src in _DSL_CASES:
        bad = parser.parse_tcsd(bad_src).tcsd
        good = parser.parse_tcsd(good_src).tcsd
        cases.append((clause, bad, good))
    return cases


def overlapping_fragments():
    """Fragments f, g, h overlap pairwise, h also overlaps f's child k, and
    the timeout's endpoints are split across both operands of g."""
    sut = [Event("s%d" % n, "S", "send") for n in (1, 2, 3, 4)]
    test = [Event("r%d" % n, "A", "receive") for n in (1, 2, 3, 4)]
    return _diagram(
        sut, test,
        messages=[Message("s%d" % n, "m%d" % n, "r%d" % n) for n in (1, 2, 3, 4)],
        fragments=[
            Fragment("f", "opt", (Operand(("s1", "r1", "s2", "r2"), ("k",)),)),
            Fragment("g", "par", (Operand(("s2", "r2", "s3")), Operand(("s4", "r4")))),
            Fragment("h", "opt", (Operand(("r1", "s3", "r3")),)),
            Fragment("k", "opt", (Operand(("s1", "r1")),)),
        ],
        timeouts=[Timeout("s3", "s4", 5)],
    )


def owner_index_cases():
    """[(name, Tcsd, expected violations as tuples)] that read the owners
    of an event listed by two nested fragments in different operands:
    which owner comes first, and both anchors' owners.  A timeout may
    cross a strict fragment's border, but not that of a fragment round
    it."""
    def build(src, *timeouts):
        tcsd = parser.parse_tcsd("tcsd C { sut S test A %s }" % src).tcsd
        if timeouts:
            tcsd = tcsd._replace(timeouts=tuple(Timeout(*c) for c in timeouts))
        return tcsd

    nested = "msg A -> S : a par { op { msg A -> S : b } op { opt { msg S -> A : c } } }"
    return [
        # The partition events are listed by opt f1 and par f2, in that order.
        ("cut-by-nested",
         build("par { op { msg A -> S : x } op { opt { at 3 } msg S -> A : y } }"),
         [("no-fragment-cutting", ("e3", "f1"), "partition event lies inside a fragment operand"),
          ("no-fragment-cutting", ("e4", "f1"), "partition event lies inside a fragment operand")]),
        # Only the end e5 is listed, by f1's operand 0 and f2's operand 1.
        ("end-in-nested", build(nested, ("e2", "e5", 5)),
         [("timeout-same-fragment", ("e2", "e5", "f1"),
           "endpoints split across operand 0 of fragment f1"),
          ("timeout-same-fragment", ("e2", "e5", "f2"),
           "endpoints split across operand 1 of fragment f2")]),
        ("start-in-nested", build(nested, ("e5", "e12", 5)),
         [("timeout-same-fragment", ("e5", "e12", "f1"),
           "endpoints split across operand 0 of fragment f1"),
          ("timeout-same-fragment", ("e5", "e12", "f2"),
           "endpoints split across operand 1 of fragment f2")]),
        # From inside strict f1, inside opt f2, to after both.
        ("across-strict-and-opt",
         build("opt { strict { msg A -> S : x } } msg S -> A : y", ("e2", "e11", 5)),
         [("timeout-same-fragment", ("e2", "e11", "f2"),
           "endpoints split across operand 0 of fragment f2")]),
        ("across-strict", build("timeout 5 { strict { msg A -> S : x } msg S -> A : y }"), []),
        ("across-strict-last", build("timeout 5 { msg A -> S : x strict { msg S -> A : y } }"),
         []),
    ]
