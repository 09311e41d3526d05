"""Seeded random generators for diagrams and nets used by the property tests."""

import itertools
import random

from virtint import integrate, model, parser, translate
from virtint.tapn import (Guard, InputArc, OutputArc, Tapn, TargetSpec,
                          Transition, TransportArc, delay, enabled, fire,
                          marking_counts, normalize_marking)


def random_tcsd_source(rng: random.Random, name: str, max_sut_events: int = 12,
                       max_depth: int = 2, label_pool: int = 0, max_ticks: int = 6,
                       tail: tuple[str, int] | None = None) -> str:
    """A syntactically and semantically valid random diagram program.

    Partitions ascend and stay at the top level, timeouts nest properly,
    fragment depth and the SUT event count respect the given limits.
    Labels are m1, m2, ... in order, or drawn from m1..m<label_pool>
    when that is set.  Partitions step by 1..min(4, max_ticks) ticks and
    timeouts last 1..max_ticks.

    ``tail`` appends two messages labeled c1 and c2, which no other message
    has: ("timeout", n) sends both from S to A inside ``timeout n``, and
    ("gap", n) sends both from A to S with partitions n ticks apart between
    them, after every other partition.
    """
    tests = ["A", "B"][: rng.randint(1, 2)]
    state = {
        "budget": rng.randint(1, max_sut_events),
        "delta": 0,
        "label": 0,
    }

    def fresh_label():
        if label_pool:
            return "m%d" % rng.randint(1, label_pool)
        state["label"] += 1
        return "m%d" % state["label"]

    def msg_line(indent):
        state["budget"] -= 1
        t = rng.choice(tests)
        if rng.random() < 0.5:
            return "%smsg S -> %s : %s" % (indent, t, fresh_label())
        return "%smsg %s -> S : %s" % (indent, t, fresh_label())

    def gen_block(depth, top_level, indent):
        lines = []
        n_stmts = rng.randint(1, 3)
        for _ in range(n_stmts):
            if state["budget"] <= 0:
                break
            roll = rng.random()
            if top_level and roll < 0.15:
                state["delta"] += rng.randint(1, min(4, max_ticks))
                state["budget"] -= 1
                lines.append("%sat %d" % (indent, state["delta"]))
            elif roll < 0.35 and depth < max_depth and state["budget"] >= 4:
                op = rng.choice(["par", "alt", "opt", "strict", "loop"])
                state["budget"] -= 2  # enter/exit
                if op in ("par", "alt"):
                    lines.append("%s%s {" % (indent, op))
                    for _ in range(rng.randint(2, 3)):
                        lines.append("%s  op {" % indent)
                        lines.extend(gen_block(depth + 1, False, indent + "    "))
                        lines.append("%s  }" % indent)
                    lines.append("%s}" % indent)
                elif op == "loop":
                    lines.append("%sloop %d {" % (indent, rng.randint(0, 3)))
                    lines.extend(gen_block(depth + 1, False, indent + "  "))
                    lines.append("%s}" % indent)
                else:
                    lines.append("%s%s {" % (indent, op))
                    lines.extend(gen_block(depth + 1, False, indent + "  "))
                    lines.append("%s}" % indent)
            elif roll < 0.5 and state["budget"] >= 2:
                lines.append("%stimeout %d {" % (indent, rng.randint(1, max_ticks)))
                for _ in range(rng.randint(2, 3)):
                    if state["budget"] <= 0:
                        break
                    lines.append(msg_line(indent + "  "))
                lines.append("%s}" % indent)
            else:
                lines.append(msg_line(indent))
        if not lines:
            lines.append(msg_line(indent))
        return lines

    out = ["tcsd %s {" % name, "  sut S"]
    out.extend("  test %s" % t for t in tests)
    out.extend(gen_block(0, True, "  "))
    if tail is not None and tail[0] == "timeout":
        out += ["  timeout %d {" % tail[1], "    msg S -> A : c1", "    msg S -> A : c2", "  }"]
    elif tail is not None:
        first = state["delta"] + 1
        out += ["  msg A -> S : c1", "  at %d" % first, "  at %d" % (first + tail[1]),
                "  msg A -> S : c2"]
    out.append("}")
    return "\n".join(out) + "\n"


def _random_guard(rng: random.Random, max_const: int) -> Guard:
    lower = rng.randint(0, max_const)
    if rng.random() < 0.5:
        return Guard(lower)
    return Guard(lower, rng.randint(lower, max_const))


def random_tapn(rng: random.Random, max_places: int = 8, max_const: int = 6,
                max_tokens: int = 3):
    """A small net plus initial marking and target for oracle comparisons.

    The flow relation only points from lower-numbered to higher-numbered
    places and transitions never produce more tokens than they consume, so
    every firing sequence is finite and the uncapped naive enumerator can
    afford to explore the net exhaustively.
    """
    n_places = rng.randint(2, max_places)
    n_trans = rng.randint(1, 4)
    places = tuple("p%d" % i for i in range(n_places))
    transitions = []
    input_arcs: list[InputArc] = []
    output_arcs: list[OutputArc] = []
    transport_arcs: list[TransportArc] = []
    for i in range(n_trans):
        tid = "t%d" % i
        transitions.append(Transition(tid, None))
        lo = rng.randrange(0, n_places - 1)
        free_in = list(places[:lo + 1])
        free_out = list(places[lo + 1:])
        n_in = rng.randint(1, min(2, len(free_in)))
        if rng.random() < 0.5 and free_out:
            src = rng.choice(free_in)
            tgt = rng.choice(free_out)
            free_in.remove(src)
            free_out.remove(tgt)
            transport_arcs.append(TransportArc(src, tid, tgt, _random_guard(rng, max_const)))
            n_in -= 1
        n_normal = 0
        for _ in range(n_in):
            if not free_in:
                break
            src = rng.choice(free_in)
            free_in.remove(src)
            input_arcs.append(InputArc(src, tid, _random_guard(rng, max_const)))
            n_normal += 1
        for _ in range(rng.randint(0, n_normal)):
            if not free_out:
                break
            tgt = rng.choice(free_out)
            free_out.remove(tgt)
            output_arcs.append(OutputArc(tid, tgt))
    net = Tapn("rnd", places, tuple(transitions), tuple(input_arcs),
               tuple(output_arcs), tuple(transport_arcs))
    net.check()

    m0: dict[str, tuple[int, ...]] = {}
    for _ in range(rng.randint(1, max_tokens)):
        p = rng.choice(places)
        m0.setdefault(p, ())
        m0[p] = m0[p] + (rng.randint(0, 3),)
    m0 = normalize_marking(m0)

    if rng.random() < 0.5:
        target = _target_from_run(rng, net, m0)
    else:
        target: TargetSpec = {}
        for p in places:
            if rng.random() < 0.3:
                target[p] = rng.randint(1, 2)
    return net, m0, target


def _target_from_run(rng: random.Random, net: Tapn, m0) -> TargetSpec:
    m = dict(m0)
    for _ in range(rng.randint(0, 6)):
        m = delay(m, rng.randint(0, 3))
        options = enabled(net, m)
        if not options:
            break
        tid, binding = rng.choice(options)
        m = fire(net, m, tid, binding)
    return marking_counts(m)


_PAIR_ARCH = """
architecture Pair {
  components X, Y, Z
  bind TA { sut = X  A -> Y  B -> Z }
  bind TB { sut = Y  A -> X  B -> Z }
}
"""


def random_diagram_pair(rng: random.Random, max_sut_events: int = 8,
                        max_depth: int = 2, max_ticks: int = 6, timing: bool = False):
    """Translated units TA and TB plus their instance map.

    Both diagrams come from ``random_tcsd_source`` and draw their labels
    from one small pool.  TA's ``S -> A`` and TB's ``A -> S`` both run from
    X to Y (and the reverse), so such messages with one label synchronise.

    With ``timing`` TA ends on c1 and c2 inside a timeout of n ticks and TB
    on c1 and c2 with partitions n - 1, n or n + 1 ticks apart between
    them: a timing conflict when the gap is n + 1 and the rest of the pair
    can run.
    """
    pool = rng.randint(1, 4)
    tails = (None, None)
    if timing:
        ticks = rng.randint(1, max_ticks)
        tails = (("timeout", ticks), ("gap", max(1, ticks + rng.randint(-1, 1))))
    tcsds = [model.validate(parser.parse_tcsd(random_tcsd_source(
        rng, name, max_sut_events, max_depth, pool, max_ticks, tail)).tcsd).tcsd
        for name, tail in zip(("TA", "TB"), tails)]
    imap = integrate.build_instance_map(parser.parse_architecture(_PAIR_ARCH), tcsds)
    return [translate.translate(t) for t in tcsds], imap


def random_merged_units(rng: random.Random, max_sut_events: int = 8,
                        max_depth: int = 2, max_matchings: int = 4, max_ticks: int = 6):
    """The merged units of a ``random_diagram_pair``, one per matching (at
    most ``max_matchings``)."""
    units, imap = random_diagram_pair(rng, max_sut_events, max_depth, max_ticks)
    matchings = itertools.islice(integrate.enumerate_matchings(units, imap),
                                 max_matchings)
    return [integrate.merge(units, m) for m in matchings]
