"""Seeded random generators for diagrams and nets used by the property tests."""

import itertools
import random

from virtint import integrate, model, parser, translate
from virtint.model import (Event, Fragment, Message, Operand, PartitionLine, SequenceDiagram,
                           Tcsd, Timeout)
from virtint.tapn import (Guard, InputArc, OutputArc, Tapn, TargetSpec,
                          Transition, TransportArc, delay, enabled, fire,
                          marking_counts, normalize_marking)


def random_tcsd_source(rng: random.Random, name: str, max_sut_events: int = 12,
                       max_depth: int = 2, label_pool: int = 0, max_ticks: int = 6,
                       tail: tuple[str, int] | None = None,
                       nest_in_timeouts: bool = False) -> str:
    """A syntactically and semantically valid random diagram program.

    Partitions ascend and stay at the top level, timeouts nest properly,
    fragment depth and the SUT event count respect the given limits.
    Labels are m1, m2, ... in order, or drawn from m1..m<label_pool>
    when that is set.  Partitions step by 1..min(4, max_ticks) ticks and
    timeouts last 1..max_ticks.

    A timeout holds two or three messages, or, with ``nest_in_timeouts``,
    a block like a fragment's operand, fragments and timeouts too, then a
    message.

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
                if nest_in_timeouts:  # a timeout is no fragment: the depth stays
                    # A message after the block: two anchors at least.
                    lines.extend(gen_block(depth, False, indent + "  "))
                    lines.append(msg_line(indent + "  "))
                else:
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
                        max_depth: int = 2, max_ticks: int = 6, timing: bool = False,
                        nest_in_timeouts: bool = False):
    """Translated units TA and TB plus their instance map.

    Both diagrams come from ``random_tcsd_source`` and draw their labels
    from one small pool.  TA's ``S -> A`` and TB's ``A -> S`` both run from
    X to Y (and the reverse), so such messages with one label synchronise.

    With ``timing`` TA ends on c1 and c2 inside a timeout of n ticks and TB
    on c1 and c2 with partitions n - 1, n or n + 1 ticks apart between
    them: a timing conflict when the gap is n + 1 and the rest of the pair
    can run.  ``nest_in_timeouts`` is ``random_tcsd_source``'s.
    """
    pool = rng.randint(1, 4)
    tails = (None, None)
    if timing:
        ticks = rng.randint(1, max_ticks)
        tails = (("timeout", ticks), ("gap", max(1, ticks + rng.randint(-1, 1))))
    tcsds = [model.validate(parser.parse_tcsd(random_tcsd_source(
        rng, name, max_sut_events, max_depth, pool, max_ticks, tail,
        nest_in_timeouts)).tcsd).tcsd
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


def mutated_diagram(rnd: random.Random, tcsd: Tcsd) -> Tcsd:
    """``tcsd`` after zero to four random edits of its model: events moved,
    retyped, copied, dropped or filed under another line, and operands,
    children, partitions, messages and timeouts rewired."""
    base = tcsd.base
    lines = {inst: list(evs) for inst, evs in base.events.items()}
    frags = [[f.id, f.operator, [[list(op.events), list(op.children)] for op in f.operands],
              f.loop_bound] for f in base.fragments]
    messages = [list(m) for m in base.messages]
    partitions = [[list(p.events), p.timestamp] for p in tcsd.partitions]
    timeouts = [list(c) for c in tcsd.timeouts]

    def any_event():
        ids = [e.id for evs in lines.values() for e in evs]
        return rnd.choice(ids) if ids else "ghost"

    def any_operand():
        ops = [op for f in frags for op in f[2]]
        return rnd.choice(ops) if ops else None

    for _ in range(rnd.choice([0, 1, 1, 2, 2, 3, 4])):
        edit = rnd.choice(["move", "move", "kind", "op_drop", "op_add", "op_share", "op_share",
                           "op_move", "child",
                           "stamp", "stamp", "cut", "cut", "timeout", "timeout", "endpoint",
                           "border", "drop", "refile", "copy"])
        inst = rnd.choice(list(lines))
        line = lines[inst]
        op = any_operand()
        if edit == "move" and line:
            line.insert(rnd.randrange(len(line) + 1), line.pop(rnd.randrange(len(line))))
        elif edit == "kind" and line:
            k = rnd.randrange(len(line))
            kind = rnd.choice(model.EVENT_KINDS)
            fragment = rnd.choice([f[0] for f in frags] or [None]) if kind in (
                model.FRAGMENT_ENTER, model.FRAGMENT_EXIT) else None
            line[k] = line[k]._replace(kind=kind, fragment=fragment)
        elif edit == "op_drop" and op and op[0]:
            op[0].pop(rnd.randrange(len(op[0])))
        elif edit == "op_add" and op is not None:
            op[0].insert(rnd.randrange(len(op[0]) + 1), any_event())
        elif edit == "op_share" and op is not None:  # an event another fragment lists
            other = any_operand()
            if other[0]:
                op[0].append(rnd.choice(other[0]))
        elif edit == "op_move" and frags:
            f = rnd.choice(frags)
            src, dst = rnd.choice(f[2]), rnd.choice(f[2])
            if src[0]:
                dst[0].append(src[0].pop(rnd.randrange(len(src[0]))))
        elif edit == "child" and op is not None and frags:
            if op[1] and rnd.random() < 0.5:
                op[1].pop(rnd.randrange(len(op[1])))
            else:
                op[1].append(rnd.choice(frags)[0])
        elif edit == "stamp" and partitions:
            stamps = [p[1] for p in partitions]
            rnd.choice(partitions)[1] = rnd.choice(stamps + [0, rnd.randint(0, 12)])
        elif edit == "cut":
            if partitions and rnd.random() < 0.6:
                p = rnd.choice(partitions)
                p[0][rnd.randrange(len(p[0]))] = any_event()
            else:  # a whole new line, cutting each instance at a random place
                events = []
                for name, evs in lines.items():
                    eid = "p%d%s" % (len(partitions), name)
                    evs.insert(rnd.randrange(len(evs) + 1), Event(eid, name, model.PARTITION))
                    events.append(eid)
                partitions.append([events, rnd.randint(0, 12)])
        elif edit == "timeout":
            sut_ids = [e.id for e in lines.get(tcsd.sut, ())]
            if timeouts and rnd.random() < 0.4:
                rnd.choice(timeouts)[rnd.randrange(2)] = any_event()
            elif sut_ids:
                timeouts.append([rnd.choice(sut_ids), rnd.choice(sut_ids), rnd.randint(1, 5)])
        elif edit == "endpoint" and messages:
            m = rnd.choice(messages)
            if rnd.random() < 0.5:
                m[0], m[2] = m[2], m[0]
            else:
                m[rnd.choice([0, 2])] = any_event()
        elif edit == "border" and frags:
            borders = [k for k, e in enumerate(line)
                       if e.kind in (model.FRAGMENT_ENTER, model.FRAGMENT_EXIT)]
            if borders:
                k = rnd.choice(borders)
                line[k] = line[k]._replace(fragment=rnd.choice(frags)[0])
        elif edit == "drop" and line:
            line.pop(rnd.randrange(len(line)))
        elif edit == "copy" and line:  # the same id twice, or an unknown kind
            e = rnd.choice(line)
            if rnd.random() < 0.3:
                e = e._replace(kind="jump")
            line.insert(rnd.randrange(len(line) + 1), e)
        elif edit == "refile" and line:
            other = rnd.choice(list(lines))
            lines[other].insert(rnd.randrange(len(lines[other]) + 1),
                                line.pop(rnd.randrange(len(line))))
    sd = SequenceDiagram(base.name, base.instances,
                         {inst: tuple(evs) for inst, evs in lines.items()},
                         tuple(Message(*m) for m in messages),
                         tuple(Fragment(fid, operator, tuple(Operand(tuple(e), tuple(c))
                                                             for e, c in ops), bound)
                               for fid, operator, ops, bound in frags))
    return Tcsd(sd, tcsd.sut, tuple(PartitionLine(tuple(e), t) for e, t in partitions),
                tuple(Timeout(*c) for c in timeouts))


def reordered_fragments(rnd: random.Random, tcsd: Tcsd) -> Tcsd:
    """``tcsd`` with its fragments listed in reverse or in a shuffled order.

    The parser lists a child before its parent, as the child closes first,
    and no edit of ``mutated_diagram`` reorders the fragments; here a
    parent may come first."""
    fragments = list(tcsd.base.fragments)
    if rnd.random() < 0.5:
        fragments.reverse()
    else:
        rnd.shuffle(fragments)
    return tcsd._replace(base=tcsd.base._replace(fragments=tuple(fragments)))
