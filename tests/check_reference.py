"""``integrate.check_consistency`` as it was when every matching was
decided on its own merged net.

A verbatim copy of the loop that merged each matching with
``integrate.merge``, read its causal order, constraints and witness
through ``stp`` on that net, searched a deadlock with ``tapn.reachable``
on it and took ``blocking`` from its arcs with ``_blocking_labels``.  It
is the reference that ``test_integrate``'s differential tests compare
the fused graph and search tables of ``check_consistency`` with; nothing
in ``src`` uses it.

    PYTHONPATH=src:tests python tests/check_reference.py [DRAWS]

compares the two on DRAWS (default 3000) generated diagram pairs with
drawn options, and then on ping fan-outs with every matching checked,
and fails naming the first check that differs.
"""

from __future__ import annotations

import itertools
import math
import sys

from virtint import stp, tapn
from virtint.integrate import (BOUND_EXCEEDED, CONSISTENT, ORDERING_DEADLOCK,
                               TIMING_CONFLICT, AnalysisReport, IntegrationError, Verdict,
                               _Union, enumerate_matchings, merge)
from virtint.tapn import Tapn


def _blocking_labels(net: Tapn, frontier) -> tuple[str, ...]:
    """Labeled transitions with some marked input place in a dead marking."""
    marked = {p for m in frontier for p, ages in m.items() if ages}
    fed = {a.transition for a in net.input_arcs if a.place in marked}
    fed.update(a.transition for a in net.transport_arcs if a.source in marked)
    return tuple(sorted({t.label for t in net.transitions
                         if t.label is not None and t.id in fed}))


def check_consistency(units, imap, policy="maximal", require_all=False,
                      max_states=1_000_000, max_total_delay=None,
                      max_matchings=64) -> AnalysisReport:
    names = [u.name for u in units]
    suts = [imap.sut_components[n] for n in names]
    if len(set(suts)) != len(suts):
        raise IntegrationError(
            "two diagrams test the same component: %s"
            % sorted(c for c in suts if suts.count(c) > 1))

    stream = enumerate_matchings(units, imap, policy)
    # No enumeration reaches sys.maxsize matchings; islice takes no more.
    matchings = list(itertools.islice(stream, min(max_matchings, sys.maxsize)))
    truncated = next(stream, None) is not None
    if matchings:
        union = _Union(units)  # built and checked once for every matching

    verdicts: list[Verdict] = []
    for matching in matchings:
        merged = merge(union, matching)
        pair_labels = tuple(union.by_tid[a].label for a, _ in matching.pairs)
        read = stp.read_net(merged.net, merged.m0, merged.target)
        if read is None or not read[2]:
            raise IntegrationError("internal error: the merged net of %s is not an "
                                   "ordered marked graph" % (matching.pairs,))
        graph, marked, _ = read
        found = stp.graph_order(graph, marked)
        if len(found[0]) == len(merged.net.transitions):
            cons = stp.graph_constraints(graph, merged.m0, found)
            times = stp.earliest_times(cons)
            if times is None:
                status, witness = TIMING_CONFLICT, None
            elif max_total_delay is not None and max(times) > max_total_delay:
                status, witness = BOUND_EXCEEDED, None
            else:
                status, witness = CONSISTENT, stp.graph_witness(graph, cons, times)
            verdicts.append(Verdict(status, matching, pair_labels, witness, (), 0))
            continue
        timed = tapn.reachable(merged.net, merged.m0, merged.target,
                               max_states=max_states)
        blocking = (_blocking_labels(merged.net, timed.frontier)
                    if timed.verdict == tapn.UNREACHABLE else ())
        verdicts.append(Verdict(ORDERING_DEADLOCK, matching, pair_labels, None,
                                blocking, timed.states_explored))

    concluded = [v.status for v in verdicts]
    if require_all:
        if any(s in (ORDERING_DEADLOCK, TIMING_CONFLICT) for s in concluded):
            overall = "inconsistent"
        elif truncated or any(s == BOUND_EXCEEDED for s in concluded):
            overall = "inconclusive"
        else:
            overall = CONSISTENT
    else:
        if any(s == CONSISTENT for s in concluded):
            overall = CONSISTENT
        elif truncated or any(s == BOUND_EXCEEDED for s in concluded):
            overall = "inconclusive"
        else:
            overall = "inconsistent"
    return AnalysisReport(overall, verdicts, policy, require_all, truncated,
                          tuple(names))


def main(argv) -> int:
    from test_integrate import _assert_checks_as_the_reference, _check_draw, _fanout_pair

    draws = int(argv[0]) if argv else 3000
    decided = 0
    for seed in range(draws):
        try:
            report = _assert_checks_as_the_reference(*_check_draw(seed))
        except AssertionError as exc:
            raise AssertionError("_check_draw(%d): %s" % (seed, exc)) from exc
        decided += not isinstance(report, str)
    print("%d draws agree with check_reference; %d of them decided a matching"
          % (draws, decided))
    # k equal pings inside `timeout c`, every one of the k! matchings
    # checked: up to k! - 1 deadlock searches in one check, which share
    # the check's search tables.
    searches = []
    for k, c, policy in itertools.product(range(3, 7), range(1, 4), ("maximal", "strict")):
        options = dict(policy=policy, require_all=True, max_matchings=math.factorial(k))
        try:
            report = _assert_checks_as_the_reference(*_fanout_pair(k, c), options)
        except AssertionError as exc:
            raise AssertionError("_fanout_pair(%d, %d) under %s: %s"
                                 % (k, c, policy, exc)) from exc
        searches.append(sum(v.status == ORDERING_DEADLOCK for v in report.verdicts))
    print("%d ping fan-outs agree with check_reference; %d to %d deadlock searches "
          "per check" % (len(searches), min(searches), max(searches)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
