"""Spans and counters around virtint's public functions, for the traced run.

Wrappers replace module attributes (``integrate.merge``, ``tapn.reachable``
...) only while a traced loop runs; nothing under ``src/`` changes.  The
modules call each other through those attributes, so nested calls are
traced too: ``tapn.untimed_reachable`` calls ``tapn.reachable``, which makes
the classification search a child span of the classification call.

A span is (name, parent, start, end), kept in memory in four parallel
lists.  A layer's self time is its spans' duration minus the time covered
by their child spans.
"""

from __future__ import annotations

import functools
import gzip
import json
import time
from collections import Counter, defaultdict

from virtint import tapn

# Layer module -> public functions traced in it.
LAYERS = {
    "parser": ("parse_tcsd", "parse_architecture"),
    "model": ("validate",),
    "translate": ("translate",),
    "integrate": ("build_instance_map", "enumerate_matchings", "merge",
                  "check_consistency"),
    "tapn": ("reachable", "untimed_reachable"),
    "export": ("to_report_json", "to_dot", "to_tapaal_xml"),
    "cli": ("main",),
}
ENGINE_SETUP = "tapn.engine_setup"  # the private search-net constructor
CHECK = "integrate.check_consistency"
HOOK = "trace.hook"  # counting after a call; its own span keeps it out of self times


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.peaks: dict[str, int] = defaultdict(int)

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.ends.append(0.0)
        self.stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def close(self, idx: int):
        self.ends[idx] = time.perf_counter()
        self.stack.pop()

    def parent_name(self, idx: int) -> str | None:
        p = self.parents[idx]
        return self.names[p] if p >= 0 else None

    def peak(self, key: str, value: int):
        if value > self.peaks[key]:
            self.peaks[key] = value

    def write(self, path: str):
        """Write every span as gzip-compressed JSON."""
        table = sorted(set(self.names))
        code = {n: i for i, n in enumerate(table)}
        doc = {
            "names": table,
            "spans": [[code[n], p, round(s, 7), round(e, 7)] for n, p, s, e in
                      zip(self.names, self.parents, self.starts, self.ends)],
        }
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fp:
            json.dump(doc, fp, separators=(",", ":"))


# -- counters taken from public return values -------------------------------

def _source_bytes(t, idx, args, kwargs, result):
    t.counts["parser.bytes"] += len((args[0] if args else kwargs["source"]).encode())


def _validated_events(t, idx, args, kwargs, result):
    tcsd = args[0] if args else kwargs["tcsd"]
    t.counts["model.events"] += sum(len(evs) for evs in tcsd.base.events.values())


def _net_nodes(t, idx, args, kwargs, result):
    t.counts["translate.nodes"] += len(result.net.places) + len(result.net.transitions)


def _merged(t, idx, args, kwargs, result):
    net = result.net
    t.counts["merge.nodes"] += len(net.places) + len(net.transitions)
    t.peak("max_guard_constant", tapn.max_guard_constant(net))


def _verdicts(t, idx, args, kwargs, result):
    """Matchings evaluated vs needed: up to the first consistent one, or all
    of them under require_all."""
    evaluated = len(result.verdicts)
    needed = evaluated
    if not result.require_all:
        for n, v in enumerate(result.verdicts):
            if v.status == "consistent":
                needed = n + 1
                break
    t.counts["matchings.evaluated"] += evaluated
    t.counts["matchings.needed"] += needed


def _reach(t, idx, args, kwargs, result):
    parent = t.parent_name(idx)
    if parent == CHECK:
        t.counts["timed.states"] += result.states_explored
        t.peak("peak_frontier", result.peak_frontier)
    if result.verdict == "bound-exceeded" and parent in (CHECK, "tapn.untimed_reachable"):
        t.counts["bound_exceeded"] += 1


def _classify(t, idx, args, kwargs, result):
    t.counts["classify.states"] += result.states_explored


def _bytes_out(t, idx, args, kwargs, result):
    t.counts["export.bytes"] += len(result.encode())


HOOKS = {
    "parser.parse_tcsd": _source_bytes,
    "model.validate": _validated_events,
    "translate.translate": _net_nodes,
    "integrate.merge": _merged,
    "integrate.check_consistency": _verdicts,
    "tapn.reachable": _reach,
    "tapn.untimed_reachable": _classify,
    "export.to_report_json": _bytes_out,
    "export.to_dot": _bytes_out,
    "export.to_tapaal_xml": _bytes_out,
}


def _wrap(tracer: Tracer, name: str, fn, hook):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if hook is not None:
            h = tracer.open(HOOK)
            try:
                hook(tracer, idx, args, kwargs, result)
            finally:
                tracer.close(h)
        return result
    return traced


def _wrap_generator(tracer: Tracer, name: str, fn):
    """One span per resumption; the yields are counted as matchings."""
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        inner = fn(*args, **kwargs)
        while True:
            idx = tracer.open(name)
            try:
                item = next(inner)
            except StopIteration:
                return
            finally:
                tracer.close(idx)
            tracer.counts["matchings.yielded"] += 1
            yield item
    return traced


def install(tracer: Tracer, virtint) -> list:
    """Replace the traced attributes; returns the undo list for ``restore``."""
    undo = []
    for module_name, attrs in LAYERS.items():
        module = getattr(virtint, module_name)
        for attr in attrs:
            fn = getattr(module, attr, None)
            if fn is None:  # removed by a later design; its metrics read 0
                continue
            name = "%s.%s" % (module_name, attr)
            if attr == "enumerate_matchings":
                wrapped = _wrap_generator(tracer, name, fn)
            else:
                wrapped = _wrap(tracer, name, fn, HOOKS.get(name))
            setattr(module, attr, wrapped)
            undo.append((module, attr, fn))
    search_net = getattr(tapn, "_SearchNet", None)
    if search_net is not None:
        undo.append((search_net, "__init__", search_net.__init__))
        search_net.__init__ = _wrap(tracer, ENGINE_SETUP, search_net.__init__, None)
    return undo


def restore(undo: list):
    for owner, attr, fn in reversed(undo):
        setattr(owner, attr, fn)


def per_layer_metrics(tracer: Tracer, ops: int) -> dict[str, tuple[float, str]]:
    """Per-operation self times, counts and ratios of one traced loop."""
    names, parents, starts, ends = tracer.names, tracer.parents, tracer.starts, tracer.ends
    covered = [0.0] * len(names)
    for i, p in enumerate(parents):
        if p >= 0:
            covered[p] += ends[i] - starts[i]
    self_s: dict[str, float] = defaultdict(float)
    total_s: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    timed_s = 0.0
    timed_calls = 0
    for i, name in enumerate(names):
        duration = ends[i] - starts[i]
        self_s[name] += duration - covered[i]
        total_s[name] += duration
        calls[name] += 1
        if name == "tapn.reachable" and parents[i] >= 0 and names[parents[i]] == CHECK:
            timed_s += duration
            timed_calls += 1
    c = tracer.counts
    ops = max(ops, 1)

    def per_op(value):
        return value / ops

    def ratio(a, b):
        return a / b if b else 0.0

    m = {
        "tapn.reachable.timed_s": (per_op(timed_s), "s/op"),
        "tapn.reachable.calls": (per_op(timed_calls), "calls/op"),
        "tapn.states_explored": (per_op(c["timed.states"]), "states/op"),
        "tapn.states_per_s": (ratio(c["timed.states"], timed_s), "1/s"),
        "tapn.peak_frontier": (tracer.peaks["peak_frontier"], "states"),
        "tapn.max_guard_constant": (tracer.peaks["max_guard_constant"], "ticks"),
        "tapn.bound_exceeded": (c["bound_exceeded"], "count"),
        "tapn.untimed_reachable.classify_s":
            (per_op(total_s["tapn.untimed_reachable"]), "s/op"),
        "tapn.untimed_reachable.calls":
            (per_op(calls["tapn.untimed_reachable"]), "calls/op"),
        "tapn.classify_states_explored": (per_op(c["classify.states"]), "states/op"),
        "tapn.engine_setup_s": (per_op(total_s[ENGINE_SETUP]), "s/op"),
        "integrate.build_instance_map.self_s":
            (per_op(self_s["integrate.build_instance_map"]), "s/op"),
        "integrate.enumerate_matchings.self_s":
            (per_op(self_s["integrate.enumerate_matchings"]), "s/op"),
        "integrate.matchings": (per_op(c["matchings.yielded"]), "matchings/op"),
        "integrate.matchings_useful_ratio":
            (ratio(c["matchings.needed"], c["matchings.evaluated"]), "ratio"),
        "integrate.merge.self_s": (per_op(self_s["integrate.merge"]), "s/op"),
        "integrate.merge.calls": (per_op(calls["integrate.merge"]), "calls/op"),
        "integrate.merged_net_nodes":
            (ratio(c["merge.nodes"], calls["integrate.merge"]), "nodes"),
        "integrate.check_consistency.self_s": (per_op(self_s[CHECK]), "s/op"),
        "parser.parse_tcsd.self_s": (per_op(self_s["parser.parse_tcsd"]), "s/op"),
        "parser.parse_tcsd.kb_per_s":
            (ratio(c["parser.bytes"] / 1000.0, total_s["parser.parse_tcsd"]), "kB/s"),
        "parser.parse_architecture.self_s":
            (per_op(self_s["parser.parse_architecture"]), "s/op"),
        "model.validate.self_s": (per_op(self_s["model.validate"]), "s/op"),
        "model.validate.events": (per_op(c["model.events"]), "events/op"),
        "translate.translate.self_s": (per_op(self_s["translate.translate"]), "s/op"),
        "translate.net_nodes": (per_op(c["translate.nodes"]), "nodes/op"),
        "export.to_report_json.self_s":
            (per_op(self_s["export.to_report_json"]), "s/op"),
        "export.to_dot.self_s": (per_op(self_s["export.to_dot"]), "s/op"),
        "export.to_tapaal_xml.self_s": (per_op(self_s["export.to_tapaal_xml"]), "s/op"),
        "export.bytes_out": (per_op(c["export.bytes"]), "B/op"),
        "cli.main.self_s": (per_op(self_s["cli.main"]), "s/op"),
    }
    # Share of the traced operations' time spent in each layer's own code.
    total = total_s["cli.main"]
    for module_name in LAYERS:
        own = sum(v for k, v in self_s.items() if k.split(".")[0] == module_name)
        m["layer.%s.share" % module_name] = (ratio(own, total), "ratio")
    m["trace.spans"] = (per_op(len(names)), "spans/op")
    return m
