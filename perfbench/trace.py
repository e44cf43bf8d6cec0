"""Per-layer tracing for the benchmark's traced run.

``Tracer.install()`` replaces the public functions of the eight ``cedr``
modules with wrappers that record one span per call. Each span holds a
name, a start, an end and its parent. A wrapper is bound under every name
that a caller looks the function up by: ``cedr.cli.read_events`` as well as
``cedr.jsonio.read_events``, and ``cedr.engine.make_accept`` as well as
``cedr.patterns.make_accept``. The engine's entry points are methods, so
``Pipeline`` and ``OperatorInstance`` get wrappers on their classes. Two
factories get a wrapper on what they return:

* ``engine.build_module``: the module's ``evaluate``, which counts the
  events passed in;
* ``patterns.make_accept``: the predicate hook, which counts calls and
  passes without recording spans.

``jsonio.loads_events`` and ``jsonio.dumps_events`` also count the rows
they parse or write.

Spans live in flat arrays and are written out once, by ``write``.
``uninstall`` puts every original back.
"""

from __future__ import annotations

import array
import dataclasses
import functools
import gzip
import inspect
import json
import statistics
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("cli", "query", "jsonio", "disorder", "temporal", "algebra", "patterns", "engine")

# Per-row and per-field helpers. A span for each call would cost more than
# the helper does, so their time is counted in the caller's span.
UNWRAPPED = {
    "temporal": {"check_time", "is_time", "fmt_time", "parse_time", "concat_payloads"},
    "jsonio": {"payload_to_obj", "payload_from_obj", "event_to_obj", "event_from_obj",
               "unievent_to_obj", "unievent_from_obj"},
    "patterns": {"idgen"},
}

ENGINE_METHODS = {
    "Pipeline": ("feed", "guarantee", "flush"),
    "OperatorInstance": ("ingest", "declare_guarantee", "flush"),
}

DECODERS = ("engine.pattern_event_from_row", "engine.merged_event_from_row")

# Metric name -> span name, for the functions whose share is reported.
FUNCTION_SHARES = {
    "cli.disorder_pct": "cli.cmd_disorder",
    "cli.equiv_pct": "cli.cmd_equiv",
    "cli.canon_pct": "cli.cmd_canon",
    "query.parse_pct": "query.parse",
    "query.compile_pct": "query.compile_query",
    "jsonio.loads_pct": "jsonio.loads_events",
    "jsonio.dumps_pct": "jsonio.dumps_events",
    "disorder.disorder_stream_pct": "disorder.disorder_stream",
    "temporal.reduce_pct": "temporal.reduce",
    "temporal.canonical_to_pct": "temporal.canonical_to",
    "temporal.canonical_at_pct": "temporal.canonical_at",
    "temporal.logically_equivalent_pct": "temporal.logically_equivalent",
    "temporal.coalesce_star_pct": "temporal.coalesce_star",
    "algebra.union_pct": "algebra.union",
    "algebra.difference_pct": "algebra.difference",
    "algebra.groupby_aggregate_pct": "algebra.groupby_aggregate",
    "patterns.sequence_pct": "patterns.sequence",
    "patterns.unless_pct": "patterns.unless",
}

clock = time.perf_counter


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_of = array.array("i")
        self.parent = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self._stack = [-1]
        self.counts: Counter = Counter()
        self._undo: list[tuple[object, str, object]] = []

    # -- recording

    def span(self, name: str, fn):
        """Wrap ``fn`` so that every call records a span called ``name``."""
        nid = self._ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        name_of, parent, start, end, stack = (self.name_of, self.parent,
                                              self.start, self.end, self._stack)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start)
            name_of.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return wrapper

    # -- installing

    def install(self) -> None:
        modules = {layer: sys.modules[f"cedr.{layer}"] for layer in LAYERS}
        namespaces = [m for name, m in sys.modules.items()
                      if name == "cedr" or name.startswith("cedr.")]
        for layer, module in modules.items():
            for attr, fn in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__
                        or attr in UNWRAPPED.get(layer, ())):
                    continue
                wrapped = self.span(f"{layer}.{attr}", fn)
                if (layer, attr) == ("engine", "build_module"):
                    wrapped = self._build_module(wrapped)
                elif (layer, attr) == ("patterns", "make_accept"):
                    wrapped = self._make_accept(wrapped)
                elif (layer, attr) == ("jsonio", "loads_events"):
                    wrapped = self._count_rows(wrapped, len)
                elif (layer, attr) == ("jsonio", "dumps_events"):
                    wrapped = self._count_rows(wrapped, lambda text: text.count("\n"))
                for ns in namespaces:
                    for name, value in list(vars(ns).items()):
                        if value is fn:
                            self._swap(ns, name, wrapped)
        for cls_name, methods in ENGINE_METHODS.items():
            cls = getattr(modules["engine"], cls_name)
            for method in methods:
                self._swap(cls, method,
                           self.span(f"engine.{cls_name}.{method}", getattr(cls, method)))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()

    def _swap(self, owner, name, value) -> None:
        self._undo.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def _build_module(self, build):
        evaluate_span = self.span("engine.evaluate", lambda fn, *a: fn(*a))
        counts = self.counts

        def build_module(kind, **params):
            module = build(kind, **params)
            inner = module.evaluate

            def evaluate(ports, store):
                counts["engine.evaluate_calls"] += 1
                counts["engine.evaluate_rows"] += sum(len(p) for p in ports)
                return evaluate_span(inner, ports, store)

            return dataclasses.replace(module, evaluate=evaluate)

        return build_module

    def _count_rows(self, fn, rows_in):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            counts["jsonio.rows"] += rows_in(result)
            return result

        return counted

    def _make_accept(self, make):
        counts = self.counts

        def make_accept(node, store):
            hook = make(node, store)
            if hook is None:
                return None

            def counted(ctx):
                ok = hook(ctx)
                counts["patterns.accept_calls"] += 1
                counts["patterns.accept_passed"] += bool(ok)
                return ok

            return counted

        return make_accept

    # -- reading

    def aggregate(self) -> dict:
        """Self time, outermost inclusive time and calls per span name."""
        n = len(self.start)
        start, end, parent, name_of = self.start, self.end, self.parent, self.name_of
        child = [0.0] * n
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        self_s: dict[str, float] = defaultdict(float)
        inclusive_s: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        root_s = 0.0
        for i in range(n):
            nid = name_of[i]
            name = self.names[nid]
            dur = end[i] - start[i]
            self_s[name] += dur - child[i]
            calls[name] += 1
            p = parent[i]
            if p < 0:
                root_s += dur
            while p >= 0 and name_of[p] != nid:
                p = parent[p]
            if p < 0:
                inclusive_s[name] += dur
        return {"self_s": self_s, "inclusive_s": inclusive_s, "calls": calls,
                "root_s": root_s}

    def write(self, path: str) -> None:
        """Write every span as one JSON line: name, start, end, parent."""
        t0 = self.start[0] if len(self.start) else 0.0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            for i in range(len(self.start)):
                fh.write(json.dumps({"name": self.names[self.name_of[i]],
                                     "start": self.start[i] - t0,
                                     "end": self.end[i] - t0,
                                     "parent": self.parent[i]}) + "\n")


def layer_metrics(agg: dict, counts: Counter, passes: int, samples: int,
                  totals: list[dict]) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of one traced run, as ``name -> (value, unit)``.

    Shares are percentages of the traced wall time (the root spans).  A
    ``<layer>.self_pct`` is the time inside that layer's spans and outside
    their wrapped children; a ``<layer>.<function>_pct`` is the time inside
    the outermost calls of that function, children included.  Counts are
    per pass, ``samples`` is the number of latency samples (arrivals and
    flushes) in the traced passes, and ``totals`` holds the engine
    ``metrics()["total"]`` of one pass over each input; the engine counts
    are their mean.
    """
    total = agg["root_s"] or 1.0
    self_s, incl = agg["self_s"], agg["inclusive_s"]
    calls_by_name = agg["calls"]

    def pct(seconds: float) -> tuple[float, str]:
        return (100.0 * seconds / total, "%")

    def layer_self(layer: str) -> float:
        return sum(v for k, v in self_s.items() if k.split(".", 1)[0] == layer)

    def per_pass(value: float) -> tuple[float, str]:
        return (value / passes, "count")

    out = {"bench.self_pct": pct(layer_self("bench"))}
    for layer in LAYERS:
        out[f"{layer}.self_pct"] = pct(layer_self(layer))
    for metric, name in FUNCTION_SHARES.items():
        out[metric] = pct(incl.get(name, 0.0))

    jsonio_s = incl.get("jsonio.loads_events", 0.0) + incl.get("jsonio.dumps_events", 0.0)
    out["jsonio.rows_per_s"] = (counts["jsonio.rows"] / jsonio_s if jsonio_s else 0.0, "1/s")
    decode_s = sum(self_s.get(name, 0.0) for name in DECODERS)
    decodes = sum(calls_by_name.get(name, 0) for name in DECODERS)
    out["engine.decode_pct"] = pct(decode_s)
    out["engine.decode_per_call"] = (decodes / samples if samples else 0.0, "decodes/call")
    out["engine.evaluate_calls"] = per_pass(counts["engine.evaluate_calls"])
    evaluated = counts["engine.evaluate_calls"]
    out["engine.evaluate_rows_per_call"] = (
        counts["engine.evaluate_rows"] / evaluated if evaluated else 0.0, "rows/call")
    accepts = counts["patterns.accept_calls"]
    out["patterns.accept_calls"] = per_pass(accepts)
    out["patterns.accept_pass_ratio"] = (
        counts["patterns.accept_passed"] / accepts if accepts else 0.0, "ratio")
    for name, key, unit in (("engine.max_state_rows", "max_state_rows", "count"),
                            ("engine.retraction_rows", "retraction_rows", "count"),
                            ("engine.output_rows", "output_rows", "count"),
                            ("engine.dropped_rows", "dropped_rows", "count"),
                            ("engine.blocking_ticks", "blocking_time", "ticks")):
        out[name] = (statistics.fmean(float(t.get(key, 0)) for t in totals), unit)
    out["trace.wall_s"] = (total, "s")
    out["trace.spans"] = (float(sum(calls_by_name.values())), "count")
    return out
