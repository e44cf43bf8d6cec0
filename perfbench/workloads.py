"""The benchmark workloads.

Each workload builds its inputs from the seed when it is constructed and
then offers three things:

* ``parts``: the number of independent inputs the seed yields.  The cost
  of one input swings with its arrangement; a run cycles through all of
  them, so that its figures average over ``parts`` arrangements.
* ``setup()`` does what a user pays for before the first row and returns
  the object a pass runs on. The runner times it on its own.
* ``run_pass(part, state)`` makes one closed-loop pass over input
  ``part``. One client makes one call at a time and waits for it to
  return. The pass records how long the client was blocked for each call.
* ``checks(passes)`` compares the outputs against the pure denotation (or
  the library) and returns ``(name, ok)`` pairs. The runner calls it after
  the timed phase.

The modules of ``cedr`` are always reached through their module
attributes (``engine.Pipeline``, ``jsonio.read_events``), never through
names bound at import time. The traced run swaps those attributes for
timing wrappers, and this way the workloads pick the wrappers up.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import time
from dataclasses import dataclass, field

from cedr import algebra, cli, engine, jsonio, patterns, query, temporal
from cedr.disorder import rows_from_pattern
from cedr.temporal import INF, HistoryTable

from . import gen

clock = time.perf_counter

CIDR07_QUERY = """\
EVENT CIDR07_Example
WHEN UNLESS(SEQUENCE(INSTALL x,
                      SHUTDOWN AS y, 12 hours),
            RESTART AS z, 5 minutes)
WHERE {x.Machine_Id = y.Machine_Id} AND
      {x.Machine_Id = z.Machine_Id}
"""

GUARANTEE_EVERY = 20

# Input sizes. The runner measures the CPU's speed between passes, so a
# pass has to be short next to the second-long phases in which that speed
# changes: each input is sized for a pass of a quarter to half a second.
# PARTS inputs per seed average out how much work one arrangement makes;
# the arrangement of a CIDR07 input swings its cost most, so that workload
# gets twice as many, each smaller.
PARTS = 12
CIDR07_PARTS = 24
CIDR07_EVENTS = 90
ROLLUP_EVENTS_PER_STREAM = 150
STREAM_TOOLS_ROWS = 12_000
STREAM_TOOLS_FILE_ROWS = 100


@dataclass
class Pass:
    """What one pass measured and produced."""

    part: int
    rows: int
    seconds: float
    latencies: list[float]
    output: object
    totals: dict = field(default_factory=dict)


def sync_values(feed) -> list:
    """Sync value per arrival: ``o_s`` for a lineage's first row, else ``o_e``."""
    seen: dict[str, set] = {}
    out = []
    for stream, row in feed:
        marks = seen.setdefault(stream, set())
        out.append(row.o_s if row.k not in marks else row.o_e)
        marks.add(row.k)
    return out


def guarantee_schedule(feed, streams, every: int) -> dict[int, list]:
    """Honest guarantees, keyed by the feed position they precede.

    Every ``every`` arrivals each stream is promised one less than the
    smallest finite sync value it still has to deliver, when that is
    non-negative and higher than its last promise.  These are the
    thresholds ``cedr run --guarantee-every`` declares; one suffix-minimum
    pass computes them.
    """
    syncs = sync_values(feed)
    suffix_min = {s: INF for s in streams}
    mins_at: list[dict] = [None] * len(feed)
    for i in range(len(feed) - 1, -1, -1):
        stream = feed[i][0]
        if syncs[i] != INF and syncs[i] < suffix_min[stream]:
            suffix_min[stream] = syncs[i]
        if i % every == 0:
            mins_at[i] = dict(suffix_min)
    schedule: dict[int, list] = {}
    last: dict[str, float] = {}
    for i in range(every, len(feed), every):
        for stream in streams:
            remaining = mins_at[i][stream]
            if remaining == INF:
                continue
            threshold = remaining - 1
            if threshold >= 0 and threshold > last.get(stream, -1):
                schedule.setdefault(i, []).append((stream, threshold))
                last[stream] = threshold
    return schedule


def arrival_order(inputs: dict) -> list:
    """Merge per-stream rows into one feed, in ``cedr run``'s order."""
    return sorted(((name, row) for name, rows in inputs.items() for row in rows),
                  key=lambda item: (item[1].c_s, item[0], item[1].sort_key))


def drive(target, feed, schedule, flush) -> list[float]:
    """Feed every arrival, declaring the scheduled guarantees first.

    Returns one latency per arrival: how long the caller was blocked
    handing it over, together with the guarantees declared just before
    it.  The final flush adds one more.
    """
    latencies = []
    for i, (stream, row) in enumerate(feed):
        t = clock()
        for g_stream, threshold in schedule.get(i, ()):
            target.guarantee(g_stream, threshold)
        target.feed(stream, row)
        latencies.append(clock() - t)
    t = clock()
    flush()
    latencies.append(clock() - t)
    return latencies


def content(rows) -> frozenset:
    """Canonical content to infinity, lineage and arrival projected away."""
    return temporal.projected(temporal.canonical_to(HistoryTable(rows), INF),
                              include_lineage=False)


def last_of_each_part(passes: list[Pass]) -> dict[int, Pass]:
    return {p.part: p for p in passes}


def passes_agree(passes: list[Pass]) -> bool:
    """Every pass over the same input produced the same output."""
    first: dict[int, object] = {}
    return all(first.setdefault(p.part, p.output) == p.output for p in passes)


class Cidr07Middle:
    """The README's CIDR07 query at MIDDLE, driven the way ``cedr run`` is."""

    name = "cidr07-middle"

    def __init__(self, seed: int, workdir: str, n_events: int = CIDR07_EVENTS,
                 parts: int = CIDR07_PARTS):
        self.workdir = workdir
        self.parts = parts
        self.query_path = os.path.join(workdir, "cidr07.cedr")
        with open(self.query_path, "w", encoding="utf-8") as fh:
            fh.write(CIDR07_QUERY)
        self.input_paths = []
        for part in range(parts):
            _, wire = gen.cidr07_inputs(seed, n_events, part)
            paths = {}
            for stream, rows in wire.items():
                paths[stream] = os.path.join(workdir, f"{stream}-{part}.jsonl")
                jsonio.write_events(rows, paths[stream])
            self.input_paths.append(paths)

    def setup(self):
        parsed = query.parse(CIDR07_QUERY)
        compiled = query.compile_query(parsed.ast, 1)
        return engine.Pipeline(compiled.plan, engine.MIDDLE)

    def run_pass(self, part: int, pipeline) -> Pass:
        start = clock()
        inputs = {stream: jsonio.read_events(path)
                  for stream, path in self.input_paths[part].items()}
        feed = arrival_order(inputs)
        schedule = guarantee_schedule(feed, sorted(inputs), GUARANTEE_EVERY)
        latencies = drive(pipeline, feed, schedule, pipeline.flush)
        text = jsonio.dumps_events(pipeline.outputs)
        with open(os.path.join(self.workdir, f"out-{part}.jsonl"), "w",
                  encoding="utf-8") as fh:
            fh.write(text)
        seconds = clock() - start
        return Pass(part, len(feed), seconds, latencies, text, pipeline.metrics())

    def checks(self, passes: list[Pass]) -> list[tuple[str, bool]]:
        """Each check holds for the last pass over every input."""
        plan = query.compile_query(query.parse(CIDR07_QUERY).ast, 1).plan
        ok = dict.fromkeys(("matches pure denotation", "cedr run exits 0",
                            "cedr run output byte-identical",
                            "cedr run metrics identical"), True)
        last = last_of_each_part(passes)
        for part in range(self.parts):
            paths = self.input_paths[part]
            surviving = {stream: [engine.pattern_event_from_row(r)
                                  for r in temporal.canonical_to(
                                      HistoryTable(jsonio.read_events(path)), INF)]
                         for stream, path in paths.items()}
            want = content(rows_from_pattern(patterns.evaluate_plan(plan, surviving),
                                             key_prefix="o"))
            output = last[part].output if part in last else None
            ok["matches pure denotation"] &= (
                output is not None and content(jsonio.loads_events(output)) == want)

            run_out = os.path.join(self.workdir, "cli-out.jsonl")
            run_metrics = os.path.join(self.workdir, "cli-metrics.json")
            argv = ["run", "--query", self.query_path, "--level", "middle",
                    "--tick-unit", "minute", "--guarantee-every", str(GUARANTEE_EVERY),
                    "--output", run_out, "--metrics", run_metrics]
            for stream, path in paths.items():
                argv += ["--input", f"{stream}={path}"]
            ok["cedr run exits 0"] &= cli.main(argv) == cli.OK
            with open(run_out, encoding="utf-8") as fh:
                ok["cedr run output byte-identical"] &= fh.read() == output
            with open(run_metrics, encoding="utf-8") as fh:
                ok["cedr run metrics identical"] &= (
                    part in last and json.load(fh) == last[part].totals)
        return [*ok.items(), ("passes agree", passes_agree(passes))]


class RollupChain:
    """``union(A, B) -> difference(., C) -> groupby(count by g)``.

    Merged-mode operator instances wired and driven the way ``Pipeline``
    wires pattern plans: one shared arrival clock, each instance's output
    fed to its parent, and each output guarantee declared on the parent.
    """

    def __init__(self, level):
        clock_cell = [0]

        def node(name, kind, **params):
            return engine.OperatorInstance(engine.build_module(kind, **params), level,
                                           name=name, clock=clock_cell)

        self.nodes = (node("union", "union"),
                      node("difference", "difference"),
                      node("groupby", "groupby", key=("g",), agg="count"))
        union, difference, groupby = self.nodes
        self._parent = {union: (difference, 0), difference: (groupby, 0), groupby: None}
        self._leaves = {"A": (union, 0), "B": (union, 1), "C": (difference, 1)}
        self.outputs = []

    def feed(self, stream, row) -> None:
        instance, port = self._leaves[stream]
        self._forward(instance, instance.ingest(row, port))

    def guarantee(self, stream, threshold) -> None:
        self._guarantee(*self._leaves[stream], threshold)

    def flush(self) -> None:
        for instance in self.nodes:
            self._forward(instance, instance.flush())

    def metrics(self) -> dict:
        per_node = {n.name: n.metrics() for n in self.nodes}
        totals = {key: sum(m[key] for m in per_node.values())
                  for key in ("blocking_time", "max_state_rows", "dropped_rows")}
        root = self.nodes[-1]
        totals["output_rows"] = root.output_rows
        totals["retraction_rows"] = root.retraction_rows
        return {"total": totals, "nodes": per_node}

    def _forward(self, instance, rows) -> None:
        parent = self._parent[instance]
        if parent is None:
            self.outputs.extend(rows)
            return
        target, port = parent
        for row in rows:
            self._forward(target, target.ingest(row, port))

    def _guarantee(self, instance, port, threshold) -> None:
        rows, out_g = instance.declare_guarantee(threshold, port)
        self._forward(instance, rows)
        parent = self._parent[instance]
        if parent is not None and out_g is not None:
            self._guarantee(*parent, out_g.threshold)


class RollupStrong:
    """A merged-mode roll-up chain at STRONG over re-encoded unitemporal streams."""

    name = "rollup-strong"

    def __init__(self, seed: int, workdir: str,
                 n_per_stream: int = ROLLUP_EVENTS_PER_STREAM, parts: int = PARTS):
        self.parts = parts
        self.ideal, self.feeds, self.schedules = [], [], []
        for part in range(parts):
            ideal, wire = gen.rollup_inputs(seed, n_per_stream, part)
            feed = arrival_order(wire)
            self.ideal.append(ideal)
            self.feeds.append(feed)
            self.schedules.append(guarantee_schedule(feed, sorted(wire), GUARANTEE_EVERY))

    def setup(self):
        return RollupChain(engine.STRONG)

    def run_pass(self, part: int, chain) -> Pass:
        feed = self.feeds[part]
        start = clock()
        latencies = drive(chain, feed, self.schedules[part], chain.flush)
        seconds = clock() - start
        return Pass(part, len(feed), seconds, latencies, chain.outputs, chain.metrics())

    def checks(self, passes: list[Pass]) -> list[tuple[str, bool]]:
        """The content check holds for the last pass over every input."""
        last = last_of_each_part(passes)
        denotation = True
        for part in range(self.parts):
            a, b, c = (self.ideal[part][s] for s in gen.ROLLUP_STREAMS)
            want = algebra.groupby_aggregate(
                algebra.difference(algebra.union(a, b), c), ("g",), "count")
            got = (frozenset((o_s, o_e, payload) for _, _, _, o_s, o_e, payload
                             in content(last[part].output))
                   if part in last else None)
            denotation &= got == frozenset((e.v_s, e.v_e, e.payload) for e in want)
        return [
            ("matches pure denotation", denotation),
            ("passes agree", passes_agree(passes)),
        ]


class StreamTools:
    """The ``disorder``/``equiv``/``canon`` commands over one large clean stream.

    The stream is cut into consecutive files of ``file_rows`` rows, as a
    rotated log would be, and each file goes through four in-process
    ``cedr`` commands: ``disorder``, ``equiv clean disordered --t0 inf``,
    ``canon --t0 inf`` and ``canon --mode at --t0 <mid>``.  One call is
    the four commands on one file, so that every call does the same kind
    of work.  Input ``part`` is the ``part``-th run of consecutive files,
    ``parts`` runs in all.
    """

    name = "stream-tools"

    def __init__(self, seed: int, workdir: str, n_rows: int = STREAM_TOOLS_ROWS,
                 file_rows: int = STREAM_TOOLS_FILE_ROWS, parts: int = PARTS):
        self.seed = seed
        self.workdir = workdir
        self.parts = parts
        clean = gen.clean_pattern_stream(seed, n_rows)
        self.files = []
        for i in range(0, len(clean), file_rows):
            chunk = clean[i:i + file_rows]
            path = os.path.join(workdir, f"clean-{len(self.files)}.jsonl")
            jsonio.write_events(chunk, path)
            mid = chunk[len(chunk) // 2].o_s
            self.files.append((path, mid, len(chunk)))
        per_part = -(-len(self.files) // parts)
        self.file_groups = [range(i, min(i + per_part, len(self.files)))
                            for i in range(0, len(self.files), per_part)]
        if len(self.file_groups) != parts:
            raise ValueError(f"{len(self.files)} files do not make {parts} parts")

    def setup(self):
        """Build the argument parser, which every ``cedr`` command does first."""
        return cli.build_parser()

    def _paths(self, i: int) -> tuple[str, ...]:
        return tuple(os.path.join(self.workdir, f"{kind}-{i}.jsonl")
                     for kind in ("disordered", "canon-to", "canon-at"))

    def commands(self, i: int) -> list[list[str]]:
        clean, mid, _ = self.files[i]
        disordered, canon_to, canon_at = self._paths(i)
        return [
            ["disorder", "--input", clean, "--output", disordered,
             "--seed", str(self.seed * 100_003 + i), "--skew", str(gen.SKEW),
             "--retract-prob", str(gen.RETRACT_PROB)],
            ["equiv", clean, disordered, "--t0", "inf"],
            ["canon", "--input", disordered, "--t0", "inf", "--output", canon_to],
            ["canon", "--input", disordered, "--mode", "at", "--t0", str(mid),
             "--output", canon_at],
        ]

    def run_pass(self, part: int, _parser) -> Pass:
        # cedr.cli.main builds its own parser; set-up is timed on its own.
        files = self.file_groups[part]
        latencies = []
        exits = []
        start = clock()
        with contextlib.redirect_stdout(io.StringIO()):
            for i in files:
                t = clock()
                for argv in self.commands(i):
                    exits.append(cli.main(argv))
                latencies.append(clock() - t)
        seconds = clock() - start
        digest = hashlib.sha256()
        for i in files:
            for path in self._paths(i):
                with open(path, "rb") as fh:
                    digest.update(fh.read())
        rows = sum(self.files[i][2] for i in files)
        return Pass(part, rows, seconds, latencies, (exits, digest.hexdigest()))

    def checks(self, passes: list[Pass]) -> list[tuple[str, bool]]:
        last = last_of_each_part(passes)
        exits = [code for p in last.values() for code in p.output[0]]
        canon_ok = len(last) == self.parts
        for i in (i for part in last for i in self.file_groups[part]):
            mid = self.files[i][1]
            disordered, to_path, at_path = self._paths(i)
            table = HistoryTable(jsonio.read_events(disordered))
            with open(to_path, encoding="utf-8") as fh:
                canon_ok &= fh.read() == jsonio.dumps_events(
                    temporal.canonical_to(table, INF).sorted_rows())
            with open(at_path, encoding="utf-8") as fh:
                canon_ok &= fh.read() == jsonio.dumps_events(
                    temporal.canonical_at(table, mid).sorted_rows())

        clean, _, _ = self.files[0]
        rows = jsonio.read_events(clean)
        short = os.path.join(self.workdir, "clean-minus-one.jsonl")
        jsonio.write_events(rows[:len(rows) // 2] + rows[len(rows) // 2 + 1:], short)
        with contextlib.redirect_stdout(io.StringIO()):
            negative = cli.main(["equiv", clean, short, "--t0", "inf"])
        return [
            ("every command exits 0", all(code == cli.OK for code in exits)),
            ("canon matches the library", canon_ok),
            ("equiv tells a stream missing one row apart", negative == cli.DIFFER),
            ("passes agree", passes_agree(passes)),
        ]


WORKLOADS = {w.name: w for w in (Cidr07Middle, RollupStrong, StreamTools)}
