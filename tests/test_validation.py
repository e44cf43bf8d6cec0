"""Validation happens at the edge, and only there.

Input from outside the process (JSON lines, ``cedr run``, the public
constructors and ``OperatorInstance.ingest``) is checked in full.  Inside a
pipeline, rows and events are rebuilt from fields that are valid by
construction, through the unchecked ``_trusted`` constructors, and so are
the merged operators' output events; these tests show that every such
build equals what the checking constructor makes of the same fields, and
that a pipeline no longer re-checks what it built.
"""

import hashlib
import json
import random
import sys
from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cedr import engine, patterns, temporal
from cedr.cli import _guarantee_marks, main
from cedr.disorder import disorder_stream, rows_from_pattern
from cedr.engine import (
    MIDDLE,
    STRONG,
    WEAK,
    OperatorInstance,
    Pipeline,
    build_module,
    pattern_event_from_row,
    pattern_event_to_row,
)
from cedr.jsonio import LineFormatError, dumps_events, loads_events
from cedr.patterns import PatternEvent, primitive
from cedr.query import compile_query, parse
from cedr.temporal import INF, Payload, TritemporalEvent, UnitemporalEvent

from perfbench import gen

from engine_harness import (
    encode_ports,
    encode_stream,
    gen_pattern,
    gen_unitemporal,
    honest_schedule,
    module_under_test,
    run_module,
)

QUERIES = [
    ("EVENT q WHEN UNLESS(SEQUENCE(A x, B AS y, 12), C AS z, 4) "
     "WHERE {x.Machine_Id = y.Machine_Id} AND {x.Machine_Id = z.Machine_Id}"),
    "EVENT q WHEN CANCEL-WHEN(SEQUENCE(A x, B y, 10), C)",
    "EVENT q WHEN SEQUENCE(A, B, 8) OUTPUT Machine_Id",
    ("EVENT q WHEN NOT(C AS c, SEQUENCE(A x, B y, 10)) "
     "WHERE {x.Machine_Id = c.Machine_Id}"),
    "EVENT q WHEN ATLEAST(2, A, B, 9)",
    "EVENT q WHEN ATMOST(1, A, B, 6)",
    "EVENT q WHEN UNLESS(A, B, 7) @ [2, 50] # [0, 60]",
]
PLANS = [compile_query(parse(src).ast).plan for src in QUERIES]

# Every builder that uses an unchecked constructor.  The tests encode their
# input streams inside the check, so disorder.restamp_arrivals is one.
TRUSTED_SITES = {"_composite", "_pass_through", "_restamp", "_out_row", "_wire",
                 "pattern_event_from_row", "pattern_event_to_row", "restamp_arrivals",
                 "slice_pattern_events", "project_payload", "concat_payloads"}

# The same for the merged operators, which build UnitemporalEvents, and
# join's composite payloads.
MERGED_UNDER_TEST = ("union", "difference", "groupby", "join", "project")
TRUSTED_MERGED_SITES = {"_restamp", "_out_row", "merged_event_from_row", "coalesce_star",
                        "union", "difference", "groupby_aggregate", "join", "project",
                        "restamp_arrivals", "concat_payloads"}


@contextmanager
def checked_trusted_builds(sites: set):
    """Make every ``_trusted`` build also run the checking constructor.

    The checking constructor raises on invalid fields; the two results must
    be equal, also in the fields equality skips (``UnitemporalEvent.id``).
    A payload is built unchecked from its map, key and hash; it must equal
    ``Payload(map)`` with the same attribute order and hash.  ``sites``
    collects the names of the calling functions; a comprehension counts as
    the function it runs in.
    """
    saved = []
    for cls in (TritemporalEvent, PatternEvent, UnitemporalEvent, Payload):
        trusted = cls._trusted

        def build(*fields, cls=cls, trusted=trusted):
            built = trusted(*fields)
            if cls is Payload:
                checked = Payload(fields[0])
                assert (list(built.items()) == list(checked.items())
                        and built._hash == checked._hash), fields
            else:
                checked = cls(*fields)
            assert built == checked and repr(built) == repr(checked), (cls.__name__, fields)
            frame = sys._getframe(1)
            while frame.f_code.co_name.startswith("<"):
                frame = frame.f_back
            sites.add(frame.f_code.co_name)
            return built

        saved.append((cls, trusted))
        cls._trusted = staticmethod(build)
    try:
        yield
    finally:
        for cls, trusted in saved:
            cls._trusted = staticmethod(trusted)


@st.composite
def pattern_streams(draw):
    """Up to six primitive events per stream, some with an earlier root time."""
    streams = {}
    for name in ("A", "B", "C"):
        events = []
        for i in range(draw(st.integers(0, 6))):
            v_s = draw(st.integers(0, 40))
            o_e = draw(st.one_of(st.just(INF), st.integers(v_s + 1, v_s + 20)))
            rt = v_s - draw(st.integers(0, min(v_s, 5)))
            payload = Payload({"Machine_Id": draw(st.sampled_from(("m1", "m2")))})
            events.append(PatternEvent(f"{name}{i}", v_s, v_s + draw(st.integers(1, 15)),
                                       v_s, o_e, rt=rt, payload=payload))
        streams[name] = events
    return streams


def drive(pipe, rows: dict, every: int = 3):
    """Feed rows as ``cedr run`` does, with its guarantees, then flush."""
    feed = sorted(((name, r) for name, rs in rows.items() for r in rs),
                  key=lambda item: (item[1].c_s, item[0], item[1].sort_key))
    marks = _guarantee_marks(feed, sorted(rows), every)
    for i, (name, r) in enumerate(feed):
        for stream, threshold in marks.get(i, ()):
            pipe.guarantee(stream, threshold)
        pipe.feed(name, r)
    pipe.flush()


class TestTrustedBuilds:
    def test_every_trusted_build_equals_the_checked_build(self):
        sites: set = set()
        retractions = []

        @settings(derandomize=True, max_examples=150, deadline=None)
        @given(streams=pattern_streams(), plan=st.sampled_from(PLANS),
               level=st.sampled_from((STRONG, MIDDLE, WEAK)),
               seed=st.integers(0, 2**16))
        def run(streams, plan, level, seed):
            rng = random.Random(seed)
            rows = {name: encode_stream(rows_from_pattern(events, key_prefix=f"{name}k"),
                                        rng, skew=4, retract_prob=0.3)
                    for name, events in streams.items()}
            pipe = Pipeline(plan, level)
            drive(pipe, rows)
            retractions.append(sum(m["retraction_rows"]
                                   for m in pipe.metrics()["nodes"].values()))

        with checked_trusted_builds(sites):
            run()
        assert sites == TRUSTED_SITES
        assert sum(retractions) > 0  # kill and shrink rows were built too

    def test_instance_outputs_equal_the_checked_build(self):
        # Outside a pipeline, outputs are wire rows built the same way.
        sites: set = set()
        rng = random.Random("instance")
        a = gen_pattern(rng, "a", 8)
        b = gen_pattern(rng, "b", 8)
        with checked_trusted_builds(sites):
            inst = OperatorInstance(build_module("unless", w=6), MIDDLE)
            out = []
            for port, events in ((0, a), (1, b)):
                for r in encode_stream(rows_from_pattern(events, key_prefix=f"{port}k"),
                                       rng, skew=3, retract_prob=0.3):
                    out += inst.ingest(r, port)
            out += inst.flush()
        assert out and {"_restamp", "_out_row", "_wire"} <= sites
        for r in out:
            assert r == TritemporalEvent(r.k, r.id, r.v_s, r.v_e, r.o_s, r.o_e, r.c_s, r.c_e,
                                         Payload(r.payload.items()))


def disordered_tables():
    """``perfbench.gen``'s wire streams, each as one history table."""
    for seed in (1, 2):
        for part in (0, 1):
            for wire in (gen.cidr07_inputs(seed, 90, part)[1],
                         gen.rollup_inputs(seed, 30, part)[1]):
                yield from (temporal.HistoryTable(rows) for rows in wire.values())


class TestTrustedEdgeBuilds:
    def test_decoded_rows_equal_the_checked_build(self):
        # What the reader builds unchecked equals the checking constructor's
        # build of the same fields, which it also makes here.
        sites: set = set()
        texts = [dumps_events(table.sorted_rows()) for table in disordered_tables()]
        with checked_trusted_builds(sites):
            decoded = [loads_events(text) for text in texts]
        assert sites == {"event_from_obj", "payload_from_obj"}
        assert [dumps_events(rows) for rows in decoded] == texts

    def test_truncated_rows_equal_the_checked_build(self):
        sites: set = set()
        clamped = 0
        tables = list(disordered_tables())
        with checked_trusted_builds(sites):
            for table in tables:
                starts = sorted({r.o_s for r in table})
                for t0 in starts[::max(1, len(starts) // 6)]:
                    for canon in (temporal.canonical_to(table, t0),
                                  temporal.canonical_at(table, t0)):
                        clamped += sum(r.o_e == t0 for r in canon)
                temporal.canonical_to(table, INF)
        assert sites == {"_truncated"}
        assert clamped > 100

    def test_restamped_rows_equal_the_checked_build(self):
        # Only the arrival restamp builds unchecked; expand_row, which widens
        # v_e, keeps its check.  The hash was written with every row checked.
        sites: set = set()
        clean = gen.clean_pattern_stream(1, 400)
        with checked_trusted_builds(sites):
            text = "".join(dumps_events(disorder_stream(clean[i:i + 100], gen.SKEW,
                                                        gen.RETRACT_PROB, i))
                           for i in range(0, 400, 100))
        assert sites == {"restamp_arrivals"}
        assert text.count("~tmp") == 68
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "687fd0dceb2dfc8ab7e030a27a7d49514a9c62696b49d1c872f1e8d963a5a9f7")


class MergedChain:
    """``union(A, B) -> difference(., C) -> groupby(count by g)``.

    Wired as a pipeline wires its nodes: one arrival clock, each output fed
    to the parent, each output guarantee declared on the parent.
    """

    def __init__(self, level):
        clock = [0]

        def node(kind, **params):
            return OperatorInstance(build_module(kind, **params), level, name=kind,
                                    clock=clock)

        union, difference, groupby = self.nodes = (
            node("union"), node("difference"), node("groupby", key=("g",), agg="count"))
        self.parent = {union: (difference, 0), difference: (groupby, 0), groupby: None}
        self.leaves = ((union, 0), (union, 1), (difference, 1))

    def run(self, arrivals, schedule):
        """Feed ``arrivals``, declaring ``honest_schedule``'s guarantees, then flush."""
        marks = {}
        for pos, port, threshold in schedule:
            marks.setdefault(pos, []).append((port, threshold))
        for i, (port, row) in enumerate([*arrivals, (None, None)]):
            for port_g, threshold in marks.get(i, ()):
                self.guarantee(*self.leaves[port_g], threshold)
            if row is not None:
                inst, inst_port = self.leaves[port]
                self.forward(inst, inst.ingest(row, inst_port))
        for inst in self.nodes:
            self.forward(inst, inst.flush())

    def forward(self, inst, rows):
        if self.parent[inst] is not None:
            parent, port = self.parent[inst]
            for r in rows:
                self.forward(parent, parent.ingest(r, port))

    def guarantee(self, inst, port, threshold):
        rows, promise = inst.declare_guarantee(threshold, port)
        self.forward(inst, rows)
        if self.parent[inst] is not None and promise is not None:
            self.guarantee(*self.parent[inst], promise.threshold)


class TestTrustedMergedBuilds:
    def test_every_trusted_build_equals_the_checked_build(self):
        sites: set = set()
        retractions = []

        @settings(derandomize=True, max_examples=120, deadline=None)
        @given(kind=st.sampled_from(MERGED_UNDER_TEST + ("chain",)),
               level=st.sampled_from((STRONG, MIDDLE, WEAK)),
               seed=st.integers(0, 2**16))
        def run(kind, level, seed):
            rng = random.Random(seed)
            arity = 3 if kind == "chain" else 2 if kind in ("union", "difference", "join") else 1
            ideal = tuple(gen_unitemporal(rng, 6) for _ in range(arity))
            for events in ideal:
                temporal.coalesce_star(events)
            arrivals = encode_ports(ideal, rng, skew=4, retract_prob=0.3)
            schedule = honest_schedule(arrivals, 3)
            if kind == "chain":
                chain = MergedChain(level)
                chain.run(arrivals, schedule)
                instances = chain.nodes
            else:
                instances = [run_module(module_under_test(kind), arrivals, level,
                                        schedule)[0]]
            retractions.append(sum(i.retraction_rows for i in instances))

        with checked_trusted_builds(sites):
            run()
        assert sites == TRUSTED_MERGED_SITES
        assert sum(retractions) > 0  # kill and shrink rows were built too


class TestNoInternalRechecks:
    def test_a_cidr07_feed_checks_and_encodes_only_at_the_edge(self, monkeypatch):
        # Primitive events from outside, as a CIDR07 feed brings them.
        plan = compile_query(parse(QUERIES[0]).ast).plan
        rng = random.Random("edge-only")
        rows = {}
        for name in ("A", "B", "C"):
            events = []
            for i in range(60):
                v_s = rng.randint(0, 400)
                o_e = INF if rng.random() < 0.8 else v_s + rng.randint(1, 30)
                events.append(primitive(f"{name}{i}", v_s, v_s + rng.randint(20, 60),
                                        o_e=o_e,
                                        payload={"Machine_Id": rng.choice("xyz")}))
            rows[name] = encode_stream(rows_from_pattern(events, key_prefix=f"{name}k"),
                                       rng, skew=8, retract_prob=0.1)
        counts = dict.fromkeys(("check_time", "loads", "dumps", "ingests"), 0)

        def counted(name, fn):
            def call(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return call

        check_time = counted("check_time", temporal.check_time)
        for module in (temporal, patterns, engine):
            monkeypatch.setattr(module, "check_time", check_time)
        monkeypatch.setattr(json, "loads", counted("loads", json.loads))
        monkeypatch.setattr(json, "dumps", counted("dumps", json.dumps))
        monkeypatch.setattr(OperatorInstance, "_take",
                            counted("ingests", OperatorInstance._take))
        pipe = Pipeline(plan, MIDDLE)
        drive(pipe, rows, every=20)
        root_rows = pipe.root_instance().output_rows
        assert counts["ingests"] > 100 and root_rows > 10
        assert counts["check_time"] < counts["ingests"]
        assert counts["loads"] == 0
        assert counts["dumps"] <= root_rows


def line(**fields) -> str:
    obj = {"k": "K0", "id": "e0", "vs": 1, "ve": 5, "os": 1, "oe": "inf", "cs": 0,
           "payload": {"Machine_Id": "m1"}}
    obj.update(fields)
    return json.dumps(obj)


# Lines that break the row contract, and what breaks it.
BAD_LINES = {
    "negative tick": line(vs=-1),
    "bool tick": line(os=True),
    "float tick": line(ve=7.5),
    "reversed occurrence": line(os=6, oe=3),
    "reversed arrival": line(cs=5, ce=2),
    "empty valid interval on a live row": line(vs=3, ve=3),
    "list payload value": line(payload={"Machine_Id": ["m1"]}),
    "null payload value": line(payload={"Machine_Id": None}),
    "object payload value": line(payload={"Machine_Id": {"a": 1}}),
}


class TestEdgeRejects:
    @pytest.mark.parametrize("case", sorted(BAD_LINES))
    def test_json_lines(self, case):
        with pytest.raises(LineFormatError):
            loads_events(BAD_LINES[case] + "\n")

    @pytest.mark.parametrize("case", sorted(BAD_LINES))
    def test_cedr_run(self, case, tmp_path):
        query = tmp_path / "q.cedr"
        query.write_text("EVENT q WHEN SEQUENCE(A x, B y, 10)")
        good = tmp_path / "b.jsonl"
        good.write_text(line(k="L0", id="b0", vs=3, os=3, cs=1) + "\n")
        bad = tmp_path / "a.jsonl"
        bad.write_text(BAD_LINES[case] + "\n")
        assert main(["run", "--query", str(query), "--input", f"A={bad}",
                     "--input", f"B={good}", "--output", str(tmp_path / "out")]) == 2

    def test_cedr_run_rejects_a_composite_rooted_after_its_start(self, tmp_path):
        query = tmp_path / "q.cedr"
        query.write_text("EVENT q WHEN SEQUENCE(A x, B y, 10)")
        path = tmp_path / "a.jsonl"
        path.write_text(line(payload={"@rt": 3, "@cbt": "[]"}) + "\n")
        assert main(["run", "--query", str(query), "--input", f"A={path}",
                     "--output", str(tmp_path / "out")]) == 2

    @pytest.mark.parametrize("tick", [-1, True, 2.5, float("nan"), "3", None])
    def test_constructors_reject_a_bad_tick(self, tick):
        for fields in ((tick, 5, 1, INF, 0), (1, 5, tick, INF, 0), (1, 5, 1, INF, tick)):
            with pytest.raises(ValueError):
                TritemporalEvent("K0", "e0", *fields)
        with pytest.raises((ValueError, TypeError)):
            PatternEvent("e0", tick, 9, 1, INF, rt=0)
        with pytest.raises((ValueError, TypeError)):
            PatternEvent("e0", 1, 9, 1, INF, rt=tick)
        with pytest.raises((ValueError, TypeError)):
            primitive("e0", tick, 9)
        with pytest.raises((ValueError, TypeError)):
            UnitemporalEvent(tick, 9)
        with pytest.raises(ValueError):
            pattern_event_to_row(primitive("e0", 1, 9), "K0", tick)

    def test_constructors_reject_bad_intervals(self):
        with pytest.raises(ValueError):
            TritemporalEvent("K0", "e0", 1, 5, 6, 3, 0)  # occurrence reversed
        with pytest.raises(ValueError):
            TritemporalEvent("K0", "e0", 1, 5, 1, INF, 5, 2)  # arrival reversed
        with pytest.raises(ValueError):
            TritemporalEvent("K0", "e0", 3, 3, 1, 5, 0)  # empty valid, live row
        with pytest.raises(ValueError):
            TritemporalEvent("K0", "e0", 4, 3, 1, 1, 0)  # reversed valid, removal
        with pytest.raises(ValueError):
            PatternEvent("e0", 3, 3, 3, INF, rt=3)
        with pytest.raises(ValueError):
            PatternEvent("e0", 3, 9, 6, 3, rt=3)
        with pytest.raises(ValueError):
            PatternEvent("e0", 3, 9, 3, INF, rt=4)  # root after start
        with pytest.raises(ValueError):
            UnitemporalEvent(3, 3)

    def test_payload_rejects_bad_names_and_values(self):
        with pytest.raises(TypeError):
            Payload([(1, "x")])
        with pytest.raises(TypeError):
            Payload({None: "x"})
        with pytest.raises(ValueError):
            Payload([("a", 1), ("a", 2)])
        for value in ([1], {"a": 1}, None, (1,), b"x"):
            with pytest.raises(TypeError):
                Payload({"a": value})

    def test_codec_rejects_what_the_wire_cannot_hold(self):
        with pytest.raises(ValueError):  # a payload already naming @rt
            pattern_event_to_row(PatternEvent("e0", 1, 9, 1, INF, rt=0,
                                              payload=Payload({"@rt": 0})), "K0", 0)
        composite = TritemporalEvent("K0", "e0", 3, 9, 3, INF, 0,
                                     payload=Payload({"@rt": 4, "@cbt": "[]"}))
        with pytest.raises(ValueError):  # root after start
            pattern_event_from_row(composite)
        with pytest.raises(ValueError):  # a removal row is no pattern event
            pattern_event_from_row(TritemporalEvent("K0", "e0", 3, 3, 1, 1, 0))

    def test_disorder_knobs_out_of_range(self):
        from cedr.disorder import bounded_shuffle, reencode
        with pytest.raises(ValueError):
            bounded_shuffle([], -1, random.Random(1))
        with pytest.raises(ValueError):
            reencode([], 1.5, random.Random(1))

    def test_ingest_from_outside_a_pipeline_checks_its_row(self):
        inst = OperatorInstance(build_module("sequence", k=2, w=10), MIDDLE)
        composite = TritemporalEvent("K0", "e0", 3, 9, 3, INF, 0,
                                     payload=Payload({"@rt": 4, "@cbt": "[]"}))
        with pytest.raises(ValueError):
            inst.ingest(composite, 0)

        class Row:  # not a TritemporalEvent: rebuilt through the checks
            k, id, v_s, v_e, o_s, o_e, c_s, c_e = "K0", "e0", 5, 3, 1, INF, 0, INF
            payload = Payload()

        with pytest.raises(ValueError):
            inst.ingest(Row(), 0)
        with pytest.raises(ValueError):
            Pipeline(compile_query(parse(QUERIES[0]).ast).plan).feed("A", composite)

    def test_good_lines_still_load(self):
        rows = loads_events(line() + "\n" + line(k="K1", vs=2, ve="inf", ce=9) + "\n")
        assert dumps_events(rows) == dumps_events(loads_events(dumps_events(rows)))
