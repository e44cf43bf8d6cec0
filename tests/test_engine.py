import json
import random
from dataclasses import replace

import pytest

from cedr import jsonio
from cedr.algebra import AGGREGATES, TypeMismatch, group_of
from cedr.disorder import rows_from_unitemporal
from cedr.engine import (
    MIDDLE,
    NEG,
    STRONG,
    WEAK,
    ConsistencyLevel,
    Guarantee,
    NonMonotoneGuarantee,
    NotASyncPoint,
    OperatorInstance,
    Pipeline,
    build_module,
    merged_event_from_row,
    pattern_event_from_row,
    pattern_event_to_row,
    sync_points_of,
)
from cedr.patterns import AttrRef, Leaf, PatternEvent, Predicate, SequenceOp, UnlessOp, inject_predicates
from cedr.temporal import (
    INF,
    AnnotatedHistoryTable,
    AnnotatedRow,
    HistoryTable,
    Payload,
    SyncPointPair,
    TritemporalEvent,
    UnitemporalEvent,
    annotate_sync,
    canonical_to,
    logically_equivalent,
)

from engine_harness import (
    MERGED_PARAMS,
    PATTERN_PARAMS,
    arity_of,
    content_set,
    encode_stream,
    gen_pattern,
    gen_unitemporal,
    honest_schedule,
    interleave,
    make_merged_workload,
    make_pattern_workload,
    module_under_test,
    oracle_rows,
    run_module,
    states_at_sync_points,
    switch_run,
)
from fixtures import row


class TestConsistencyLevel:
    def test_presets(self):
        assert STRONG == ConsistencyLevel(INF, INF)
        assert MIDDLE == ConsistencyLevel(INF, 0)
        assert WEAK == ConsistencyLevel(0, 0)

    def test_blocking_clamped_to_memory(self):
        assert ConsistencyLevel(5, 20).blocking == 5

    @pytest.mark.parametrize("memory, blocking", [
        (-5, 0), (5, -1), (float("nan"), 0), (0, float("nan")), (2.5, 0), (5, 0.5),
        (NEG, 0), ("x", 0), (5, True)])
    def test_invalid_durations_rejected(self, memory, blocking):
        # Checked before blocking is clamped: (-5, 0) once became (-5, -5),
        # a horizon ahead of the frontier.
        with pytest.raises(ValueError, match="memory|blocking"):
            ConsistencyLevel(memory, blocking)

    def test_named(self):
        assert ConsistencyLevel.named("Strong") == STRONG
        with pytest.raises(ValueError):
            ConsistencyLevel.named("best-effort")


class TestWireFormat:
    def test_pattern_round_trip(self):
        e = PatternEvent("5:a#b..", 3, 9, 3, INF, rt=1, cbt=("a", "b"),
                         payload=Payload({"Machine_Id": "m1"}))
        r = pattern_event_to_row(e, "K", 7)
        assert r.payload["@rt"] == 1
        assert pattern_event_from_row(r) == e

    def test_primitive_stays_clean(self):
        e = PatternEvent("a", 3, 9, 3, INF, rt=3, payload=Payload({"x": 1}))
        r = pattern_event_to_row(e, "K", 0)
        assert "@rt" not in r.payload
        assert pattern_event_from_row(r) == e

    def test_round_trip_of_every_shape(self):
        m = Payload({"Machine_Id": "m1", "n": 2.5})
        events = [PatternEvent("a", 3, 9, 3, INF, rt=3, payload=m),
                  PatternEvent("b", 3, 9, 3, 7, rt=3),
                  PatternEvent("1:a1:b", 5, 12, 5, INF, rt=3, cbt=("a", "b"), payload=m),
                  PatternEvent("c", 6, 9, 6, INF, rt=2, payload=m)]
        for e in events:
            r = pattern_event_to_row(e, "K", 4)
            assert pattern_event_from_row(r) == e, e
        # A primitive event's row and its decoding share the event's payload.
        r = pattern_event_to_row(events[0], "K", 4)
        assert r.payload is m and pattern_event_from_row(r).payload is m


class TestBuildModule:
    @pytest.mark.parametrize("kind", ["atleast", "atmost"])
    def test_selection_size_is_required_when_built(self, kind):
        with pytest.raises(KeyError, match="needs n"):
            build_module(kind, k=2, w=5)

    @pytest.mark.parametrize("kind, params, name", [("sequence", {"k": 2}, "w"),
                                                    ("all", {"w": 5}, "k")])
    def test_scope_and_child_count_have_no_defaults(self, kind, params, name):
        with pytest.raises(KeyError, match=f"needs {name}"):
            build_module(kind, **params)

    def test_cancel_when_retires_at_window_one(self):
        # A child row is forgotten once its end and start + 1 both lie
        # before horizon - 1; a canceller is never forgotten.
        retire = build_module("cancel_when").retire
        decisions = set()
        for horizon in (20, 57):
            for v_s in (0, horizon - 4, horizon - 3, horizon - 2):
                for o_e in (v_s, v_s + 1, horizon - 2, horizon - 1, horizon, INF):
                    if o_e < v_s:
                        continue
                    r = row("k", "e", v_s, v_s + 5, v_s, o_e, 0)
                    forgotten = o_e != INF and max(o_e, v_s + 1) < horizon - 1
                    assert retire(r, horizon, 0) is forgotten, (horizon, v_s, o_e)
                    assert retire(r, horizon, 1) is False, (horizon, v_s, o_e)
                    decisions.add(forgotten)
        assert decisions == {True, False}

    @pytest.mark.parametrize("kind", ["filter", "nope"])
    def test_unknown_kind_is_rejected(self, kind):
        with pytest.raises(ValueError, match=f"unknown operator kind '{kind}'"):
            build_module(kind)


class TestInstanceSize:
    @pytest.mark.parametrize("kind", ["union", "unless"])
    def test_instance_keeps_the_shared_key_dict(self, kind):
        # With a 30th attribute, CPython 3.11 gives each instance its own
        # key table (vars() grows from 296 to 1584 bytes), which measured
        # as a slowdown.
        params = {"w": 5} if kind == "unless" else {}
        assert len(vars(OperatorInstance(build_module(kind, **params)))) <= 29


# Written from the per-kind module builders that the merged-kind table
# replaced: (arity, lag, coalescing, keeps all history, required parameters).
MERGED_MODULE_FACTS = {
    "project": (1, 0, False, False, ("f",)),
    "select": (1, 0, False, False, ("f",)),
    "join": (2, 0, False, False, ("theta",)),
    "union": (2, 0, True, True, ()),
    "difference": (2, 0, True, True, ()),
    "groupby": (1, 0, True, True, ()),
    "alter_lifetime": (1, 0, False, True, ("fns",)),
    "window": (1, 0, False, False, ("wl",)),
    "hopping_window": (1, 5, False, False, ("p",)),
    "inserts": (1, 0, False, True, ()),
    "deletes": (1, 0, False, True, ()),
}


class TestMergedModulePins:
    def test_every_merged_kind_pinned(self):
        assert set(MERGED_MODULE_FACTS) == set(MERGED_PARAMS)

    @pytest.mark.parametrize("kind", sorted(MERGED_MODULE_FACTS))
    def test_module_facts(self, kind):
        arity, lag, coalescing, _, _ = MERGED_MODULE_FACTS[kind]
        module = module_under_test(kind)
        assert (module.name, module.arity, module.lag, module.coalescing,
                module.pattern_mode) == (kind, arity, lag, coalescing, False)
        if kind != "groupby":
            assert module.partition is None
            return
        # One bucket per group of the key attribute "g"; an event missing it
        # joins none.
        (bucket,) = module.partition

        def event(**payload):
            return UnitemporalEvent(0, 5, Payload(payload), id="e")
        assert bucket(event(g=1, x=2)) == (group_of(Payload({"g": 1}), ("g",)),)
        assert len({bucket(event(g=v)) for v in (1, 1.0, True, "1")}) == 4
        assert bucket(event(x=2)) == ()

    @pytest.mark.parametrize("kind", sorted(MERGED_MODULE_FACTS))
    def test_retire_decisions(self, kind):
        arity, lag, _, keeps_history, _ = MERGED_MODULE_FACTS[kind]
        retire = module_under_test(kind).retire
        for horizon in (20, 57):
            edge = horizon - lag
            # o_e below, at and above horizon - lag, then an open lifetime.
            for o_e, forgotten in ((edge - 3, True), (edge - 1, True), (edge, False),
                                   (edge + 1, False), (INF, False)):
                r = row("k", "e", 0, INF, 0, o_e, 0)
                for port in range(arity):
                    assert retire(r, horizon, port) is (forgotten and not keeps_history), \
                        (kind, horizon, o_e, port)

    def test_alter_lifetime_lag_is_its_parameter(self):
        from cedr.algebra import LifetimeFunctions
        fns = LifetimeFunctions(lambda e: e.v_s, lambda e: 1)
        module = build_module("alter_lifetime", fns=fns, lag=7)
        assert module.lag == 7
        assert not module.retire(row("k", "e", 0, INF, 0, 1, 0), 50, 0)

    @pytest.mark.parametrize("kind", sorted(MERGED_MODULE_FACTS))
    def test_required_parameters(self, kind):
        required = MERGED_MODULE_FACTS[kind][4]
        params = MERGED_PARAMS[kind]
        if not required:
            build_module(kind)
        for name in required:
            with pytest.raises(KeyError, match=name):
                build_module(kind, **{k: v for k, v in params.items() if k != name})


class TestKeyedGroupby:
    """The group-partitioned groupby against the same module as one bucket.

    After every arrival, guarantee and flush both instances must emit the
    same bytes, promise the same guarantee, report the same metrics apart
    from ``evaluated_rows``, and raise on the same calls.
    """

    def _arrivals(self, rng):
        # Keys 1, 1.0 and True are distinct groups; some events miss a key
        # attribute or the target.
        events = []
        for i in range(rng.randint(4, 14)):
            payload = {}
            for name, values, p in (("g", (1, 1.0, True, "1", 2), 0.85),
                                    ("h", ("a", 0, False), 0.85),
                                    ("x", (1, 2, 0.5, -0.0, 3.25, 0.1), 0.9)):
                if rng.random() < p:
                    payload[name] = rng.choice(values)
            v_s = rng.randint(0, 40)
            v_e = INF if rng.random() < 0.15 else v_s + rng.randint(1, 12)
            events.append(UnitemporalEvent(v_s, v_e, Payload(payload), id=f"e{i}"))
        rows = encode_stream(rows_from_unitemporal(events, key_prefix="u"),
                             rng, skew=4, retract_prob=0.3)
        return [(0, r) for r in rows]

    @staticmethod
    def _lockstep(module, level, calls):
        """Make each call on a keyed and a one-bucket instance; compare them.

        Returns both instances and the rows each of them emitted.
        """
        keyed = OperatorInstance(module, level)
        whole = OperatorInstance(replace(module, partition=None), level)
        assert keyed.module.partition is not None
        emitted = []
        for call in calls:
            seen = []
            for inst in (keyed, whole):
                try:
                    rows, promise = call(inst)
                    seen.append((jsonio.dumps_events(rows), promise))
                    if inst is keyed:
                        emitted.extend(rows)
                except TypeMismatch:
                    seen.append(TypeMismatch)
                metrics = inst.metrics()
                del metrics["evaluated_rows"]
                seen.append(metrics)
            assert seen[:2] == seen[2:]
        assert keyed.evaluated_rows <= whole.evaluated_rows
        return keyed, whole, emitted

    @staticmethod
    def _calls(arrivals, schedule):
        calls = []
        for i, (port, r) in enumerate(arrivals):
            calls += [lambda inst, port=port, threshold=threshold:
                      inst.declare_guarantee(threshold, port)
                      for pos, port, threshold in schedule if pos == i]
            calls.append(lambda inst, port=port, r=r: (inst.ingest(r, port), None))
        calls += [lambda inst, port=port, threshold=threshold:
                  inst.declare_guarantee(threshold, port)
                  for pos, port, threshold in schedule if pos >= len(arrivals)]
        calls.append(lambda inst: (inst.flush(), None))
        return calls

    @pytest.mark.parametrize("key", [(), ("g",), ("g", "h")], ids=len)
    @pytest.mark.parametrize("agg", AGGREGATES)
    def test_matches_one_bucket(self, key, agg):
        module = build_module("groupby", key=key, agg=agg, target="x")
        saved = whole_rows = 0
        for trial in range(4):
            rng = random.Random(f"keyed-groupby-{agg}-{len(key)}-{trial}")
            arrivals = self._arrivals(rng)
            calls = self._calls(arrivals, honest_schedule(arrivals, every=3))
            for level in (STRONG, MIDDLE, WEAK):
                keyed, whole, _ = self._lockstep(module, level, calls)
                saved += whole.evaluated_rows - keyed.evaluated_rows
                whole_rows += whole.output_rows
        assert whole_rows > 0
        assert saved > 0 or key == ()

    def test_a_bad_value_fails_the_same_calls(self):
        # Each evaluation of group 1 raises while its bad row is live; the
        # group-2 arrival must not slip past it.
        module = build_module("groupby", key=("g",), agg="sum", target="x")
        feed = [row("K0", "a", 0, INF, 1, 9, 0, payload={"g": 1, "x": 5}),
                row("K1", "b", 0, INF, 2, 9, 0, payload={"g": 1, "x": "bad"}),
                row("K2", "c", 0, INF, 3, 9, 0, payload={"g": 2, "x": 3}),
                row("K3", "d", 0, INF, 4, 9, 0, payload={"g": 1, "x": 4}),
                row("K1", "b", 0, INF, 2, 2, 0, payload={"g": 1, "x": "bad"})]
        raised = []

        def ingest(i, r):
            def call(inst):
                try:
                    return inst.ingest(r), None
                except TypeMismatch:
                    raised.append(i)
                    raise
            return call
        calls = [ingest(i, r) for i, r in enumerate(feed)]
        calls.append(lambda inst: (inst.flush(), None))
        _, _, emitted = self._lockstep(module, MIDDLE, calls)
        assert raised == [1, 1, 2, 2, 3, 3]
        assert {(r.payload["g"], r.payload["x"]) for r in emitted} >= {
            (1, 5), (1, 9), (2, 3)}


class TestStrongMatchesOrderedRun:
    @pytest.mark.parametrize("kind", ["select", "sequence"])
    def test_disorder_is_invisible(self, kind):
        for seed in range(10):
            rng = random.Random(f"strong-{kind}-{seed}")
            maker = make_pattern_workload if kind in PATTERN_PARAMS \
                else make_merged_workload
            ideal, arrivals = maker(rng, arity_of(kind), 8, skew=4,
                                    retract_prob=0.3)
            _, disordered_out = run_module(module_under_test(kind),
                                           arrivals, STRONG)
            ordered = sorted(arrivals, key=lambda a: (a[1].o_s, a[1].c_s))
            _, ordered_out = run_module(module_under_test(kind),
                                        ordered, STRONG)
            assert logically_equivalent(HistoryTable(disordered_out),
                                        HistoryTable(ordered_out), INF, "to")

    def test_every_strong_output_row_is_a_sync_point(self):
        # Distinct anchors keep the per-entry condition decidable; the last
        # entry of any equal-sync cluster must yield a sync point.
        from cedr.disorder import rows_from_pattern
        from cedr.patterns import PatternEvent

        from engine_harness import interleave

        events = [PatternEvent(f"a{i}", 7 * i + 1, 7 * i + 3, 7 * i + 1, INF,
                               rt=7 * i + 1) for i in range(6)]
        rows = rows_from_pattern(events, key_prefix="A")
        rng = random.Random("sp-a")
        rng.shuffle(rows)
        arrivals = [(0, r) for r in rows]
        schedule = honest_schedule(arrivals, every=2) + \
            [(len(arrivals), 1, INF)]
        _, out = run_module(module_under_test("unless"), arrivals,
                            STRONG, schedule)
        assert out, "workload produced no output"
        table = annotate_sync(HistoryTable(out))
        points = set(sync_points_of(table))
        last_of_cluster: dict = {}
        for sync, event in table:
            cur = last_of_cluster.get(sync)
            if cur is None or event.c_s > cur.c_s:
                last_of_cluster[sync] = event
        for sync, event in last_of_cluster.items():
            assert SyncPointPair(sync, event.c_s) in points, (sync, event.c_s)


class TestMiddleRetractionProtocol:
    def test_late_blocker_retracts_emitted_output(self):
        module = module_under_test("unless")  # scope 6
        inst = OperatorInstance(module, MIDDLE)
        anchor = pattern_event_to_row(
            PatternEvent("a1", 10, 30, 10, INF, rt=10), "A1", 0)
        blocker = pattern_event_to_row(
            PatternEvent("b1", 13, 30, 13, INF, rt=13), "B1", 1)
        first = inst.ingest(anchor, 0)
        assert len(first) == 1 and first[0].o_s == 10
        second = inst.ingest(blocker, 1)
        assert len(second) == 1
        retraction = second[0]
        assert retraction.k == first[0].k
        assert retraction.o_s == retraction.o_e == 10
        assert inst.metrics()["retraction_rows"] == 1
        assert content_set(first + second) == frozenset()

    def test_shrink_keeps_lineage(self):
        module = module_under_test("select")
        inst = OperatorInstance(module, MIDDLE)
        optimistic = TritemporalEvent("K", "e", 5, INF, 5, INF, 0,
                                      payload=Payload({"g": 0, "x": 7}))
        shrink = TritemporalEvent("K", "e", 5, INF, 5, 9, 1,
                                  payload=Payload({"g": 0, "x": 7}))
        out1 = inst.ingest(optimistic, 0)
        out2 = inst.ingest(shrink, 0)
        assert len(out1) == 1 and out1[0].o_e == INF
        assert len(out2) == 1 and out2[0].o_e == 9
        assert out2[0].k == out1[0].k
        assert inst.metrics()["retraction_rows"] == 1


class TestWeakDropsBeyondHorizon:
    def test_late_row_dropped_and_counted(self):
        module = module_under_test("select")
        inst = OperatorInstance(module, WEAK)
        inst.declare_guarantee(10, 0)
        late = TritemporalEvent("K", "e", 5, INF, 5, 9, 0,
                                payload=Payload({"g": 0, "x": 5}))
        assert inst.ingest(late, 0) == []
        assert inst.metrics()["dropped_rows"] == 1

    def test_outputs_stay_at_correct_for_accepted_rows(self):
        # After a drop, the output still reconciles to the denotation of the
        # rows weak retained: at-correctness over the accepted stream.
        from cedr.disorder import rows_from_unitemporal
        from cedr.temporal import UnitemporalEvent

        events = [UnitemporalEvent(4 * i, 4 * i + 3, Payload({"g": 0, "x": 5}),
                                   id=f"e{i}") for i in range(5)]
        rows = rows_from_unitemporal(events)
        late, rest = rows[0], rows[1:]
        inst = OperatorInstance(module_under_test("select"), WEAK)
        out = []
        for r in rest:
            out.extend(inst.ingest(r, 0))
        inst.declare_guarantee(17, 0)
        assert inst.ingest(late, 0) == []          # sync 0 < frontier 17
        assert inst.metrics()["dropped_rows"] == 1
        out.extend(inst.flush())
        accepted = content_set(oracle_rows(module_under_test("select"),
                                           (events[1:],)))
        assert content_set(out) == accepted

    def test_middle_keeps_the_same_row(self):
        module = module_under_test("select")
        inst = OperatorInstance(module, MIDDLE)
        inst.declare_guarantee(10, 0)
        late = TritemporalEvent("K", "e", 5, INF, 5, 9, 0,
                                payload=Payload({"g": 0, "x": 5}))
        assert len(inst.ingest(late, 0)) == 1


class TestGuarantees:
    def test_identity_propagation_on_unary(self):
        inst = OperatorInstance(module_under_test("select"), STRONG)
        _, g = inst.declare_guarantee(10, 0)
        assert g == Guarantee("select", 10)

    def test_min_rule_on_binary(self):
        inst = OperatorInstance(module_under_test("join"), STRONG)
        _, g = inst.declare_guarantee(10, 0)
        assert g is None
        _, g = inst.declare_guarantee(7, 1)
        assert g.threshold == 7

    def test_pattern_scope_subtracted(self):
        inst = OperatorInstance(module_under_test("unless"), STRONG)  # w=6
        inst.declare_guarantee(20, 0)
        _, g = inst.declare_guarantee(20, 1)
        assert g.threshold == 14

    def test_regression_rejected(self):
        inst = OperatorInstance(module_under_test("select"), STRONG)
        inst.declare_guarantee(10, 0)
        with pytest.raises(NonMonotoneGuarantee):
            inst.declare_guarantee(8, 0)

    BAD_THRESHOLDS = [float("nan"), 2.5, -1, NEG, "x", True, None]

    @pytest.mark.parametrize("threshold", BAD_THRESHOLDS, ids=repr)
    def test_invalid_threshold_rejected(self, threshold):
        # A NaN threshold was once accepted, after which no threshold
        # counted as a regression.
        inst = OperatorInstance(module_under_test("select"), STRONG)
        with pytest.raises(ValueError, match="threshold"):
            inst.declare_guarantee(threshold, 0)
        inst.declare_guarantee(3, 0)
        with pytest.raises(ValueError, match="threshold"):
            inst.declare_guarantee(threshold, 0)
        with pytest.raises(NonMonotoneGuarantee):
            inst.declare_guarantee(2, 0)
        assert inst.declare_guarantee(INF, 0)[1] == Guarantee("select", INF)

    @pytest.mark.parametrize("threshold", BAD_THRESHOLDS, ids=repr)
    def test_pipeline_rejects_invalid_threshold(self, threshold):
        # Also on a stream no leaf reads, where it was once ignored.
        pipe = Pipeline(SequenceOp((Leaf("A", "x"), Leaf("B", "y")), 10), MIDDLE)
        for stream in ("A", "Z"):
            with pytest.raises(ValueError, match="threshold"):
                pipe.guarantee(stream, threshold)
        pipe.guarantee("A", 4)
        pipe.guarantee("B", INF)
        assert pipe.flush() == []

    def test_infinite_lag_promises_inf_at_the_end(self):
        # INF - INF is NaN: a child with an infinite scope once handed its
        # parent a NaN threshold once its inputs reached INF.
        plan = UnlessOp(SequenceOp((Leaf("A", "x"), Leaf("B", "y")), INF), Leaf("C", "z"), 5)
        pipe = Pipeline(plan, STRONG)
        child = pipe._nodes[1].instance
        assert child.module.lag == INF
        for stream in ("A", "B"):
            pipe.guarantee(stream, 50)
        assert child.output_guarantee() is None
        for stream in ("A", "B", "C"):
            pipe.guarantee(stream, INF)
        assert child.output_guarantee() == Guarantee(child.name, INF)
        assert [p.threshold for p in pipe.root_instance()._ports] == [INF, INF]

    @pytest.mark.parametrize("kind", ["select", "window", "unless", "sequence",
                                      "union", "groupby"])
    @pytest.mark.parametrize("level", [STRONG, MIDDLE, WEAK])
    def test_soundness_no_row_behind_emitted_guarantee(self, kind, level):
        rng = random.Random(f"sound-{kind}-{level.blocking}")
        for trial in range(8):
            maker = make_pattern_workload if kind in PATTERN_PARAMS \
                else make_merged_workload
            _, arrivals = maker(rng, arity_of(kind), 8, skew=3, retract_prob=0.2)
            schedule = honest_schedule(arrivals, every=3)
            module = module_under_test(kind)
            inst = OperatorInstance(module, level)
            floor = -1
            si, sched = 0, sorted(schedule, key=lambda s: s[0])
            emitted_after = []
            for i, (port, r) in enumerate(arrivals):
                while si < len(sched) and sched[si][0] <= i:
                    rows, g = inst.declare_guarantee(sched[si][2], sched[si][1])
                    emitted_after.extend((floor, r2) for r2 in rows)
                    if g is not None:
                        floor = max(floor, g.threshold)
                    si += 1
                emitted_after.extend((floor, r2) for r2 in inst.ingest(r, port))
            while si < len(sched):
                rows, g = inst.declare_guarantee(sched[si][2], sched[si][1])
                emitted_after.extend((floor, r2) for r2 in rows)
                if g is not None:
                    floor = max(floor, g.threshold)
                si += 1
            emitted_after.extend((floor, r2) for r2 in inst.flush())
            annotated = {r.event: r.sync for r in
                         annotate_sync(HistoryTable(r2 for _, r2 in emitted_after))}
            for promised, out_row in emitted_after:
                assert annotated[out_row] > promised, (kind, trial, out_row)


class TestSyncPoints:
    def test_fully_ordered_every_row_yields(self):
        t = AnnotatedHistoryTable([
            AnnotatedRow(1, row("A", "a", 1, 9, 1, INF, 0)),
            AnnotatedRow(2, row("B", "b", 2, 9, 2, INF, 1)),
            AnnotatedRow(3, row("C", "c", 3, 9, 3, INF, 2)),
        ])
        points = sync_points_of(t)
        assert {(p.t_o, p.t_c) for p in points} == {(1, 0), (2, 1), (3, 2)}

    def test_out_of_order_row_yields_none(self):
        t = AnnotatedHistoryTable([
            AnnotatedRow(1, row("A", "a", 1, 9, 1, INF, 0)),
            AnnotatedRow(3, row("C", "c", 3, 9, 3, INF, 1)),
            AnnotatedRow(2, row("B", "b", 2, 9, 2, INF, 2)),
        ])
        points = {(p.t_o, p.t_c) for p in sync_points_of(t)}
        assert (3, 1) not in points
        assert (1, 0) in points

    def test_empty(self):
        assert sync_points_of(AnnotatedHistoryTable()) == []


class TestWellBehaved:
    """Re-encoded equivalent inputs give outputs equivalent to infinity."""

    KINDS = ("select", "join", "window", "union", "deletes",
             "sequence", "unless", "cancel_when")

    @pytest.mark.parametrize("kind", KINDS)
    def test_engine_matches_denotation(self, kind):
        rng = random.Random(f"wb-{kind}")
        maker = make_pattern_workload if kind in PATTERN_PARAMS \
            else make_merged_workload
        module = module_under_test(kind)
        for trial in range(12):
            ideal, arrivals = maker(rng, arity_of(kind), 8,
                                    skew=rng.randint(0, 6),
                                    retract_prob=rng.choice([0.0, 0.3, 1.0]))
            level = (STRONG, MIDDLE, WEAK)[trial % 3]
            _, out = run_module(module_under_test(kind), arrivals, level)
            want = content_set(oracle_rows(module, ideal))
            assert content_set(out) == want, (kind, trial, level)


class TestCrossLevelAgreement:
    @pytest.mark.parametrize("kind", ["select", "window", "sequence", "unless"])
    def test_levels_agree_at_common_sync_points(self, kind):
        rng = random.Random(f"agree-{kind}")
        maker = make_pattern_workload if kind in PATTERN_PARAMS \
            else make_merged_workload
        for trial in range(8):
            _, arrivals = maker(rng, arity_of(kind), 8, skew=4, retract_prob=0.25)
            schedule = honest_schedule(arrivals, every=3)
            states = []
            for level in (STRONG, MIDDLE, WEAK):
                _, out = run_module(module_under_test(kind), arrivals,
                                    level, schedule)
                states.append(states_at_sync_points(out))
            common = set(states[0]) & set(states[1]) & set(states[2])
            for t_o in common:
                assert states[0][t_o] == states[1][t_o] == states[2][t_o], (kind, trial, t_o)


class TestSwitchLevel:
    def test_switch_matches_from_scratch_run(self):
        rng = random.Random("switch")
        hits = 0
        for trial in range(20):
            _, arrivals = make_merged_workload(rng, 1, 8, skew=2, retract_prob=0.2)
            schedule = honest_schedule(arrivals, every=2)
            for a, b in ((STRONG, MIDDLE), (MIDDLE, STRONG), (MIDDLE, WEAK)):
                out, switched = switch_run("select", arrivals, schedule, a, b)
                if not switched:
                    continue
                hits += 1
                pure, pure_out = run_module(module_under_test("select"),
                                            arrivals, b, schedule)
                assert content_set(out) == content_set(pure_out)
        assert hits > 0

    @staticmethod
    def _select_fed(*syncs):
        """A MIDDLE ``select`` fed one insertion per sync value, and its output rows."""
        inst = OperatorInstance(module_under_test("select"), MIDDLE)
        out = []
        for i, o_s in enumerate(syncs):
            out += inst.ingest(row(f"K{i}", f"e{i}", o_s, INF, o_s, INF, 0,
                                   payload={"g": 0, "x": 5}), 0)
        return inst, out

    def test_switch_away_from_sync_point_rejected(self):
        inst, _ = self._select_fed(5)
        with pytest.raises(NotASyncPoint):
            inst.switch_level(STRONG, SyncPointPair(0, 99))

    def test_a_sync_point_before_the_last_stamp_is_refused(self):
        # Rows at sync 5 (stamps 0 and 1) and 9 (stamps 2 and 3): (5, 1)
        # separates them, but the row at 9 was handled at the old level.
        inst, out = self._select_fed(5, 9)
        history = annotate_sync(HistoryTable(out))
        assert SyncPointPair(5, 1) in sync_points_of(history)
        with pytest.raises(NotASyncPoint):
            inst.switch_level(STRONG, SyncPointPair(5, 1))
        assert inst.level == MIDDLE
        assert inst.switch_level(STRONG, SyncPointPair(9, 3)) == []
        assert inst.level == STRONG

    def test_an_output_sync_above_every_input_sync_counts(self):
        # ``deletes`` emits an event of [2, 9) at its end, sync 9.
        inst = OperatorInstance(module_under_test("deletes"), MIDDLE)
        out = inst.ingest(row("K", "e", 0, INF, 2, 9, 0, payload={"g": 0}), 0)
        assert [r.o_s for r in out] == [9]
        present = inst._clock[0]
        with pytest.raises(NotASyncPoint):
            inst.switch_level(WEAK, SyncPointPair(8, present))
        inst.switch_level(WEAK, SyncPointPair(9, present))
        assert inst.level == WEAK

    def test_a_row_dropped_behind_the_horizon_counts(self):
        inst = OperatorInstance(module_under_test("select"), WEAK)
        inst.declare_guarantee(10, 0)
        late = row("K", "e", 5, INF, 5, 9, 0, payload={"g": 0, "x": 5})
        assert inst.ingest(late, 0) == []
        assert inst.metrics()["dropped_rows"] == 1
        with pytest.raises(NotASyncPoint):
            inst.switch_level(MIDDLE, SyncPointPair(4, inst._clock[0]))
        inst.switch_level(MIDDLE, SyncPointPair(5, inst._clock[0]))
        assert inst.level == MIDDLE

    def test_each_switch_returns_its_own_rows(self):
        # Unreleased at STRONG; blocking 1 releases syncs 0 and 1, MIDDLE
        # the last one.
        inst = OperatorInstance(module_under_test("union"), STRONG)
        for i in range(3):
            assert inst.ingest(row(f"K{i}", f"e{i}", 0, INF, i, i + 5, 0,
                                   payload={"g": i}), 0) == []
        at = SyncPointPair(10**9, 10**9)
        first = inst.switch_level(ConsistencyLevel(INF, 1), at)
        second = inst.switch_level(MIDDLE, at)
        assert [r.payload["g"] for r in first] == [0, 1]
        assert [r.payload["g"] for r in second] == [2]
        assert inst.output_rows == 3
        assert inst.switch_level(WEAK, at) == []

    def test_switch_to_same_level_is_noop(self):
        inst, _ = self._select_fed(5)
        assert inst.switch_level(MIDDLE, SyncPointPair(5, 1)) == []

    def test_leaving_infinite_blocking_releases_what_it_held(self):
        # At STRONG the composite of a1 and b1 (anchor 3) waits until the
        # frontier less the scope passes it; the buffer is empty.  A switch
        # to any finite blocking must release it at once.
        for to in (MIDDLE, WEAK, ConsistencyLevel(INF, 5), ConsistencyLevel(20, 3)):
            inst = OperatorInstance(build_module("sequence", k=2, w=10), STRONG)
            inst.ingest(pattern_event_to_row(PatternEvent("a1", 1, 20, 1, INF, rt=1), "A1", 0), 0)
            inst.ingest(pattern_event_to_row(PatternEvent("b1", 3, 20, 3, INF, rt=3), "B1", 0), 1)
            for port in (0, 1):
                assert inst.declare_guarantee(5, port)[0] == []
            assert inst._buffer == []
            out = inst.switch_level(to, SyncPointPair(5, inst._clock[0]))
            assert [(r.o_s, r.payload["@cbt"]) for r in out] == [(3, '["a1", "b1"]')], to
            assert _full_diff(inst) == []
            assert content_set(out + inst.flush()) == content_set(out)


class TestMetricsDirectional:
    def test_ordered_input_with_prompt_guarantees_never_blocks(self):
        # Distinct sync values: a tie forces the first of two equal-sync rows
        # to wait for its twin before any honest guarantee can cover it.
        from cedr.disorder import rows_from_unitemporal
        from cedr.temporal import UnitemporalEvent
        events = [UnitemporalEvent(3 * i, 3 * i + 2, Payload({"g": 0, "x": i}),
                                   id=f"e{i}") for i in range(6)]
        arrivals = [(0, r) for r in rows_from_unitemporal(events)]
        schedule = honest_schedule(arrivals, every=1)
        for level in (STRONG, MIDDLE, WEAK):
            inst, _ = run_module(module_under_test("select"), arrivals,
                                 level, schedule)
            m = inst.metrics()
            assert m["blocking_time"] == 0
            assert m["retraction_rows"] == 0
            assert m["dropped_rows"] == 0

    def test_disorder_blocks_strong_only(self):
        rng = random.Random("skewed")
        _, arrivals = make_merged_workload(rng, 1, 10, skew=20, retract_prob=0.4)
        schedule = honest_schedule(arrivals, every=2)
        metrics = {}
        for level, name in ((STRONG, "strong"), (MIDDLE, "middle"), (WEAK, "weak")):
            inst, _ = run_module(module_under_test("select"), arrivals,
                                 level, schedule)
            metrics[name] = inst.metrics()
        assert metrics["strong"]["blocking_time"] > 0
        assert metrics["middle"]["blocking_time"] == 0
        assert metrics["weak"]["blocking_time"] == 0
        assert metrics["middle"]["retraction_rows"] > 0
        assert metrics["weak"]["output_rows"] <= metrics["middle"]["output_rows"]
        assert metrics["weak"]["max_state_rows"] <= metrics["middle"]["max_state_rows"]


class TestPipeline:
    def _plan(self):
        return inject_predicates(
            UnlessOp(SequenceOp((Leaf("INSTALL", "x"), Leaf("SHUTDOWN", "y")), 720),
                     Leaf("RESTART", "z"), 5),
            [Predicate(AttrRef("x", "Machine_Id"), "=", AttrRef("y", "Machine_Id")),
             Predicate(AttrRef("x", "Machine_Id"), "=", AttrRef("z", "Machine_Id"))])

    def _feed(self, pipe, name, event):
        pipe.feed(name, pattern_event_to_row(event, f"{name}:{event.id}", 0))

    def test_composite_emitted_without_restart(self):
        pipe = Pipeline(self._plan(), MIDDLE)
        self._feed(pipe, "INSTALL", PatternEvent(
            "i1", 10, 1000, 10, INF, rt=10, payload=Payload({"Machine_Id": "m1"})))
        self._feed(pipe, "SHUTDOWN", PatternEvent(
            "s1", 100, 1000, 100, INF, rt=100, payload=Payload({"Machine_Id": "m1"})))
        pipe.flush()
        final = content_set(pipe.outputs)
        assert len(final) == 1

    def test_matching_restart_blocks(self):
        pipe = Pipeline(self._plan(), MIDDLE)
        self._feed(pipe, "INSTALL", PatternEvent(
            "i1", 10, 1000, 10, INF, rt=10, payload=Payload({"Machine_Id": "m1"})))
        self._feed(pipe, "SHUTDOWN", PatternEvent(
            "s1", 100, 1000, 100, INF, rt=100, payload=Payload({"Machine_Id": "m1"})))
        self._feed(pipe, "RESTART", PatternEvent(
            "r1", 103, 1000, 103, INF, rt=103, payload=Payload({"Machine_Id": "m1"})))
        pipe.flush()
        assert content_set(pipe.outputs) == frozenset()

    def test_unrelated_restart_does_not_block(self):
        pipe = Pipeline(self._plan(), MIDDLE)
        self._feed(pipe, "INSTALL", PatternEvent(
            "i1", 10, 1000, 10, INF, rt=10, payload=Payload({"Machine_Id": "m1"})))
        self._feed(pipe, "SHUTDOWN", PatternEvent(
            "s1", 100, 1000, 100, INF, rt=100, payload=Payload({"Machine_Id": "m1"})))
        self._feed(pipe, "RESTART", PatternEvent(
            "r1", 103, 1000, 103, INF, rt=103, payload=Payload({"Machine_Id": "m2"})))
        pipe.flush()
        assert len(content_set(pipe.outputs)) == 1

    def test_metrics_shape(self):
        pipe = Pipeline(self._plan(), MIDDLE)
        m = pipe.metrics()
        assert set(m) == {"total", "nodes"}
        assert set(m["total"]) == {"blocking_time", "max_state_rows",
                                   "output_rows", "retraction_rows", "dropped_rows"}

    def test_per_node_level_override(self):
        plan = self._plan()
        pipe = Pipeline(plan, MIDDLE, node_levels={"unlessop0": STRONG})
        assert pipe.root_instance().level == STRONG


class TestWiringFormat:
    def _pipe(self):
        return Pipeline(self._plan(), MIDDLE,
                        node_levels={"unlessop0": STRONG})

    _plan = TestPipeline._plan

    def test_round_trip_preserves_levels(self):
        import json

        from cedr.engine import pipeline_from_obj, pipeline_to_obj

        obj = pipeline_to_obj(self._pipe())
        json.dumps(obj)  # JSON-safe
        rebuilt = pipeline_from_obj(obj)
        assert rebuilt.root_instance().level == STRONG
        assert {n.instance.name: n.instance.level.blocking
                for n in rebuilt._nodes} == \
            {n.instance.name: n.instance.level.blocking
             for n in self._pipe()._nodes}

    def test_named_default_level(self):
        from cedr.engine import pipeline_from_obj, pipeline_to_obj

        obj = pipeline_to_obj(self._pipe())
        obj["level"] = {"name": "weak"}
        obj["node_levels"] = {}
        rebuilt = pipeline_from_obj(obj)
        assert rebuilt.root_instance().level == WEAK

    def test_plan_is_the_compiled_plan(self):
        from cedr.engine import pipeline_to_obj
        from cedr.patterns import plan_to_obj
        from cedr.query import compile_query, parse

        for src in TestPipelineCrossLevel.QUERY_PLAN_SOURCES:
            plan = compile_query(parse(src).ast).plan
            root = Pipeline(plan, MIDDLE).root_instance().name
            obj = pipeline_to_obj(Pipeline(plan, MIDDLE, node_levels={root: WEAK}))
            assert obj["plan"] == plan_to_obj(plan)
            assert obj["node_levels"][root] == {"memory": 0, "blocking": 0}

    def test_stacked_wrappers_keep_their_order(self):
        from cedr.engine import pipeline_to_obj
        from cedr.patterns import ProjectOp, SliceOp, plan_to_obj

        plan = ProjectOp(SliceOp(SequenceOp((Leaf("A", "x"), Leaf("B", "y")), 9),
                                 occ=(1, 41), valid=(0, 51)), ("M",))
        assert pipeline_to_obj(Pipeline(plan, MIDDLE))["plan"] == plan_to_obj(plan)

    def test_wrapper_below_the_root_is_a_type_error(self):
        from cedr.patterns import SliceOp

        plan = SequenceOp((SliceOp(Leaf("A"), valid=(0, 9)), Leaf("B")), 5)
        with pytest.raises(TypeError):
            Pipeline(plan, MIDDLE)
        with pytest.raises(TypeError):
            Pipeline(("not", "a", "plan"), MIDDLE)

    def test_node_levels_must_name_instances(self):
        # A leaf below the root is a port of its parent, so its name, like
        # any other unknown name, sets no level and is refused.
        from cedr.engine import pipeline_from_obj, pipeline_to_obj

        with pytest.raises(ValueError, match=r"leaf1, nosuch .*unlessop0, sequenceop1"):
            Pipeline(self._plan(), MIDDLE, node_levels={"leaf1": WEAK, "nosuch": WEAK})
        obj = pipeline_to_obj(self._pipe())
        assert set(obj["node_levels"]) == {"unlessop0", "sequenceop1"}
        obj["node_levels"]["leaf4"] = {"name": "weak"}
        with pytest.raises(ValueError, match="leaf4"):
            pipeline_from_obj(obj)


class TestLeafPorts:
    """A leaf below the root is a port of its parent, not an instance.

    Each case compares the output content after flush with the denotation
    at STRONG, MIDDLE and WEAK.
    """

    LEVELS = (STRONG, MIDDLE, WEAK)

    @staticmethod
    def _denotation(plan, ideal):
        from cedr.disorder import rows_from_pattern
        from cedr.patterns import evaluate_plan

        return content_set(rows_from_pattern(evaluate_plan(plan, ideal), key_prefix="o"))

    @staticmethod
    def _encode(rng, ideal):
        from cedr.disorder import rows_from_pattern

        return {name: encode_stream(rows_from_pattern(events, key_prefix=f"{name}k"),
                                    rng, skew=3, retract_prob=0.5)
                for name, events in ideal.items()}

    def test_pushed_down_predicate_drops_failing_events(self):
        # x's predicate lands on the A leaf.  About half of A's events fail
        # it, and some of those are retracted; the SEQUENCE's port never
        # holds a live event that fails it.
        from cedr.query import compile_query, parse

        plan = compile_query(parse(
            "EVENT q WHEN SEQUENCE(A x, B y, 10) WHERE {x.Machine_Id = 'm1'}").ast).plan
        assert plan.children[0].preds and not plan.preds
        failing_retractions = matched = 0
        for trial in range(6):
            rng = random.Random(f"leaf-pred-{trial}")
            ideal = {name: gen_pattern(rng, f"{name}_", 10) for name in ("A", "B")}
            rows = self._encode(rng, ideal)
            seen = set()
            for r in rows["A"]:
                failing_retractions += r.k in seen and r.payload["Machine_Id"] != "m1"
                seen.add(r.k)
            want = self._denotation(plan, ideal)
            matched += len(want)
            for level in self.LEVELS:
                pipe = TestPipelineCrossLevel()._drive(plan, rows, level)
                assert content_set(pipe.outputs) == want, (trial, level)
                assert set(pipe.metrics()["nodes"]) == {"sequenceop0"}
                port = pipe.root_instance()._ports[0]
                assert all(r.payload["Machine_Id"] == "m1"
                           for r in port.reduced.values() if r.o_s < r.o_e)
        assert failing_retractions and matched

    def test_one_stream_feeds_two_ports(self):
        # Both leaves read A: every row and every guarantee on A reaches
        # ports 0 and 1 of the SEQUENCE.
        from cedr.query import compile_query, parse

        plan = compile_query(parse(
            "EVENT q WHEN SEQUENCE(A x, A y, 10) WHERE {x.Machine_Id = y.Machine_Id}").ast).plan
        raised = matched = 0

        def same_frontiers(pipe):
            nonlocal raised
            first, second = pipe.root_instance()._ports
            assert first.threshold == second.threshold
            raised += first.threshold >= 0

        for trial in range(6):
            rng = random.Random(f"leaf-twice-{trial}")
            ideal = {"A": gen_pattern(rng, "A_", 12)}
            rows = self._encode(rng, ideal)
            want = self._denotation(plan, ideal)
            matched += len(want)
            for level in self.LEVELS:
                pipe = TestPipelineCrossLevel()._drive(plan, rows, level, after=same_frontiers)
                assert [port for _, port, _ in pipe._leaves["A"]] == [0, 1]
                assert content_set(pipe.outputs) == want, (trial, level)
        assert raised and matched

    def test_guarantee_releases_through_a_leaf_port_at_strong(self):
        # At STRONG the composite waits until both streams' guarantees pass
        # its anchor by the scope; the second guarantee releases it.
        a1, b1 = (PatternEvent("a1", 1, 30, 1, INF, rt=1),
                  PatternEvent("b1", 3, 30, 3, INF, rt=3))
        plan = SequenceOp((Leaf("A", "x"), Leaf("B", "y")), 10)
        want = self._denotation(plan, {"A": [a1], "B": [b1]})
        assert want
        for level in self.LEVELS:
            pipe = Pipeline(plan, level)
            fed = (pipe.feed("A", pattern_event_to_row(a1, "K1", 0))
                   + pipe.feed("B", pattern_event_to_row(b1, "L1", 1)))
            first = pipe.guarantee("A", 20)
            second = pipe.guarantee("B", 20)
            flushed = pipe.flush()
            assert content_set(pipe.outputs) == want, level
            if level == STRONG:
                assert (fed, first, flushed) == ([], [], [])
                assert content_set(second) == want
            else:
                assert content_set(fed) == want
                assert first == second == flushed == []


class TestLevelGrid:
    """Every (M, B) level's content after flush equals the denotation.

    Each query runs on disordered arrivals (skew 8) with honest guarantees
    every 20 arrivals.  On insert-only input nothing arrives behind a
    guarantee, so no level may lose or drop a result; with retractions, M
    = inf keeps every repair, so every B must agree with the denotation
    there too.  A finite M with B > 0 once lost the rows its blocking held
    whenever a guarantee released them behind the new horizon.
    """

    LEVELS = sorted({(m, min(b, m)) for m in (0, 5, 50, INF) for b in (0, 1, 5, INF)})
    # The kinds the golden runs do not pin; ``other_kinds`` adds the ones they do.
    GRID_QUERIES = {
        "all": "EVENT q\nWHEN ALL(INSTALL, SHUTDOWN, RESTART, 30 minutes)\n",
        "any": "EVENT q\nWHEN ANY(INSTALL, SHUTDOWN, RESTART)\n",
        "atmost": "EVENT q\nWHEN ATMOST(2, INSTALL, SHUTDOWN, RESTART, 10 minutes)\n",
    }
    KINDS = ["not", "atleast", "cancel-when", "unless-unkeyed", *GRID_QUERIES]

    @staticmethod
    def _case(text, seed, n, max_gap, finite_share=0.0):
        """The plan of ``text``, a feed with its guarantee schedule, and the denotation.

        ``n`` events per stream, ``max_gap`` ticks apart at most.  With a
        ``finite_share``, that share of the events ends at a finite ``o_e``,
        and the rows are encoded with retractions and re-encoded as ``cedr
        disorder --retract-prob 0.1`` does; otherwise they are insert-only.
        """
        from cedr.disorder import (bounded_shuffle, encode_with_retractions,
                                   restamp_arrivals, rows_from_pattern)
        from cedr.query import compile_query, parse

        from perfbench import gen, workloads

        plan = compile_query(parse(text).ast).plan
        rng = random.Random(seed)
        ideal, wire = {}, {}
        for name in ("INSTALL", "SHUTDOWN", "RESTART"):
            events = gen.pattern_stream(rng, name[0].lower(), n, max_gap=max_gap)
            if finite_share:
                events = [replace(e, o_e=e.o_s + rng.randint(1, 30))
                          if rng.random() < finite_share else e for e in events]
            rows = rows_from_pattern(events, key_prefix=name[0])
            ideal[name] = events
            wire[name] = (gen.disorder_rows(encode_with_retractions(rows, rng), rng)
                          if finite_share else
                          restamp_arrivals(bounded_shuffle(rows, 8, rng)))
        feed = workloads.arrival_order(wire)
        schedule = workloads.guarantee_schedule(feed, sorted(wire), 20)
        return plan, feed, schedule, TestLeafPorts._denotation(plan, ideal)

    @staticmethod
    def _check(case, memory, blocking):
        from perfbench import workloads

        plan, feed, schedule, want = case
        pipe = Pipeline(plan, ConsistencyLevel(memory, blocking))
        workloads.drive(pipe, feed, schedule, pipe.flush)
        assert content_set(pipe.outputs) == want
        assert pipe.metrics()["total"]["dropped_rows"] == 0

    @pytest.fixture(scope="class")
    def cidr07(self):
        from perfbench import workloads

        # Events up to 150 ticks apart hold a few events per machine in the
        # 12-hour scope, so the twelve levels run in a few seconds.
        return self._case(workloads.CIDR07_QUERY, "level-grid", 400, max_gap=150)

    @pytest.fixture(scope="class")
    def other_kinds(self):
        from test_golden_runs import OTHER_QUERIES

        # 40 events per stream, up to 45 ticks apart, keep ATLEAST (one
        # bucket, re-evaluated on every reconcile) to a few seconds.
        return {name: self._case(text, f"level-grid/{name}", 40, 45)
                for name, text in {**OTHER_QUERIES, **self.GRID_QUERIES}.items()}

    @pytest.fixture(scope="class")
    def with_retractions(self):
        from test_golden_runs import OTHER_QUERIES

        from perfbench import workloads

        queries = {"cidr07": workloads.CIDR07_QUERY, **OTHER_QUERIES, **self.GRID_QUERIES}
        return {name: self._case(text, f"level-grid/retract/{name}", 40, 45, finite_share=1 / 3)
                for name, text in queries.items()}

    @pytest.mark.parametrize("memory, blocking", LEVELS)
    def test_content_equals_the_denotation(self, cidr07, memory, blocking):
        _, feed, _, want = cidr07
        assert len(feed) == 1200 and len(want) > 300
        self._check(cidr07, memory, blocking)

    @pytest.mark.parametrize("memory, blocking", LEVELS)
    @pytest.mark.parametrize("name", KINDS)
    def test_other_kinds_equal_the_denotation(self, other_kinds, name, memory, blocking):
        _, feed, _, want = other_kinds[name]
        assert len(feed) == 120 and want
        self._check(other_kinds[name], memory, blocking)

    @pytest.mark.parametrize("blocking", (0, 1, 5, INF))
    @pytest.mark.parametrize("name", ["cidr07", *KINDS])
    def test_retractions_at_infinite_memory_equal_the_denotation(self, with_retractions,
                                                                 name, blocking):
        _, feed, _, want = with_retractions[name]
        assert len(feed) > 120 and want
        self._check(with_retractions[name], INF, blocking)


class TestPipelineCrossLevel:
    """Full compiled plans agree across levels, including guarantee relay."""

    QUERY_PLAN_SOURCES = [
        ("EVENT q WHEN UNLESS(SEQUENCE(A x, B AS y, 12), C AS z, 4) "
         "WHERE {x.Machine_Id = y.Machine_Id} AND {x.Machine_Id = z.Machine_Id}"),
        "EVENT q WHEN CANCEL-WHEN(SEQUENCE(A x, B y, 10), C)",
        "EVENT q WHEN SEQUENCE(A, B, 8) OUTPUT Machine_Id",
        "EVENT q WHEN ANY(A, B) # [0, 40]",
        ("EVENT q WHEN NOT(C AS c, SEQUENCE(A x, B y, 10)) "
         "WHERE {x.Machine_Id = c.Machine_Id}"),
        "EVENT q WHEN ATLEAST(2, A, B, 9)",
        "EVENT q WHEN ATMOST(1, A, B, 6)",
        "EVENT q WHEN ALL(A, B, 9) @ [0, 30]",
        "EVENT q WHEN UNLESS(A, B, 7) @ [2, 50] # [0, 60]",
    ]

    def _drive(self, plan, streams_rows, level, every=3, after=None):
        # Interleave across streams only: each stream's internal order (and
        # with it per-lineage delivery order) is a model precondition.
        # ``after`` is called with the pipeline after every feed and guarantee.
        pipe = Pipeline(plan, level)
        rng = random.Random("weave")
        pending = {name: list(rows) for name, rows in streams_rows.items()}
        feed = []
        while any(pending.values()):
            name = rng.choice([n for n, rows in sorted(pending.items()) if rows])
            feed.append((name, pending[name].pop(0)))
        seen: dict[str, set] = {}
        syncs = []
        for name, row in feed:
            marks = seen.setdefault(name, set())
            syncs.append(row.o_s if row.k not in marks else row.o_e)
            marks.add(row.k)
        last: dict[str, float] = {}
        for i, (name, row) in enumerate(feed):
            if every and i and i % every == 0:
                for stream in sorted(streams_rows):
                    remaining = [s for (n, _), s in zip(feed[i:], syncs[i:])
                                 if n == stream and s != INF]
                    if not remaining:
                        continue
                    threshold = min(remaining) - 1
                    if threshold >= 0 and threshold > last.get(stream, -1):
                        pipe.guarantee(stream, threshold)
                        last[stream] = threshold
                        if after:
                            after(pipe)
            pipe.feed(name, row)
            if after:
                after(pipe)
        pipe.flush()
        return pipe

    def test_compiled_plans_agree_across_levels(self):
        from cedr.disorder import rows_from_pattern
        from cedr.patterns import evaluate_plan
        from cedr.query import compile_query, leaf_streams, parse

        from engine_harness import encode_stream, gen_pattern

        for src in self.QUERY_PLAN_SOURCES:
            parsed = parse(src)
            assert parsed.ok
            compiled = compile_query(parsed.ast)
            assert compiled.ok
            streams = leaf_streams(parsed.ast)
            for trial in range(6):
                rng = random.Random(f"pipe-{src[:24]}-{trial}")
                ideal = {name: gen_pattern(rng, f"{name}_", 5) for name in streams}
                rows = {
                    name: encode_stream(
                        rows_from_pattern(events, key_prefix=f"{name}k"),
                        rng, skew=rng.randint(0, 5),
                        retract_prob=rng.choice([0.0, 0.5]))
                    for name, events in ideal.items()
                }
                want = content_set(rows_from_pattern(
                    evaluate_plan(compiled.plan, ideal), key_prefix="o"))
                results = []
                for level in (STRONG, MIDDLE, WEAK):
                    pipe = self._drive(compiled.plan, rows, level)
                    got = content_set(pipe.outputs)
                    assert got == want, (src, trial, level)
                    results.append(got)
                assert results[0] == results[1] == results[2]

    def test_wrapped_plans_count_the_rows_they_release(self):
        # The root's slice and projection run inside its module, so its
        # metrics count the rows the pipeline releases, and no more.
        from cedr.disorder import rows_from_pattern
        from cedr.query import compile_query, leaf_streams, parse

        from engine_harness import encode_stream, gen_pattern

        for src in self.QUERY_PLAN_SOURCES:
            parsed = parse(src)
            if parsed.ast.output is None and parsed.ast.slices is None:
                continue
            plan = compile_query(parsed.ast).plan
            for trial in range(4):
                rng = random.Random(f"wrapped-{src[:24]}-{trial}")
                rows = {name: encode_stream(rows_from_pattern(
                            gen_pattern(rng, f"{name}_", 6), key_prefix=f"{name}k"),
                            rng, skew=rng.randint(0, 5), retract_prob=0.5)
                        for name in leaf_streams(parsed.ast)}
                for level in (STRONG, MIDDLE, WEAK):
                    pipe = self._drive(plan, rows, level)
                    keys = [r.k for r in pipe.outputs]
                    total = pipe.metrics()["total"]
                    assert total["output_rows"] == len(keys), (src, trial, level)
                    assert total["retraction_rows"] == len(keys) - len(set(keys)), (
                        src, trial, level)

    PARTITION_CASES = {
        "missing attribute": (
            "EVENT q WHEN UNLESS(SEQUENCE(A x, B AS y, 12), C AS z, 4) "
            "WHERE {x.Machine_Id = y.Machine_Id} AND {x.Machine_Id = z.Machine_Id}",
            lambda rng, stream: (Payload({"Machine_Id": rng.choice(("m1", "m2"))})
                                 if rng.random() < 0.6
                                 else Payload({"Slot": rng.randint(0, 1)}))),
        "keys equal across types": (
            "EVENT q WHEN SEQUENCE(A x, B y, 12) WHERE {x.Machine_Id = y.Machine_Id}",
            lambda rng, stream: Payload({"Machine_Id": rng.choice((1, 1.0, True, "1", 2))})),
        "variable under a nested composite": (
            "EVENT q WHEN SEQUENCE(SEQUENCE(A x, B y, 10), C z, 20) "
            "WHERE {x.Machine_Id = z.Machine_Id}",
            # B carries another attribute: concatenating three Machine_Id
            # payloads is rejected by concat_payloads.
            lambda rng, stream: Payload({"Slot" if stream == "B" else "Machine_Id":
                                         rng.choice(("m1", "m2", "m3"))})),
        "variable two composites deep": (
            # x is resolved through two composites, each of which the
            # pipeline must have put in its lineage store on the way up.
            "EVENT q WHEN SEQUENCE(SEQUENCE(SEQUENCE(A x, B y, 10), C z, 20), D u, 40) "
            "WHERE {x.Machine_Id = u.Machine_Id}",
            lambda rng, stream: Payload({"Slot" if stream in ("B", "C") else "Machine_Id":
                                         rng.choice(("m1", "m2", "m3"))})),
        "equality with an inequality": (
            "EVENT q WHEN SEQUENCE(A x, B y, 12) "
            "WHERE {x.Machine_Id = y.Machine_Id} AND {x.Slot != y.Slot}",
            lambda rng, stream: Payload({"Machine_Id": rng.choice(("m1", "m2")),
                                         "Slot": rng.randint(0, 2)})),
    }

    def _levels_match_denotation(self, src, ideal, rng, skew, retract_prob):
        from cedr.disorder import rows_from_pattern
        from cedr.patterns import evaluate_plan
        from cedr.query import compile_query, parse

        compiled = compile_query(parse(src).ast)
        assert compiled.ok
        rows = {name: encode_stream(rows_from_pattern(events, key_prefix=f"{name}k"),
                                    rng, skew=skew, retract_prob=retract_prob)
                for name, events in ideal.items()}
        composites = evaluate_plan(compiled.plan, ideal)
        want = content_set(rows_from_pattern(composites, key_prefix="o"))
        for level in (STRONG, MIDDLE, WEAK):
            pipe = self._drive(compiled.plan, rows, level)
            assert content_set(pipe.outputs) == want, (src, level)
        return rows, composites

    @pytest.mark.parametrize("case", sorted(PARTITION_CASES))
    def test_partitioned_sequence_agrees_across_levels(self, case):
        from cedr.query import leaf_streams, parse

        src, payload_of = self.PARTITION_CASES[case]
        streams = leaf_streams(parse(src).ast)
        matched = 0
        for trial in range(6):
            rng = random.Random(f"partition-{case}-{trial}")
            ideal = {name: gen_pattern(rng, f"{name}_", 8,
                                       payload_of=lambda r, n=name: payload_of(r, n))
                     for name in streams}
            _, composites = self._levels_match_denotation(
                src, ideal, rng, skew=rng.randint(0, 5),
                retract_prob=rng.choice([0.0, 0.5]))
            matched += len(composites)
        assert matched

    def test_keys_of_different_types_match(self):
        # 1, 1.0 and True are equal under the predicate and must meet in one
        # bucket; "1" is not.
        src, _ = self.PARTITION_CASES["keys equal across types"]
        ideal = {"A": [PatternEvent(f"a{i}", 1, 30, 1, INF, rt=1,
                                    payload=Payload({"Machine_Id": v}))
                       for i, v in enumerate((1, "1"))],
                 "B": [PatternEvent(f"b{i}", 5, 30, 5, INF, rt=5,
                                    payload=Payload({"Machine_Id": v}))
                       for i, v in enumerate((1.0, True, "1"))]}
        _, composites = self._levels_match_denotation(
            src, ideal, random.Random("types"), skew=2, retract_prob=0.5)
        assert sorted(e.cbt for e in composites) == [
            ("a0", "b0"), ("a0", "b1"), ("a1", "b2")]

    def test_partitioned_sequence_on_a_long_disordered_feed(self):
        src = self.QUERY_PLAN_SOURCES[0]
        rng = random.Random("long-feed")
        ideal = {name: gen_pattern(rng, f"{name}_", 220, horizon=3000)
                 for name in ("A", "B", "C")}
        rows, composites = self._levels_match_denotation(
            src, ideal, rng, skew=8, retract_prob=0.3)
        assert sum(len(r) for r in rows.values()) >= 600
        assert composites

    def test_nested_sequence_renames_every_repeated_attribute(self):
        # Machine_Id on all three streams: the inner composite already has
        # Machine_Id#2, so the third contributor's becomes Machine_Id#3.
        src = ("EVENT q WHEN SEQUENCE(SEQUENCE(A x, B y, 10), C z, 20) "
               "WHERE {x.Machine_Id = z.Machine_Id}")
        rng = random.Random("three-names")
        ideal = {name: gen_pattern(rng, f"{name}_", 8) for name in ("A", "B", "C")}
        _, composites = self._levels_match_denotation(src, ideal, rng, skew=3,
                                                      retract_prob=0.5)
        assert composites
        for e in composites:
            assert list(e.payload) == ["Machine_Id", "Machine_Id#2", "Machine_Id#3"]

    UNLESS_PAYLOADS = {
        "machines": lambda rng: Payload({"Machine_Id": rng.choice(("m1", "m2", "m3"))}),
        "missing attribute": lambda rng: (
            Payload({"Machine_Id": rng.choice(("m1", "m2"))}) if rng.random() < 0.6
            else Payload({"Slot": rng.randint(0, 1)})),
        "keys equal across types": lambda rng: Payload(
            {"Machine_Id": rng.choice((1, 1.0, True, "1", 2))}),
    }

    @pytest.mark.parametrize("pred", ["x.Machine_Id = z.Machine_Id",
                                      "z.Machine_Id = x.Machine_Id"])
    @pytest.mark.parametrize("payloads", sorted(UNLESS_PAYLOADS))
    def test_partitioned_unless_agrees_across_levels(self, pred, payloads):
        payload_of = self.UNLESS_PAYLOADS[payloads]
        blocked = 0
        for src in (f"EVENT q WHEN UNLESS(A x, C z, 6) WHERE {{{pred}}}",
                    "EVENT q WHEN UNLESS(SEQUENCE(A x, B y, 12), C z, 4) "
                    f"WHERE {{x.Machine_Id = y.Machine_Id}} AND {{{pred}}}"):
            for trial in range(6):
                rng = random.Random(f"unless-{pred}-{payloads}-{src[14:20]}-{trial}")
                ideal = {name: gen_pattern(rng, f"{name}_", 8,
                                           payload_of=payload_of)
                         for name in ("A", "B", "C")}
                _, composites = self._levels_match_denotation(
                    src, ideal, rng, skew=rng.randint(0, 5),
                    retract_prob=rng.choice([0.0, 0.5]))
                blocked += len(ideal["A"]) - len(composites)
        assert blocked

    def test_blockers_before_and_after_their_anchor(self):
        src = "EVENT q WHEN UNLESS(A x, C z, 6) WHERE {x.Machine_Id = z.Machine_Id}"
        from cedr.query import compile_query, parse

        def event(id, t, machine):
            return PatternEvent(id, t, t + 20, t, INF, rt=t,
                                payload=Payload({"Machine_Id": machine}))

        ideal = {"A": [event("a1", 10, "m1"), event("a2", 30, "m2"),
                       event("a3", 50, "m1"), event("a4", 72, "m3")],
                 "C": [event("c1", 12, "m1"), event("c2", 33, "m2"),
                       event("c3", 52, "m2"), event("c4", 70, "m3")]}
        # c1 arrives before the anchor it blocks, c2 after it; c3 has
        # another key and c4 comes before its anchor's start.
        order = [("C", 0), ("A", 0), ("A", 1), ("C", 1), ("A", 2), ("C", 2),
                 ("C", 3), ("A", 3)]
        pipe = Pipeline(compile_query(parse(src).ast).plan, MIDDLE)
        for name, i in order:
            e = ideal[name][i]
            pipe.feed(name, pattern_event_to_row(e, f"{name}k{i}", 0))
        pipe.flush()
        inserted = sorted(r.id for r in pipe.outputs if r.o_s < r.o_e)
        killed = sorted(r.id for r in pipe.outputs if r.o_s == r.o_e)
        assert inserted == ["a2", "a3", "a4"] and killed == ["a2"]
        _, composites = self._levels_match_denotation(
            src, ideal, random.Random("anchors"), skew=3, retract_prob=0.5)
        assert sorted(e.id for e in composites) == ["a3", "a4"]

    def test_keyed_on_later_children(self):
        # The first child is not keyed: its events join every bucket.
        src = ("EVENT q WHEN SEQUENCE(A w, B x, C z, 12) "
               "WHERE {x.Machine_Id = z.Machine_Id}")
        matched = 0
        for trial in range(6):
            rng = random.Random(f"later-{trial}")
            ideal = {name: gen_pattern(rng, f"{name}_", 8) for name in ("A", "B", "C")}
            _, composites = self._levels_match_denotation(
                src, ideal, rng, skew=rng.randint(0, 5),
                retract_prob=rng.choice([0.0, 0.5]))
            matched += len(composites)
        assert matched

    def test_partitioned_unless_on_a_long_disordered_feed(self):
        src = self.QUERY_PLAN_SOURCES[0]
        rng = random.Random("long-unless-feed")
        machines = [f"m{i}" for i in range(10)]
        ideal = {}
        for name in ("A", "B", "C"):
            ideal[name] = []
            for i in range(400):
                v_s = rng.randint(0, 4000)
                o_e = INF if rng.random() < 0.7 else v_s + rng.randint(1, 20)
                ideal[name].append(PatternEvent(
                    f"{name}_{i}", v_s, v_s + rng.randint(1, 20), v_s, o_e, rt=v_s,
                    payload=Payload({"Machine_Id": rng.choice(machines)})))
        rows, composites = self._levels_match_denotation(
            src, ideal, rng, skew=8, retract_prob=0.3)
        assert sum(len(r) for r in rows.values()) >= 2000
        assert 0 < len(composites) < len(ideal["A"])


class TestPartitionedSequence:
    """The bucketed SEQUENCE module against the unpartitioned operator."""

    def _events(self, rng, store):
        # Port 0 holds composites whose x contributor may lack the attribute
        # or be missing from the store, and primitives, on which the path
        # to x does not resolve; port 1 holds primitives that may lack it.
        values = (1, 1.0, True, "1", 2)
        firsts = []
        for i in range(rng.randint(0, 8)):
            v_s = rng.randint(0, 30)
            if rng.random() < 0.3:
                firsts.append(PatternEvent(f"p{i}", v_s, v_s + 40, v_s, INF, rt=v_s))
                continue
            x = PatternEvent(f"x{i}", v_s, v_s + 40, v_s, INF, rt=v_s,
                             payload=Payload({"M": rng.choice(values)}
                                             if rng.random() < 0.8 else {}))
            if rng.random() < 0.9:
                store[x.id] = x
            firsts.append(PatternEvent(f"c{i}", v_s, v_s + 40, v_s, INF, rt=v_s,
                                       cbt=(x.id, f"y{i}")))
        seconds = []
        for i in range(rng.randint(0, 8)):
            v_s = rng.randint(0, 40)
            seconds.append(PatternEvent(f"z{i}", v_s, v_s + 40, v_s, INF, rt=v_s,
                                        payload=Payload({"M": rng.choice(values)}
                                                        if rng.random() < 0.8 else {})))
        return (tuple(firsts), tuple(seconds))

    @pytest.mark.parametrize("lhs, rhs", [("x", "z"), ("z", "x")])
    def test_matches_unpartitioned_sequence(self, lhs, rhs):
        # The module evaluates one bucket at a time, so its ports go through
        # an instance, which files each event under its buckets.
        from cedr.patterns import make_accept, make_partition, sequence

        inner = SequenceOp((Leaf("A", "x"), Leaf("B", "y")), 10)
        plan = SequenceOp((inner, Leaf("C", "z")), 20,
                          (Predicate(AttrRef(lhs, "M"), "=", AttrRef(rhs, "M")),))
        for trial in range(300):
            rng = random.Random(f"partitioned-{lhs}-{trial}")
            store = {}
            ports = self._events(rng, store)
            accept = make_accept(plan, store)
            partition = make_partition(plan, store)
            assert partition is not None
            module = build_module("sequence", k=2, w=20, accept=accept,
                                  partition=partition)
            inst = OperatorInstance(module, MIDDLE)
            arrivals = [(port, e) for port, events in enumerate(ports) for e in events]
            rng.shuffle(arrivals)
            for i, (port, e) in enumerate(arrivals):
                inst.ingest(pattern_event_to_row(e, f"k{i}", i), port)
            assert set(inst._ideal().values()) == sequence(ports, 20, accept=accept)

    def test_no_partition_without_a_cross_child_equality(self):
        from cedr.patterns import make_partition

        leaves = (Leaf("A", "x"), Leaf("B", "y"))
        for preds in [(), (Predicate(AttrRef("x", "M"), "!=", AttrRef("y", "M")),),
                      (Predicate(AttrRef("x", "M"), "=", "m1"),),
                      (Predicate(AttrRef("x", "M"), "=", AttrRef("x", "N")),)]:
            assert make_partition(SequenceOp(leaves, 5, preds), {}) is None


class TestBucketedEvaluation:
    """Keyed SEQUENCE and UNLESS instances against their pure operators.

    Both ports hold composites whose keyed contributor may lack the
    attribute, carry a key of another type, or be missing from the store,
    and primitives, on which the path to it does not resolve.  After every
    arrival, the buckets' cached outputs must add up to the operator over
    all live events, and the final output must match the denotation.
    """

    VALUES = (1, 1.0, True, "1", 2)

    def _side(self, rng, store, prefix):
        events = []
        for i in range(rng.randint(0, 8)):
            v_s = rng.randint(0, 40)
            o_e = INF if rng.random() < 0.6 else v_s + rng.randint(1, 30)
            if rng.random() < 0.25:
                events.append(PatternEvent(f"{prefix}p{i}", v_s, v_s + 40, v_s, o_e, rt=v_s))
                continue
            var = PatternEvent(f"{prefix}v{i}", v_s, v_s + 40, v_s, INF, rt=v_s,
                               payload=Payload({"M": rng.choice(self.VALUES)}
                                               if rng.random() < 0.8 else {}))
            if rng.random() < 0.85:
                store[var.id] = var
            events.append(PatternEvent(f"{prefix}c{i}", v_s, v_s + 40, v_s, o_e, rt=v_s,
                                       cbt=(var.id, f"{prefix}o{i}")))
        return events

    def _module(self, kind, pred, store):
        from cedr.patterns import make_accept, make_blocks, make_partition, sequence, unless

        left = SequenceOp((Leaf("A", "x"), Leaf("B", "y")), 10)
        right = SequenceOp((Leaf("C", "z"), Leaf("D", "u")), 10)
        if kind == "sequence":
            plan = SequenceOp((left, right), 20, (pred,))
            accept = make_accept(plan, store)
            module = build_module("sequence", k=2, w=20, accept=accept,
                                  partition=make_partition(plan, store))
            return module, lambda ports: sequence(ports, 20, accept=accept)
        plan = UnlessOp(left, right, 20, (), (pred,))
        blocks = make_blocks(plan, store)
        module = build_module("unless", w=20, blocks=blocks,
                              partition=make_partition(plan, store))
        return module, lambda ports: unless(ports[0], ports[1], 20, blocks=blocks)

    @pytest.mark.parametrize("kind", ["sequence", "unless"])
    @pytest.mark.parametrize("lhs, rhs", [("x", "z"), ("z", "x")])
    def test_matches_the_operator_after_every_arrival(self, kind, lhs, rhs):
        from cedr.disorder import rows_from_pattern

        pred = Predicate(AttrRef(lhs, "M"), "=", AttrRef(rhs, "M"))
        for trial in range(40):
            rng = random.Random(f"bucketed-{kind}-{lhs}-{trial}")
            store = {}
            ideal = (self._side(rng, store, "l"), self._side(rng, store, "r"))
            module, operator = self._module(kind, pred, store)
            assert module.partition is not None
            arrivals = interleave(rng, [
                encode_stream(rows_from_pattern(events, key_prefix=f"s{port}_"),
                              rng, skew=rng.randint(0, 4), retract_prob=0.3)
                for port, events in enumerate(ideal)])
            schedule = dict(((pos, port), t) for pos, port, t
                            in honest_schedule(arrivals, every=3))
            want = content_set(rows_from_pattern(operator(ideal), key_prefix="o"))
            for level in (STRONG, MIDDLE, WEAK):
                inst = OperatorInstance(module, level)
                out = []
                for i, (port, r) in enumerate(arrivals):
                    for p in (0, 1):
                        if (i, p) in schedule:
                            out.extend(inst.declare_guarantee(schedule[i, p], p)[0])
                    out.extend(inst.ingest(r, port))
                    live = tuple(tuple(pattern_event_from_row(row)
                                       for row in p.reduced.values() if row.o_s < row.o_e)
                                 for p in inst._ports)
                    # Two live lineages of one event id (a re-encoded
                    # retraction) yield outputs that share a stable key;
                    # either may stand for it.
                    full = operator(live)
                    ideal = inst._ideal()
                    assert set(ideal) == {inst._stable_key(e) for e in full}, (trial, level, i)
                    assert set(ideal.values()) <= full, (trial, level, i)
                out.extend(inst.flush())
                assert content_set(out) == want, (trial, level)


class _IdleWatch:
    """Checks every instance of an instance or pipeline after each call.

    An instance whose retained rows are the same objects as after the last
    call has no changed state, so it must have evaluated nothing.  After
    every call the instance's stored output, bucket by bucket, must equal
    its pure operator over the live rows.  ``idle`` counts the reconciles
    over unchanged, non-empty state, where reusing the output is what was
    saved.
    """

    def __init__(self):
        self.before = {}
        self.idle = 0

    def __call__(self, subject):
        instances = ([n.instance for n in subject._nodes] if isinstance(subject, Pipeline)
                     else [subject])
        for inst in instances:
            retained, reconciles, evaluated = self.before.get(inst.name, ([], 0, 0))
            now = [(k, r) for p in inst._ports for k, r in p.reduced.items()]
            decode = (pattern_event_from_row if inst.module.pattern_mode
                      else merged_event_from_row)
            live = tuple(tuple(decode(r) for r in p.reduced.values() if r.o_s < r.o_e)
                         for p in inst._ports)
            if len(now) == len(retained) and all(
                    k == k0 and r is r0 for (k, r), (k0, r0) in zip(now, retained)):
                assert inst.evaluated_rows == evaluated, inst.name
                self.idle += inst.reconciles > reconciles and any(live)
            assert not inst._stale
            full = set(inst.module.evaluate(live, None))
            ideal = inst._ideal()
            assert set(ideal) == {inst._stable_key(e) for e in full}, inst.name
            assert set(ideal.values()) <= full, inst.name
            self.before[inst.name] = (now, inst.reconciles, inst.evaluated_rows)


class TestOneBucketReuse:
    """A module without a partition re-evaluates only when a change reaches it.

    At STRONG every guarantee reconciles, also one that releases no row.
    Such a reconcile must leave ``evaluated_rows`` as it was, and the output
    it reuses must still be the operator's output over the live state.
    """

    def test_union_instance(self):
        module = module_under_test("union")
        assert module.partition is None
        idle = 0
        for trial in range(10):
            rng = random.Random(f"one-bucket-union-{trial}")
            ideal, arrivals = make_merged_workload(rng, 2, 10, skew=4, retract_prob=0.3)
            watch = _IdleWatch()
            _, out = run_module(module, arrivals, STRONG,
                                honest_schedule(arrivals, every=2), after=watch)
            assert content_set(out) == content_set(oracle_rows(module, ideal)), trial
            idle += watch.idle
        assert idle > 10, idle

    @pytest.mark.parametrize("src", ["EVENT q WHEN ATLEAST(2, A, B, C, 9)",
                                     "EVENT q WHEN NOT(C AS z, SEQUENCE(A x, B y, 10))"])
    def test_pattern_pipeline(self, src):
        from cedr.disorder import rows_from_pattern
        from cedr.patterns import evaluate_plan
        from cedr.query import compile_query, parse

        plan = compile_query(parse(src).ast).plan
        idle = 0
        for trial in range(10):
            rng = random.Random(f"one-bucket-{src[12:20]}-{trial}")
            ideal, rows = {}, {}
            for name in ("A", "B", "C"):
                ideal[name] = gen_pattern(rng, f"{name}_", 16)
                rows[name] = encode_stream(rows_from_pattern(ideal[name], key_prefix=f"{name}k"),
                                           rng, skew=4, retract_prob=0.3)
            watch = _IdleWatch()
            pipe = TestPipelineCrossLevel()._drive(plan, rows, STRONG, every=2, after=watch)
            assert all(n.instance.module.partition is None for n in pipe._nodes)
            assert content_set(pipe.outputs) == content_set(
                rows_from_pattern(evaluate_plan(plan, ideal), key_prefix="o")), trial
            idle += watch.idle
        assert idle > 30, idle


class TestBucketedReconcile:
    def test_reconciles_evaluate_only_the_touched_buckets(self):
        # A CIDR07 feed over 10 machine ids.  When every reconcile evaluated
        # all retained state, the UNLESS node evaluated 2818 rows over 84
        # reconciles and the SEQUENCE node 9947 over 154 on this feed.  That
        # was with the leaves as instances, which hand on only the arrivals
        # that change their output; as ports of their parents, the leaves
        # hand on every arrival, for 90 and 168 reconciles.
        from cedr.disorder import rows_from_pattern
        from cedr.patterns import evaluate_plan
        from cedr.query import compile_query, parse

        plan = compile_query(parse(TestPipelineCrossLevel.QUERY_PLAN_SOURCES[0]).ast).plan
        rng = random.Random("bucketed-reconcile")
        machines = [f"m{i}" for i in range(10)]
        ideal, rows = {}, {}
        for name in ("A", "B", "C"):
            ideal[name] = gen_pattern(
                rng, f"{name}_", 80, horizon=800,
                payload_of=lambda r: Payload({"Machine_Id": r.choice(machines)}))
            rows[name] = encode_stream(rows_from_pattern(ideal[name], key_prefix=f"{name}k"),
                                       rng, skew=8, retract_prob=0.1)
        pipe = TestPipelineCrossLevel()._drive(plan, rows, MIDDLE)
        assert content_set(pipe.outputs) == content_set(
            rows_from_pattern(evaluate_plan(plan, ideal), key_prefix="o"))
        nodes = pipe.metrics()["nodes"]
        for name, rows_before, reconciles_before, reconciles in (
                ("unlessop0", 2818, 84, 90), ("sequenceop1", 9947, 154, 168)):
            m = nodes[name]
            assert m["reconciles"] == reconciles
            assert (m["evaluated_rows"] / m["reconciles"]
                    <= rows_before / reconciles_before / 2)


def _full_diff(inst) -> list:
    """The keys a diff over every tracked and every ideal output would act on.

    This is the reconcile diff written out over all of the instance's state:
    a tracked output whose ideal output vanished or changed its end, and an
    untracked ideal output neither behind the memory horizon nor, at
    infinite blocking, past the release bound.
    """
    from cedr.engine import NEG

    ideal = inst._ideal()
    module = inst.module
    todo = [key for key, tracked in inst._tracked.items()
            if key not in ideal or ideal[key].o_e != tracked.event.o_e]
    bound = None
    if inst.level.blocking == INF:
        frontier = inst._guarantee_frontier()
        bound = frontier - module.lag if frontier != NEG else NEG
    suppress_below = inst._horizon() - module.lag
    for key, e in ideal.items():
        anchor = e.o_s if module.pattern_mode else e.v_s
        if (key not in inst._tracked and anchor >= suppress_below
                and (bound is None or anchor <= bound)):
            todo.append(key)
    return todo


def _settled(where):
    """A check that the full diff finds nothing left to do on an instance."""
    def check(inst):
        assert _full_diff(inst) == [], (where, inst.name)
    return check


class TestIncrementalDiff:
    """A reconcile diffs only the outputs that changed and those held back.

    After every arrival and guarantee, a diff over all tracked and all ideal
    outputs must find nothing left to do.
    """

    def test_compiled_plans(self):
        from cedr.disorder import rows_from_pattern
        from cedr.query import compile_query, leaf_streams, parse

        checked = 0
        for src in TestPipelineCrossLevel.QUERY_PLAN_SOURCES:
            parsed = parse(src)
            plan = compile_query(parsed.ast).plan
            for trial in range(3):
                rng = random.Random(f"diff-{src[:24]}-{trial}")
                rows = {name: encode_stream(
                            rows_from_pattern(gen_pattern(rng, f"{name}_", 8),
                                              key_prefix=f"{name}k"),
                            rng, skew=rng.randint(0, 5), retract_prob=0.3)
                        for name in leaf_streams(parsed.ast)}
                for level in (STRONG, MIDDLE, WEAK):
                    def settled(pipe):
                        nonlocal checked
                        for node in pipe._nodes:
                            assert _full_diff(node.instance) == [], (
                                src, trial, level, node.instance.name)
                        checked += len(pipe._nodes)
                    TestPipelineCrossLevel()._drive(plan, rows, level, after=settled)
        assert checked > 1000

    @pytest.mark.parametrize("kind", ["select", "union", "difference", "groupby",
                                      "sequence", "not", "cancel_when"])
    def test_modules(self, kind):
        maker = make_pattern_workload if kind in PATTERN_PARAMS else make_merged_workload
        for trial in range(8):
            rng = random.Random(f"diff-{kind}-{trial}")
            _, arrivals = maker(rng, arity_of(kind), 8, skew=4, retract_prob=0.3)
            schedule = honest_schedule(arrivals, every=3)
            for level in (STRONG, MIDDLE, WEAK):
                run_module(module_under_test(kind), arrivals, level, schedule,
                           after=_settled((trial, level)))

    @pytest.mark.parametrize("kind", ["select", "union", "sequence"])
    def test_across_a_level_switch(self, kind):
        maker = make_pattern_workload if kind in PATTERN_PARAMS else make_merged_workload
        switches = 0
        for trial in range(20):
            rng = random.Random(f"diff-switch-{kind}-{trial}")
            _, arrivals = maker(rng, arity_of(kind), 8, skew=2, retract_prob=0.2)
            schedule = honest_schedule(arrivals, every=2)
            for a, b in ((STRONG, MIDDLE), (MIDDLE, STRONG), (MIDDLE, WEAK), (WEAK, MIDDLE)):
                _, switched = switch_run(kind, arrivals, schedule, a, b,
                                         after=_settled((trial, a, b)))
                switches += switched
        assert switches > 10

    def test_leaves_evaluate_only_the_changed_event(self):
        # 120 events per stream over 10 machine ids at MIDDLE.  When a leaf
        # was one bucket, each of its reconciles re-read every retained row,
        # about 61 rows per reconcile on this feed.  Only a root leaf is an
        # instance; a leaf below the root is a port of its parent and has
        # no entry of its own.
        from cedr.disorder import rows_from_pattern
        from cedr.patterns import evaluate_plan, primitive
        from cedr.query import compile_query, leaf_streams, parse

        rng = random.Random("leaf-buckets")
        ideal, rows = {}, {}
        for name in ("A", "B", "C"):
            t, events = 0, []
            for i in range(120):
                t += rng.randint(1, 30)
                events.append(primitive(f"{name}_{i}", t, t + 1,
                                        payload={"Machine_Id": f"m{rng.randrange(10)}"}))
            ideal[name] = events
            rows[name] = encode_stream(rows_from_pattern(events, key_prefix=f"{name}k"),
                                       rng, skew=8, retract_prob=0.1)
        for src, instances in (
                (TestPipelineCrossLevel.QUERY_PLAN_SOURCES[0], {"unlessop0", "sequenceop1"}),
                ("EVENT q WHEN A x WHERE {x.Machine_Id != 'm3'}", {"leaf0"})):
            ast = parse(src).ast
            plan = compile_query(ast).plan
            fed = {name: rows[name] for name in leaf_streams(ast)}
            pipe = TestPipelineCrossLevel()._drive(plan, fed, MIDDLE)
            assert content_set(pipe.outputs) == content_set(
                rows_from_pattern(evaluate_plan(plan, ideal), key_prefix="o")), src
            assert set(pipe.metrics()["nodes"]) == instances
        m = pipe.metrics()["nodes"]["leaf0"]
        assert m["reconciles"] >= 120
        assert m["evaluated_rows"] / m["reconciles"] <= 1.1


class TestDecodeOnce:
    def test_decodes_do_not_grow_with_retained_state(self, monkeypatch):
        # Each retained row is decoded when it arrives, not again on every
        # reconcile: decodes stay within one per arrival plus one per
        # emitted row, however much state the operators hold.  A pipeline
        # hands rows on inside its instances and never calls
        # OperatorInstance.ingest, so arrivals are counted at Pipeline.feed.
        import cedr.engine as engine
        from cedr.disorder import rows_from_pattern
        from cedr.query import compile_query, parse

        plan = compile_query(parse(TestPipelineCrossLevel.QUERY_PLAN_SOURCES[0]).ast).plan
        rng = random.Random("decode-once")
        rows = {name: encode_stream(
                    rows_from_pattern(gen_pattern(rng, f"{name}_", 80, horizon=800),
                                      key_prefix=f"{name}k"),
                    rng, skew=8, retract_prob=0.1)
                for name in ("A", "B", "C")}
        counts = {"decodes": 0, "arrivals": 0}
        decode, feed = engine.pattern_event_from_row, Pipeline.feed

        def counted_decode(row):
            counts["decodes"] += 1
            return decode(row)

        def counted_feed(self, stream, row):
            counts["arrivals"] += 1
            return feed(self, stream, row)

        monkeypatch.setattr(engine, "pattern_event_from_row", counted_decode)
        monkeypatch.setattr(Pipeline, "feed", counted_feed)
        pipe = TestPipelineCrossLevel()._drive(plan, rows, MIDDLE)
        emitted = sum(m["output_rows"] for m in pipe.metrics()["nodes"].values())
        assert pipe.metrics()["total"]["max_state_rows"] > 100
        assert counts["arrivals"] == sum(map(len, rows.values()))
        assert counts["decodes"] <= counts["arrivals"] + emitted

    def test_merged_rows_are_decoded_once_on_arrival(self, monkeypatch):
        # A merged instance decodes each live arrival once, when it arrives,
        # whether or not the row wins its lineage's reduce; removal rows
        # are never decoded.
        import cedr.engine as engine

        rng = random.Random("decode-once-merged")
        arrivals = interleave(rng, [
            encode_stream(rows_from_unitemporal(gen_unitemporal(rng, 40),
                                                key_prefix=f"{name}k"),
                          rng, skew=6, retract_prob=0.5)
            for name in ("A", "B")])
        decodes = []
        decode = engine.merged_event_from_row

        def counted_decode(r):
            decodes.append(r)
            return decode(r)

        monkeypatch.setattr(engine, "merged_event_from_row", counted_decode)
        inst = OperatorInstance(build_module("union"), STRONG)
        for port, r in arrivals:
            before = len(decodes)
            inst.ingest(r, port)
            assert len(decodes) - before == (r.o_s < r.o_e), r
        inst.flush()
        live = [r for _, r in arrivals if r.o_s < r.o_e]
        assert len(decodes) == len(live) and len(live) < len(arrivals)


class TestSlicedRetractions:
    def test_occurrence_slice_keeps_removals_consistent(self):
        # An optimistic result whose assertion starts before the slice is
        # clipped into it; its later full removal must still land on the
        # same lineage so the sliced stream's canonical content stays true.
        from cedr.patterns import Leaf, SliceOp
        from cedr.patterns import PatternEvent
        from cedr.temporal import canonical_to

        plan = SliceOp(Leaf("A"), occ=(5, 50))
        pipe = Pipeline(plan, MIDDLE)
        insert = pattern_event_to_row(
            PatternEvent("a1", 2, 30, 2, INF, rt=2), "K1", 0)
        kill = TritemporalEvent("K1", "a1", 2, 30, 2, 2, 1)
        pipe.feed("A", insert)
        pipe.feed("A", kill)
        pipe.flush()
        slices = [(r.o_s, r.o_e) for r in pipe.outputs]
        assert (5, 50) in slices             # clipped optimistic assertion
        assert (5, 5) in slices              # clamped removal marker
        assert canonical_to(HistoryTable(pipe.outputs), INF) == HistoryTable()

    def test_valid_slice_clips_composites(self):
        from cedr.patterns import Leaf, SequenceOp, SliceOp
        from cedr.patterns import PatternEvent

        plan = SliceOp(SequenceOp((Leaf("A"), Leaf("B")), 20), valid=(0, 12))
        pipe = Pipeline(plan, MIDDLE)
        pipe.feed("A", pattern_event_to_row(
            PatternEvent("a1", 1, 40, 1, INF, rt=1), "KA", 0))
        pipe.feed("B", pattern_event_to_row(
            PatternEvent("b1", 4, 40, 4, INF, rt=4), "KB", 0))
        pipe.flush()
        assert [(r.v_s, r.v_e) for r in pipe.outputs] == [(4, 12)]

    @pytest.mark.parametrize("level", [STRONG, MIDDLE, WEAK], ids=["strong", "middle", "weak"])
    def test_valid_slice_keeps_a_leafs_root_time(self, level):
        # Raising a primitive event's v_s leaves its root time below the new
        # start, so the row spells it out in @rt, as the denotation's does.
        from cedr.disorder import rows_from_pattern
        from cedr.patterns import SliceOp, evaluate_plan, primitive

        plan = SliceOp(Leaf("A", "x"), valid=(5, 9))
        a1 = primitive("a1", 2, 10, payload={"m": 1})
        pipe = Pipeline(plan, level)
        pipe.feed("A", pattern_event_to_row(a1, "K1", 0))
        pipe.flush()
        assert [dict(r.payload.items()) for r in pipe.outputs] == [
            {"m": 1, "@rt": 2, "@cbt": "[]"}]
        want = rows_from_pattern(evaluate_plan(plan, {"A": [a1]}), key_prefix="o")
        assert content_set(pipe.outputs) == content_set(want)


class TestSharedStableKey:
    """Two live lineages of one event id give outputs that share a stable key.

    A re-encoded retraction can bring a second lineage of ``a1`` before the
    first one's removal.  The SEQUENCE's port then holds both, and each
    makes a composite with ``b1`` that ends where its ``a1`` does, under one
    stable key.  Which output the operator keeps must not depend on the
    iteration order of its result set, which follows the string hash seed:
    the rows emitted must be the same under every seed.
    """

    SCRIPT = """
from dataclasses import replace
from cedr.engine import MIDDLE, Pipeline, pattern_event_to_row
from cedr.patterns import Leaf, PatternEvent, SequenceOp
from cedr.temporal import INF

pipe = Pipeline(SequenceOp((Leaf("B", "y"), Leaf("A", "x")), 10), MIDDLE)
pipe.feed("B", pattern_event_to_row(PatternEvent("b1", 2, 20, 2, INF, rt=2), "L1", 0))
a1 = PatternEvent("a1", 5, 20, 5, INF, rt=5)
pipe.feed("A", pattern_event_to_row(a1, "K1", 0))
pipe.feed("A", pattern_event_to_row(replace(a1, o_e=16), "K2", 0))
pipe.feed("A", pattern_event_to_row(replace(a1, o_e=5), "K1", 0))
pipe.flush()
print(*[node.instance.name for node in pipe._nodes])
for r in pipe.outputs:
    print(r.k, r.o_s, r.o_e, r.c_s)
"""

    def test_rows_do_not_depend_on_the_hash_seed(self):
        import os
        import subprocess
        import sys

        import cedr

        src = os.path.dirname(os.path.dirname(os.path.abspath(cedr.__file__)))
        outputs = set()
        for seed in range(4):
            env = dict(os.environ, PYTHONHASHSEED=str(seed),
                       PYTHONPATH=os.pathsep.join(
                           [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
            done = subprocess.run([sys.executable, "-c", self.SCRIPT], env=env,
                                  capture_output=True, text=True, check=True)
            outputs.add(done.stdout)
        assert len(outputs) == 1
        # The longer-lived lineage is kept until its removal (arrival 4)
        # leaves the other one: only then does the composite shrink.
        nodes, *rows = [line.split() for line in outputs.pop().splitlines()]
        assert [row[1:] for row in rows] == [["5", "inf", "2"], ["5", "16", "5"]]
        # The leaves are ports of the SEQUENCE: it is the only instance.
        assert nodes == ["sequenceop0"]


class TestRemovalRows:
    """A full-removal row may carry an empty valid interval.

    ``TritemporalEvent`` allows it, so the engine must take such a row as
    the retraction it is, without reading it as a pattern event.
    """

    INSERT = TritemporalEvent("K1", "a1", 1, 5, 1, INF, 0)
    REMOVAL = TritemporalEvent("K1", "a1", 3, 3, 1, 1, 1)
    MATCH = TritemporalEvent("L1", "b1", 3, 9, 3, INF, 2)

    @pytest.mark.parametrize("level", [STRONG, MIDDLE, WEAK])
    def test_removal_retracts_through_a_pipeline(self, level):
        pipe = Pipeline(SequenceOp((Leaf("A", "x"), Leaf("B", "y")), 10), level)
        pipe.feed("A", self.INSERT)
        pipe.feed("B", self.MATCH)
        pipe.feed("A", self.REMOVAL)
        pipe.flush()
        assert content_set(pipe.outputs) == frozenset()
        # The removal leaves the lineage store with the live event.
        assert pipe._store["a1"] == pattern_event_from_row(self.INSERT)

    def test_removal_retracts_through_an_instance(self):
        inst = OperatorInstance(build_module("sequence", k=2, w=10), MIDDLE)
        out = inst.ingest(self.INSERT, 0) + inst.ingest(self.MATCH, 1)
        assert len(content_set(out)) == 1
        out += inst.ingest(self.REMOVAL, 0) + inst.flush()
        assert content_set(out) == frozenset()


class TestSharedOutputPayloads:
    """A merged instance's rows share one Payload object per payload value.

    Coalescing operators build their output payloads anew on every
    evaluation; rows that carried those copies would keep one per emitted
    row alive.  Pattern rows keep their event's own payload: the wire form
    (``@rt``/``@cbt``) is chosen by payload identity.
    """

    @pytest.mark.parametrize("kind", ["union", "difference", "groupby"])
    @pytest.mark.parametrize("level", [STRONG, MIDDLE])
    def test_one_object_per_payload_value(self, kind, level):
        emitted = []
        for seed in range(6):
            rng = random.Random(f"shared-payload-{kind}-{seed}")
            _, arrivals = make_merged_workload(rng, arity_of(kind), 10, skew=4,
                                               retract_prob=0.3)
            _, out = run_module(module_under_test(kind), arrivals, level,
                                honest_schedule(arrivals, every=3))
            objects: dict = {}
            for r in out:
                objects.setdefault(r.payload, set()).add(id(r.payload))
            assert all(len(ids) == 1 for ids in objects.values()), kind
            emitted.append(len(out))
        assert sum(emitted) > 20

    def test_attribute_order_keeps_its_own_object(self):
        # Equal payloads in two attribute orders: the second row must not
        # take the object interned for the first, because the order shows
        # in its repr and in the stable and lineage keys downstream.
        inst = OperatorInstance(build_module("select", f=lambda p: True), MIDDLE)
        out = []
        for i, pairs in enumerate(([("a", 1), ("b", 2)], [("b", 2), ("a", 1)])):
            out += inst.ingest(TritemporalEvent(f"K{i}", f"e{i}", 20 * i, INF, 20 * i,
                                                20 * i + 9, i, payload=Payload(pairs)), 0)
        out += inst.flush()
        assert [list(r.payload) for r in out] == [["a", "b"], ["b", "a"]]
        assert [repr(r.payload) for r in out] == ["Payload(a=1, b=2)", "Payload(b=2, a=1)"]

    def test_pattern_rows_keep_their_wire_form(self):
        pipe = Pipeline(SequenceOp((Leaf("A", "x"), Leaf("B", "y")), 10), MIDDLE)
        pipe.feed("A", TritemporalEvent("K1", "a1", 1, 5, 1, INF, 0))
        out = pipe.feed("B", TritemporalEvent("L1", "b1", 3, 9, 3, INF, 1))
        out += pipe.flush()
        assert len(out) == 1
        assert out[0].payload["@rt"] == 1
        assert json.loads(out[0].payload["@cbt"]) == ["a1", "b1"]
        inst = OperatorInstance(build_module("sequence", k=2, w=10), MIDDLE)
        out = inst.ingest(TritemporalEvent("K1", "a1", 1, 5, 1, INF, 0), 0)
        out += inst.ingest(TritemporalEvent("L1", "b1", 3, 9, 3, INF, 1), 1)
        assert [r.payload["@cbt"] for r in out + inst.flush()] == ['["a1", "b1"]']
