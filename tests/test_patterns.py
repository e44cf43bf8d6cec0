import random
import time
from collections import Counter

import pytest

import oracle_patterns as oracle
from cedr.patterns import (
    ArityMismatch,
    AttrRef,
    CancelWhenOp,
    EmptyInput,
    Leaf,
    PatternEvent,
    Predicate,
    SequenceOp,
    SliceOp,
    UnboundVariable,
    UnlessOp,
    all_of,
    any_of,
    atleast,
    atmost,
    cancel_when,
    evaluate_plan,
    idgen,
    inject_predicates,
    not_seq,
    plan_dumps,
    plan_from_obj,
    plan_to_obj,
    primitive,
    sequence,
    unless,
)
from cedr.temporal import INF, Payload


def ev(id, v_s, machine=None, **kw):
    payload = Payload({"Machine_Id": machine}) if machine is not None else Payload()
    return primitive(id, v_s, v_s + kw.pop("width", 100), payload=payload, **kw)


def rand_events(rng, prefix, count, horizon=40, machines=("m1", "m2")):
    out = []
    used = set()
    for i in range(count):
        v_s = rng.randint(0, horizon)
        while v_s in used and rng.random() < 0.7:
            v_s = rng.randint(0, horizon)
        used.add(v_s)
        out.append(ev(f"{prefix}{i}", v_s, machine=rng.choice(machines)))
    return out


class TestIdgen:
    def test_single(self):
        assert idgen(["a"]) == "1:a"

    def test_concatenation_ambiguity_resolved(self):
        assert idgen(["a", "b"]) != idgen(["ab"])

    def test_order_sensitive(self):
        assert idgen(["a", "b"]) != idgen(["b", "a"])

    def test_empty_rejected(self):
        with pytest.raises(EmptyInput):
            idgen([])


class TestAtLeast:
    def test_unique_qualifying_pair(self):
        out = atleast(2, [[ev("A", 1)], [ev("B", 3)]], 10)
        assert len(out) == 1
        comp = next(iter(out))
        assert comp.v_s == 3 and comp.v_e == 11
        assert comp.cbt == ("A", "B")
        assert comp.rt == 1

    def test_simultaneous_starts_excluded(self):
        assert atleast(2, [[ev("A", 1)], [ev("B", 1)]], 10) == frozenset()

    def test_scope_excludes(self):
        assert atleast(2, [[ev("A", 1)], [ev("B", 5)]], 2) == frozenset()

    def test_n_larger_than_k_rejected(self):
        with pytest.raises(ArityMismatch):
            atleast(3, [[], []], 5)

    def test_exact_scope_boundary_drops_empty_validity(self):
        # v_e would equal v_s when the span is exactly the scope.
        assert atleast(2, [[ev("A", 1)], [ev("B", 6)]], 5) == frozenset()
        assert oracle.oracle_atleast(2, [[ev("A", 1)], [ev("B", 6)]], 5) == set()


class TestSequence:
    def test_basic_pair(self):
        out = sequence([[ev("e1", 1)], [ev("e2", 3)]], 5)
        assert len(out) == 1
        comp = next(iter(out))
        assert comp.v_s == 3 and comp.v_e == 6
        assert comp.cbt == ("e1", "e2")

    def test_order_violated(self):
        assert sequence([[ev("e1", 3)], [ev("e2", 1)]], 5) == frozenset()

    def test_install_shutdown_within_twelve_hours(self):
        install = ev("i1", 1, machine="m7")
        shutdown = ev("s1", 5, machine="m7")
        out = sequence([[install], [shutdown]], 720)
        assert len(out) == 1
        comp = next(iter(out))
        assert comp.cbt == ("i1", "s1")
        assert comp.payload["Machine_Id"] == "m7"
        assert comp.payload["Machine_Id#2"] == "m7"

    def test_needs_two_streams(self):
        with pytest.raises(ArityMismatch):
            sequence([[ev("a", 1)]], 5)

    @pytest.mark.parametrize("w", [0, 2.5])
    def test_scope_must_be_a_positive_tick_count(self, w):
        with pytest.raises(ValueError):
            sequence([[ev("a", 1)], [ev("b", 3)]], w)


class TestMacros:
    def test_all_is_atleast_k(self):
        rng = random.Random("all")
        for _ in range(30):
            streams = [rand_events(rng, p, rng.randint(0, 4)) for p in "ab"]
            assert all_of(streams, 8) == atleast(2, streams, 8)

    def test_any_is_atleast_one(self):
        rng = random.Random("any")
        for _ in range(30):
            streams = [rand_events(rng, p, rng.randint(0, 4)) for p in "ab"]
            assert any_of(streams) == atleast(1, streams, 1)

    def test_any_emits_one_output_per_event(self):
        streams = [[ev("a", 1), ev("b", 5)], [ev("c", 9)]]
        assert len(any_of(streams)) == 3

    def test_any_over_empty(self):
        assert any_of([[], []]) == frozenset()


class TestAtMost:
    def test_lone_event_passes(self):
        out = atmost(1, [[ev("a", 3)]], 5)
        assert len(out) == 1

    def test_earlier_anchor_suppressed(self):
        out = atmost(1, [[ev("a", 1), ev("b", 2)]], 5)
        assert {c.cbt for c in out} == {("b",)}

    def test_loose_bound_passes_both(self):
        out = atmost(3, [[ev("a", 1), ev("b", 2)]], 5)
        assert {c.cbt for c in out} == {("a",), ("b",)}

    def test_negative_bound_rejected(self):
        with pytest.raises(ArityMismatch):
            atmost(-1, [[ev("a", 1)]], 5)


class TestUnless:
    def test_no_blocker(self):
        out = unless([ev("a", 2)], [], 5)
        assert {(c.v_s, c.v_e) for c in out} == {(2, 7)}

    def test_blocker_inside_window(self):
        assert unless([ev("a", 2)], [ev("b", 4)], 5) == frozenset()

    def test_simultaneous_blocker_does_not_block(self):
        out = unless([ev("a", 2)], [ev("b", 2)], 5)
        assert len(out) == 1

    def test_blocker_at_window_end_does_not_block(self):
        out = unless([ev("a", 2)], [ev("b", 7)], 5)
        assert len(out) == 1


class TestNotSeq:
    def test_clean_sequence_passes(self):
        out = not_seq([], [[ev("a", 1)], [ev("b", 5)]], 10)
        assert len(out) == 1

    def test_blocker_inside_span_suppresses(self):
        out = not_seq([ev("x", 3)], [[ev("a", 1)], [ev("b", 5)]], 10)
        assert out == frozenset()

    def test_blocker_at_first_contributor_passes(self):
        out = not_seq([ev("x", 1)], [[ev("a", 1)], [ev("b", 5)]], 10)
        assert len(out) == 1


class TestCancelWhen:
    def test_canceller_between_root_and_start(self):
        e1 = PatternEvent("c", 5, 30, 5, INF, rt=1, cbt=("a", "b"))
        assert cancel_when([e1], [ev("x", 3)]) == frozenset()

    def test_canceller_after_start_survives(self):
        e1 = PatternEvent("c", 5, 30, 5, INF, rt=1, cbt=("a", "b"))
        assert cancel_when([e1], [ev("x", 6)]) == frozenset([e1])

    def test_canceller_at_root_survives(self):
        e1 = PatternEvent("c", 5, 30, 5, INF, rt=1, cbt=("a", "b"))
        assert cancel_when([e1], [ev("x", 1)]) == frozenset([e1])


class TestOracleEquivalence:
    """Every operator agrees with naive enumeration of its quantifier."""

    def test_atleast(self):
        rng = random.Random("o-atleast")
        for _ in range(60):
            streams = [rand_events(rng, p, rng.randint(0, 4)) for p in "abcd"]
            n = rng.randint(1, 4)
            w = rng.choice([1, 3, 8, 20])
            assert atleast(n, streams, w) == oracle.oracle_atleast(n, streams, w)

    def test_sequence(self):
        rng = random.Random("o-seq")
        for _ in range(60):
            streams = [rand_events(rng, p, rng.randint(0, 5)) for p in "ab"]
            w = rng.choice([1, 3, 8, 20])
            assert sequence(streams, w) == oracle.oracle_sequence(streams, w)

    def test_atmost(self):
        rng = random.Random("o-atmost")
        for _ in range(60):
            streams = [rand_events(rng, p, rng.randint(0, 5)) for p in "ab"]
            n = rng.randint(0, 3)
            w = rng.choice([1, 3, 8])
            assert atmost(n, streams, w) == oracle.oracle_atmost(n, streams, w)

    def test_unless(self):
        rng = random.Random("o-unless")
        for _ in range(60):
            e1s = rand_events(rng, "a", rng.randint(0, 5))
            e2s = rand_events(rng, "b", rng.randint(0, 5))
            w = rng.choice([1, 3, 8])
            assert unless(e1s, e2s, w) == oracle.oracle_unless(e1s, e2s, w)

    def test_not_seq(self):
        rng = random.Random("o-not")
        for _ in range(60):
            es = rand_events(rng, "x", rng.randint(0, 4))
            streams = [rand_events(rng, p, rng.randint(0, 4)) for p in "ab"]
            w = rng.choice([3, 8, 20])
            assert not_seq(es, streams, w) == oracle.oracle_not(es, streams, w)

    def test_cancel_when(self):
        rng = random.Random("o-cancel")
        for _ in range(60):
            seqs = sequence([rand_events(rng, "a", rng.randint(1, 4)),
                             rand_events(rng, "b", rng.randint(1, 4))], 20)
            e2s = rand_events(rng, "x", rng.randint(0, 4))
            assert cancel_when(seqs, e2s) == oracle.oracle_cancel_when(seqs, e2s)


def same_machine(ctx, blocker):
    return ctx[0][1].payload["Machine_Id"] == blocker.payload["Machine_Id"]


class TestReferenceEnumerations:
    """The shared walk offers its accept hook exactly the reference
    enumerations' selections, as often, and the negations apply their block
    hook inside their windows."""

    # Fewer events per stream as k grows keeps the cartesian reference cheap.
    MAX_EVENTS = {1: 30, 2: 30, 3: 14, 4: 8}
    SCOPES = [1, 3, 10, 25, INF]

    @staticmethod
    def passes(ctx):
        return ctx[-1][1].payload["Machine_Id"] == "m1"

    def recording(self, log):
        def accept(ctx):
            log[ctx] += 1
            return self.passes(ctx)
        return accept

    def cases(self, seed, count):
        rng = random.Random(seed)
        for _ in range(count):
            k = rng.randint(1, 4)
            # Several 25-tick scopes' worth of starts.
            streams = [rand_events(rng, p, rng.randint(0, self.MAX_EVENTS[k]), horizon=90)
                       for p in "abcd"[:k]]
            yield rng, k, streams, rng.choice(self.SCOPES)

    def check(self, run, selections, w):
        selections = list(selections)
        seen = Counter()
        assert run(self.recording(seen)) == oracle.composites(selections, w, self.passes)
        assert seen == Counter(selections)

    def test_selections(self):
        for rng, k, streams, w in self.cases("reference-walk", 150):
            n = rng.randint(1, k)
            self.check(lambda accept: atleast(n, streams, w, accept=accept),
                       oracle.choose(streams, n, w), w)
            self.check(lambda accept: all_of(streams, w, accept=accept),
                       oracle.choose(streams, k, w), w)
            self.check(lambda accept: any_of(streams, accept=accept),
                       oracle.choose(streams, 1, 1), 1)
            if k >= 2:
                self.check(lambda accept: sequence(streams, w, accept=accept),
                           oracle.sequence_walk(streams, w), w)

    def test_not_seq(self):
        for rng, k, streams, w in self.cases("reference-not", 150):
            if k < 2:
                continue
            es = rand_events(rng, "x", rng.randint(0, 10), horizon=90)
            seen = Counter()
            got = not_seq(es, streams, w, accept=self.recording(seen), blocks=same_machine)
            # The hook passes composites whose last contributor ran on m1.
            assert got == {c for c in oracle.oracle_not(es, streams, w, same_machine)
                           if c.payload[f"Machine_Id#{k}"] == "m1"}
            assert seen == Counter(oracle.sequence_walk(streams, w))

    def test_negations_apply_the_block_hook_inside_the_window(self):
        rng = random.Random("reference-negations")
        for _ in range(150):
            e1s = rand_events(rng, "a", rng.randint(0, 12), horizon=90)
            e2s = rand_events(rng, "b", rng.randint(0, 12), horizon=90)
            w = rng.choice(self.SCOPES)
            assert unless(e1s, e2s, w, blocks=same_machine) == \
                oracle.oracle_unless(e1s, e2s, w, same_machine)
            seqs = sequence([e1s, rand_events(rng, "c", rng.randint(1, 6), horizon=90)], 20)
            assert cancel_when(seqs, e2s, blocks=same_machine) == \
                oracle.oracle_cancel_when(seqs, e2s, same_machine)
            streams = [e1s, rand_events(rng, "c", rng.randint(0, 6), horizon=90)]
            assert not_seq(e2s, streams, w, blocks=same_machine) == \
                oracle.oracle_not(e2s, streams, w, same_machine)

    def test_wide_all_with_an_empty_child_returns_at_once(self):
        rng = random.Random("wide-all")
        streams = [[ev(f"{c}{i}", rng.randint(0, 99)) for i in range(8)]
                   for c in "abcdefg"] + [[]]
        start = time.perf_counter()
        assert all_of(streams, 100) == frozenset()
        assert time.perf_counter() - start < 1.0


class TestLineage:
    def test_contributors_resolvable_and_ordered(self):
        rng = random.Random("lineage")
        for _ in range(40):
            streams = [rand_events(rng, p, rng.randint(1, 4)) for p in "abc"]
            store = {e.id: e for s in streams for e in s}
            for comp in atleast(2, streams, 12):
                contribs = [store[i] for i in comp.cbt]
                assert all(c1.v_s < c2.v_s for c1, c2 in zip(contribs, contribs[1:]))
                assert comp.rt == min(c.rt for c in contribs)
                assert comp.o_s == contribs[-1].o_s
                assert comp.o_e == contribs[-1].o_e

    def test_monotone_scope(self):
        rng = random.Random("scope")
        for _ in range(40):
            streams = [rand_events(rng, p, rng.randint(0, 5)) for p in "ab"]
            w1 = rng.randint(1, 10)
            w2 = w1 + rng.randint(0, 10)
            small = {c.cbt for c in sequence(streams, w1)}
            large = {c.cbt for c in sequence(streams, w2)}
            assert small <= large

    def test_outputs_compose(self):
        # Negation outputs are ordinary pattern events for every operator.
        a = [ev("a1", 1), ev("a2", 8)]
        b = [ev("b1", 4)]
        survivors = unless(a, b, 2)
        assert sequence([sorted(survivors, key=lambda e: e.v_s), [ev("c", 20)]], 30)
        assert cancel_when(survivors, [ev("x", 0)]) == survivors
        assert atleast(1, [list(survivors)], 5)


class TestPredicateInjection:
    def _plan(self):
        return UnlessOp(
            SequenceOp((Leaf("INSTALL", "x"), Leaf("SHUTDOWN", "y")), 720),
            Leaf("RESTART", "z"),
            5)

    def test_pair_predicate_lands_on_sequence(self):
        plan = inject_predicates(self._plan(), [
            Predicate(AttrRef("x", "Machine_Id"), "=", AttrRef("y", "Machine_Id")),
        ])
        assert plan.child.preds[0].vars() == {"x", "y"}

    def test_negated_predicate_lands_in_quantifier(self):
        plan = inject_predicates(self._plan(), [
            Predicate(AttrRef("x", "Machine_Id"), "=", AttrRef("z", "Machine_Id")),
        ])
        assert plan.neg_preds[0].vars() == {"x", "z"}

    def test_single_var_pushed_to_leaf(self):
        plan = inject_predicates(self._plan(), [
            Predicate(AttrRef("x", "Machine_Id"), "=", "m1"),
        ])
        assert plan.child.children[0].preds[0].rhs == "m1"

    def test_unknown_operator_rejected(self):
        with pytest.raises(ValueError):
            Predicate(AttrRef("x", "a"), "~", 5)

    def test_incomparable_values_fail(self):
        events = {"x": primitive("a", 1, 9, payload={"a": "s"}),
                  "y": primitive("b", 2, 9, payload={"b": 3})}
        pred = Predicate(AttrRef("x", "a"), "<", AttrRef("y", "b"))
        assert pred.test(events.get) is False

    def test_unbound_variable_rejected(self):
        with pytest.raises(UnboundVariable):
            inject_predicates(self._plan(), [
                Predicate(AttrRef("q", "Machine_Id"), "=", "m1"),
            ])

    def test_uncorrelated_blocker_does_not_block(self):
        # With {a.v = b.v} injected into the quantifier, a blocker with a
        # different v must not suppress output.
        plan = inject_predicates(
            UnlessOp(Leaf("A", "a"), Leaf("B", "b"), 5),
            [Predicate(AttrRef("a", "Machine_Id"), "=", AttrRef("b", "Machine_Id"))])
        a = ev("a1", 2, machine="m1")
        same = ev("b1", 4, machine="m1")
        other = ev("b2", 4, machine="m2")
        assert evaluate_plan(plan, {"A": [a], "B": [other]}) != frozenset()
        assert evaluate_plan(plan, {"A": [a], "B": [same]}) == frozenset()
        assert evaluate_plan(plan, {"A": [a], "B": [same, other]}) == frozenset()

    def test_injected_denotation_matches_filtered_oracle(self):
        # The oracle filters contributor tuples before building composites.
        rng = random.Random("inj")
        plan = inject_predicates(
            SequenceOp((Leaf("A", "x"), Leaf("B", "y")), 10),
            [Predicate(AttrRef("x", "Machine_Id"), "=", AttrRef("y", "Machine_Id"))])
        for _ in range(40):
            a = rand_events(rng, "a", rng.randint(0, 5))
            b = rand_events(rng, "b", rng.randint(0, 5))
            got = evaluate_plan(plan, {"A": a, "B": b})
            want = {c for c in oracle.oracle_sequence([a, b], 10)
                    if c.payload["Machine_Id"] == c.payload["Machine_Id#2"]}
            assert got == want

    def test_cidr_example_semantics(self):
        plan = inject_predicates(self._plan(), [
            Predicate(AttrRef("x", "Machine_Id"), "=", AttrRef("y", "Machine_Id")),
            Predicate(AttrRef("x", "Machine_Id"), "=", AttrRef("z", "Machine_Id")),
        ])
        install = ev("i", 10, machine="m1")
        shutdown = ev("s", 100, machine="m1")
        restart_same = ev("r", 103, machine="m1")
        restart_other = ev("r2", 103, machine="m2")
        inputs = {"INSTALL": [install], "SHUTDOWN": [shutdown], "RESTART": []}
        assert len(evaluate_plan(plan, inputs)) == 1
        inputs["RESTART"] = [restart_same]
        assert evaluate_plan(plan, inputs) == frozenset()
        inputs["RESTART"] = [restart_other]
        assert len(evaluate_plan(plan, inputs)) == 1


class TestSlice:
    def test_clip_valid(self):
        plan = SliceOp(Leaf("A"), valid=(5, 21))
        out = evaluate_plan(plan, {"A": [primitive("e", 1, 10)]})
        assert {(e.v_s, e.v_e, e.o_s, e.o_e, e.rt) for e in out} == {(5, 10, 1, INF, 1)}

    def test_covering_slice_identity(self):
        e = primitive("e", 1, 10)
        plan = SliceOp(Leaf("A"), occ=(0, INF), valid=(0, INF))
        assert evaluate_plan(plan, {"A": [e]}) == frozenset({e})

    def test_disjoint_slice_empty(self):
        plan = SliceOp(Leaf("A"), valid=(20, 30))
        assert evaluate_plan(plan, {"A": [primitive("e", 1, 10)]}) == frozenset()

    def test_slice_node_in_plan(self):
        plan = SliceOp(Leaf("A"), valid=(5, 21))
        out = evaluate_plan(plan, {"A": [primitive("a", 1, 10)]})
        assert {(e.v_s, e.v_e) for e in out} == {(5, 10)}


class TestPlanSerialization:
    def test_round_trip(self):
        plan = inject_predicates(
            UnlessOp(SequenceOp((Leaf("I", "x"), Leaf("S", "y")), 720),
                     Leaf("R", "z"), 5),
            [Predicate(AttrRef("x", "Machine_Id"), "=", AttrRef("y", "Machine_Id")),
             Predicate(AttrRef("x", "Machine_Id"), "=", AttrRef("z", "Machine_Id"))])
        assert plan_from_obj(plan_to_obj(plan)) == plan

    def test_deterministic_bytes(self):
        plan = CancelWhenOp(Leaf("A", "a"), Leaf("B"))
        assert plan_dumps(plan) == plan_dumps(CancelWhenOp(Leaf("A", "a"), Leaf("B")))

    @staticmethod
    def _golden_plans():
        from cedr.patterns import AllOp, AnyOp, AtLeastOp, AtMostOp, NotOp, ProjectOp

        def p(lhs, op, rhs):
            if isinstance(rhs, str) and "." in rhs:
                rhs = AttrRef(*rhs.split("."))
            return Predicate(AttrRef(*lhs.split(".")), op, rhs)

        a, b, c = Leaf("A", "x"), Leaf("B", "y"), Leaf("C", "z")
        leaves = ('{"stream":"A","type":"stream","var":"x"},'
                  '{"stream":"B","type":"stream","var":"y"}')
        xy = '{"lhs":{"attr":"M","var":"x"},"op":"%s","rhs":{"attr":"M","var":"y"}}'
        xz = '{"lhs":{"attr":"M","var":"x"},"op":"=","rhs":{"attr":"M","var":"z"}}'
        seq = '{"children":[%s],"scope":%d,"type":"sequence"}'
        return [
            (Leaf("A"), '{"stream":"A","type":"stream"}'),
            (Leaf("A", "x", (p("x.M", "=", "m1"), p("x.N", ">=", 3))),
             '{"preds":[{"lhs":{"attr":"M","var":"x"},"op":"=","rhs":"m1"},'
             '{"lhs":{"attr":"N","var":"x"},"op":">=","rhs":3}],'
             '"stream":"A","type":"stream","var":"x"}'),
            (SequenceOp((a, b), 12, (p("x.M", "=", "y.M"),)),
             '{"children":[%s],"preds":[%s],"scope":12,"type":"sequence"}'
             % (leaves, xy % "=")),
            (AtLeastOp(2, (a, b, c), 9, (p("x.M", "!=", 2.5),)),
             '{"children":[%s,{"stream":"C","type":"stream","var":"z"}],"n":2,'
             '"preds":[{"lhs":{"attr":"M","var":"x"},"op":"!=","rhs":2.5}],'
             '"scope":9,"type":"atleast"}' % leaves),
            (AtMostOp(1, (a, Leaf("B")), 6),
             '{"children":[{"stream":"A","type":"stream","var":"x"},'
             '{"stream":"B","type":"stream"}],"n":1,"scope":6,"type":"atmost"}'),
            (AllOp((a, b), INF),
             '{"children":[%s],"scope":"inf","type":"all"}' % leaves),
            (AnyOp((Leaf("A"), b), (p("y.M", "<", True),)),
             '{"children":[{"stream":"A","type":"stream"},'
             '{"stream":"B","type":"stream","var":"y"}],'
             '"preds":[{"lhs":{"attr":"M","var":"y"},"op":"<","rhs":true}],"type":"any"}'),
            (UnlessOp(SequenceOp((a, b), 12), c, 4, (p("x.M", "=", "y.M"),),
                      (p("x.M", "=", "z.M"),)),
             '{"blocker":{"stream":"C","type":"stream","var":"z"},"child":%s,'
             '"neg_preds":[%s],"preds":[%s],"scope":4,"type":"unless"}'
             % (seq % (leaves, 12), xz, xy % "=")),
            (NotOp(c, (a, b), 10, (p("x.M", "<=", "y.M"),), (p("x.M", "=", "z.M"),)),
             '{"blocker":{"stream":"C","type":"stream","var":"z"},"children":[%s],'
             '"neg_preds":[%s],"preds":[%s],"scope":10,"type":"not"}'
             % (leaves, xz, xy % "<=")),
            (CancelWhenOp(SequenceOp((a, b), 10), c, (), (p("z.M", "=", "x.M"),)),
             '{"blocker":{"stream":"C","type":"stream","var":"z"},"child":%s,'
             '"neg_preds":[{"lhs":{"attr":"M","var":"z"},"op":"=",'
             '"rhs":{"attr":"M","var":"x"}}],"type":"cancel_when"}' % (seq % (leaves, 10))),
            (SliceOp(Leaf("A"), occ=(2, 51), valid=(0, INF)),
             '{"child":{"stream":"A","type":"stream"},"occ":[2,51],"type":"slice",'
             '"valid":[0,"inf"]}'),
            (SliceOp(Leaf("A"), valid=(0, 41)),
             '{"child":{"stream":"A","type":"stream"},"type":"slice","valid":[0,41]}'),
            (ProjectOp(Leaf("A")),
             '{"attrs":[],"child":{"stream":"A","type":"stream"},"type":"project"}'),
            (ProjectOp(SliceOp(SequenceOp((a, b), 8), occ=(0, 31)), ("Machine_Id", "N")),
             '{"attrs":["Machine_Id","N"],"child":{"child":%s,"occ":[0,31],'
             '"type":"slice"},"type":"project"}' % (seq % (leaves, 8))),
        ]

    def test_golden_bytes_for_every_node_kind(self):
        golden = self._golden_plans()
        assert len({type(plan) for plan, _ in golden}) == 11
        for plan, text in golden:
            assert plan_dumps(plan) == text

    def test_every_node_kind_round_trips(self):
        for plan, _ in self._golden_plans():
            assert plan_from_obj(plan_to_obj(plan)) == plan

    def test_unknown_node_type_is_a_value_error(self):
        with pytest.raises(ValueError):
            plan_from_obj({"type": "sometimes", "children": []})

    @pytest.mark.parametrize("bad", [
        {"type": "sequence", "scope": True,
         "children": [{"type": "stream", "stream": "A"}, {"type": "stream", "stream": "B"}]},
        {"type": "slice", "occ": [0, "x"], "child": {"type": "stream", "stream": "A"}},
        {"type": "slice", "valid": [-1, "inf"], "child": {"type": "stream", "stream": "A"}},
    ])
    def test_bad_plan_time_is_a_value_error_at_load(self, bad):
        from cedr.engine import pipeline_from_obj

        with pytest.raises(ValueError):
            plan_from_obj(bad)
        with pytest.raises(ValueError):
            pipeline_from_obj({"plan": bad})

    @pytest.mark.parametrize("plan", [
        SequenceOp((Leaf("A"), Leaf("B")), 2.5),
        SequenceOp((Leaf("A"), Leaf("B")), True),
        SliceOp(Leaf("A"), occ=(0, -1)),
    ])
    def test_bad_plan_time_is_a_value_error_at_dump(self, plan):
        # Never written as another, valid plan (2.5 as 2, True as 1).
        with pytest.raises(ValueError):
            plan_dumps(plan)

    def test_non_plan_node_is_a_type_error(self):
        with pytest.raises(TypeError):
            plan_to_obj(("not", "a", "node"))
