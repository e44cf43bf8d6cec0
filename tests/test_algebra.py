import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cedr.algebra import (
    AGGREGATES,
    LifetimeFunctions,
    TypeMismatch,
    alter_lifetime,
    deletes,
    difference,
    groupby_aggregate,
    hopping_window,
    inserts,
    join,
    project,
    select,
    union,
    window,
)
from cedr.temporal import INF, Payload, UnitemporalEvent, coalesce_star, concat_payloads

from gen import endpoints, rand_stream, snapshot, split_events
from oracle_algebra import oracle_coalesce, oracle_groupby

P = Payload({"tag": "p"})
Q = Payload({"tag": "q"})
P1 = Payload({"name": "p1", "x": 2})
P2 = Payload({"name": "p2", "x": 4})


def ue(s, e, payload=P, id=""):
    return UnitemporalEvent(s, e, payload, id=id)


class TestProject:
    def test_drop_attribute(self):
        out = project({ue(1, 5, Payload({"a": 1}))}, lambda p: Payload())
        assert out == {ue(1, 5, Payload())}

    def test_empty_input(self):
        assert project(set(), lambda p: p) == frozenset()

    def test_identity_preserves_rows(self):
        rows = {ue(1, 5, P1), ue(4, 9, P2)}
        assert project(rows, lambda p: p) == rows


class TestSelect:
    def test_all_pass(self):
        rows = {ue(1, 5, P1), ue(4, 9, P2)}
        assert select(rows, lambda p: True) == rows

    def test_all_fail(self):
        assert select({ue(1, 5, P1)}, lambda p: False) == frozenset()

    def test_filter_by_payload(self):
        rows = {ue(1, 5, P1), ue(4, 9, P2)}
        assert select(rows, lambda p: p["name"] == "p1") == {ue(1, 5, P1)}


class TestJoin:
    def test_overlap_intersects(self):
        out = join({ue(1, 5, P1)}, {ue(4, 9, P2)}, lambda a, b: True)
        assert out == {ue(4, 5, concat_payloads((P1, P2)))}

    def test_meeting_intervals_empty(self):
        assert join({ue(1, 3, P1)}, {ue(3, 9, P2)}, lambda a, b: True) == frozenset()

    def test_false_theta_empty(self):
        assert join({ue(1, 5, P1)}, {ue(4, 9, P2)}, lambda a, b: False) == frozenset()


class TestUnionDifference:
    def test_union_merges_meeting(self):
        assert union({ue(1, 3)}, {ue(3, 5)}) == {ue(1, 5)}

    def test_union_with_empty(self):
        assert union({ue(1, 3)}, set()) == {ue(1, 3)}

    def test_union_suppresses_duplicates(self):
        assert union({ue(1, 5)}, {ue(2, 3)}) == {ue(1, 5)}

    def test_difference_punches_hole(self):
        assert difference({ue(1, 9)}, {ue(3, 5)}) == {ue(1, 3), ue(5, 9)}

    def test_difference_with_empty_coalesces(self):
        s = {ue(1, 3), ue(3, 5)}
        assert difference(s, set()) == coalesce_star(s)

    def test_difference_self_empty(self):
        s = {ue(1, 3), ue(4, 9)}
        assert difference(s, s) == frozenset()


class TestGroupbyAggregate:
    def test_count_over_two_overlapping(self):
        out = groupby_aggregate({ue(1, 5, P1), ue(4, 9, P2)}, agg="count", out="c")
        assert out == {
            ue(1, 4, Payload({"c": 1})),
            ue(4, 5, Payload({"c": 2})),
            ue(5, 9, Payload({"c": 1})),
        }

    def test_max_single_event(self):
        out = groupby_aggregate({ue(1, 5, P1)}, agg="max", target="x")
        assert out == {ue(1, 5, Payload({"x": 2}))}

    def test_avg_on_overlap(self):
        out = groupby_aggregate({ue(1, 5, P1), ue(3, 8, P2)}, agg="avg", target="x", out="m")
        assert ue(3, 5, Payload({"m": 3.0})) in out

    def test_grouping_key(self):
        rows = {
            ue(1, 5, Payload({"g": 0, "x": 1})),
            ue(1, 5, Payload({"g": 1, "x": 5})),
        }
        out = groupby_aggregate(rows, key=("g",), agg="sum", target="x")
        assert out == {
            ue(1, 5, Payload({"g": 0, "x": 1})),
            ue(1, 5, Payload({"g": 1, "x": 5})),
        }

    @pytest.mark.parametrize("agg, target", [("median", "x"), ("sum", None)])
    def test_unknown_or_targetless_aggregate_rejected(self, agg, target):
        with pytest.raises(ValueError):
            groupby_aggregate({ue(1, 5, P1)}, agg=agg, target=target)

    def test_non_numeric_target_rejected(self):
        with pytest.raises(TypeMismatch):
            groupby_aggregate({ue(1, 5, Payload({"x": "oops"}))}, agg="sum", target="x")

    def test_count_open_ended(self):
        out = groupby_aggregate({ue(1, INF, P1)}, agg="count", out="c")
        assert out == {ue(1, INF, Payload({"c": 1}))}

    def test_equal_numbers_of_different_types_are_separate_groups(self):
        # Payload tells True, 1 and 1.0 apart, so grouping must too, and
        # each group's label must not depend on the input order.
        rows = [ue(3, 5, Payload({"g": v}), id=f"e{i}")
                for i, v in enumerate((True, 1, 1.0, 1, "1"))]
        want = {ue(3, 5, Payload({"g": True, "c": 1})),
                ue(3, 5, Payload({"g": 1, "c": 2})),
                ue(3, 5, Payload({"g": 1.0, "c": 1})),
                ue(3, 5, Payload({"g": "1", "c": 1}))}
        rng = random.Random("groupby-types")
        for _ in range(20):
            rng.shuffle(rows)
            assert groupby_aggregate(rows, key=("g",), agg="count", out="c") == want


GROUP_VALUES = (True, 1, 1.0, "1", 0, 0.0, -0.0, 2.5)
TARGET_VALUES = (1, 1.0, 0.1, 0.2, 0.7, -3, 2.5, 1e16, 0.0, -0.0, 7)
GROUP_KEYS = ((), ("g",), ("g", "h"), ("h",))


def random_aggregation_input(rng):
    """Up to 10 events; keys and targets of mixed types, some missing or bad."""
    events = []
    for i in range(rng.randint(0, 10)):
        attrs = []
        if rng.random() < 0.9:
            attrs.append(("g", rng.choice(GROUP_VALUES)))
        if rng.random() < 0.5:
            attrs.append(("h", rng.choice((0, 1))))
        if rng.random() < 0.85:
            attrs.append(("x", rng.choice(TARGET_VALUES)))
        elif rng.random() < 0.1:
            attrs.append(("x", rng.choice(("oops", True))))
        rng.shuffle(attrs)
        v_s = rng.randint(0, 12)
        v_e = INF if rng.random() < 0.2 else v_s + rng.randint(1, 6)
        events.append(ue(v_s, v_e, Payload(attrs), id=f"e{i}"))
    return events


def outcome(fn, *args, **kwargs):
    """Sorted rows, with the payload's text form, or the TypeMismatch raised."""
    try:
        rows = fn(*args, **kwargs)
    except TypeMismatch:
        return TypeMismatch
    return sorted(((e.v_s, e.v_e, repr(e.payload), e.id) for e in rows), key=repr)


class TestGroupbyMatchesOracle:
    """The per-group sweep against segment-everything-then-coalesce."""

    def test_random_inputs(self):
        rng = random.Random("groupby-oracle")
        seen = {"rows": 0, "mismatch": 0}
        for _ in range(3000):
            events = random_aggregation_input(rng)
            params = dict(key=rng.choice(GROUP_KEYS), agg=rng.choice(AGGREGATES),
                          target="x", out=rng.choice((None, "out")))
            want = outcome(oracle_groupby, events, **params)
            assert outcome(groupby_aggregate, events, **params) == want, (events, params)
            if want is TypeMismatch:
                seen["mismatch"] += 1
            else:
                seen["rows"] += len(want)
        assert seen["mismatch"] > 50 and seen["rows"] > 5000

    def test_coalesce_matches_fixpoint_on_disjoint_input(self):
        # Within the stream contract (one payload's intervals never
        # overlap) the sweep and the merge-to-fixpoint agree, ids included.
        rng = random.Random("coalesce-oracle")
        for _ in range(500):
            events, cursor = [], {}
            for i in range(rng.randint(0, 12)):
                payload = Payload({"g": rng.choice(GROUP_VALUES[:4])})
                v_s = cursor.get(payload, 0) + rng.randint(0, 2)
                v_e = INF if rng.random() < 0.1 else v_s + rng.randint(1, 4)
                if v_s == INF:
                    continue
                events.append(ue(v_s, v_e, payload, id=f"e{i}"))
                cursor[payload] = v_e
            assert outcome(coalesce_star, events) == outcome(oracle_coalesce, events)


class TestOneMaximalForm:
    @given(st.lists(st.tuples(st.integers(0, 12), st.integers(0, 6),
                              st.sampled_from("PQ"), st.sampled_from("abc")),
                    max_size=12))
    @settings(derandomize=True, max_examples=300, deadline=None)
    def test_coalesce_union_and_difference_agree(self, raw):
        # Overlapping same-payload intervals included: all three give the
        # unique maximal form, whatever the packaging.
        s = [ue(v_s, INF if w == 0 else v_s + w, P if tag == "P" else Q, id=eid)
             for v_s, w, tag, eid in raw]
        starred = coalesce_star(s)
        assert starred == union(s, ()) == union((), s) == difference(s, ())
        for a in starred:
            for b in starred:
                if a is not b and a.payload == b.payload:
                    assert a.v_e < b.v_s or b.v_e < a.v_s
        for t in {x for e in s for x in (e.v_s, e.v_e - 1, e.v_e) if x != INF}:
            assert snapshot(starred, t) == snapshot(s, t)


class TestAlterLifetime:
    def test_inserts_formula(self):
        assert inserts({ue(1, 5)}) == {ue(1, INF)}

    def test_deletes_formula(self):
        assert deletes({ue(1, 5)}) == {ue(5, INF)}

    def test_deletes_drops_never_ending(self):
        assert deletes({ue(1, INF)}) == frozenset()

    def test_clip_formula(self):
        fns = LifetimeFunctions(lambda e: e.v_s, lambda e: min(e.v_e - e.v_s, 3))
        assert alter_lifetime({ue(1, 9)}, fns) == {ue(1, 4)}

    def test_zero_duration_dropped(self):
        fns = LifetimeFunctions(lambda e: e.v_s, lambda e: 0)
        assert alter_lifetime({ue(1, 9)}, fns) == frozenset()


class TestWindows:
    def test_window_clips(self):
        assert window({ue(1, 9)}, 3) == {ue(1, 4)}

    def test_infinite_window_identity(self):
        assert window({ue(1, 9)}, INF) == {ue(1, 9)}

    def test_window_shorter_lifetime_untouched(self):
        assert window({ue(1, 5)}, 10) == {ue(1, 5)}

    def test_hopping_snaps(self):
        assert hopping_window({ue(7, 9)}, 5) == {ue(5, 10)}
        assert hopping_window({ue(5, 6)}, 5) == {ue(5, 10)}

    def test_hopping_unit_period_identity(self):
        assert hopping_window({ue(3, 4)}, 1) == {ue(3, 4)}

    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            window({ue(1, 2)}, 0)
        with pytest.raises(ValueError):
            hopping_window({ue(1, 2)}, INF)


def relational(op_name, snap1, snap2=None):
    if op_name == "project":
        return {Payload({"g": p["g"], "xx": p["x"]}) for p in snap1}
    if op_name == "select":
        return {p for p in snap1 if p["x"] >= 3}
    if op_name == "union":
        return snap1 | snap2
    if op_name == "difference":
        return snap1 - snap2
    if op_name == "join":
        return {
            concat_payloads((a, b))
            for a in snap1 for b in snap2
            if a["g"] == b["g"]
        }
    if op_name == "count":
        return {Payload({"c": len(snap1)})} if snap1 else set()
    if op_name == "sum_by_g":
        groups = {}
        for p in snap1:
            groups.setdefault(p["g"], []).append(p["x"])
        return {Payload({"g": g, "x": sum(v)}) for g, v in groups.items()}
    raise AssertionError(op_name)


def apply_op(op_name, s1, s2=None):
    if op_name == "project":
        return project(s1, lambda p: Payload({"g": p["g"], "xx": p["x"]}))
    if op_name == "select":
        return select(s1, lambda p: p["x"] >= 3)
    if op_name == "union":
        return union(s1, s2)
    if op_name == "difference":
        return difference(s1, s2)
    if op_name == "join":
        return join(s1, s2, lambda a, b: a["g"] == b["g"])
    if op_name == "count":
        return groupby_aggregate(s1, agg="count", out="c")
    if op_name == "sum_by_g":
        return groupby_aggregate(s1, key=("g",), agg="sum", target="x")
    raise AssertionError(op_name)


BINARY = ("union", "difference", "join")
SNAPSHOT_OPS = ("project", "select", "union", "difference", "join", "count", "sum_by_g")


class TestSnapshotCorrectness:
    """Brute-force oracle: output snapshots equal per-instant relational results."""

    @pytest.mark.parametrize("op_name", SNAPSHOT_OPS)
    def test_random_streams(self, op_name):
        rng = random.Random(f"snap-{op_name}")
        for trial in range(60):
            s1 = rand_stream(rng, max_rows=12)
            s2 = rand_stream(rng, max_rows=12) if op_name in BINARY else None
            out = apply_op(op_name, s1, s2)
            pts = endpoints(s1, s2 or [], out)
            for t in pts:
                want = relational(op_name, snapshot(s1, t),
                                  snapshot(s2, t) if s2 is not None else None)
                assert snapshot(out, t) == want, (op_name, trial, t)


class TestViewUpdateCompliance:
    """Repackaging lifetimes must not change any compliant operator's output."""

    COMPLIANT = ("project", "select", "union", "difference", "join", "count", "sum_by_g")

    @pytest.mark.parametrize("op_name", COMPLIANT)
    def test_random_repackagings(self, op_name):
        rng = random.Random(f"vuc-{op_name}")
        for _ in range(50):
            base = rand_stream(rng, max_rows=8)
            r = split_events(rng, base)
            s = split_events(rng, base)
            assert coalesce_star(r) == coalesce_star(s)
            if op_name in BINARY:
                other = rand_stream(rng, max_rows=6)
                o1, o2 = split_events(rng, other), split_events(rng, other)
                out_r = apply_op(op_name, r, o1)
                out_s = apply_op(op_name, s, o2)
            else:
                out_r = apply_op(op_name, r)
                out_s = apply_op(op_name, s)
            assert coalesce_star(out_r) == coalesce_star(out_s)

    def test_alter_lifetime_counterexample(self):
        # The fixed witness that lifetime alteration reads the packaging.
        r = {ue(1, 5)}
        s = {ue(1, 3), ue(3, 5)}
        assert coalesce_star(r) == coalesce_star(s)
        out_r = window(r, 1)
        out_s = window(s, 1)
        assert coalesce_star(out_r) == {ue(1, 2)}
        assert coalesce_star(out_s) == {ue(1, 2), ue(3, 4)}
        assert coalesce_star(out_r) != coalesce_star(out_s)


class TestCoalesceCommutation:
    @pytest.mark.parametrize("op_name", ("project", "select", "join"))
    def test_star_commutes(self, op_name):
        rng = random.Random(f"comm-{op_name}")
        for _ in range(40):
            s1 = split_events(rng, rand_stream(rng, max_rows=8))
            s2 = split_events(rng, rand_stream(rng, max_rows=6))

            def run(a, b):
                return apply_op(op_name, a, b) if op_name in BINARY else apply_op(op_name, a)

            assert coalesce_star(run(coalesce_star(s1), coalesce_star(s2))) == \
                coalesce_star(run(s1, s2))
