import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cedr.temporal import (
    INF,
    AmbiguousLineage,
    AnnotatedHistoryTable,
    AnnotatedRow,
    HistoryTable,
    InfiniteInterval,
    Payload,
    SyncPointPair,
    TritemporalEvent,
    UnitemporalEvent,
    annotate_sync,
    canonical_at,
    canonical_to,
    coalesce_star,
    concat_payloads,
    is_sync_point,
    logically_equivalent,
    meets,
    projected,
    reduce,
    shred,
    truncate,
)

from cedr.disorder import disorder_stream, rows_from_unitemporal

from fixtures import (
    ANNOTATED_SOURCE,
    ANNOTATED_SYNCS,
    CANONICAL_A_AT3,
    CANONICAL_B_AT3,
    PROTOCOL_TABLE,
    REDUCED_A,
    REDUCED_B,
    TABLE_A,
    TABLE_B,
    row,
)
from perfbench import gen

P = Payload({"tag": "p"})
Q = Payload({"tag": "q"})


def ue(s, e, payload=P, id=""):
    return UnitemporalEvent(s, e, payload, id=id)


class TestTimestampsAndPayload:
    def test_infinity_ordering_and_arithmetic(self):
        assert INF > 10**18
        assert 3 + 4 == 7
        assert 3 + INF == INF
        assert INF - 5 == INF

    def test_negative_tick_rejected(self):
        with pytest.raises(ValueError):
            row("k", "e", 1, 5, -1, 5, 0)

    def test_payload_equality_is_field_by_field(self):
        assert Payload({"a": 1, "b": 2}) == Payload({"b": 2, "a": 1})
        assert Payload({"a": 1}) != Payload({"a": 2})
        assert Payload({"a": 1}) != Payload({"a": 1, "b": 2})

    def test_payload_floats_compare_bitwise(self):
        assert Payload({"x": float("nan")}) == Payload({"x": float("nan")})
        assert Payload({"x": 0.0}) != Payload({"x": -0.0})

    def test_payload_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            Payload([("a", 1), ("a", 2)])

    def test_payload_takes_a_one_shot_iterator(self):
        pairs = [("m", 1), ("a", 2.5), ("x", "s"), ("b", True)]
        want = Payload(pairs)
        got = Payload(pair for pair in pairs)
        assert got == want and hash(got) == hash(want)
        assert list(got.items()) == list(want.items()) == pairs
        assert repr(got) == repr(want)
        with pytest.raises(ValueError):
            Payload(pair for pair in [("a", 1), ("b", 2), ("a", 3)])
        with pytest.raises(TypeError):
            Payload(pair for pair in [("a", 1), (2, 2)])

    def test_concat_suffixes_collisions(self):
        merged = concat_payloads([Payload({"m": 1, "a": 2}), Payload({"m": 7})])
        assert dict(merged.items()) == {"m": 1, "a": 2, "m#2": 7}

    def test_concat_skips_suffixes_already_taken(self):
        # A nested composite already carries m#2; the third m takes m#3.
        inner = concat_payloads([Payload({"m": 1}), Payload({"m": 2})])
        merged = concat_payloads([inner, Payload({"m": 3})])
        assert list(merged.items()) == [("m", 1), ("m#2", 2), ("m#3", 3)]
        merged = concat_payloads([Payload({"m": 1}), Payload({"m": 2}),
                                  Payload({"m#2": 3})])
        assert list(merged.items()) == [("m", 1), ("m#2", 2), ("m#2#2", 3)]

    def test_concat_equals_the_checked_payload(self):
        # concat_payloads builds its result unchecked from the parts' keys;
        # it must be the Payload the checking constructor builds.
        import random

        rng = random.Random("concat-keys")
        values = [0.0, -0.0, float("nan"), True, 1, 1.0, "1", False, 0, 2.5]
        names = ["m", "a", "m#2", "a#2#2", "x"]
        checked = 0
        for _ in range(300):
            parts = [Payload({name: rng.choice(values)
                              for name in rng.sample(names, rng.randint(0, 3))})
                     for _ in range(rng.randint(1, 4))]
            if rng.random() < 0.5:
                # A nested composite's part, carrying suffixed names.
                parts.insert(rng.randrange(len(parts) + 1), concat_payloads(parts[:2]))
            got = concat_payloads(parts)
            want = Payload(got.items())
            assert tuple(got.items()) == tuple(want.items())
            assert got == want and want == got
            assert hash(got) == hash(want)
            assert repr(got) == repr(want)
            assert got.canon == want.canon
            assert all(got[name] is value for name, value in want.items())
            checked += len(got)
        assert checked > 1000

    def test_bool_and_int_payload_values_distinct(self):
        assert Payload({"x": True}) != Payload({"x": 1})


class TestSingleAxisReading:
    def test_occurrence_interval_is_the_lifetime(self):
        e = UnitemporalEvent(3, 8, Payload({"x": 1}), id="e")
        assert (e.o_s, e.o_e) == (3, 8)
        # Aliases, not fields: equality, hash and repr see the lifetime once.
        assert [f.name for f in dataclasses.fields(e)] == ["v_s", "v_e", "payload", "id"]
        assert "o_s" not in repr(e) and "o_e" not in repr(e)
        other = UnitemporalEvent(3, 8, Payload({"x": 1}), id="f")
        assert e == other and hash(e) == hash(other)
        assert e != UnitemporalEvent(3, 9, Payload({"x": 1}), id="e")
        # Assignment fails as for any other name; CPython 3.11 raises
        # TypeError, not FrozenInstanceError, for a name that is not a field
        # of a frozen slotted dataclass.
        for name in ("o_s", "o_e"):
            with pytest.raises((dataclasses.FrozenInstanceError, TypeError)):
                setattr(e, name, 4)
        assert (e.v_s, e.v_e, e.o_s, e.o_e) == (3, 8, 3, 8)


class TestMeets:
    def test_endpoint_equality(self):
        assert meets((1, 5), (5, 9)) is True

    def test_overlap_is_not_meeting(self):
        assert meets((1, 5), (4, 9)) is False

    def test_gap_is_not_meeting(self):
        assert meets((1, 5), (6, 9)) is False

    def test_reversed_interval_rejected(self):
        with pytest.raises(ValueError):
            meets((5, 3), (3, 4))


class TestCoalesceStar:
    def test_meeting_same_payload_merges(self):
        assert coalesce_star({ue(1, 3), ue(3, 5)}) == {ue(1, 5)}

    def test_different_payloads_untouched(self):
        assert coalesce_star({ue(1, 3, P), ue(3, 5, Q)}) == {ue(1, 3, P), ue(3, 5, Q)}

    def test_chain_merges_to_fixpoint(self):
        # Oracle: the union of intervals per payload is one maximal interval.
        assert coalesce_star({ue(1, 3), ue(3, 5), ue(5, 9)}) == {ue(1, 9)}

    def test_idempotent(self):
        t = {ue(1, 3), ue(4, 6), ue(6, 9), ue(2, 5, Q)}
        once = coalesce_star(t)
        assert coalesce_star(once) == once

    @given(st.lists(st.tuples(st.integers(0, 20), st.integers(1, 8),
                              st.booleans()), max_size=12))
    @settings(derandomize=True, max_examples=200, deadline=None)
    def test_snapshots_characterize_coalesced_form(self, raw):
        # Build a valid stream per payload: disjoint intervals by construction.
        events, cursor = [], {True: 0, False: 0}
        for gap, width, which in raw:
            s = cursor[which] + gap
            events.append(ue(s, s + width, P if which else Q))
            cursor[which] = s + width + 1  # keep intervals disjoint, may meet
        starred = coalesce_star(events)

        def snapshot(evs, t):
            return {e.payload for e in evs if e.v_s <= t < e.v_e}

        points = {x for e in events for x in (e.v_s, e.v_e - 1, e.v_e)}
        for t in points:
            assert snapshot(starred, t) == snapshot(events, t)
        # Fixpoint: no two rows with equal payload and meeting intervals.
        for a in starred:
            for b in starred:
                if a is not b and a.payload == b.payload:
                    assert a.v_e != b.v_s


class TestReduce:
    def test_table_a_keeps_earliest_occurrence_end(self):
        assert reduce(TABLE_A) == REDUCED_A

    def test_table_b_keeps_earliest_occurrence_end(self):
        assert reduce(TABLE_B) == REDUCED_B

    def test_single_row_unchanged(self):
        t = HistoryTable([row("K", "e", 1, 5, 1, INF, 0)])
        assert reduce(t) == t

    def test_tie_on_oe_keeps_latest_arrival(self):
        t = HistoryTable([
            row("K", "e", 1, 5, 1, 4, 0),
            row("K", "e", 1, 6, 1, 4, 3),
        ])
        assert reduce(t) == HistoryTable([row("K", "e", 1, 6, 1, 4, 3)])


class TestTruncate:
    def test_table_a_truncates_to_three(self):
        assert truncate(REDUCED_A, 3) == CANONICAL_A_AT3

    def test_table_b_truncates_to_three(self):
        assert truncate(REDUCED_B, 3) == CANONICAL_B_AT3

    def test_row_starting_after_t0_removed(self):
        t = HistoryTable([row("K", "e", 1, 9, 5, 9, 0)])
        assert truncate(t, 3) == HistoryTable()

    def test_row_clamped_to_empty_removed(self):
        t = HistoryTable([row("K", "e", 1, 9, 5, 9, 0)])
        assert truncate(t, 5) == HistoryTable()

    def test_preexisting_removal_row_dropped(self):
        t = HistoryTable([row("K", "e", 1, 9, 5, 5, 0)])
        assert truncate(t, 7) == HistoryTable()

    def test_truncate_to_infinity_only_drops_removals(self):
        t = HistoryTable([
            row("K", "e", 1, 9, 5, 5, 0),
            row("L", "e", 1, 9, 1, INF, 1),
        ])
        assert truncate(t, INF) == HistoryTable([row("L", "e", 1, 9, 1, INF, 1)])


class TestCanonical:
    def test_canonical_to_three_matches_worked_tables(self):
        assert canonical_to(TABLE_A, 3) == CANONICAL_A_AT3
        assert canonical_to(TABLE_B, 3) == CANONICAL_B_AT3

    def test_empty_table(self):
        assert canonical_to(HistoryTable(), 3) == HistoryTable()

    def test_table_a_at_five_untouched(self):
        assert canonical_to(TABLE_A, 5) == REDUCED_A

    def test_canonical_at_three(self):
        assert canonical_at(TABLE_A, 3) == CANONICAL_A_AT3
        assert canonical_at(TABLE_B, 3) == CANONICAL_B_AT3

    def test_canonical_at_ten_empty(self):
        assert canonical_at(TABLE_A, 10) == HistoryTable()

    def test_canonical_at_rejects_infinity(self):
        with pytest.raises(ValueError):
            canonical_at(TABLE_A, INF)

    def test_protocol_table_converges_to_corrected_state(self):
        canon = canonical_to(PROTOCOL_TABLE, INF)
        assert projected(canon) == {
            ("E0", "e0", 1, INF, 1, 3, Payload()),
            ("E2", "e0", 1, 10, 3, INF, Payload()),
        }

    def test_idempotent(self):
        for t0 in (3, 5, INF):
            once = canonical_to(PROTOCOL_TABLE, t0)
            assert canonical_to(once, t0) == once


class TestShred:
    def test_three_unit_fragments(self):
        frags = shred([row("K", "e", 1, 9, 1, 4, 0)])
        assert {(f.o_s, f.o_e) for f in frags} == {(1, 2), (2, 3), (3, 4)}
        assert {f.k for f in frags} == {"K#0", "K#1", "K#2"}
        assert all(f.id == "e" and f.v_s == 1 and f.v_e == 9 for f in frags)

    def test_unit_row_unchanged(self):
        r = row("K", "e", 1, 9, 2, 3, 0)
        assert shred([r]) == frozenset([r])

    def test_infinite_interval_rejected(self):
        with pytest.raises(InfiniteInterval):
            shred([row("K", "e", 1, 9, 1, INF, 0)])

    def test_shred_preserves_canonical_content(self):
        # Project lineage and re-merge occurrence fragments, then compare
        # against the unshredded canonical table under the same view.
        def merged_view(table):
            groups = {}
            for r in table:
                groups.setdefault((r.id, r.v_s, r.v_e, r.payload), []).append((r.o_s, r.o_e))
            view = set()
            for key, ivs in groups.items():
                ivs.sort()
                s, e = ivs[0]
                for s2, e2 in ivs[1:]:
                    if s2 == e:
                        e = e2
                    else:
                        view.add(key + (s, e))
                        s, e = s2, e2
                view.add(key + (s, e))
            return view

        h = HistoryTable([
            row("K", "e", 1, 9, 1, 6, 0),
            row("K", "e", 1, 9, 1, 4, 1),
            row("L", "f", 2, 7, 2, 5, 2),
        ])
        for t0 in (3, 5, 10):
            assert merged_view(canonical_to(shred(reduce(h)), t0)) == \
                merged_view(canonical_to(h, t0))


class TestAnnotateSync:
    def test_insert_and_retraction_syncs(self):
        annotated = annotate_sync(ANNOTATED_SOURCE)
        assert {(r.event.c_s, r.sync) for r in annotated} == ANNOTATED_SYNCS

    def test_insert_only_table_syncs_at_os(self):
        t = HistoryTable([
            row("A", "a", 1, 5, 1, INF, 0),
            row("B", "b", 2, 6, 2, INF, 1),
        ])
        assert all(r.sync == r.event.o_s for r in annotate_sync(t))

    def test_ambiguous_lineage_rejected(self):
        t = HistoryTable([
            row("A", "a", 1, 5, 1, INF, 0),
            row("A", "a", 1, 6, 1, 8, 0),
        ])
        with pytest.raises(AmbiguousLineage):
            annotate_sync(t)


class TestTableValueSemantics:
    def test_a_table_is_the_value_of_its_set_of_rows(self):
        rows = TABLE_A.sorted_rows()
        a, b = HistoryTable(rows), HistoryTable(rows[::-1] + rows)
        assert a == b and hash(a) == hash(b) and a != TABLE_B
        assert rows[0] in a and REDUCED_B.sorted_rows()[0] not in a
        assert a != rows and repr(a) == "HistoryTable(2 rows)"
        annotated = annotate_sync(ANNOTATED_SOURCE)
        # Plain (sync, row) pairs in any order give the same table.
        again = AnnotatedHistoryTable((r.sync, r.event) for r in list(annotated)[::-1])
        assert len(annotated) == 2 and annotated == again and hash(annotated) == hash(again)
        assert annotated != annotate_sync(TABLE_A) and annotated != ANNOTATED_SOURCE


class TestIsSyncPoint:
    def _annotated(self):
        return annotate_sync(ANNOTATED_SOURCE)

    def test_point_before_retraction(self):
        assert is_sync_point(self._annotated(), SyncPointPair(1, 0)) is True

    def test_point_after_retraction(self):
        assert is_sync_point(self._annotated(), SyncPointPair(5, 7)) is True

    def test_mixed_point_rejected(self):
        assert is_sync_point(self._annotated(), SyncPointPair(3, 7)) is False

    def test_exhaustive_against_definition(self):
        annotated = self._annotated()
        for t_o in range(0, 12):
            for t_c in range(0, 12):
                expected = all(
                    (r.event.c_s <= t_c and r.sync <= t_o)
                    or (r.event.c_s > t_c and r.sync > t_o)
                    for r in annotated
                )
                assert is_sync_point(annotated, SyncPointPair(t_o, t_c)) == expected


class TestLogicalEquivalence:
    def test_worked_tables_equivalent_to_and_at_three(self):
        assert logically_equivalent(TABLE_A, TABLE_B, 3, "to")
        assert logically_equivalent(TABLE_A, TABLE_B, 3, "at")

    def test_not_equivalent_to_five(self):
        assert not logically_equivalent(TABLE_A, TABLE_B, 5, "to")

    def test_equivalence_to_infinity(self):
        direct = HistoryTable([
            row("E0", "e0", 1, INF, 1, 3, 0),
            row("E2", "e0", 1, 10, 3, INF, 1),
        ])
        assert logically_equivalent(PROTOCOL_TABLE, direct, INF, "to")

    def test_rejects_bad_mode(self):
        with pytest.raises(ValueError):
            logically_equivalent(TABLE_A, TABLE_B, 3, "upto")

    def test_arrival_permutation_never_matters(self):
        # Rewriting arrival columns must leave every comparison unchanged.
        remapped = HistoryTable([
            TritemporalEvent(r.k, r.id, r.v_s, r.v_e, r.o_s, r.o_e,
                             100 - r.c_s, INF, r.payload)
            for r in TABLE_A
        ])
        for t0 in (1, 2, 3, 4, 5, 10):
            assert logically_equivalent(TABLE_A, remapped, t0, "to")
            assert logically_equivalent(TABLE_A, remapped, t0, "at")

    @given(st.data())
    @settings(derandomize=True, max_examples=60, deadline=None)
    def test_equivalence_relation_on_random_triples(self, data):
        def random_table(tag):
            n = data.draw(st.integers(1, 4), label=f"rows_{tag}")
            rows = []
            for i in range(n):
                os_ = data.draw(st.integers(0, 6), label=f"os_{tag}{i}")
                oe = os_ + data.draw(st.integers(0, 6), label=f"w_{tag}{i}")
                rows.append(row(f"K{i}", "e", 0, 20, os_, oe, i))
            return HistoryTable(rows)

        tables = [random_table(t) for t in "abc"]
        t0 = data.draw(st.integers(0, 8), label="t0")
        mode = data.draw(st.sampled_from(["to", "at"]), label="mode")
        eq = lambda x, y: logically_equivalent(x, y, t0, mode)
        for t in tables:
            assert eq(t, t)
        for x in tables:
            for y in tables:
                assert eq(x, y) == eq(y, x)
                for z in tables:
                    if eq(x, y) and eq(y, z):
                        assert eq(x, z)


class TestOrderInsensitivity:
    def test_set_semantics(self):
        rows = list(PROTOCOL_TABLE)
        assert HistoryTable(reversed(rows)) == PROTOCOL_TABLE
        assert reduce(HistoryTable(reversed(rows))) == reduce(PROTOCOL_TABLE)
        assert canonical_to(HistoryTable(rows[2:] + rows[:2]), 4) == \
            canonical_to(PROTOCOL_TABLE, 4)


def reference_to(h: HistoryTable, t0) -> HistoryTable:
    return truncate(reduce(h), t0)


def reference_at(h: HistoryTable, t0) -> HistoryTable:
    return truncate(HistoryTable(r for r in reduce(h) if r.o_s <= t0 <= r.o_e), t0)


def stream_pairs():
    """Clean streams from ``perfbench.gen`` with a re-encoding of each."""
    for seed in (1, 2):
        clean = gen.clean_pattern_stream(seed, 30)
        yield clean, disorder_stream(clean, gen.SKEW, 0.3, seed)
        ideal, wire = gen.rollup_inputs(seed, 8)
        for name in ideal:
            yield rows_from_unitemporal(ideal[name], key_prefix=f"{name}k"), wire[name]


def reference_times(*streams) -> list:
    """0, every distinct occurrence start and end, and INF."""
    return sorted({0, INF} | {t for rows in streams for r in rows for t in (r.o_s, r.o_e)})


def with_a_repeat(rows: list) -> list:
    return rows + [rows[len(rows) // 2]]


class TestCanonicalOnRows:
    """Canonicalization of plain rows equals the compositional definitions."""

    def test_canonical_tables_equal_reduce_then_truncate(self):
        checked = 0
        for pair in stream_pairs():
            for rows in pair:
                table = HistoryTable(rows)
                for t0 in reference_times(rows):
                    expected = reference_to(table, t0)
                    assert canonical_to(with_a_repeat(rows), t0) == expected
                    assert canonical_to(table, t0) == expected
                    if t0 == INF:
                        continue
                    expected = reference_at(table, t0)
                    assert canonical_at(with_a_repeat(rows), t0) == expected
                    assert canonical_at(table, t0) == expected
                    checked += 1
        assert checked > 200

    def test_equivalence_of_rows_equals_that_of_tables(self):
        # Besides each re-encoding: the stream missing one row, and the
        # stream under other lineage keys, which only lineage tells apart.
        pairs = []
        for clean, encoded in stream_pairs():
            rekeyed = [TritemporalEvent(f"{r.k}'", r.id, r.v_s, r.v_e, r.o_s, r.o_e,
                                        r.c_s, r.c_e, r.payload) for r in encoded]
            pairs += [(clean, encoded), (clean, clean[:-1]), (clean, rekeyed)]
        outcomes = set()
        for clean, encoded in pairs:
            tables = HistoryTable(clean), HistoryTable(encoded)
            rows = with_a_repeat(clean), with_a_repeat(encoded)
            for t0 in reference_times(clean, encoded):
                for mode, reference in (("to", reference_to), ("at", reference_at)):
                    if mode == "at" and t0 == INF:
                        continue
                    for lineage in (True, False):
                        same = logically_equivalent(*tables, t0, mode, include_lineage=lineage)
                        assert logically_equivalent(*rows, t0, mode,
                                                    include_lineage=lineage) == same
                        assert same == (projected(reference(tables[0], t0), lineage)
                                        == projected(reference(tables[1], t0), lineage))
                        outcomes.add((lineage, same))
        assert outcomes == {(True, True), (True, False), (False, True), (False, False)}
