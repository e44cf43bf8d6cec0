"""The acceptance gate: every criterion at its stated size and tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail
line per criterion with its measured duration.
"""

import contextlib
import random
import time

import pytest

import oracle_patterns as oracle
from cedr.engine import MIDDLE, STRONG, WEAK
from cedr.patterns import (
    all_of,
    any_of,
    atleast,
    atmost,
    cancel_when,
    not_seq,
    primitive,
    sequence,
    unless,
)
from cedr.query import Duration, compile_query, parse
from cedr.temporal import (
    HistoryTable,
    Payload,
    UnitemporalEvent,
    annotate_sync,
    canonical_to,
    coalesce_star,
    logically_equivalent,
    projected,
    reduce,
)

from engine_harness import (
    PATTERN_PARAMS,
    arity_of,
    content_set,
    honest_schedule,
    make_merged_workload,
    make_pattern_workload,
    module_under_test,
    oracle_rows,
    run_module,
    states_at_sync_points,
    switch_run,
)
from fixtures import (
    ANNOTATED_SOURCE,
    ANNOTATED_SYNCS,
    CANONICAL_A_AT3,
    CANONICAL_B_AT3,
    REDUCED_A,
    REDUCED_B,
    TABLE_A,
    TABLE_B,
)
from gen import rand_stream, split_events
from test_algebra import BINARY, apply_op


@contextlib.contextmanager
def criterion(number: int, label: str, budget_s: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {number} ({label}): FAIL")
        raise
    elapsed = time.perf_counter() - start
    print(f"\nACCEPTANCE {number} ({label}): PASS  [{elapsed:.2f}s / {budget_s:.0f}s]")
    assert elapsed < budget_s, f"criterion {number} exceeded its {budget_s}s budget"


def test_criterion_1_figure_reproduction():
    with criterion(1, "figure reproduction", 1.0):
        assert reduce(TABLE_A) == REDUCED_A
        assert reduce(TABLE_B) == REDUCED_B
        assert canonical_to(TABLE_A, 3) == CANONICAL_A_AT3
        assert canonical_to(TABLE_B, 3) == CANONICAL_B_AT3
        annotated = annotate_sync(ANNOTATED_SOURCE)
        assert {(r.event.c_s, r.sync) for r in annotated} == ANNOTATED_SYNCS


def test_criterion_2_equivalence_assertions():
    with criterion(2, "equivalence assertions", 1.0):
        assert logically_equivalent(TABLE_A, TABLE_B, 3, "to")
        assert logically_equivalent(TABLE_A, TABLE_B, 3, "at")
        assert not logically_equivalent(TABLE_A, TABLE_B, 5, "to")


RUNTIME_KINDS = ("project", "select", "join", "union", "difference", "groupby",
                 "alter_lifetime", "window", "hopping_window", "inserts", "deletes")
PATTERN_KINDS = ("sequence", "atleast", "atmost", "all", "any", "unless",
                 "not", "cancel_when")


def test_criterion_3_well_behavedness():
    levels = (STRONG, MIDDLE, WEAK, STRONG, MIDDLE)
    with criterion(3, "well-behavedness", 180.0):
        from engine_harness import encode_ports, gen_pattern, gen_unitemporal
        for kind in RUNTIME_KINDS + PATTERN_KINDS:
            pattern = kind in PATTERN_KINDS
            module = module_under_test(kind)
            arity = arity_of(kind)
            for table_i in range(200):
                gen_rng = random.Random(f"wb3-{kind}-{table_i}")
                per_port = max(1, gen_rng.randint(1, 30) // arity)
                if pattern:
                    ideal = tuple(gen_pattern(gen_rng, f"s{p}_", per_port)
                                  for p in range(arity))
                else:
                    ideal = tuple(gen_unitemporal(gen_rng, per_port)
                                  for _ in range(arity))
                want = content_set(oracle_rows(module, ideal))
                for enc_i in range(5):
                    enc_rng = random.Random(f"wb3e-{kind}-{table_i}-{enc_i}")
                    arrivals = encode_ports(
                        ideal, enc_rng, skew=enc_rng.randint(0, 8),
                        retract_prob=enc_rng.choice([0.0, 0.3, 1.0]),
                        pattern=pattern)
                    _, out = run_module(module_under_test(kind), arrivals,
                                        levels[enc_i])
                    assert content_set(out) == want, (kind, table_i, enc_i)


def test_criterion_4_view_update_compliance():
    with criterion(4, "view-update compliance", 60.0):
        compliant = ("project", "select", "join", "union", "difference",
                     "count", "sum_by_g")
        rng = random.Random("vuc-acceptance")
        for trial in range(500):
            op_name = compliant[trial % len(compliant)]
            base = rand_stream(rng, max_rows=8)
            r = split_events(rng, base)
            s = split_events(rng, base)
            assert coalesce_star(r) == coalesce_star(s)
            if op_name in BINARY:
                other = rand_stream(rng, max_rows=6)
                out_r = apply_op(op_name, r, split_events(rng, other))
                out_s = apply_op(op_name, s, split_events(rng, other))
            else:
                out_r = apply_op(op_name, r)
                out_s = apply_op(op_name, s)
            assert coalesce_star(out_r) == coalesce_star(out_s), (op_name, trial)

        # The fixed witness: lifetime alteration reads the packaging.
        from cedr.algebra import window
        p = Payload({"tag": "p"})
        r = {UnitemporalEvent(1, 5, p)}
        s = {UnitemporalEvent(1, 3, p), UnitemporalEvent(3, 5, p)}
        assert coalesce_star(r) == coalesce_star(s)
        assert coalesce_star(window(r, 1)) != coalesce_star(window(s, 1))


def _boundary_events(rng, prefix, count, w):
    """Random pattern inputs salted with exact-scope and tied starts."""
    events = []
    anchor = rng.randint(0, 20)
    for i in range(count):
        roll = rng.random()
        if roll < 0.25:
            v_s = anchor            # simultaneous starts across streams
        elif roll < 0.5:
            v_s = anchor + w        # exactly one scope away
        else:
            v_s = rng.randint(0, 40)
        events.append(primitive(f"{prefix}{i}", v_s, v_s + rng.randint(1, 30),
                                payload=Payload({"Machine_Id": rng.choice(["m1", "m2"])})))
    return events


def test_criterion_5_pattern_denotation_oracle():
    with criterion(5, "pattern denotation oracle", 60.0):
        rng = random.Random("pattern-oracle")
        for case in range(100):
            w = rng.choice([1, 2, 5, 9])
            n_total = rng.randint(2, 12)
            a = _boundary_events(rng, "a", n_total // 2, w)
            b = _boundary_events(rng, "b", n_total - n_total // 2, w)
            x = _boundary_events(rng, "x", rng.randint(0, 3), w)
            n = rng.randint(1, 2)
            assert sequence([a, b], w) == oracle.oracle_sequence([a, b], w)
            assert atleast(n, [a, b], w) == oracle.oracle_atleast(n, [a, b], w)
            assert atmost(n, [a, b], w) == oracle.oracle_atmost(n, [a, b], w)
            assert all_of([a, b], w) == oracle.oracle_all([a, b], w)
            assert any_of([a, b]) == oracle.oracle_any([a, b])
            assert unless(a, b, w) == oracle.oracle_unless(a, b, w)
            assert not_seq(x, [a, b], w) == oracle.oracle_not(x, [a, b], w)
            composites = sequence([a, b], 20)
            assert cancel_when(composites, x) == oracle.oracle_cancel_when(composites, x)


AGREE_KINDS = ("select", "window", "join", "sequence", "unless", "cancel_when")


def test_criterion_6_consistency_level_agreement():
    with criterion(6, "consistency-level agreement", 120.0):
        switches = 0
        for workload_i in range(100):
            rng = random.Random(f"agree6-{workload_i}")
            kind = AGREE_KINDS[workload_i % len(AGREE_KINDS)]
            maker = make_pattern_workload if kind in PATTERN_PARAMS \
                else make_merged_workload
            _, arrivals = maker(rng, arity_of(kind), 8,
                                skew=rng.randint(2, 8), retract_prob=0.25)
            schedule = honest_schedule(arrivals, every=3)
            states = []
            for level in (STRONG, MIDDLE, WEAK):
                _, out = run_module(module_under_test(kind), arrivals,
                                    level, schedule)
                states.append(states_at_sync_points(out))
            common = set(states[0]) & set(states[1]) & set(states[2])
            for t_o in common:
                assert states[0][t_o] == states[1][t_o] == states[2][t_o], \
                    (kind, workload_i, t_o)
            to_level = (MIDDLE, STRONG, WEAK)[workload_i % 3]
            from_level = (STRONG, MIDDLE, MIDDLE)[workload_i % 3]
            out, switched = switch_run(kind, arrivals, schedule,
                                       from_level, to_level)
            if switched:
                switches += 1
                _, pure_out = run_module(module_under_test(kind), arrivals,
                                         to_level, schedule)
                assert content_set(out) == content_set(pure_out), (kind, workload_i)
        assert switches >= 10, f"only {switches} workloads offered a switch point"


def test_criterion_7_figure8_directional_metrics():
    with criterion(7, "directional metrics", 60.0):
        def run_at(skew, level):
            rng = random.Random("fig8")
            _, arrivals = make_merged_workload(rng, 1, 20, skew=skew,
                                               retract_prob=0.4)
            schedule = honest_schedule(arrivals, every=2)
            return run_module(module_under_test("select"), arrivals,
                              level, schedule)

        skewed = {}
        for level, name in ((STRONG, "strong"), (MIDDLE, "middle"), (WEAK, "weak")):
            inst, _ = run_at(20, level)
            skewed[name] = inst.metrics()
        assert skewed["strong"]["blocking_time"] > 0
        assert skewed["middle"]["blocking_time"] == 0
        assert skewed["weak"]["blocking_time"] == 0
        assert skewed["middle"]["retraction_rows"] > 0
        assert skewed["weak"]["output_rows"] <= skewed["middle"]["output_rows"]
        assert skewed["weak"]["max_state_rows"] <= skewed["middle"]["max_state_rows"]

        ordered_outputs = []
        for level in (STRONG, MIDDLE, WEAK):
            rng = random.Random("fig8-ordered")
            _, arrivals = make_merged_workload(rng, 1, 20, skew=0,
                                               retract_prob=0.0, optimistic=0.0)
            schedule = honest_schedule(arrivals, every=2)
            inst, out = run_module(module_under_test("select"), arrivals,
                                   level, schedule)
            assert inst.metrics()["retraction_rows"] == 0
            ordered_outputs.append(projected(HistoryTable(out)))
        assert ordered_outputs[0] == ordered_outputs[1] == ordered_outputs[2]


EXAMPLE_QUERY = """\
EVENT CIDR07_Example
WHEN UNLESS(SEQUENCE(INSTALL x,
                      SHUTDOWN AS y, 12 hours),
            RESTART AS z, 5 minutes)
WHERE {x.Machine_Id = y.Machine_Id} AND
      {x.Machine_Id = z.Machine_Id}
"""


def test_criterion_8_language_round_trip():
    from cedr.query import (
        Binding,
        SequenceExpr,
        UnlessExpr,
    )

    with criterion(8, "language round trip", 60.0):
        result = parse(EXAMPLE_QUERY)
        assert result.ok
        ast = result.ast
        assert isinstance(ast.when, UnlessExpr)
        assert isinstance(ast.when.body, SequenceExpr)
        assert ast.when.body.scope == Duration(12, "hour")
        assert ast.when.scope == Duration(5, "minute")
        assert ast.when.body.children == (Binding("INSTALL", "x"),
                                          Binding("SHUTDOWN", "y"))
        assert ast.when.blocker == Binding("RESTART", "z")
        assert len(ast.where) == 2
        assert all("Machine_Id" in (item.lhs.attr, getattr(item.rhs, "attr", ""))
                   for item in ast.where)

        compiled = compile_query(ast, ticks_per_minute=1)
        assert compiled.ok
        assert compiled.plan.scope == 5
        assert compiled.plan.child.scope == 720
        assert compiled.plan.child.preds[0].vars() == {"x", "y"}
        assert compiled.plan.neg_preds[0].vars() == {"x", "z"}

        rng = random.Random("fuzz-acceptance")
        for _ in range(10_000):
            length = rng.randint(0, 80)
            raw = bytes(rng.randrange(256) for _ in range(length))
            parse(raw.decode("latin-1"))
