import hashlib
import json
import random
import re
from pathlib import Path

import pytest

from cedr.patterns import Leaf, ProjectOp, SequenceOp, SliceOp, UnlessOp, plan_dumps
from cedr.query import (
    AttrOperand,
    Binding,
    CompareItem,
    CorrKeyItem,
    Duration,
    QueryAst,
    SequenceExpr,
    UnlessExpr,
    UnlessPrimeExpr,
    ast_to_obj,
    compile_query,
    format_query,
    leaf_streams,
    parse,
)
from cedr.temporal import INF

EXAMPLE_QUERY = """\
EVENT CIDR07_Example
WHEN UNLESS(SEQUENCE(INSTALL x,
                      SHUTDOWN AS y, 12 hours),
            RESTART AS z, 5 minutes)
WHERE {x.Machine_Id = y.Machine_Id} AND
      {x.Machine_Id = z.Machine_Id}
"""


class TestParseExample:
    def test_shape(self):
        result = parse(EXAMPLE_QUERY)
        assert result.ok, [d.render() for d in result.diagnostics]
        ast = result.ast
        assert ast.name == "CIDR07_Example"
        assert isinstance(ast.when, UnlessExpr)
        seq = ast.when.body
        assert isinstance(seq, SequenceExpr)
        assert seq.children == (Binding("INSTALL", "x"), Binding("SHUTDOWN", "y"))
        assert seq.scope == Duration(12, "hour")
        assert ast.when.blocker == Binding("RESTART", "z")
        assert ast.when.scope == Duration(5, "minute")
        assert ast.where == (
            CompareItem(AttrOperand("x", "Machine_Id"), "=",
                        AttrOperand("y", "Machine_Id")),
            CompareItem(AttrOperand("x", "Machine_Id"), "=",
                        AttrOperand("z", "Machine_Id")),
        )

    def test_compile_at_one_tick_per_minute(self):
        ast = parse(EXAMPLE_QUERY).ast
        result = compile_query(ast, ticks_per_minute=1)
        assert result.ok
        plan = result.plan
        assert isinstance(plan, UnlessOp)
        assert plan.scope == 5
        assert isinstance(plan.child, SequenceOp)
        assert plan.child.scope == 720
        assert plan.child.preds and plan.child.preds[0].vars() == {"x", "y"}
        assert plan.neg_preds and plan.neg_preds[0].vars() == {"x", "z"}

    def test_leaf_streams(self):
        ast = parse(EXAMPLE_QUERY).ast
        assert leaf_streams(ast) == ["INSTALL", "SHUTDOWN", "RESTART"]

    def test_ast_dump_is_json_safe(self):
        import json
        ast = parse(EXAMPLE_QUERY).ast
        json.dumps(ast_to_obj(ast))


class TestParseErrors:
    def test_unknown_operator(self):
        result = parse("EVENT e WHEN FOO(A)")
        assert not result.ok
        assert any("unexpected trailing input" in d.message or "FOO" in d.message
                   for d in result.diagnostics)

    def test_missing_scope(self):
        result = parse("EVENT e WHEN SEQUENCE(A, B)")
        assert not result.ok

    def test_duplicate_bindings(self):
        result = parse("EVENT e WHEN SEQUENCE(A AS x, B AS x, 5)")
        assert not result.ok
        assert any("duplicate" in d.message for d in result.diagnostics)

    def test_atleast_count_range(self):
        result = parse("EVENT e WHEN ATLEAST(3, A, B, 5)")
        assert not result.ok

    def test_not_requires_sequence(self):
        result = parse("EVENT e WHEN NOT(A, B)")
        assert not result.ok

    def test_unterminated_string(self):
        result = parse("EVENT e WHEN A WHERE [a Equal 'oops]")
        assert not result.ok

    def test_diagnostics_carry_spans(self):
        result = parse("EVENT e WHEN SEQUENCE(A, B)")
        d = result.diagnostics[0]
        assert d.line >= 1 and d.col >= 1 and d.length >= 1

    SEQ = "EVENT q WHEN SEQUENCE(A x, B y, 5)"

    @pytest.mark.parametrize("source, rendered", [
        ("EVENT q WHEN (A)", "error: 1:14: expected an event type or operator"),
        ("EVENT q WHEN SEQUENCE(A x, B y, 5", "error: 1:34: expected ')'"),
        (SEQ + " WHERE {5 = x.a}",
         "error: 1:42: the left side of a comparison must be var.attr"),
        (SEQ + " WHERE {x.a y.b}", "error: 1:47: expected a comparison operator"),
        (SEQ + " WHERE CorrelationKey(a, SAME)",
         "error: 1:60: CorrelationKey kind must be EQUAL or UNIQUE"),
        (SEQ + " WHERE [a Is 5]", "error: 1:45: expected Equal"),
        (SEQ + " WHERE x",
         "error: 1:42: expected a WHERE term: {...}, CorrelationKey(...), or [...]"),
        (SEQ + " WHERE [a Equal x]", "error: 1:51: expected a literal"),
        (SEQ + " @ [1, x]", "error: 1:42: expected a tick count or inf"),
        ("EVENT q WHEN " + "SEQUENCE(" * 3000, "error: 1:1: expression nested too deeply"),
        (123, "error: 1:1: expected EVENT"),
    ], ids=lambda v: repr(v)[:48])
    def test_one_diagnostic_per_malformed_source(self, source, rendered):
        result = parse(source)
        assert not result.ok
        assert [d.render() for d in result.diagnostics] == [rendered]


class TestCompileErrors:
    def test_unless_prime_rejected(self):
        result = parse("EVENT e WHEN UNLESS(SEQUENCE(A AS x, B AS y, 9), C AS z, 1, 5)")
        assert result.ok
        assert isinstance(result.ast.when, UnlessPrimeExpr)
        compiled = compile_query(result.ast)
        assert not compiled.ok
        assert any("unsupported" in d.message for d in compiled.diagnostics)

    def test_unbound_where_variable(self):
        result = parse("EVENT e WHEN SEQUENCE(A AS y, B AS q, 9) WHERE {x.a = y.a}")
        assert result.ok
        compiled = compile_query(result.ast)
        assert not compiled.ok
        assert any("unbound" in d.message.lower() for d in compiled.diagnostics)


class TestDesugar:
    def test_correlation_key_equal(self):
        src = ("EVENT e WHEN SEQUENCE(A AS x, B AS y, 9) "
               "WHERE CorrelationKey(Machine_Id, EQUAL)")
        compiled = compile_query(parse(src).ast)
        assert compiled.ok
        preds = compiled.plan.preds
        assert len(preds) == 1 and preds[0].op == "="

    def test_correlation_key_unique(self):
        src = ("EVENT e WHEN SEQUENCE(A AS x, B AS y, 9) "
               "WHERE CorrelationKey(Machine_Id, UNIQUE)")
        compiled = compile_query(parse(src).ast)
        assert compiled.ok
        assert compiled.plan.preds[0].op == "!="

    def test_attr_equal_literal_pushes_to_leaves(self):
        src = ("EVENT e WHEN SEQUENCE(A AS x, B AS y, 9) "
               "WHERE [Machine_Id Equal 'LAB_HOST_03']")
        compiled = compile_query(parse(src).ast)
        assert compiled.ok
        for leaf in compiled.plan.children:
            assert leaf.preds and leaf.preds[0].rhs == "LAB_HOST_03"

    def test_slices_become_half_open_root(self):
        src = "EVENT e WHEN SEQUENCE(A, B, 9) @ [1, 5] # [2, inf]"
        compiled = compile_query(parse(src).ast)
        assert compiled.ok
        assert isinstance(compiled.plan, SliceOp)
        assert compiled.plan.occ == (1, 6)
        assert compiled.plan.valid == (2, INF)

    def test_output_becomes_projection(self):
        src = "EVENT e WHEN SEQUENCE(A, B, 9) OUTPUT Machine_Id, Level"
        compiled = compile_query(parse(src).ast)
        assert compiled.ok
        assert isinstance(compiled.plan, ProjectOp)
        assert compiled.plan.attrs == ("Machine_Id", "Level")


ROUND_TRIP_CORPUS = [
    EXAMPLE_QUERY,
    "EVENT a WHEN ANY(A, B, C)",
    "EVENT a WHEN ALL(A AS x, B AS y, 30 minutes)",
    "EVENT a WHEN ATLEAST(2, A, B, C, 4 hours)",
    "EVENT a WHEN ATMOST(1, A, 10)",
    "EVENT a WHEN CANCEL-WHEN(SEQUENCE(A AS x, B AS y, 5), C AS z)",
    "EVENT a WHEN NOT(X, SEQUENCE(A, B, 12))",
    "EVENT a WHEN UNLESS(A AS x, B AS y, 1, 2 hours)",
    "EVENT a WHEN A AS x WHERE [Machine_Id Equal 'M'] AND {x.v <= 3}",
    "EVENT a WHEN SEQUENCE(A, B, 7) OUTPUT m, n @ [0, 9] # [1, inf]",
    "EVENT a WHEN SEQUENCE(A, B, 1 tick)",
]


class TestRoundTrip:
    @pytest.mark.parametrize("src", ROUND_TRIP_CORPUS)
    def test_format_then_reparse(self, src):
        first = parse(src)
        assert first.ok, [d.render() for d in first.diagnostics]
        text = format_query(first.ast)
        second = parse(text)
        assert second.ok, (text, [d.render() for d in second.diagnostics])
        assert second.ast == first.ast

    def test_positional_and_as_binders_agree(self):
        a = parse("EVENT e WHEN SEQUENCE(INSTALL x, SHUTDOWN y, 5)").ast
        b = parse("EVENT e WHEN SEQUENCE(INSTALL AS x, SHUTDOWN AS y, 5)").ast
        assert a == b


class TestTotalityAndDeterminism:
    def test_fuzz_smoke(self):
        rng = random.Random("fuzz-smoke")
        for _ in range(800):
            length = rng.randint(0, 60)
            raw = bytes(rng.randrange(256) for _ in range(length))
            parse(raw.decode("latin-1"))

    def test_fuzz_keyword_soup(self):
        rng = random.Random("soup")
        words = ["EVENT", "WHEN", "WHERE", "SEQUENCE", "UNLESS", "(", ")", "{",
                 "}", ",", "AS", "x", "5", "hours", "@", "[", "]", "'s'", "."]
        for _ in range(500):
            parse(" ".join(rng.choice(words) for _ in range(rng.randint(0, 25))))

    def test_compile_deterministic_bytes(self):
        ast = parse(EXAMPLE_QUERY).ast
        one = plan_dumps(compile_query(ast, 1).plan)
        two = plan_dumps(compile_query(parse(EXAMPLE_QUERY).ast, 1).plan)
        assert one == two

    def test_tick_unit_scaling(self):
        ast = parse("EVENT e WHEN SEQUENCE(A, B, 2 hours)").ast
        assert compile_query(ast, ticks_per_minute=1).plan.scope == 120
        assert compile_query(ast, ticks_per_minute=60).plan.scope == 7200


# --- pins on the front end's observable output -------------------------------
#
# Written from the output of the per-operator parser, printer and compiler
# that the field-role tables replaced; any difference is a regression.

GOLDEN = json.loads((Path(__file__).parent / "query_golden.json").read_text("utf-8"))


class TestFrontEndPins:
    @pytest.mark.parametrize("case", GOLDEN["diagnostics"], ids=lambda c: c["source"])
    def test_diagnostic_spans(self, case):
        result = parse(case["source"])
        assert not result.ok
        got = [[d.line, d.col, d.length, d.message] for d in result.diagnostics]
        assert got == case["expect"]

    @pytest.mark.parametrize("case", GOLDEN["asts"], ids=lambda c: c["source"])
    def test_ast_and_text(self, case):
        ast = parse(case["source"]).ast
        assert ast_to_obj(ast) == case["ast"]
        assert format_query(ast) == case["text"]

    def test_every_ast_class_pinned(self):
        assert _expr_classes(json.dumps(GOLDEN["asts"])) == EXPR_CLASSES


EXPR_CLASSES = {"SequenceExpr", "AtLeastExpr", "AtMostExpr", "AllExpr", "AnyExpr",
                "UnlessExpr", "UnlessPrimeExpr", "NotExpr", "CancelWhenExpr"}


def _expr_classes(dump: str) -> set[str]:
    return set(re.findall(r'"node": "(\w+Expr)"', dump))


def generated_query(rng: random.Random, index: int) -> str:
    """One well-formed query over all eight operators, nested, with WHERE."""
    fresh = iter(range(1000))
    bound: list[str] = []

    def binding():
        stream = rng.choice("ABCD")
        form = rng.randrange(3)
        if form == 0:
            return stream
        var = f"v{next(fresh)}"
        bound.append(var)
        return f"{stream} AS {var}" if form == 1 else f"{stream} {var}"

    def scope():
        unit = rng.choice(["", " tick", " ticks", " minute", " minutes", " hour", " hours"])
        return f"{rng.randint(1, 40)}{unit}"

    def name(op):
        return rng.choice([op, op.lower(), op.title()])

    def exprs(count, depth):
        return ", ".join(expr(depth) for _ in range(count))

    def expr(depth):
        if depth == 0 or rng.random() < 0.35:
            return binding()
        k, d = rng.randint(1, 3), depth - 1
        kind = rng.randrange(9)
        if kind == 0:
            return f"{name('SEQUENCE')}({exprs(k + 1, d)}, {scope()})"
        if kind == 1:
            return f"{name('ATLEAST')}({rng.randint(1, k)}, {exprs(k, d)}, {scope()})"
        if kind == 2:
            return f"{name('ATMOST')}({rng.randint(0, k)}, {exprs(k, d)}, {scope()})"
        if kind == 3:
            return f"{name('ALL')}({exprs(k, d)}, {scope()})"
        if kind == 4:
            return f"{name('ANY')}({exprs(k, d)})"
        if kind == 5:
            return f"{name('UNLESS')}({exprs(2, d)}, {scope()})"
        if kind == 6:
            return f"{name('UNLESS')}({exprs(2, d)}, {rng.randint(0, 3)}, {scope()})"
        if kind == 7:
            return (f"{name('NOT')}({expr(d)}, "
                    f"{name('SEQUENCE')}({exprs(k + 1, d)}, {scope()}))")
        return f"{name('CANCEL-WHEN')}({exprs(2, d)})"

    text = [f"EVENT q{index}", f"WHEN {expr(3)}"]
    terms = []
    for _ in range(rng.randint(0, 3)):
        shape = rng.randrange(4)
        if shape == 0 and bound:
            op = rng.choice(["=", "!=", "<>", "<", "<=", ">", ">="])
            rhs = rng.choice([f"{rng.choice(bound)}.a", "3", "'m'"])
            terms.append(f"{{{rng.choice(bound)}.a {op} {rhs}}}")
        elif shape == 1:
            terms.append(f"CorrelationKey(a, {rng.choice(['EQUAL', 'UNIQUE'])})")
        elif shape == 2:
            value = rng.choice(["1", "'q'"])
            terms.append(f"[b Equal {value}]")
    if terms:
        text.append("WHERE " + " AND ".join(terms))
    if rng.random() < 0.2:
        text.append("OUTPUT a, b")
    if rng.random() < 0.2:
        text.append(rng.choice(["@ [0, 9]", "# [1, inf]", "@ [2, 30] # [0, 40]"]))
    return rng.choice([" ", "\n"]).join(text)


def _compiled(ast) -> str:
    result = compile_query(ast, 1)
    if result.ok:
        return plan_dumps(result.plan)
    return "\n".join(d.render() for d in result.diagnostics)


class TestGeneratedQueries:
    # sha256 of every generated query's printed text, AST dump, leaf streams
    # and compiled plan (or compile diagnostics), in generation order.
    DIGEST = "bfef01cc2e68674e790d1adb8a9c21b7eabfcd92d13a2fd4213f2041b772b33f"

    def test_round_trip_and_stable_plans(self):
        rng = random.Random("front-end-pin")
        digest = hashlib.sha256()
        operators = set()
        for i in range(500):
            src = generated_query(rng, i)
            first = parse(src)
            assert first.ok, (src, [d.render() for d in first.diagnostics])
            text = format_query(first.ast)
            second = parse(text)
            assert second.ok and second.ast == first.ast, (src, text)
            assert format_query(second.ast) == text
            plan = _compiled(first.ast)
            assert _compiled(second.ast) == plan
            dump = json.dumps(ast_to_obj(first.ast), sort_keys=True)
            operators |= _expr_classes(dump)
            for part in (text, dump, " ".join(leaf_streams(first.ast)), plan):
                digest.update(part.encode("utf-8") + b"\0")
        assert operators == EXPR_CLASSES
        assert digest.hexdigest() == self.DIGEST
