"""The declarative query language: lexer, parser, and plan compiler.

A query names a derived event, gives the WHEN-clause pattern expression
over named event types, optionally constrains attribute values in a WHERE
clause, optionally projects payload attributes with OUTPUT, and may end
with occurrence-time (``@``) and valid-time (``#``) slices.  Example::

    EVENT Example
    WHEN UNLESS(SEQUENCE(INSTALL x, SHUTDOWN AS y, 12 hours),
                RESTART AS z, 5 minutes)
    WHERE {x.Machine_Id = y.Machine_Id} AND
          {x.Machine_Id = z.Machine_Id}

Keywords are case-insensitive; identifiers are not.  Durations are written
as bare ticks or with ``hours``/``minutes``/``ticks`` units and are
normalized by the compiler at a configurable ticks-per-minute.  Parsing is
total: any input yields either an AST or diagnostics with source spans,
never an exception.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, fields, make_dataclass
from typing import NamedTuple
from .patterns import (
    NODE_KINDS,
    NODE_KINDS_BY_TAG,
    AttrRef,
    Leaf,
    Predicate,
    ProjectOp,
    SliceOp,
    UnboundVariable,
    all_vars,
    inject_predicates,
)
from .temporal import INF, Scalar, Time

KEYWORDS = ("EVENT", "WHEN", "WHERE", "OUTPUT", "AS", "AND")
UNITS = {"hour": "hour", "hours": "hour", "minute": "minute",
         "minutes": "minute", "tick": "tick", "ticks": "tick"}


@dataclass(frozen=True)
class Diagnostic:
    severity: str  # "error" | "warning"
    line: int
    col: int
    length: int
    message: str
    hint: str | None = None

    def render(self) -> str:
        text = f"{self.severity}: {self.line}:{self.col}: {self.message}"
        if self.hint:
            text += f" ({self.hint})"
        return text


# --- AST ---------------------------------------------------------------------

@dataclass(frozen=True)
class Duration:
    value: int
    unit: str  # "tick" | "minute" | "hour"


@dataclass(frozen=True)
class Binding:
    type_name: str
    var: str | None = None


def _ast_class(name: str, tag: str) -> type:
    """The AST class of the plan-node kind ``tag``: its plan class's operand
    fields in declaration order, ``child`` written ``body``."""
    plan = NODE_KINDS_BY_TAG[tag].cls
    cls = make_dataclass(name, [("body" if f.name == "child" else f.name)
                                for f in fields(plan) if f.name not in ("preds", "neg_preds")],
                         frozen=True)
    cls.__module__ = __name__
    return cls


SequenceExpr = _ast_class("SequenceExpr", "sequence")
AtLeastExpr = _ast_class("AtLeastExpr", "atleast")
AtMostExpr = _ast_class("AtMostExpr", "atmost")
AllExpr = _ast_class("AllExpr", "all")
AnyExpr = _ast_class("AnyExpr", "any")
UnlessExpr = _ast_class("UnlessExpr", "unless")
CancelWhenExpr = _ast_class("CancelWhenExpr", "cancel_when")


@dataclass(frozen=True)
class NotExpr:
    """NOT's operands in a SEQUENCE, which gives the plan's children and scope."""
    blocker: object
    seq: SequenceExpr


@dataclass(frozen=True)
class UnlessPrimeExpr:
    """The start-anchored UNLESS form: parsed and printed, never compiled."""
    body: object
    blocker: object
    n: int
    scope: Duration


# A query operator is the ``query_op`` of the plan-node kind it lowers to,
# and its forms are its AST classes; an operator with several forms takes
# the one with as many fields as it has arguments.  Everything else
# follows from the fields of each class, by role and in declaration order:
# ``children`` takes every argument the other fields leave, ``body``,
# ``blocker`` and ``seq`` one event expression each (``seq`` a SEQUENCE),
# ``scope`` a duration and ``n`` a plain count.  The parser checks, the
# printer prints and the compiler lowers the fields in that order.
_FORMS = {"sequence": (SequenceExpr,), "unless": (UnlessExpr, UnlessPrimeExpr),
          "not": (NotExpr,), "cancel_when": (CancelWhenExpr,), "all": (AllExpr,),
          "any": (AnyExpr,), "atleast": (AtLeastExpr,), "atmost": (AtMostExpr,)}
_OPERATORS = {kind.query_op: kind for kind in NODE_KINDS if kind.query_op}
OPERATOR_NAMES = tuple(_OPERATORS)
_OPERATOR_OF = {cls: kind for kind in _OPERATORS.values() for cls in _FORMS[kind.tag]}
_FIELDS = {cls: tuple(f.name for f in fields(cls)) for cls in _OPERATOR_OF}


def _fields_of(node) -> tuple[str, ...]:
    try:
        return _FIELDS[type(node)]
    except KeyError:
        raise TypeError(f"not an expression node: {node!r}") from None


def _bindings(node):
    """Every binding under an expression, in source order."""
    if isinstance(node, Binding):
        yield node
        return
    for name in _FIELDS[type(node)]:
        if name == "children":
            for child in node.children:
                yield from _bindings(child)
        elif name in ("body", "blocker", "seq"):
            yield from _bindings(getattr(node, name))


@dataclass(frozen=True)
class AttrOperand:
    var: str
    attr: str


@dataclass(frozen=True)
class CompareItem:
    lhs: AttrOperand
    op: str
    rhs: AttrOperand | Scalar


@dataclass(frozen=True)
class CorrKeyItem:
    attr: str
    kind: str  # "equal" | "unique"


@dataclass(frozen=True)
class AttrEqualItem:
    attr: str
    value: Scalar


@dataclass(frozen=True)
class SliceSpec:
    occ: tuple[Time, Time] | None = None    # closed bounds as written
    valid: tuple[Time, Time] | None = None


@dataclass(frozen=True)
class QueryAst:
    name: str
    when: object
    where: tuple = ()
    output: tuple[str, ...] | None = None
    slices: SliceSpec | None = None


@dataclass
class ParseResult:
    ast: QueryAst | None
    diagnostics: list[Diagnostic] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.ast is not None and not any(
            d.severity == "error" for d in self.diagnostics)


@dataclass
class CompileResult:
    plan: object | None
    diagnostics: list[Diagnostic] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.plan is not None and not any(
            d.severity == "error" for d in self.diagnostics)


# --- lexer -------------------------------------------------------------------

class _Token(NamedTuple):
    kind: str
    text: str
    line: int
    col: int


# One match per token: the whitespace before a token (group 1) is consumed
# with it, and the input's trailing whitespace matches with \Z.  Apart from
# string before badstring, the alternatives start with disjoint characters;
# the commonest kinds come first.
_TOKEN_RE = re.compile(r"""
    (\s*)
    (?: (?P<name>[A-Za-z_][A-Za-z0-9_]*(?:-[A-Za-z_][A-Za-z0-9_]*)*)
      | (?P<punct>[(){}\[\],.@\#])
      | (?P<number>\d+)
      | (?P<op><=|>=|!=|<>|=|<|>)
      | (?P<string>'[^'\n]*')
      | (?P<badstring>'[^'\n]*)
      | (?P<bad>.)
      | \Z )
""", re.VERBOSE | re.DOTALL)


def _lex(source: str) -> tuple[list[_Token], list[Diagnostic]]:
    tokens: list[_Token] = []
    diagnostics: list[Diagnostic] = []
    line, line_start = 1, 0
    for m in _TOKEN_RE.finditer(source):
        kind, ws, start = m.lastgroup, m.group(1), m.end(1)
        # Only whitespace spans lines.
        if "\n" in ws:
            line += ws.count("\n")
            line_start = start - len(ws) + ws.rfind("\n") + 1
        if kind is None:
            break
        text = m.group(kind)
        col = start - line_start + 1
        if kind == "bad":
            diagnostics.append(Diagnostic("error", line, col, 1,
                                          f"unexpected character {text!r}"))
        elif kind == "badstring":
            diagnostics.append(Diagnostic("error", line, col, len(text),
                                          "unterminated string literal"))
        else:
            tokens.append(_Token(kind, text, line, col))
    tokens.append(_Token("eof", "", line, len(source) - line_start + 1))
    return tokens, diagnostics


# --- parser ------------------------------------------------------------------

class _ParseAbort(Exception):
    pass


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0
        self.diagnostics: list[Diagnostic] = []

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def error(self, tok: _Token, message: str):
        self.diagnostics.append(Diagnostic(
            "error", tok.line, tok.col, max(len(tok.text), 1), message))
        raise _ParseAbort

    def at_keyword(self, word: str) -> bool:
        tok = self.peek()
        return tok.kind == "name" and tok.text.upper() == word

    def expect_keyword(self, word: str) -> _Token:
        if not self.at_keyword(word):
            self.error(self.peek(), f"expected {word}")
        return self.advance()

    def expect(self, kind: str, text: str | None = None, what: str = "") -> _Token:
        tok = self.peek()
        if tok.kind != kind or (text is not None and tok.text != text):
            self.error(tok, f"expected {what or text or kind}")
        return self.advance()

    def expect_name(self, what: str = "identifier") -> _Token:
        tok = self.peek()
        if tok.kind != "name":
            self.error(tok, f"expected {what}")
        if tok.text.upper() in KEYWORDS or tok.text.upper() in OPERATOR_NAMES:
            self.error(tok, f"expected {what}, found keyword {tok.text!r}")
        return self.advance()

    # query := EVENT ident WHEN expr [WHERE predconj] [OUTPUT projlist] [slices]
    def query(self) -> QueryAst:
        self.expect_keyword("EVENT")
        name = self.expect_name("query name").text
        self.expect_keyword("WHEN")
        when = self.expr()
        where: tuple = ()
        output = None
        slices = None
        if self.at_keyword("WHERE"):
            self.advance()
            where = self.predconj()
        if self.at_keyword("OUTPUT"):
            self.advance()
            output = self.projlist()
        if self.peek().text in ("@", "#"):
            slices = self.slices()
        tok = self.peek()
        if tok.kind != "eof":
            self.error(tok, f"unexpected trailing input {tok.text!r}")
        self._check_bindings(when)
        return QueryAst(name, when, where, output, slices)

    def _check_bindings(self, when) -> None:
        names = [b.var for b in _bindings(when) if b.var]
        dupes = {n for n in names if names.count(n) > 1}
        if dupes:
            tok = self.tokens[0]
            self.error(tok, f"duplicate binding name(s): {', '.join(sorted(dupes))}")

    def expr(self):
        tok = self.peek()
        if tok.kind != "name":
            self.error(tok, "expected an event type or operator")
        upper = tok.text.upper()
        if upper in OPERATOR_NAMES:
            return self.opcall()
        return self.binder()

    def binder(self) -> Binding:
        type_tok = self.expect_name("event type")
        var = None
        if self.at_keyword("AS"):
            self.advance()
            var = self.expect_name("binding name").text
        elif self.peek().kind == "name" and \
                self.peek().text.upper() not in KEYWORDS and \
                self.peek().text.upper() not in OPERATOR_NAMES:
            var = self.advance().text
        return Binding(type_tok.text, var)

    def opcall(self):
        op_tok = self.advance()
        self.expect("punct", "(", "'('")
        args: list = []
        arg_tokens: list[_Token] = []
        if self.peek().text != ")":
            while True:
                arg_tokens.append(self.peek())
                args.append(self.argument())
                if self.peek().text == ",":
                    self.advance()
                    continue
                break
        self.expect("punct", ")", "')'")
        return self.shape(op_tok, args, arg_tokens)

    def argument(self):
        tok = self.peek()
        if tok.kind == "number":
            self.advance()
            nxt = self.peek()
            if nxt.kind == "name" and nxt.text.lower() in UNITS:
                self.advance()
                return Duration(int(tok.text), UNITS[nxt.text.lower()])
            return Duration(int(tok.text), "tick")
        return self.expr()

    def shape(self, op_tok: _Token, args: list, arg_tokens: list):
        op = _OPERATORS[op_tok.text.upper()]
        cls = next((c for c in _FORMS[op.tag] if (len(args) >= op.least if op.least
                                              else len(args) == len(_FIELDS[c]))), None)
        if cls is None:
            self.error(op_tok, op.usage)
        names = _FIELDS[cls]
        values, at = [], 0
        for name in names:
            # ``children`` takes the arguments the other fields leave.
            width = len(args) - len(names) + 1 if name == "children" else 1
            values.append(self.field_value(op.query_op, name, args[at:at + width],
                                     arg_tokens[at:at + width]))
            at += width
        node = cls(*values)
        if op.count_in_range and not 1 <= node.n <= len(node.children):
            self.error(op_tok, f"{op.query_op} count {node.n} outside 1..{len(node.children)}")
        return node

    def field_value(self, op: str, role: str, args: list, toks: list):
        """The value of one AST field from its arguments, checked by role."""
        if role in ("children", "body", "blocker"):
            for arg, tok in zip(args, toks):
                if isinstance(arg, Duration):
                    self.error(tok, f"{op} expected an event expression here")
            return tuple(args) if role == "children" else args[0]
        arg, tok = args[0], toks[0]
        if role == "scope":
            if not isinstance(arg, Duration):
                self.error(tok, f"{op} requires a scope as its last argument")
            if arg.value <= 0:
                self.error(tok, f"{op} scope must be positive")
        elif role == "n":
            if not isinstance(arg, Duration) or arg.unit != "tick":
                self.error(tok, f"{op} requires a plain count here")
            return arg.value
        elif not isinstance(arg, SequenceExpr):  # seq
            self.error(tok, f"the scope of {op} must be a SEQUENCE")
        return arg

    def predconj(self) -> tuple:
        items = [self.predterm()]
        while self.at_keyword("AND"):
            self.advance()
            items.append(self.predterm())
        return tuple(items)

    def predterm(self):
        tok = self.peek()
        if tok.text == "{":
            self.advance()
            lhs = self.operand()
            if not isinstance(lhs, AttrOperand):
                self.error(tok, "the left side of a comparison must be var.attr")
            op_tok = self.peek()
            if op_tok.kind != "op":
                self.error(op_tok, "expected a comparison operator")
            self.advance()
            op = {"<>": "!="}.get(op_tok.text, op_tok.text)
            rhs = self.operand()
            self.expect("punct", "}", "'}'")
            return CompareItem(lhs, op, rhs)
        if tok.kind == "name" and tok.text.lower() == "correlationkey":
            self.advance()
            self.expect("punct", "(", "'('")
            attr = self.expect_name("attribute name").text
            self.expect("punct", ",", "','")
            kind_tok = self.expect_name("EQUAL or UNIQUE")
            kind = kind_tok.text.lower()
            if kind not in ("equal", "unique"):
                self.error(kind_tok, "CorrelationKey kind must be EQUAL or UNIQUE")
            self.expect("punct", ")", "')'")
            return CorrKeyItem(attr, kind)
        if tok.text == "[":
            self.advance()
            attr = self.expect_name("attribute name").text
            eq_tok = self.peek()
            if not (eq_tok.kind == "name" and eq_tok.text.lower() == "equal"):
                self.error(eq_tok, "expected Equal")
            self.advance()
            value = self.literal()
            self.expect("punct", "]", "']'")
            return AttrEqualItem(attr, value)
        self.error(tok, "expected a WHERE term: {...}, CorrelationKey(...), or [...]")

    def operand(self):
        tok = self.peek()
        if tok.kind == "name":
            var = self.expect_name("variable").text
            self.expect("punct", ".", "'.'")
            attr = self.expect_name("attribute").text
            return AttrOperand(var, attr)
        return self.literal()

    def literal(self) -> Scalar:
        tok = self.peek()
        if tok.kind == "string":
            self.advance()
            return tok.text[1:-1]
        if tok.kind == "number":
            self.advance()
            return int(tok.text)
        self.error(tok, "expected a literal")

    def projlist(self) -> tuple[str, ...]:
        names = [self.expect_name("attribute name").text]
        while self.peek().text == ",":
            self.advance()
            names.append(self.expect_name("attribute name").text)
        return tuple(names)

    def slices(self) -> SliceSpec:
        occ = valid = None
        while self.peek().text in ("@", "#"):
            marker = self.advance().text
            self.expect("punct", "[", "'['")
            lo = self.bound()
            self.expect("punct", ",", "','")
            hi = self.bound()
            self.expect("punct", "]", "']'")
            if marker == "@":
                occ = (lo, hi)
            else:
                valid = (lo, hi)
        return SliceSpec(occ, valid)

    def bound(self) -> Time:
        tok = self.peek()
        if tok.kind == "number":
            self.advance()
            return int(tok.text)
        if tok.kind == "name" and tok.text.lower() == "inf":
            self.advance()
            return INF
        self.error(tok, "expected a tick count or inf")


def parse(source: str) -> ParseResult:
    """Parse query text; never raises on any input."""
    if not isinstance(source, str):
        source = str(source)
    tokens, diagnostics = _lex(source)
    if any(d.severity == "error" for d in diagnostics):
        return ParseResult(None, diagnostics)
    parser = _Parser(tokens)
    parser.diagnostics = diagnostics
    try:
        ast = parser.query()
    except _ParseAbort:
        return ParseResult(None, parser.diagnostics)
    except RecursionError:
        diagnostics.append(Diagnostic("error", 1, 1, 1, "expression nested too deeply"))
        return ParseResult(None, diagnostics)
    return ParseResult(ast, parser.diagnostics)


# --- pretty printer ----------------------------------------------------------

def _fmt_duration(d: Duration) -> str:
    unit = d.unit if d.value == 1 else d.unit + "s"
    return f"{d.value} {unit}"


def _fmt_expr(node) -> str:
    if isinstance(node, Binding):
        return f"{node.type_name} AS {node.var}" if node.var else node.type_name
    parts = (_FMT_FIELD.get(name, _fmt_expr)(getattr(node, name))
             for name in _fields_of(node))
    return f"{_OPERATOR_OF[type(node)].query_op}({', '.join(parts)})"


_FMT_FIELD = {"children": lambda children: ", ".join(map(_fmt_expr, children)),
              "scope": _fmt_duration, "n": str}


def _fmt_literal(value: Scalar) -> str:
    return f"'{value}'" if isinstance(value, str) else str(value)


def _fmt_bound(t: Time) -> str:
    return "inf" if t == INF else str(int(t))


def format_query(ast: QueryAst) -> str:
    lines = [f"EVENT {ast.name}", f"WHEN {_fmt_expr(ast.when)}"]
    if ast.where:
        terms = []
        for item in ast.where:
            if isinstance(item, CompareItem):
                rhs = (f"{item.rhs.var}.{item.rhs.attr}"
                       if isinstance(item.rhs, AttrOperand)
                       else _fmt_literal(item.rhs))
                terms.append(f"{{{item.lhs.var}.{item.lhs.attr} {item.op} {rhs}}}")
            elif isinstance(item, CorrKeyItem):
                terms.append(f"CorrelationKey({item.attr}, {item.kind.upper()})")
            else:
                terms.append(f"[{item.attr} Equal {_fmt_literal(item.value)}]")
        lines.append("WHERE " + " AND ".join(terms))
    if ast.output is not None:
        lines.append("OUTPUT " + ", ".join(ast.output))
    if ast.slices is not None:
        parts = []
        if ast.slices.occ:
            parts.append(f"@ [{_fmt_bound(ast.slices.occ[0])}, "
                         f"{_fmt_bound(ast.slices.occ[1])}]")
        if ast.slices.valid:
            parts.append(f"# [{_fmt_bound(ast.slices.valid[0])}, "
                         f"{_fmt_bound(ast.slices.valid[1])}]")
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


# --- compiler ----------------------------------------------------------------

def _ticks(d: Duration, ticks_per_minute: int) -> int:
    if d.unit == "hour":
        return d.value * 60 * ticks_per_minute
    if d.unit == "minute":
        return d.value * ticks_per_minute
    return d.value


def compile_query(ast: QueryAst, ticks_per_minute: int = 1) -> CompileResult:
    """Lower an AST to an executable plan with injected predicates."""
    diagnostics: list[Diagnostic] = []

    def fail(message: str, hint: str | None = None):
        diagnostics.append(Diagnostic("error", 1, 1, 1, message, hint))
        raise _ParseAbort

    def lower(node):
        if isinstance(node, Binding):
            return Leaf(node.type_name, node.var)
        if isinstance(node, UnlessPrimeExpr):
            fail("the start-anchored UNLESS variant is parsed but unsupported",
                 "drop the contributor index argument")
        plan: dict = {}
        for name in _fields_of(node):
            value = getattr(node, name)
            if name == "children":
                plan[name] = tuple(map(lower, value))
            elif name == "scope":
                plan[name] = _ticks(value, ticks_per_minute)
            elif name == "n":
                plan[name] = value
            elif name == "seq":
                seq = lower(value)
                plan.update(children=seq.children, scope=seq.scope)
            else:
                plan["child" if name == "body" else name] = lower(value)
        return _OPERATOR_OF[type(node)].cls(**plan)

    try:
        plan = lower(ast.when)
        bound = sorted(all_vars(plan))
        preds: list[Predicate] = []
        for item in ast.where:
            if isinstance(item, CompareItem):
                rhs = (AttrRef(item.rhs.var, item.rhs.attr)
                       if isinstance(item.rhs, AttrOperand) else item.rhs)
                preds.append(Predicate(AttrRef(item.lhs.var, item.lhs.attr),
                                       item.op, rhs))
            elif isinstance(item, CorrKeyItem):
                if len(bound) < 2:
                    diagnostics.append(Diagnostic(
                        "warning", 1, 1, 1,
                        f"CorrelationKey({item.attr}) needs two bound variables"))
                op = "=" if item.kind == "equal" else "!="
                for i, v1 in enumerate(bound):
                    for v2 in bound[i + 1:]:
                        preds.append(Predicate(AttrRef(v1, item.attr), op,
                                               AttrRef(v2, item.attr)))
            else:
                for v in bound:
                    preds.append(Predicate(AttrRef(v, item.attr), "=", item.value))
        try:
            plan = inject_predicates(plan, preds)
        except UnboundVariable as exc:
            fail(str(exc), "bind the variable with AS in the WHEN clause")
        if ast.slices is not None:
            occ = valid = None
            if ast.slices.occ:
                lo, hi = ast.slices.occ
                occ = (lo, hi if hi == INF else hi + 1)
            if ast.slices.valid:
                lo, hi = ast.slices.valid
                valid = (lo, hi if hi == INF else hi + 1)
            plan = SliceOp(plan, occ, valid)
        if ast.output is not None:
            plan = ProjectOp(plan, ast.output)
    except _ParseAbort:
        return CompileResult(None, diagnostics)
    return CompileResult(plan, diagnostics)


def leaf_streams(ast: QueryAst) -> list[str]:
    """The distinct event-type names the query reads."""
    return list(dict.fromkeys(b.type_name for b in _bindings(ast.when)))


def ast_to_obj(node) -> object:
    """A JSON-safe dump of an AST (or any of its nodes)."""
    if isinstance(node, (int, str, bool)) or node is None:
        return node
    if isinstance(node, float):
        return "inf" if node == INF else node
    if isinstance(node, tuple):
        return [ast_to_obj(c) for c in node]
    obj: dict = {"node": type(node).__name__}
    for name in node.__dataclass_fields__:
        obj[name] = ast_to_obj(getattr(node, name))
    return obj
