"""Pattern operators over bitemporal events, plans, and predicate injection.

The operators here are denotational: each consumes whole input streams of
:class:`PatternEvent` values and produces the full set of composites its
definition describes.  Incremental execution over live, retraction-bearing
streams is the engine's job; it calls back into these functions.

Composites track lineage through ``cbt`` (the ordered contributor ids) and
``rt`` (the minimum root time among contributors).  Value constraints from
a query's WHERE clause are attached to plan nodes by
:func:`inject_predicates` and evaluated through hook callables, so the
temporal quantifiers below stay exactly as defined.
"""

from __future__ import annotations

import json
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Mapping, Sequence

from .temporal import (
    INF,
    EMPTY_PAYLOAD,
    HistoryTable,
    Payload,
    Scalar,
    TemporalError,
    Time,
    TritemporalEvent,
    check_time,
    concat_payloads,
)


class EmptyInput(TemporalError):
    """idgen needs at least one contributor id."""


class ArityMismatch(TemporalError):
    """An operator was given an impossible selection size or stream count."""


class UnboundVariable(TemporalError):
    """A predicate references a variable no operator in the plan binds."""


@dataclass(frozen=True, slots=True)
class PatternEvent:
    """An event as seen by the pattern operators.

    ``rt`` anchors cancellation scopes; ``cbt`` is empty for primitive
    events and lists contributor ids, in order, for composites.
    """

    id: str
    v_s: Time
    v_e: Time
    o_s: Time
    o_e: Time
    rt: Time
    cbt: tuple[str, ...] = ()
    payload: Payload = EMPTY_PAYLOAD

    def __post_init__(self):
        for name in ("v_s", "v_e", "o_s", "o_e", "rt"):
            check_time(getattr(self, name), name)
        if self.v_s >= self.v_e:
            raise ValueError(f"valid interval empty: [{self.v_s}, {self.v_e})")
        if self.o_s > self.o_e:
            raise ValueError(f"occurrence interval reversed: [{self.o_s}, {self.o_e})")
        if self.rt > self.v_s:
            raise ValueError(f"root time {self.rt} exceeds v_s {self.v_s}")

    @property
    def sort_key(self) -> tuple:
        return (self.v_s, self.v_e, self.o_s, self.o_e, self.id)


def primitive(id: str, v_s: Time, v_e: Time, *, o_s: Time | None = None,
              o_e: Time = INF, payload: Payload | Mapping = EMPTY_PAYLOAD) -> PatternEvent:
    """A primitive event: root time is its own start, lineage is empty."""
    if not isinstance(payload, Payload):
        payload = Payload(payload)
    o_s = v_s if o_s is None else o_s
    return PatternEvent(id, v_s, v_e, o_s, o_e, rt=v_s, payload=payload)


def idgen(ids: Sequence[str]) -> str:
    """Length-prefixed concatenation: injective on id sequences."""
    ids = list(ids)
    if not ids:
        raise EmptyInput("idgen requires at least one input id")
    return "".join(f"{len(i)}:{i}" for i in ids)


# A hook receives the chosen contributors as (stream index, event) pairs in
# contributor order; a block hook additionally receives the candidate
# blocking event.  Hooks returning False drop the combination.
Ctx = tuple[tuple[int, "PatternEvent"], ...]
AcceptHook = Callable[[Ctx], bool]
BlockHook = Callable[[Ctx, "PatternEvent"], bool]

Streams = Sequence[Iterable[PatternEvent]]


def _sorted_streams(streams: Streams) -> list[list[PatternEvent]]:
    return [sorted(s, key=lambda e: e.sort_key) for s in streams]


def _composite(ctx: Ctx, w: Time) -> PatternEvent | None:
    contribs = [e for _, e in ctx]
    first, last = contribs[0], contribs[-1]
    v_e = first.v_s + w
    if last.v_s >= v_e:
        return None  # zero-length validity at the exact scope boundary
    return PatternEvent(
        idgen([c.id for c in contribs]),
        v_s=last.v_s, v_e=v_e,
        o_s=last.o_s, o_e=last.o_e,
        rt=min(c.rt for c in contribs),
        cbt=tuple(c.id for c in contribs),
        payload=concat_payloads(c.payload for c in contribs))


def _pass_through(e: PatternEvent, w: Time) -> PatternEvent | None:
    if w <= 0:
        return None
    return PatternEvent(e.id, v_s=e.v_s, v_e=e.v_s + w, o_s=e.o_s, o_e=e.o_e,
                        rt=e.rt, cbt=(e.id,), payload=e.payload)


def atleast(n: int, streams: Streams, w: Time, *,
            accept: AcceptHook | None = None) -> frozenset[PatternEvent]:
    """Composites from any ``n`` distinct streams, in strict v_s order, within ``w``."""
    k = len(streams)
    if not 1 <= n <= k:
        raise ArityMismatch(f"atleast needs 1 <= n <= {k}, got {n}")
    if w <= 0:
        raise ValueError("scope must be positive")
    ordered = _sorted_streams(streams)
    out = []
    for ctx in _choose(ordered, n, w):
        if accept is not None and not accept(ctx):
            continue
        comp = _composite(ctx, w)
        if comp is not None:
            out.append(comp)
    return frozenset(out)


def _choose(ordered: list[list[PatternEvent]], n: int, w: Time):
    """All v_s-ordered selections of one event from each of n distinct streams."""
    from itertools import combinations, product

    for subset in combinations(range(len(ordered)), n):
        for combo in product(*(ordered[i] for i in subset)):
            pairs = sorted(zip(subset, combo), key=lambda p: p[1].v_s)
            ok = all(pairs[i][1].v_s < pairs[i + 1][1].v_s for i in range(n - 1))
            if ok and pairs[-1][1].v_s - pairs[0][1].v_s <= w:
                yield tuple(pairs)


def sequence(streams: Streams, w: Time, *,
             accept: AcceptHook | None = None) -> frozenset[PatternEvent]:
    """Composites with one contributor per stream, in stream order, within ``w``."""
    return frozenset(comp for _, comp in _sequence_denote(streams, w, accept))


def _sequence_denote(streams: Streams, w: Time,
                     accept: AcceptHook | None) -> list[tuple[Ctx, PatternEvent]]:
    if len(streams) < 2:
        raise ArityMismatch("sequence needs at least two streams")
    if w <= 0:
        raise ValueError("scope must be positive")
    ordered = _sorted_streams(streams)
    out: list[tuple[Ctx, PatternEvent]] = []

    def extend(prefix: list[PatternEvent]):
        i = len(prefix)
        if i == len(ordered):
            ctx = tuple(enumerate(prefix))
            if accept is None or accept(ctx):
                comp = _composite(ctx, w)
                if comp is not None:
                    out.append((ctx, comp))
            return
        for e in ordered[i]:
            if prefix:
                if e.v_s <= prefix[-1].v_s:
                    continue
                if e.v_s - prefix[0].v_s > w:
                    break
            extend(prefix + [e])

    extend([])
    return out


def all_of(streams: Streams, w: Time, *,
           accept: AcceptHook | None = None) -> frozenset[PatternEvent]:
    """Every stream contributes: a macro for atleast(k, ...)."""
    return atleast(len(streams), streams, w, accept=accept)


def any_of(streams: Streams, *,
           accept: AcceptHook | None = None) -> frozenset[PatternEvent]:
    """Any single occurrence from any stream: a macro for atleast(1, ..., 1)."""
    return atleast(1, streams, 1, accept=accept)


def atmost(n: int, streams: Streams, w: Time, *,
           accept: AcceptHook | None = None) -> frozenset[PatternEvent]:
    """Events whose ``w``-window holds at most ``n`` contributor occurrences.

    All input streams are pooled; each event anchors its own window
    ``[v_s, v_s + w)`` and counts every pooled occurrence inside it,
    itself included.
    """
    if n < 0:
        raise ArityMismatch(f"atmost needs n >= 0, got {n}")
    if w <= 0:
        raise ValueError("scope must be positive")
    pool = [(i, e) for i, s in enumerate(streams) for e in s]
    pool.sort(key=lambda p: p[1].sort_key)
    starts = [e.v_s for _, e in pool]
    out = []
    for i, e in pool:
        count = bisect_left(starts, e.v_s + w) - bisect_left(starts, e.v_s)
        if count <= n:
            ctx = ((i, e),)
            if accept is not None and not accept(ctx):
                continue
            comp = _pass_through(e, w)
            if comp is not None:
                out.append(comp)
    return frozenset(out)


def unless(e1s: Iterable[PatternEvent], e2s: Iterable[PatternEvent], w: Time, *,
           accept: AcceptHook | None = None,
           blocks: BlockHook | None = None) -> frozenset[PatternEvent]:
    """Events followed by no blocking occurrence within the next ``w`` ticks.

    The negation window is open on both ends: a blocker at exactly the
    anchor's start, or at exactly ``v_s + w``, does not block.
    """
    if w <= 0:
        raise ValueError("scope must be positive")
    blockers = sorted(e2s, key=lambda e: e.sort_key)
    starts = [e.v_s for e in blockers]
    out = []
    for e1 in e1s:
        ctx = ((0, e1),)
        if accept is not None and not accept(ctx):
            continue
        lo = bisect_right(starts, e1.v_s)
        hi = bisect_left(starts, e1.v_s + w)
        hits = blockers[lo:hi]
        if blocks is not None:
            hits = [b for b in hits if blocks(ctx, b)]
        if not hits:
            comp = _pass_through(e1, w)
            if comp is not None:
                out.append(comp)
    return frozenset(out)


def not_seq(es: Iterable[PatternEvent], streams: Streams, w: Time, *,
            accept: AcceptHook | None = None,
            blocks: BlockHook | None = None) -> frozenset[PatternEvent]:
    """Sequence composites with no blocker strictly inside the contributor span."""
    negs = sorted(es, key=lambda e: e.sort_key)
    starts = [e.v_s for e in negs]
    out = []
    for ctx, comp in _sequence_denote(streams, w, accept):
        lo_v = ctx[0][1].v_s
        hi_v = ctx[-1][1].v_s
        hits = negs[bisect_right(starts, lo_v):bisect_left(starts, hi_v)]
        if blocks is not None:
            hits = [b for b in hits if blocks(ctx, b)]
        if not hits:
            out.append(comp)
    return frozenset(out)


def cancel_when(e1s: Iterable[PatternEvent], e2s: Iterable[PatternEvent], *,
                accept: AcceptHook | None = None,
                blocks: BlockHook | None = None) -> frozenset[PatternEvent]:
    """Events surviving: no canceller occurred between their root time and start."""
    cancellers = sorted(e2s, key=lambda e: e.sort_key)
    starts = [e.v_s for e in cancellers]
    out = []
    for e1 in e1s:
        ctx = ((0, e1),)
        if accept is not None and not accept(ctx):
            continue
        hits = cancellers[bisect_right(starts, e1.rt):bisect_left(starts, e1.v_s)]
        if blocks is not None:
            hits = [b for b in hits if blocks(ctx, b)]
        if not hits:
            out.append(e1)
    return frozenset(out)


# --- predicates -----------------------------------------------------------

@dataclass(frozen=True)
class AttrRef:
    var: str
    attr: str


COMPARE_OPS = ("=", "!=", "<", "<=", ">", ">=")


@dataclass(frozen=True)
class Predicate:
    """A comparison between bound-variable attributes or against a constant."""

    lhs: AttrRef
    op: str
    rhs: AttrRef | Scalar

    def __post_init__(self):
        if self.op not in COMPARE_OPS:
            raise ValueError(f"unknown comparison operator {self.op!r}")

    def vars(self) -> frozenset[str]:
        names = {self.lhs.var}
        if isinstance(self.rhs, AttrRef):
            names.add(self.rhs.var)
        return frozenset(names)

    def test(self, lookup: Callable[[str], PatternEvent | None]) -> bool:
        """Evaluate under a variable binding.

        A variable that resolved to no event leaves the predicate vacuously
        true (that operand did not contribute); a resolved event missing
        the attribute, or an incomparable pair, fails it.
        """
        ev = lookup(self.lhs.var)
        if ev is None:
            return True
        if self.lhs.attr not in ev.payload:
            return False
        left = ev.payload[self.lhs.attr]
        if isinstance(self.rhs, AttrRef):
            other = lookup(self.rhs.var)
            if other is None:
                return True
            if self.rhs.attr not in other.payload:
                return False
            right = other.payload[self.rhs.attr]
        else:
            right = self.rhs
        try:
            if self.op == "=":
                return left == right
            if self.op == "!=":
                return left != right
            if self.op == "<":
                return left < right
            if self.op == "<=":
                return left <= right
            if self.op == ">":
                return left > right
            return left >= right
        except TypeError:
            return False


# --- plan nodes ------------------------------------------------------------

@dataclass(frozen=True)
class Leaf:
    stream: str
    var: str | None = None
    preds: tuple[Predicate, ...] = ()


@dataclass(frozen=True)
class SequenceOp:
    children: tuple
    scope: Time
    preds: tuple[Predicate, ...] = ()


@dataclass(frozen=True)
class AtLeastOp:
    n: int
    children: tuple
    scope: Time
    preds: tuple[Predicate, ...] = ()


@dataclass(frozen=True)
class AtMostOp:
    n: int
    children: tuple
    scope: Time
    preds: tuple[Predicate, ...] = ()


@dataclass(frozen=True)
class AllOp:
    children: tuple
    scope: Time
    preds: tuple[Predicate, ...] = ()


@dataclass(frozen=True)
class AnyOp:
    children: tuple
    preds: tuple[Predicate, ...] = ()


@dataclass(frozen=True)
class UnlessOp:
    child: object
    blocker: object
    scope: Time
    preds: tuple[Predicate, ...] = ()
    neg_preds: tuple[Predicate, ...] = ()


@dataclass(frozen=True)
class NotOp:
    blocker: object
    children: tuple
    scope: Time
    preds: tuple[Predicate, ...] = ()
    neg_preds: tuple[Predicate, ...] = ()


@dataclass(frozen=True)
class CancelWhenOp:
    child: object
    blocker: object
    preds: tuple[Predicate, ...] = ()
    neg_preds: tuple[Predicate, ...] = ()


@dataclass(frozen=True)
class SliceOp:
    child: object
    occ: tuple[Time, Time] | None = None
    valid: tuple[Time, Time] | None = None


@dataclass(frozen=True)
class ProjectOp:
    child: object
    attrs: tuple[str, ...] = ()


_MULTI = (SequenceOp, AtLeastOp, AtMostOp, AllOp, AnyOp)
_NEGATION = (UnlessOp, NotOp, CancelWhenOp)
_WRAPPER = (SliceOp, ProjectOp)

Path = tuple[int, ...]


def plan_children(node) -> tuple:
    if isinstance(node, Leaf):
        return ()
    if isinstance(node, _MULTI):
        return node.children
    if isinstance(node, UnlessOp):
        return (node.child,)
    if isinstance(node, NotOp):
        return node.children
    if isinstance(node, CancelWhenOp):
        return (node.child,)
    if isinstance(node, _WRAPPER):
        return (node.child,)
    raise TypeError(f"not a plan node: {node!r}")


def bound_vars(node) -> dict[str, Path]:
    """Variables addressable from this node's output events, as cbt paths.

    Selection-style operators (ATLEAST, ATMOST, ALL, ANY) order their
    lineage by start time rather than by operand position, so variables
    bound beneath them are only usable by predicates attached to the
    operator itself, never from enclosing operators.
    """
    if isinstance(node, Leaf):
        return {node.var: ()} if node.var else {}
    if isinstance(node, SequenceOp):
        out: dict[str, Path] = {}
        for i, child in enumerate(node.children):
            for var, path in bound_vars(child).items():
                out[var] = (i, *path)
        return out
    if isinstance(node, _MULTI):
        return {}
    if isinstance(node, (UnlessOp, NotOp)):
        if isinstance(node, NotOp):
            inner = SequenceOp(node.children, node.scope)
            paths = bound_vars(inner)
            return paths
        return {var: (0, *path) for var, path in bound_vars(node.child).items()}
    if isinstance(node, CancelWhenOp):
        return dict(bound_vars(node.child))
    if isinstance(node, _WRAPPER):
        return dict(bound_vars(node.child))
    raise TypeError(f"not a plan node: {node!r}")


def _ctx_vars(node) -> dict[str, tuple[int, Path]]:
    """Variables usable by predicates attached at this node."""
    if isinstance(node, Leaf):
        return {node.var: (0, ())} if node.var else {}
    out: dict[str, tuple[int, Path]] = {}
    for i, child in enumerate(plan_children(node)):
        for var, path in bound_vars(child).items():
            out[var] = (i, path)
    return out


def _neg_vars(node) -> dict[str, Path]:
    if isinstance(node, _NEGATION):
        return bound_vars(node.blocker)
    return {}


def all_vars(node) -> frozenset[str]:
    names = set()
    if isinstance(node, Leaf):
        if node.var:
            names.add(node.var)
        return frozenset(names)
    if isinstance(node, _NEGATION):
        names |= all_vars(node.blocker)
    for child in plan_children(node):
        names |= all_vars(child)
    return frozenset(names)


def _with_pred(node, pred: Predicate, negated: bool):
    if negated:
        return replace(node, neg_preds=node.neg_preds + (pred,))
    return replace(node, preds=node.preds + (pred,))


def _inject_one(node, pred: Predicate):
    """Attach at the lowest node binding every variable; None if impossible."""
    if not isinstance(node, Leaf):
        if isinstance(node, _NEGATION):
            new_blocker = _inject_one(node.blocker, pred)
            if new_blocker is not None:
                return replace(node, blocker=new_blocker)
        kids = plan_children(node)
        for i, child in enumerate(kids):
            new_child = _inject_one(child, pred)
            if new_child is not None:
                if isinstance(node, _MULTI) or isinstance(node, NotOp):
                    new_children = kids[:i] + (new_child,) + kids[i + 1:]
                    return replace(node, children=new_children)
                return replace(node, child=new_child)
    wanted = pred.vars()
    pos = set(_ctx_vars(node))
    if isinstance(node, Leaf):
        if wanted <= pos:
            return _with_pred(node, pred, negated=False)
        return None
    if wanted <= pos:
        return _with_pred(node, pred, negated=False)
    if isinstance(node, _NEGATION):
        neg = set(_neg_vars(node))
        if wanted <= pos | neg and wanted & neg:
            return _with_pred(node, pred, negated=True)
    return None


def inject_predicates(plan, preds: Iterable[Predicate]):
    """Push each predicate to the lowest operator binding all its variables.

    Predicates that reference a negated variable land inside that
    operator's non-existence quantifier, restricting which events block.
    """
    known = all_vars(plan)
    for pred in preds:
        missing = pred.vars() - known
        if missing:
            raise UnboundVariable(f"unbound variable(s): {', '.join(sorted(missing))}")
        new_plan = _inject_one(plan, pred)
        if new_plan is None:
            names = ", ".join(sorted(pred.vars()))
            raise UnboundVariable(
                f"no single operator binds {names}; variables under selection "
                f"operators are not addressable from enclosing operators")
        plan = new_plan
    return plan


# --- plan evaluation --------------------------------------------------------

EventStore = dict  # id -> PatternEvent


def _descend(event: PatternEvent, path: Path, store: EventStore) -> PatternEvent | None:
    for i in path:
        if i >= len(event.cbt):
            return None
        event = store.get(event.cbt[i])
        if event is None:
            return None
    return event


def make_accept(node, store: EventStore) -> AcceptHook | None:
    if not getattr(node, "preds", ()):
        return None
    spots = _ctx_vars(node)
    preds = node.preds

    def hook(ctx: Ctx) -> bool:
        def lookup(var: str) -> PatternEvent | None:
            loc = spots.get(var)
            if loc is None:
                return None
            child_idx, path = loc
            for idx, e in ctx:
                if idx == child_idx:
                    return _descend(e, path, store)
            return None
        return all(p.test(lookup) for p in preds)

    return hook


# A partition key maps an event to the tuple of buckets it joins; a key
# of None puts every event of its port in every bucket.  The engine
# evaluates the operator once per bucket, on the events that joined it plus
# those of every port that joined EVERY, and unions the results.
EVERY = object()
# Events lacking the key attribute: right-hand SEQUENCE events, which only
# left-hand events in every bucket can match, and UNLESS children, which
# only blockers in every bucket can block.
_ABSENT = object()
# UNLESS children whose variable does not resolve: any blocker may block
# them, so every blocker joins this bucket too.
_UNRESOLVED = object()

PartitionKey = Callable[[PatternEvent], tuple]


def make_partition(node, store: EventStore) -> tuple[PartitionKey | None, ...] | None:
    """Per-port hash-partition keys for a SEQUENCE or an UNLESS, or None.

    A SEQUENCE is keyed on its first ``=`` predicate between variables of
    two different children, an UNLESS on its first ``=`` negation predicate
    between a variable of the child and one of the blocker.  The keys follow
    :meth:`Predicate.test`: an unresolved variable makes the predicate
    vacuously true, and a missing attribute makes it false unless the
    left-hand variable is unresolved.  So every SEQUENCE match shares a
    bucket, and every UNLESS child sits in exactly one bucket with each
    blocker that can block it.  Every output has an event of the first
    port, so a bucket without one yields nothing.  The partition is
    complete, not exact: the hooks still test every candidate.
    """
    spots = _ctx_vars(node)
    if isinstance(node, SequenceOp):
        for p in node.preds:
            if p.op != "=" or not isinstance(p.rhs, AttrRef):
                continue
            lhs, rhs = spots.get(p.lhs.var), spots.get(p.rhs.var)
            if lhs is None or rhs is None or lhs[0] == rhs[0]:
                continue
            keys: list[PartitionKey | None] = [None] * len(node.children)
            keys[lhs[0]] = _partition_key(lhs[1], p.lhs.attr, store, (EVERY,), ())
            keys[rhs[0]] = _partition_key(rhs[1], p.rhs.attr, store, (EVERY,), (_ABSENT,))
            return tuple(keys)
    if isinstance(node, UnlessOp):
        # make_blocks resolves a name bound on both sides to the blocker.
        neg_spots = _neg_vars(node)
        for p in node.neg_preds:
            if p.op != "=" or not isinstance(p.rhs, AttrRef):
                continue
            for child, blocker in ((p.lhs, p.rhs), (p.rhs, p.lhs)):
                if (child.var in spots and child.var not in neg_spots
                        and blocker.var in neg_spots):
                    return (_partition_key(spots[child.var][1], child.attr, store,
                                           (_UNRESOLVED,), (_ABSENT,)),
                            _partition_key(neg_spots[blocker.var], blocker.attr, store,
                                           (EVERY,), (_UNRESOLVED,), (_UNRESOLVED,)))
    return None


def _partition_key(path: Path, attr: str, store: EventStore, unresolved: tuple,
                   absent: tuple, also: tuple = ()) -> PartitionKey:
    def key(e: PatternEvent) -> tuple:
        ev = _descend(e, path, store)
        if ev is None:
            return unresolved
        if attr not in ev.payload:
            return absent
        return (ev.payload[attr], *also)
    return key


def make_blocks(node, store: EventStore) -> BlockHook | None:
    if not getattr(node, "neg_preds", ()):
        return None
    spots = _ctx_vars(node)
    neg_spots = _neg_vars(node)
    preds = node.neg_preds

    def hook(ctx: Ctx, blocker: PatternEvent) -> bool:
        def lookup(var: str) -> PatternEvent | None:
            path = neg_spots.get(var)
            if path is not None:
                return _descend(blocker, path, store)
            loc = spots.get(var)
            if loc is None:
                return None
            child_idx, sub = loc
            for idx, e in ctx:
                if idx == child_idx:
                    return _descend(e, sub, store)
            return None
        return all(p.test(lookup) for p in preds)

    return hook


def _clip(lo: Time, hi: Time, s: Time, e: Time) -> tuple[Time, Time] | None:
    if s == e:
        # Removal markers are clamped into the slice, never dropped: losing
        # one would resurrect its lineage's earlier assertion.
        point = min(max(s, lo), hi)
        return (point, point)
    cs, ce = max(s, lo), min(e, hi)
    return (cs, ce) if cs < ce else None


def slice_pattern_events(events: Iterable[PatternEvent],
                         occ: tuple[Time, Time] | None = None,
                         valid: tuple[Time, Time] | None = None) -> frozenset[PatternEvent]:
    out = []
    for e in events:
        o = (e.o_s, e.o_e)
        v = (e.v_s, e.v_e)
        if occ is not None:
            o = _clip(occ[0], occ[1], *o)
            if o is None:
                continue
        if valid is not None:
            v = _clip(valid[0], valid[1], *v)
            if v is None:
                continue
        out.append(PatternEvent(e.id, v[0], v[1], o[0], o[1],
                                rt=min(e.rt, v[0]), cbt=e.cbt, payload=e.payload))
    return frozenset(out)


def slice_table(h: HistoryTable, occ: tuple[Time, Time] | None = None,
                valid: tuple[Time, Time] | None = None) -> HistoryTable:
    """Keep rows whose intervals intersect the slices, clipped to them."""
    out = []
    for r in h:
        o = (r.o_s, r.o_e)
        v = (r.v_s, r.v_e)
        if occ is not None:
            o = _clip(occ[0], occ[1], *o)
            if o is None:
                continue
        if valid is not None:
            v = _clip(valid[0], valid[1], *v)
            if v is None:
                continue
        out.append(TritemporalEvent(r.k, r.id, v[0], v[1], o[0], o[1],
                                    r.c_s, r.c_e, r.payload))
    return HistoryTable(out)


def project_payload(events: Iterable[PatternEvent],
                    attrs: Sequence[str]) -> frozenset[PatternEvent]:
    keep = tuple(attrs)
    out = []
    for e in events:
        payload = Payload([(a, e.payload[a]) for a in keep if a in e.payload])
        out.append(replace(e, payload=payload))
    return frozenset(out)


def evaluate_plan(plan, inputs: Mapping[str, Iterable[PatternEvent]],
                  store: EventStore | None = None) -> frozenset[PatternEvent]:
    """Evaluate a plan tree over named input streams."""
    store = {} if store is None else store
    for events in inputs.values():
        for e in events:
            store[e.id] = e

    def walk(node) -> frozenset[PatternEvent]:
        if isinstance(node, Leaf):
            events = tuple(inputs.get(node.stream, ()))
            hook = make_accept(node, store)
            if hook is not None:
                events = tuple(e for e in events if hook(((0, e),)))
            return frozenset(events)
        if isinstance(node, SliceOp):
            return slice_pattern_events(walk(node.child), node.occ, node.valid)
        if isinstance(node, ProjectOp):
            return project_payload(walk(node.child), node.attrs)

        accept = make_accept(node, store)
        if isinstance(node, _NEGATION):
            blocks = make_blocks(node, store)
            neg = walk(node.blocker)
            if isinstance(node, UnlessOp):
                result = unless(walk(node.child), neg, node.scope,
                                accept=accept, blocks=blocks)
            elif isinstance(node, NotOp):
                result = not_seq(neg, [walk(c) for c in node.children],
                                 node.scope, accept=accept, blocks=blocks)
            else:
                result = cancel_when(walk(node.child), neg,
                                     accept=accept, blocks=blocks)
        else:
            kids = [walk(c) for c in node.children]
            if isinstance(node, SequenceOp):
                result = sequence(kids, node.scope, accept=accept)
            elif isinstance(node, AtLeastOp):
                result = atleast(node.n, kids, node.scope, accept=accept)
            elif isinstance(node, AtMostOp):
                result = atmost(node.n, kids, node.scope, accept=accept)
            elif isinstance(node, AllOp):
                result = all_of(kids, node.scope, accept=accept)
            elif isinstance(node, AnyOp):
                result = any_of(kids, accept=accept)
            else:
                raise TypeError(f"not a plan node: {node!r}")
        for e in result:
            store.setdefault(e.id, e)
        return result

    return walk(plan)


# --- plan serialization ------------------------------------------------------

def _time_obj(t: Time):
    return "inf" if t == INF else t


def _time_from(v) -> Time:
    return INF if v == "inf" else v


def _pred_obj(p: Predicate) -> dict:
    rhs = {"var": p.rhs.var, "attr": p.rhs.attr} if isinstance(p.rhs, AttrRef) else p.rhs
    return {"lhs": {"var": p.lhs.var, "attr": p.lhs.attr}, "op": p.op, "rhs": rhs}


def _pred_from(obj: dict) -> Predicate:
    rhs = obj["rhs"]
    if isinstance(rhs, dict):
        rhs = AttrRef(rhs["var"], rhs["attr"])
    return Predicate(AttrRef(obj["lhs"]["var"], obj["lhs"]["attr"]), obj["op"], rhs)


def plan_to_obj(node) -> dict:
    def preds_of(n) -> dict:
        obj = {}
        if getattr(n, "preds", ()):
            obj["preds"] = [_pred_obj(p) for p in n.preds]
        if getattr(n, "neg_preds", ()):
            obj["neg_preds"] = [_pred_obj(p) for p in n.neg_preds]
        return obj

    if isinstance(node, Leaf):
        obj = {"type": "stream", "stream": node.stream}
        if node.var:
            obj["var"] = node.var
        return obj | preds_of(node)
    if isinstance(node, SequenceOp):
        return {"type": "sequence", "scope": _time_obj(node.scope),
                "children": [plan_to_obj(c) for c in node.children]} | preds_of(node)
    if isinstance(node, AtLeastOp):
        return {"type": "atleast", "n": node.n, "scope": _time_obj(node.scope),
                "children": [plan_to_obj(c) for c in node.children]} | preds_of(node)
    if isinstance(node, AtMostOp):
        return {"type": "atmost", "n": node.n, "scope": _time_obj(node.scope),
                "children": [plan_to_obj(c) for c in node.children]} | preds_of(node)
    if isinstance(node, AllOp):
        return {"type": "all", "scope": _time_obj(node.scope),
                "children": [plan_to_obj(c) for c in node.children]} | preds_of(node)
    if isinstance(node, AnyOp):
        return {"type": "any",
                "children": [plan_to_obj(c) for c in node.children]} | preds_of(node)
    if isinstance(node, UnlessOp):
        return {"type": "unless", "scope": _time_obj(node.scope),
                "child": plan_to_obj(node.child),
                "blocker": plan_to_obj(node.blocker)} | preds_of(node)
    if isinstance(node, NotOp):
        return {"type": "not", "scope": _time_obj(node.scope),
                "blocker": plan_to_obj(node.blocker),
                "children": [plan_to_obj(c) for c in node.children]} | preds_of(node)
    if isinstance(node, CancelWhenOp):
        return {"type": "cancel_when", "child": plan_to_obj(node.child),
                "blocker": plan_to_obj(node.blocker)} | preds_of(node)
    if isinstance(node, SliceOp):
        obj = {"type": "slice", "child": plan_to_obj(node.child)}
        if node.occ:
            obj["occ"] = [_time_obj(node.occ[0]), _time_obj(node.occ[1])]
        if node.valid:
            obj["valid"] = [_time_obj(node.valid[0]), _time_obj(node.valid[1])]
        return obj
    if isinstance(node, ProjectOp):
        return {"type": "project", "attrs": list(node.attrs),
                "child": plan_to_obj(node.child)}
    raise TypeError(f"not a plan node: {node!r}")


def plan_from_obj(obj: dict):
    preds = tuple(_pred_from(p) for p in obj.get("preds", ()))
    neg = tuple(_pred_from(p) for p in obj.get("neg_preds", ()))
    t = obj["type"]
    if t == "stream":
        return Leaf(obj["stream"], obj.get("var"), preds)
    if t == "sequence":
        return SequenceOp(tuple(plan_from_obj(c) for c in obj["children"]),
                          _time_from(obj["scope"]), preds)
    if t == "atleast":
        return AtLeastOp(obj["n"], tuple(plan_from_obj(c) for c in obj["children"]),
                         _time_from(obj["scope"]), preds)
    if t == "atmost":
        return AtMostOp(obj["n"], tuple(plan_from_obj(c) for c in obj["children"]),
                        _time_from(obj["scope"]), preds)
    if t == "all":
        return AllOp(tuple(plan_from_obj(c) for c in obj["children"]),
                     _time_from(obj["scope"]), preds)
    if t == "any":
        return AnyOp(tuple(plan_from_obj(c) for c in obj["children"]), preds)
    if t == "unless":
        return UnlessOp(plan_from_obj(obj["child"]), plan_from_obj(obj["blocker"]),
                        _time_from(obj["scope"]), preds, neg)
    if t == "not":
        return NotOp(plan_from_obj(obj["blocker"]),
                     tuple(plan_from_obj(c) for c in obj["children"]),
                     _time_from(obj["scope"]), preds, neg)
    if t == "cancel_when":
        return CancelWhenOp(plan_from_obj(obj["child"]), plan_from_obj(obj["blocker"]),
                            preds, neg)
    if t == "slice":
        occ = obj.get("occ")
        valid = obj.get("valid")
        return SliceOp(plan_from_obj(obj["child"]),
                       tuple(_time_from(b) for b in occ) if occ else None,
                       tuple(_time_from(b) for b in valid) if valid else None)
    if t == "project":
        return ProjectOp(plan_from_obj(obj["child"]), tuple(obj["attrs"]))
    raise ValueError(f"unknown plan node type {t!r}")


def plan_dumps(node) -> str:
    """Deterministic serialized plan: identical plans give identical bytes."""
    return json.dumps(plan_to_obj(node), sort_keys=True, separators=(",", ":"),
                      allow_nan=False)
