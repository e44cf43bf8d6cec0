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

Each plan-node kind is defined once, by its entry in :data:`NODE_KINDS`:
wire tag, variable-binding rule, pure operator, engine facts and, for a
pattern kind, the query operator that lowers to it.  Plan
traversal, predicate injection, serialization, :func:`evaluate_plan` and
the engine's modules all read that entry, and the query language derives
the kind's AST class from its plan class (:mod:`cedr.query`).
"""

from __future__ import annotations

import json
from bisect import bisect_left, bisect_right
from dataclasses import MISSING, dataclass, replace
from dataclasses import fields as dataclass_fields
from operator import attrgetter, eq, ge, gt, le, lt, ne
from typing import Callable, Iterable, Mapping, Sequence

from .temporal import (
    INF,
    EMPTY_PAYLOAD,
    Payload,
    Scalar,
    TemporalError,
    Time,
    _trusted_constructor,
    check_time,
    concat_payloads,
    fmt_time,
    parse_time,
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


# Unchecked, for events built from fields valid by construction: composites
# and pass-throughs of valid contributors under a checked scope, and the
# engine's decoding of valid rows.
PatternEvent._trusted = _trusted_constructor(PatternEvent)


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


def _by_start(events: Iterable[PatternEvent]) -> tuple[list[PatternEvent], list[Time]]:
    """``events`` sorted by start time, with those starts for bisection."""
    ordered = sorted(events, key=attrgetter("v_s"))
    return ordered, [e.v_s for e in ordered]


def _check_scope(w: Time) -> None:
    """A scope is a positive tick count or INF, so ``v_s + w`` is a time."""
    if w <= 0:
        raise ValueError("scope must be positive")
    if w != INF and not isinstance(w, int):
        raise ValueError(f"scope must be a tick count or INF, got {w!r}")


# Composites and pass-throughs are built unchecked: their contributors are
# valid events and their scope passed _check_scope, so every field is a
# time, v_s < v_e, o_s <= o_e and rt <= v_s.

def _composite(ctx: Ctx, w: Time) -> PatternEvent | None:
    contribs = [e for _, e in ctx]
    first, last = contribs[0], contribs[-1]
    v_e = first.v_s + w
    if last.v_s >= v_e:
        return None  # zero-length validity at the exact scope boundary
    ids = tuple(c.id for c in contribs)
    return PatternEvent._trusted(
        idgen(ids), last.v_s, v_e, last.o_s, last.o_e, min(c.rt for c in contribs),
        ids, concat_payloads(c.payload for c in contribs))


def _pass_through(e: PatternEvent, w: Time) -> PatternEvent:
    return PatternEvent._trusted(e.id, e.v_s, e.v_s + w, e.o_s, e.o_e, e.rt, (e.id,),
                                 e.payload)


def _walk(streams: Streams, n: int, w: Time, accept: AcceptHook | None, *,
          in_order: bool) -> frozenset[PatternEvent]:
    """Composites of ``n`` events from distinct streams, in strict v_s order, within ``w``.

    A selection grows one event at a time and stops growing at the first
    candidate past its scope.  With ``in_order`` its i-th event comes from
    stream i (SEQUENCE); otherwise from any stream it has not used yet
    (ATLEAST).  ``accept`` sees each whole selection as (stream index,
    event) pairs in v_s order.
    """
    pools = [_by_start(s) for s in streams]
    # Without this, ALL over one empty child would walk every partial
    # chain of the others.
    if sum(1 for events, _ in pools if events) < n:
        return frozenset()
    # The streams each position of a selection may take its event from.
    sources = [(d,) for d in range(n)] if in_order else [range(len(pools))] * n
    out = []

    def extend(ctx: Ctx, used: int, end: Time) -> None:
        depth = len(ctx)
        if depth == n:
            if accept is None or accept(ctx):
                comp = _composite(ctx, w)
                if comp is not None:
                    out.append(comp)
            return
        last = ctx[-1][1].v_s
        for i in sources[depth]:
            if used >> i & 1:
                continue
            events, starts = pools[i]
            for j in range(bisect_right(starts, last), len(events)):
                e = events[j]
                if e.v_s > end:
                    break
                extend(ctx + ((i, e),), used | 1 << i, end)

    for i in sources[0]:
        for e in pools[i][0]:
            extend(((i, e),), 1 << i, e.v_s + w)
    return frozenset(out)


def atleast(n: int, streams: Streams, w: Time, *,
            accept: AcceptHook | None = None) -> frozenset[PatternEvent]:
    """Composites from any ``n`` distinct streams, in strict v_s order, within ``w``."""
    k = len(streams)
    if not 1 <= n <= k:
        raise ArityMismatch(f"atleast needs 1 <= n <= {k}, got {n}")
    _check_scope(w)
    return _walk(streams, n, w, accept, in_order=False)


def sequence(streams: Streams, w: Time, *,
             accept: AcceptHook | None = None) -> frozenset[PatternEvent]:
    """Composites with one contributor per stream, in stream order, within ``w``."""
    if len(streams) < 2:
        raise ArityMismatch("sequence needs at least two streams")
    _check_scope(w)
    return _walk(streams, len(streams), w, accept, in_order=True)


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
    _check_scope(w)
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
            out.append(_pass_through(e, w))
    return frozenset(out)


def _blocked(blockers: tuple[list[PatternEvent], list[Time]], lo: Time, hi: Time,
             ctx: Ctx, blocks: BlockHook | None) -> bool:
    """Whether a blocker starting strictly inside ``(lo, hi)`` passes ``blocks``."""
    events, starts = blockers
    i, j = bisect_right(starts, lo), bisect_left(starts, hi)
    return i < j and (blocks is None or any(blocks(ctx, b) for b in events[i:j]))


def unless(e1s: Iterable[PatternEvent], e2s: Iterable[PatternEvent], w: Time, *,
           accept: AcceptHook | None = None,
           blocks: BlockHook | None = None) -> frozenset[PatternEvent]:
    """Events followed by no blocking occurrence within the next ``w`` ticks.

    The negation window is open on both ends: a blocker at exactly the
    anchor's start, or at exactly ``v_s + w``, does not block.
    """
    _check_scope(w)
    blockers = _by_start(e2s)
    out = []
    for e1 in e1s:
        ctx = ((0, e1),)
        if accept is not None and not accept(ctx):
            continue
        if not _blocked(blockers, e1.v_s, e1.v_s + w, ctx, blocks):
            out.append(_pass_through(e1, w))
    return frozenset(out)


def not_seq(es: Iterable[PatternEvent], streams: Streams, w: Time, *,
            accept: AcceptHook | None = None,
            blocks: BlockHook | None = None) -> frozenset[PatternEvent]:
    """Sequence composites with no blocker strictly inside the contributor span."""
    blockers = _by_start(es)

    def unblocked(ctx: Ctx) -> bool:
        return ((accept is None or accept(ctx))
                and not _blocked(blockers, ctx[0][1].v_s, ctx[-1][1].v_s, ctx, blocks))

    return sequence(streams, w, accept=unblocked)


def cancel_when(e1s: Iterable[PatternEvent], e2s: Iterable[PatternEvent], *,
                accept: AcceptHook | None = None,
                blocks: BlockHook | None = None) -> frozenset[PatternEvent]:
    """Events surviving: no canceller occurred between their root time and start."""
    cancellers = _by_start(e2s)
    out = []
    for e1 in e1s:
        ctx = ((0, e1),)
        if accept is not None and not accept(ctx):
            continue
        if not _blocked(cancellers, e1.rt, e1.v_s, ctx, blocks):
            out.append(e1)
    return frozenset(out)


# --- predicates -----------------------------------------------------------

@dataclass(frozen=True)
class AttrRef:
    var: str
    attr: str


_COMPARE = {"=": eq, "!=": ne, "<": lt, "<=": le, ">": gt, ">=": ge}
COMPARE_OPS = tuple(_COMPARE)


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
            return _COMPARE[self.op](left, right)
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


Path = tuple[int, ...]

# How a kind's output events address the variables bound beneath it:
#
# * LEAF: the leaf's own variable, at the empty path;
# * POSITIONAL: each child's variables, under the child's position in the
#   lineage (SEQUENCE, UNLESS's child, NOT's children);
# * TRANSPARENT: the child's variables unchanged, because the outputs are
#   child events (CANCEL-WHEN, slice, project);
# * OPAQUE: none.  Selection operators (ATLEAST, ATMOST, ALL, ANY) order
#   their lineage by start time rather than by operand position, so
#   variables bound beneath them are only usable by predicates attached to
#   the operator itself, never from enclosing operators.
LEAF, POSITIONAL, TRANSPARENT, OPAQUE = "leaf", "positional", "transparent", "opaque"


def node_kind(node) -> "NodeKind":
    """The table entry of a plan node; TypeError for anything else."""
    try:
        return _KIND_OF[type(node)]
    except KeyError:
        raise TypeError(f"not a plan node: {node!r}") from None


def bound_vars(node) -> dict[str, Path]:
    """Variables addressable from this node's output events, as cbt paths."""
    kind = node_kind(node)
    binding = kind.binding
    if binding == LEAF:
        return {node.var: ()} if node.var else {}
    if binding == POSITIONAL:
        out: dict[str, Path] = {}
        for i, child in enumerate(kind.children_of(node)):
            for var, path in bound_vars(child).items():
                out[var] = (i, *path)
        return out
    if binding == TRANSPARENT:
        return bound_vars(node.child)
    return {}


def _ctx_vars(node) -> dict[str, tuple[int, Path]]:
    """Variables usable by predicates attached at this node."""
    kind = node_kind(node)
    if kind.binding == LEAF:
        # A leaf's predicates test the leaf's own event, as contributor 0.
        return {node.var: (0, ())} if node.var else {}
    out: dict[str, tuple[int, Path]] = {}
    for i, child in enumerate(kind.children_of(node)):
        for var, path in bound_vars(child).items():
            out[var] = (i, path)
    return out


def _neg_vars(node) -> dict[str, Path]:
    return bound_vars(node.blocker) if node_kind(node).negated else {}


def all_vars(node) -> frozenset[str]:
    """Every variable bound anywhere in the plan, blockers included."""
    kind = node_kind(node)
    names = {node.var} if kind.binding == LEAF and node.var else set()
    for port in kind.ports_of(node):
        names |= all_vars(port)
    return frozenset(names)


def _inject_one(node, pred: Predicate):
    """Attach at the lowest node binding every variable; None if impossible."""
    kind = node_kind(node)
    # The blocker is tried first: a predicate it alone binds restricts it.
    if kind.negated:
        new = _inject_one(node.blocker, pred)
        if new is not None:
            return replace(node, blocker=new)
    kids = kind.children_of(node)
    for i, child in enumerate(kids):
        new = _inject_one(child, pred)
        if new is not None:
            if kind.many:
                return replace(node, children=kids[:i] + (new,) + kids[i + 1:])
            return replace(node, child=new)
    wanted = pred.vars()
    pos = set(_ctx_vars(node))
    if wanted <= pos:
        return replace(node, preds=node.preds + (pred,))
    if kind.negated:
        neg = set(_neg_vars(node))
        if wanted <= pos | neg and wanted & neg:
            return replace(node, neg_preds=node.neg_preds + (pred,))
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
    preds = getattr(node, "preds", ())
    return _hook(node, store, preds, {}) if preds else None


def make_blocks(node, store: EventStore) -> BlockHook | None:
    preds = getattr(node, "neg_preds", ())
    return _hook(node, store, preds, _neg_vars(node)) if preds else None


def _hook(node, store: EventStore, preds: tuple, neg_spots: dict[str, Path]):
    """Test ``preds`` on the chosen contributors and, if given, a blocker.

    A variable the blocker binds resolves to the blocker, also when a child
    binds the same name.
    """
    spots = _ctx_vars(node)

    def hook(ctx: Ctx, blocker: PatternEvent | None = None) -> bool:
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
    """Per-port hash-partition keys for a leaf, a SEQUENCE or an UNLESS, or None.

    A leaf files each event under its own id; a pipeline runs a leaf as an
    operator only at its root, and below the root the leaf is a port of its
    parent.  A SEQUENCE is keyed on its first ``=`` predicate between
    variables of two different children, an UNLESS on its first ``=``
    negation predicate between a variable of the child and one of the
    blocker.  The keys follow
    :meth:`Predicate.test`: an unresolved variable makes the predicate
    vacuously true, and a missing attribute makes it false unless the
    left-hand variable is unresolved.  So every SEQUENCE match shares a
    bucket, and every UNLESS child sits in exactly one bucket with each
    blocker that can block it.  Every output has an event of the first
    port, so a bucket without one yields nothing.  The partition is
    complete, not exact: the hooks still test every candidate.
    """
    rule = node_kind(node).partition
    return None if rule is None else rule(node, store)


def _leaf_partition(node, store: EventStore):
    # Each event is its own bucket, so a change re-reads only its event.
    # Two lineages of one id share the bucket, where the engine keeps the
    # longer-lived of their outputs.
    return (_own_id,)


def _own_id(e: PatternEvent) -> tuple:
    return (e.id,)


def _sequence_partition(node, store: EventStore):
    spots = _ctx_vars(node)
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
    return None


def _unless_partition(node, store: EventStore):
    spots = _ctx_vars(node)
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


def _clip(lo: Time, hi: Time, s: Time, e: Time) -> tuple[Time, Time] | None:
    if s == e:
        # An event with an empty interval is kept, clamped to a point of the
        # slice.
        point = min(max(s, lo), hi)
        return (point, point)
    cs, ce = max(s, lo), min(e, hi)
    return (cs, ce) if cs < ce else None


def slice_pattern_events(events: Iterable[PatternEvent],
                         occ: tuple[Time, Time] | None = None,
                         valid: tuple[Time, Time] | None = None) -> frozenset[PatternEvent]:
    """Keep events whose intervals intersect the slices, clipped to them.

    With its bounds checked, a slice clips a valid event to a valid one, so
    each is built unchecked.
    """
    for bound in (*(occ or ()), *(valid or ())):
        check_time(bound, "slice bound")
    out = []
    for e in events:
        o, v = (e.o_s, e.o_e), (e.v_s, e.v_e)
        if occ is not None and (o := _clip(occ[0], occ[1], *o)) is None:
            continue
        if valid is not None and (v := _clip(valid[0], valid[1], *v)) is None:
            continue
        out.append(PatternEvent._trusted(e.id, v[0], v[1], o[0], o[1], min(e.rt, v[0]),
                                         e.cbt, e.payload))
    return frozenset(out)


def project_payload(events: Iterable[PatternEvent],
                    attrs: Sequence[str]) -> frozenset[PatternEvent]:
    keep = tuple(attrs)
    out = []
    for e in events:
        payload = Payload([(a, e.payload[a]) for a in keep if a in e.payload])
        out.append(PatternEvent._trusted(e.id, e.v_s, e.v_e, e.o_s, e.o_e, e.rt, e.cbt,
                                         payload))
    return frozenset(out)


def node_params(node) -> dict:
    """The operator parameters a node's fields give, named as ``build_module``'s."""
    params = {}
    for param, get in node_kind(node).params:
        params[param] = get(node)
    return params


def evaluate_plan(plan, inputs: Mapping[str, Iterable[PatternEvent]]) -> frozenset[PatternEvent]:
    """Evaluate a plan tree over named input streams."""
    store: EventStore = {e.id: e for events in inputs.values() for e in events}

    def walk(node) -> frozenset[PatternEvent]:
        kind = node_kind(node)
        if kind.binding == LEAF:
            ports = (tuple(inputs.get(node.stream, ())),)
        else:
            ports = tuple(walk(child) for child in kind.ports_of(node))
        result = kind.run(node_params(node), ports, make_accept(node, store),
                          make_blocks(node, store))
        for e in result:
            store.setdefault(e.id, e)
        return result

    return walk(plan)


# --- plan serialization ------------------------------------------------------

def _pred_obj(p: Predicate) -> dict:
    rhs = {"var": p.rhs.var, "attr": p.rhs.attr} if isinstance(p.rhs, AttrRef) else p.rhs
    return {"lhs": {"var": p.lhs.var, "attr": p.lhs.attr}, "op": p.op, "rhs": rhs}


def _pred_from(obj: dict) -> Predicate:
    rhs = obj["rhs"]
    if isinstance(rhs, dict):
        rhs = AttrRef(rhs["var"], rhs["attr"])
    return Predicate(AttrRef(obj["lhs"]["var"], obj["lhs"]["attr"]), obj["op"], rhs)


def plan_to_obj(node) -> dict:
    kind = node_kind(node)
    obj = {"type": kind.tag}
    for name, dump, _ in kind.fields:
        value = dump(getattr(node, name))
        if value is not None:
            obj[name] = value
    return obj


def plan_from_obj(obj: dict):
    kind = NODE_KINDS_BY_TAG.get(obj["type"])
    if kind is None:
        raise ValueError(f"unknown plan node type {obj['type']!r}")
    return kind.cls(**{name: load(obj[name])
                       for name, _, load in kind.fields if name in obj})


def plan_dumps(node) -> str:
    """Deterministic serialized plan: identical plans give identical bytes."""
    return json.dumps(plan_to_obj(node), sort_keys=True, separators=(",", ":"),
                      allow_nan=False)


# --- delta rules ------------------------------------------------------------
#
# A delta rule says which of a bucket's outputs a change can reach: it takes
# the kind's parameters, the bucket's ports and the (port, event) pairs that
# changed in it, and returns the contributor ids whose outputs go and the
# port tuples on which the kind's pure operator runs again (see
# ``engine.OpModule``).  Every output of those runs holds one of the ids.

def _sequence_delta(params: dict, ports: tuple, changes: list) -> tuple:
    """A composite holding a changed id, found with that id pinned at each position.

    Each run cuts one port down to its events with a changed id, all their
    lineages, so a composite is found from whichever position holds one.
    """
    gone = {e.id for _, e in changes}
    reruns = []
    for i, events in enumerate(ports):
        mine = tuple(e for e in events if e.id in gone)
        if mine:
            reruns.append(ports[:i] + (mine,) + ports[i + 1:])
    return gone, reruns


def _unless_delta(params: dict, ports: tuple, changes: list) -> tuple:
    """The bodies whose id changed, or whose window holds a changed blocker's start."""
    bodies, blockers = ports
    w = params["w"]
    gone = {e.id for port, e in changes if port == 0}
    starts = sorted(e.v_s for port, e in changes if port == 1)
    if starts:
        for e in bodies:
            i = bisect_right(starts, e.v_s)
            if i < len(starts) and starts[i] < e.v_s + w:
                gone.add(e.id)
    again = tuple(e for e in bodies if e.id in gone)
    return gone, [(again, blockers)] if again else []


# --- the plan-node table -------------------------------------------------------
#
# A field's role comes from its name and fixes which operator parameter it
# gives and how it serializes: (parameter, value -> parameter with None for
# the value itself, value -> JSON with None for omitted, JSON -> value).
# Any other field is raw: it gives the parameter of its own name and
# serializes as itself.

# Times are checked on the way out too: fmt_time would write 2.5 as 2.

def _span_obj(span):
    return None if span is None else [fmt_time(check_time(b, "span bound")) for b in span]


def _span_from(v):
    return tuple(parse_time(b, "span bound") for b in v) if v else None


def _preds_obj(preds):
    return [_pred_obj(p) for p in preds] if preds else None


_NODE_ROLE = (None, None, plan_to_obj, plan_from_obj)
_PREDS_ROLE = (None, None, _preds_obj, lambda v: tuple(_pred_from(p) for p in v))
_ROLES = {
    "children": ("k", len, lambda v: [plan_to_obj(c) for c in v],
                 lambda v: tuple(plan_from_obj(c) for c in v)),
    "child": _NODE_ROLE,
    "blocker": _NODE_ROLE,
    "scope": ("w", None, lambda t: fmt_time(check_time(t, "scope")),
              lambda v: parse_time(v, "scope")),
    "occ": ("occ", None, _span_obj, _span_from),
    "valid": ("valid", None, _span_obj, _span_from),
    "preds": _PREDS_ROLE,
    "neg_preds": _PREDS_ROLE,
}


def _raw_role(name: str) -> tuple:
    return (name, None, lambda v: list(v) if isinstance(v, tuple) else v,
            lambda v: tuple(v) if isinstance(v, list) else v)


# (parameters, ports, accept hook, block hook) -> output events
Operator = Callable[[dict, tuple, "AcceptHook | None", "BlockHook | None"], frozenset]


class NodeKind:
    """The facts that differ between plan-node kinds.

    ``tag`` is the kind's wire ``type`` and, for a kind with an engine
    module, its :func:`engine.build_module` kind.  ``run`` is the kind's
    pure operator on its parameters (``w``, ``k``, ``n`` and the raw
    fields, as :func:`node_params` gives them), its ports and its hooks;
    :func:`evaluate_plan` and the engine both call it.  The engine facts
    are functions of the same parameters: ``lag`` is how far an output
    anchor can trail the inputs that settle it, and ``retire`` the scope
    after which a retained input row can be forgotten, except on the
    blocker port when ``keep_blocker`` is set.  A kind without ``lag`` has
    no engine module of its own: it is a wrapper, which a pipeline allows
    only at its root and runs inside the root operator's module, on that
    operator's output.  ``partition`` gives :func:`make_partition`'s keys,
    and ``delta`` the kind's delta rule on its parameters, a bucket's ports
    and the changes in it; a kind without one runs its whole bucket again.

    The rest is derived from the field roles of ``cls``.  ``children_of``
    gives a node's operands without the blocker, and ``ports_of`` all of
    them in engine port order: children, then child, then blocker.
    ``required`` names the parameters a module cannot be built without.

    A kind that a query operator lowers to names it in ``query_op``, with
    the message for a wrong argument count (``usage``), the fewest
    arguments a variadic form accepts (``least``, 0 for a fixed form) and
    whether the count ``n`` must lie in ``1..k`` (``count_in_range``).
    """

    def __init__(self, cls: type, tag: str, binding: str, run: Operator, *,
                 lag: Callable[[dict], Time] | None = None,
                 retire: Callable[[dict], Time] | None = None,
                 keep_blocker: bool = False, partition: Callable | None = None,
                 delta: Callable | None = None,
                 query_op: str | None = None, usage: str = "", least: int = 0,
                 count_in_range: bool = False):
        self.cls, self.tag, self.binding, self.run = cls, tag, binding, run
        self.query_op, self.usage = query_op, usage
        self.least, self.count_in_range = least, count_in_range
        self.lag, self.retire, self.keep_blocker = lag, retire, keep_blocker
        self.partition, self.delta = partition, delta
        self.wrapper = lag is None
        names = [f.name for f in dataclass_fields(cls)]
        roles = [(name, _ROLES.get(name) or _raw_role(name)) for name in names]
        self.fields = tuple((name, dump, load) for name, (_, _, dump, load) in roles)
        self.params = tuple((param, _getter(name, measure))
                            for name, (param, measure, _, _) in roles if param)
        # A parameter field without a default (the scope, the children, a
        # raw field) is one the operator cannot run without; a leaf's raw
        # fields name its input instead.
        self.required = () if binding == LEAF else tuple(
            param for f, (_, (param, _, _, _)) in zip(dataclass_fields(cls), roles)
            if param and f.default is MISSING)
        self.many, self.single = "children" in names, "child" in names
        self.negated = "blocker" in names
        if self.many:
            self.children_of = attrgetter("children")
        elif self.single:
            self.children_of = lambda node: (node.child,)
        else:
            self.children_of = lambda node: ()
        children_of = self.children_of
        self.ports_of = ((lambda node: children_of(node) + (node.blocker,))
                         if self.negated else children_of)

    def __repr__(self) -> str:
        return f"NodeKind({self.cls.__name__}, {self.tag!r})"

    def arity(self, params: dict) -> int:
        """The engine module's port count; a leaf's one port is its stream."""
        ports = (params["k"] if self.many else self.single) + self.negated
        return ports or 1


def _getter(name: str, measure: Callable | None) -> Callable:
    get = attrgetter(name)
    return get if measure is None else lambda node: measure(get(node))


def _scope(params: dict) -> Time:
    return params["w"]


def _fixed(t: Time) -> Callable[[dict], Time]:
    return lambda params: t


NODE_KINDS = (
    NodeKind(Leaf, "stream", LEAF,
             lambda p, ports, accept, blocks: frozenset(
                 e for e in ports[0] if accept is None or accept(((0, e),))),
             lag=_fixed(0), retire=_fixed(0), partition=_leaf_partition),
    NodeKind(SequenceOp, "sequence", POSITIONAL,
             lambda p, ports, accept, blocks: sequence(ports, p["w"], accept=accept),
             lag=_scope, retire=_scope, partition=_sequence_partition,
             delta=_sequence_delta, query_op="SEQUENCE",
             usage="SEQUENCE needs at least two operands and a scope", least=3),
    NodeKind(AtLeastOp, "atleast", OPAQUE,
             lambda p, ports, accept, blocks: atleast(p["n"], ports, p["w"], accept=accept),
             lag=_scope, retire=_scope, query_op="ATLEAST", least=3, count_in_range=True,
             usage="ATLEAST needs a count, operands, and a scope"),
    NodeKind(AtMostOp, "atmost", OPAQUE,
             lambda p, ports, accept, blocks: atmost(p["n"], ports, p["w"], accept=accept),
             lag=_scope, retire=_scope, query_op="ATMOST", least=3,
             usage="ATMOST needs a count, operands, and a scope"),
    NodeKind(AllOp, "all", OPAQUE,
             lambda p, ports, accept, blocks: all_of(ports, p["w"], accept=accept),
             lag=_scope, retire=_scope, query_op="ALL", least=2,
             usage="ALL needs operands and a scope"),
    # ANY is ATLEAST(1, ..., 1): its scope is one tick.
    NodeKind(AnyOp, "any", OPAQUE,
             lambda p, ports, accept, blocks: any_of(ports, accept=accept),
             lag=_fixed(1), retire=_fixed(1), query_op="ANY", least=1,
             usage="ANY needs at least one operand"),
    NodeKind(UnlessOp, "unless", POSITIONAL,
             lambda p, ports, accept, blocks: unless(ports[0], ports[1], p["w"],
                                                     accept=accept, blocks=blocks),
             lag=_scope, retire=_scope, partition=_unless_partition,
             delta=_unless_delta, query_op="UNLESS",
             usage="UNLESS takes (body, blocker, scope) or (body, blocker, n, scope)"),
    NodeKind(NotOp, "not", POSITIONAL,
             lambda p, ports, accept, blocks: not_seq(ports[-1], ports[:-1], p["w"],
                                                      accept=accept, blocks=blocks),
             lag=_scope, retire=_scope, query_op="NOT",
             usage="NOT takes (event, SEQUENCE(...))"),
    # Cancellation looks back to each event's root time, which is not
    # bounded by any scope: cancellers must never be forgotten.
    NodeKind(CancelWhenOp, "cancel_when", TRANSPARENT,
             lambda p, ports, accept, blocks: cancel_when(ports[0], ports[1],
                                                          accept=accept, blocks=blocks),
             lag=_fixed(0), retire=_fixed(1), keep_blocker=True, query_op="CANCEL-WHEN",
             usage="CANCEL-WHEN takes (body, canceller)"),
    NodeKind(SliceOp, "slice", TRANSPARENT,
             lambda p, ports, accept, blocks: slice_pattern_events(ports[0], p["occ"],
                                                                   p["valid"])),
    NodeKind(ProjectOp, "project", TRANSPARENT,
             lambda p, ports, accept, blocks: project_payload(ports[0], p["attrs"])),
)
_KIND_OF = {kind.cls: kind for kind in NODE_KINDS}
NODE_KINDS_BY_TAG = {kind.tag: kind for kind in NODE_KINDS}
