"""Run-time operator algebra over unitemporal ideal history tables.

Relational operators here follow view update semantics: each input stream
is read as a changing relation whose snapshot at instant ``t`` contains the
payloads of all events whose valid interval covers ``t``.  Projection,
selection, join, union, difference and grouped aggregation are insensitive
to how a payload's lifetime is packaged into events.  Lifetime alteration
(and the windows, insert- and delete-extraction built on it) deliberately
is not: it reads the packaging itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .temporal import (
    INF,
    Payload,
    Scalar,
    TemporalError,
    Time,
    UnitemporalEvent,
    _scalar_key,
    concat_payloads,
    maximal_spans,
)

PayloadFn = Callable[[Payload], Payload]
PredicateFn = Callable[[Payload], bool]
ThetaFn = Callable[[Payload, Payload], bool]

AGGREGATES = ("max", "min", "avg", "sum", "count")


class TypeMismatch(TemporalError):
    """An aggregate met a non-numeric value where a number is required."""


@dataclass(frozen=True)
class LifetimeFunctions:
    """The two mappings driving lifetime alteration.

    ``f_vs`` produces the new start of each event; ``f_delta`` its new
    duration.  Events mapped to a zero duration (or to an infinite start)
    vanish: a half-open ``[t, t)`` denotes nothing.  Both functions see the
    whole event but must not be given a way to mutate it; timestamps of the
    input are never altered in place.
    """

    f_vs: Callable[[UnitemporalEvent], Time]
    f_delta: Callable[[UnitemporalEvent], Time]


Events = Iterable[UnitemporalEvent]


def project(s: Events, f: PayloadFn) -> frozenset[UnitemporalEvent]:
    """Map each payload through ``f``; intervals pass through unchanged."""
    trusted = UnitemporalEvent._trusted
    return frozenset(trusted(e.v_s, e.v_e, f(e.payload), e.id) for e in s)


def select(s: Events, f: PredicateFn) -> frozenset[UnitemporalEvent]:
    """Keep the events whose payload satisfies ``f``."""
    return frozenset(e for e in s if f(e.payload))


def join(s1: Events, s2: Events, theta: ThetaFn) -> frozenset[UnitemporalEvent]:
    """Pair events with overlapping lifetimes and a passing theta.

    The output interval is the intersection; pairs whose intersection is
    empty produce nothing.  Payloads concatenate left-then-right with
    collisions suffixed.
    """
    left = sorted(s1, key=lambda e: e.sort_key)
    right = sorted(s2, key=lambda e: e.sort_key)
    trusted = UnitemporalEvent._trusted
    out = []
    for e1 in left:
        for e2 in right:
            v_s = max(e1.v_s, e2.v_s)
            v_e = min(e1.v_e, e2.v_e)
            if v_s < v_e and theta(e1.payload, e2.payload):
                out.append(trusted(
                    v_s, v_e, concat_payloads((e1.payload, e2.payload)), ""))
    return frozenset(out)


def _subtract(base: list[list], holes: list[list]) -> list[tuple[Time, Time]]:
    out = []
    for s, e, _ in base:
        cur = s
        for hs, he, _ in holes:
            if he <= cur or hs >= e:
                continue
            if hs > cur:
                out.append((cur, hs))
            cur = max(cur, he)
            if cur >= e:
                break
        if cur < e:
            out.append((cur, e))
    return out


def union(s1: Events, s2: Events) -> frozenset[UnitemporalEvent]:
    """Snapshot union: a payload is present whenever either input holds it."""
    trusted = UnitemporalEvent._trusted
    return frozenset(trusted(s, e, payload, "")
                     for payload, runs in maximal_spans([*s1, *s2]).items()
                     for s, e, _ in runs)


def difference(s1: Events, s2: Events) -> frozenset[UnitemporalEvent]:
    """Snapshot difference: present in the first input and not the second."""
    right = maximal_spans(s2)
    trusted = UnitemporalEvent._trusted
    return frozenset(trusted(s, e, payload, "")
                     for payload, runs in maximal_spans(s1).items()
                     for s, e in _subtract(runs, right.get(payload, [])))


def _require_number(value: Scalar) -> int | float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeMismatch(f"aggregate target must be numeric, got {value!r}")
    return value


_FOLDS: dict[str, Callable[[list], Scalar]] = {
    "sum": sum,
    "avg": lambda values: sum(values) / len(values),
    "max": max,
    "min": min,
}


def group_of(payload: Payload, key: Sequence[str]) -> tuple | None:
    """The group of ``payload`` under the key attributes ``key``.

    Groups compare values as Payload does, so ``True``, ``1`` and ``1.0``
    are distinct groups.  None when the payload misses a key attribute: such
    an event joins no group.
    """
    try:
        return tuple([_scalar_key(payload[a]) for a in key])
    except KeyError:
        return None


def groupby_aggregate(s: Events, key: Sequence[str] = (), agg: str = "count",
                      target: str | None = None,
                      out: str | None = None) -> frozenset[UnitemporalEvent]:
    """Snapshot aggregation per group of key-attribute values.

    At every instant the aggregate is computed over the events alive then;
    output rows are maximal intervals of constant (group, value).  Events
    missing a key attribute never join a group, and empty groups emit
    nothing.  ``target`` names the aggregated attribute (unused for count);
    ``out`` names the result attribute and defaults to ``target`` or the
    aggregate name.

    Each group is one sweep over its own change points; a row stays open
    while the value is unchanged.  A value is folded from the alive members
    in input order: ``max([1, 1.0])`` and a float sum depend on the order.
    """
    agg = agg.lower()
    if agg not in AGGREGATES:
        raise ValueError(f"unknown aggregate {agg!r}")
    if agg != "count" and target is None:
        raise ValueError(f"aggregate {agg!r} requires a target attribute")
    out_name = out or target or agg
    fold = _FOLDS.get(agg)

    # An event without the target never changes a sum, avg, max or min.
    groups: dict[tuple, list[UnitemporalEvent]] = {}
    for e in s:
        p = e.payload
        if fold is not None and target not in p:
            continue
        group = group_of(p, key)
        if group is not None:
            if fold is not None:
                _require_number(p[target])
            groups.setdefault(group, []).append(e)

    trusted = UnitemporalEvent._trusted
    rows = []
    for members in groups.values():
        label = [(a, members[0].payload[a]) for a in key]
        # Member i is filed under its start and its end: at either point it
        # toggles in or out of the alive set (v_s < v_e, so never both).
        changes: dict[Time, list[int]] = {}
        for i, e in enumerate(members):
            changes.setdefault(e.v_s, []).append(i)
            changes.setdefault(e.v_e, []).append(i)
        alive: set[int] = set()
        payloads: dict[tuple, Payload] = {}
        run_start, run_payload = None, None
        for t in sorted(changes):
            alive.symmetric_difference_update(changes[t])
            payload = None
            if alive:
                value = len(alive) if fold is None else fold(
                    [members[i].payload[target] for i in sorted(alive)])
                vkey = _scalar_key(value)
                payload = payloads.get(vkey)
                if payload is None:
                    payload = payloads[vkey] = Payload(label + [(out_name, value)])
            if payload is not run_payload:
                if run_payload is not None:
                    rows.append(trusted(run_start, t, run_payload, ""))
                run_start, run_payload = t, payload
    return frozenset(rows)


def alter_lifetime(s: Events, fns: LifetimeFunctions) -> frozenset[UnitemporalEvent]:
    """Remap each event to ``[f_vs(e), f_vs(e) + f_delta(e))``.

    Payloads are untouched.  Events whose new duration is zero, or whose
    new start is infinite, are dropped.
    """
    out = []
    for e in s:
        start = fns.f_vs(e)
        delta = fns.f_delta(e)
        if start == INF or delta == 0:
            continue
        out.append(UnitemporalEvent(start, start + delta, e.payload, id=e.id))
    return frozenset(out)


def window(s: Events, wl: Time) -> frozenset[UnitemporalEvent]:
    """Clip each lifetime to at most ``wl`` ticks from its start."""
    if wl <= 0:
        raise ValueError("window length must be positive")
    return alter_lifetime(s, LifetimeFunctions(
        lambda e: e.v_s, lambda e: min(e.v_e - e.v_s, wl)))


def hopping_window(s: Events, p: Time) -> frozenset[UnitemporalEvent]:
    """Snap each event to the hop of length ``p`` containing its start."""
    if p == INF or p <= 0:
        raise ValueError("hop period must be positive and finite")
    return alter_lifetime(s, LifetimeFunctions(
        lambda e: (e.v_s // p) * p, lambda e: p))


def inserts(s: Events) -> frozenset[UnitemporalEvent]:
    """The insertion stream: every event restarted at its start, forever."""
    return alter_lifetime(s, LifetimeFunctions(lambda e: e.v_s, lambda e: INF))


def deletes(s: Events) -> frozenset[UnitemporalEvent]:
    """The deletion stream: every finite event restarted at its end, forever.

    Events that never end produce nothing; no deletion ever occurs.
    """
    return alter_lifetime(s, LifetimeFunctions(lambda e: e.v_e, lambda e: INF))
