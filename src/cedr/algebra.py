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
    coalesce_star,
    concat_payloads,
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
    return frozenset(
        UnitemporalEvent(e.v_s, e.v_e, f(e.payload), id=e.id) for e in s)


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
    out = []
    for e1 in left:
        for e2 in right:
            v_s = max(e1.v_s, e2.v_s)
            v_e = min(e1.v_e, e2.v_e)
            if v_s < v_e and theta(e1.payload, e2.payload):
                out.append(UnitemporalEvent(
                    v_s, v_e, concat_payloads((e1.payload, e2.payload))))
    return frozenset(out)


def _spans_by_payload(s: Events) -> dict[Payload, list[tuple[Time, Time]]]:
    spans: dict[Payload, list[tuple[Time, Time]]] = {}
    for e in s:
        spans.setdefault(e.payload, []).append((e.v_s, e.v_e))
    for ivs in spans.values():
        ivs.sort()
    return spans


def _merge(ivs: list[tuple[Time, Time]]) -> list[tuple[Time, Time]]:
    # Merge overlapping or meeting intervals of one payload.
    merged: list[tuple[Time, Time]] = []
    for s, e in ivs:
        if merged and s <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], e))
        else:
            merged.append((s, e))
    return merged


def _subtract(base: list[tuple[Time, Time]],
              holes: list[tuple[Time, Time]]) -> list[tuple[Time, Time]]:
    out = []
    for s, e in base:
        cur = s
        for hs, he in holes:
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
    spans = _spans_by_payload(list(s1) + list(s2))
    return frozenset(
        UnitemporalEvent(s, e, payload)
        for payload, ivs in spans.items()
        for s, e in _merge(ivs))


def difference(s1: Events, s2: Events) -> frozenset[UnitemporalEvent]:
    """Snapshot difference: present in the first input and not the second."""
    left = _spans_by_payload(s1)
    right = _spans_by_payload(s2)
    out = []
    for payload, ivs in left.items():
        holes = _merge(right.get(payload, []))
        for s, e in _subtract(_merge(ivs), holes):
            out.append(UnitemporalEvent(s, e, payload))
    return frozenset(out)


def _require_number(value: Scalar) -> int | float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeMismatch(f"aggregate target must be numeric, got {value!r}")
    return value


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
    """
    agg = agg.lower()
    if agg not in AGGREGATES:
        raise ValueError(f"unknown aggregate {agg!r}")
    if agg != "count" and target is None:
        raise ValueError(f"aggregate {agg!r} requires a target attribute")
    out_name = out or target or agg

    events = [e for e in s if all(a in e.payload for a in key)]
    if not events:
        return frozenset()
    points = sorted({p for e in events for p in (e.v_s, e.v_e) if p != INF})
    segments = list(zip(points, points[1:]))
    if any(e.v_e == INF for e in events):
        segments.append((points[-1], INF))

    # Groups compare values as Payload does: True, 1 and 1.0 are distinct.
    group_of = {id(e): tuple(_scalar_key(e.payload[a]) for a in key) for e in events}
    rows = []
    for seg_s, seg_e in segments:
        alive = [e for e in events if e.v_s <= seg_s and e.v_e >= seg_e]
        groups: dict[tuple, list[UnitemporalEvent]] = {}
        for e in alive:
            groups.setdefault(group_of[id(e)], []).append(e)
        for members in groups.values():
            gkey = tuple(members[0].payload[a] for a in key)
            if agg == "count":
                value: Scalar = len(members)
            else:
                values = [_require_number(m.payload[target]) for m in members
                          if target in m.payload]
                if not values:
                    continue
                if agg == "sum":
                    value = sum(values)
                elif agg == "avg":
                    value = sum(values) / len(values)
                elif agg == "max":
                    value = max(values)
                else:
                    value = min(values)
            payload = Payload(list(zip(key, gkey)) + [(out_name, value)])
            rows.append(UnitemporalEvent(seg_s, seg_e, payload))
    return frozenset(coalesce_star(rows))


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
