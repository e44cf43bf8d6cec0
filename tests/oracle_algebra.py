"""Naive oracles for the coalescing operators.

Direct transcriptions of the definitions, kept apart from the
implementation under test: grouped aggregation cuts every event at every
endpoint, aggregates each segment over the events alive in it, and glues
the per-segment rows back together by merging meeting same-payload rows
until nothing changes.
"""

from cedr.algebra import TypeMismatch
from cedr.temporal import INF, Payload, UnitemporalEvent, _scalar_key


def oracle_coalesce(events):
    """Merge same-payload events whose intervals meet, to a fixpoint.

    Only meeting intervals merge; on disjoint same-payload input (the
    stream contract) this is the maximal form.
    """
    by_payload = {}
    for e in events:
        by_payload.setdefault(e.payload, {}).setdefault((e.v_s, e.v_e), e.id)
    out = []
    for payload, group in by_payload.items():
        changed = True
        while changed:
            changed = False
            for iv in sorted(group):
                partners = sorted(p for p in group if p[0] == iv[1])
                if partners:
                    left_id = group.pop(iv)
                    group.pop(partners[0])
                    group.setdefault((iv[0], partners[0][1]), left_id)
                    changed = True
                    break
        out.extend(UnitemporalEvent(s, e, payload, id=eid) for (s, e), eid in group.items())
    return frozenset(out)


def _number(value):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeMismatch(f"aggregate target must be numeric, got {value!r}")
    return value


def oracle_groupby(s, key=(), agg="count", target=None, out=None):
    """Segment at every endpoint, aggregate per segment and group, coalesce."""
    out_name = out or target or agg
    events = [e for e in s if all(a in e.payload for a in key)]
    if not events:
        return frozenset()
    points = sorted({p for e in events for p in (e.v_s, e.v_e) if p != INF})
    segments = list(zip(points, points[1:]))
    if any(e.v_e == INF for e in events):
        segments.append((points[-1], INF))
    rows = []
    for seg_s, seg_e in segments:
        groups = {}
        for e in events:
            if e.v_s <= seg_s and e.v_e >= seg_e:
                gk = tuple(_scalar_key(e.payload[a]) for a in key)
                groups.setdefault(gk, []).append(e)
        for members in groups.values():
            label = tuple(members[0].payload[a] for a in key)
            if agg == "count":
                value = len(members)
            else:
                values = [_number(m.payload[target]) for m in members if target in m.payload]
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
            payload = Payload(list(zip(key, label)) + [(out_name, value)])
            rows.append(UnitemporalEvent(seg_s, seg_e, payload))
    return oracle_coalesce(rows)
