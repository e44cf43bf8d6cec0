"""Drivers and generators for exercising operator instances end to end."""

import random

from cedr.disorder import (
    bounded_shuffle,
    encode_with_retractions,
    reencode,
    restamp_arrivals,
    rows_from_pattern,
    rows_from_unitemporal,
)
from cedr.engine import NotASyncPoint, OperatorInstance, build_module, sync_points_of
from cedr.patterns import PatternEvent
from cedr.temporal import (
    INF,
    HistoryTable,
    Payload,
    SyncPointPair,
    UnitemporalEvent,
    annotate_sync,
    canonical_at,
    canonical_to,
    projected,
)

MACHINES = ("m1", "m2")


def content_set(rows):
    """Canonical content to infinity with lineage and arrival projected."""
    return projected(canonical_to(HistoryTable(rows), INF), include_lineage=False)


def gen_unitemporal(rng: random.Random, max_events: int, horizon: int = 64):
    events = []
    cursors = {}
    for i in range(rng.randint(1, max_events)):
        payload = Payload({"g": rng.randint(0, 1), "x": rng.randint(0, 9)})
        start = cursors.get(payload, 0) + rng.randint(0, 5)
        width = rng.randint(1, 9)
        if start + width > horizon:
            continue
        end = INF if rng.random() < 0.15 else start + width
        events.append(UnitemporalEvent(start, end, payload, id=f"e{i}"))
        cursors[payload] = horizon if end == INF else end + 1
    return events


def machine_payload(rng: random.Random) -> Payload:
    return Payload({"Machine_Id": rng.choice(MACHINES)})


def gen_pattern(rng: random.Random, prefix: str, max_events: int, horizon: int = 64,
                payload_of=machine_payload):
    events = []
    for i in range(rng.randint(1, max_events)):
        v_s = rng.randint(0, horizon - 2)
        v_e = v_s + rng.randint(1, 20)
        o_e = INF if rng.random() < 0.7 else v_s + rng.randint(1, 20)
        # Some events carry an earlier root time, as composites would,
        # so cancellation windows are non-empty.
        rt = max(0, v_s - rng.randint(1, 10)) if rng.random() < 0.4 else v_s
        payload = payload_of(rng)
        events.append(PatternEvent(f"{prefix}{i}", v_s, v_e, v_s, o_e,
                                   rt=rt, payload=payload))
    return events


def encode_stream(rows, rng: random.Random, skew: int, retract_prob: float,
                  optimistic: float = 0.5):
    rows = encode_with_retractions(rows, rng, style_mix=optimistic)
    rows = reencode(rows, retract_prob, rng)
    rows = bounded_shuffle(rows, skew, rng)
    return restamp_arrivals(rows)


def interleave(rng: random.Random, per_port):
    """Weave per-port row lists into one arrival list of (port, row)."""
    pending = [list(rows) for rows in per_port]
    arrivals = []
    while any(pending):
        port = rng.choice([i for i, rows in enumerate(pending) if rows])
        arrivals.append((port, pending[port].pop(0)))
    return arrivals


def sync_of(arrivals):
    """Per-arrival sync values, classified exactly as the engine will."""
    seen = [set() for _ in range(1 + max((p for p, _ in arrivals), default=0))]
    out = []
    for port, row in arrivals:
        sync = row.o_s if row.k not in seen[port] else row.o_e
        seen[port].add(row.k)
        out.append(sync)
    return out


def honest_schedule(arrivals, every: int):
    """Guarantee declarations that no remaining arrival will ever violate.

    Returns a list of (position, port, threshold): declare after feeding
    ``position`` arrivals.
    """
    if not arrivals:
        return []
    syncs = sync_of(arrivals)
    ports = sorted({p for p, _ in arrivals})
    schedule = []
    last = {p: -1 for p in ports}
    for pos in list(range(every, len(arrivals), every)) + [len(arrivals)]:
        for port in ports:
            remaining = [s for (p, _), s in zip(arrivals[pos:], syncs[pos:])
                         if p == port and s != INF]
            threshold = min(remaining) - 1 if remaining else INF
            if threshold == INF and pos < len(arrivals):
                continue
            if threshold < 0 or threshold <= last[port]:
                continue
            schedule.append((pos, port, threshold))
            last[port] = threshold
    return schedule


def run_module(module, arrivals, level, schedule=(), collect_guarantees=None,
               after=None):
    """Feed ``arrivals`` and ``schedule`` to a new instance, then flush it.

    ``after`` is called with the instance after every arrival and guarantee.
    """
    inst = OperatorInstance(module, level)
    out = []
    sched = sorted(schedule, key=lambda s: s[0])
    si = 0

    def guarantee():
        _, port_g, threshold = sched[si]
        rows, g = inst.declare_guarantee(threshold, port_g)
        out.extend(rows)
        if collect_guarantees is not None and g is not None:
            collect_guarantees.append(g)
        if after:
            after(inst)

    for i, (port, row) in enumerate(arrivals):
        while si < len(sched) and sched[si][0] <= i:
            guarantee()
            si += 1
        out.extend(inst.ingest(row, port))
        if after:
            after(inst)
    while si < len(sched):
        guarantee()
        si += 1
    out.extend(inst.flush())
    return inst, out


def switch_run(kind, arrivals, schedule, from_level, to_level, after=None):
    """Feed a new instance at ``from_level`` and switch it to ``to_level`` once.

    From the first third of the arrivals on, once a guarantee was declared,
    the switch is tried before each arrival at the present: at the highest
    threshold declared so far and the instance's next stamp.  A refused
    switch (``NotASyncPoint``) is tried again before the next arrival.
    ``after`` is called with the instance after every step but the flush.
    Returns every row the instance released and whether it switched.
    """
    inst = OperatorInstance(module_under_test(kind), from_level)
    sched = sorted(schedule, key=lambda s: s[0])
    si, out, switched, floor = 0, [], False, -1

    def step(rows):
        out.extend(rows)
        if after:
            after(inst)

    for i, (port, r) in enumerate(arrivals):
        while si < len(sched) and sched[si][0] <= i:
            _, port_g, threshold = sched[si]
            step(inst.declare_guarantee(threshold, port_g)[0])
            floor = max(floor, threshold)
            si += 1
        if i >= len(arrivals) // 3 and not switched and floor >= 0:
            try:
                rows = inst.switch_level(to_level, SyncPointPair(floor, inst._clock[0]))
            except NotASyncPoint:
                pass
            else:
                switched = True
                step(rows)
        step(inst.ingest(r, port))
    for _, port_g, threshold in sched[si:]:
        step(inst.declare_guarantee(threshold, port_g)[0])
    out.extend(inst.flush())
    return out, switched


def states_at_sync_points(rows):
    """The canonical content at each finite sync point of an instance's output rows."""
    table = annotate_sync(HistoryTable(rows))
    out = {}
    for p in sync_points_of(table):
        if p.t_o == INF:
            continue
        prefix = HistoryTable([r.event for r in table if r.event.c_s <= p.t_c])
        out[p.t_o] = projected(canonical_at(prefix, p.t_o), include_lineage=False)
    return out


def encode_ports(ideal_ports, rng: random.Random, skew: int,
                 retract_prob: float, optimistic: float = 0.5,
                 pattern: bool = False):
    encode = rows_from_pattern if pattern else rows_from_unitemporal
    per_port = [
        encode_stream(encode(events, key_prefix=f"s{p}_"),
                      rng, skew, retract_prob, optimistic)
        for p, events in enumerate(ideal_ports)
    ]
    return interleave(rng, per_port)


def make_merged_workload(rng: random.Random, arity: int, max_events: int,
                         skew: int, retract_prob: float, optimistic: float = 0.5):
    ideal_ports = tuple(gen_unitemporal(rng, max_events) for _ in range(arity))
    return ideal_ports, encode_ports(ideal_ports, rng, skew, retract_prob,
                                     optimistic, pattern=False)


def make_pattern_workload(rng: random.Random, arity: int, max_events: int,
                          skew: int, retract_prob: float, optimistic: float = 0.5):
    ideal_ports = tuple(gen_pattern(rng, f"s{p}_", max_events)
                        for p in range(arity))
    return ideal_ports, encode_ports(ideal_ports, rng, skew, retract_prob,
                                     optimistic, pattern=True)


def oracle_rows(module, ideal_ports):
    """The pure denotation of the final input, encoded as stream rows."""
    outputs = module.evaluate(tuple(tuple(p) for p in ideal_ports), {})
    if module.pattern_mode:
        return rows_from_pattern(outputs, key_prefix="o")
    return rows_from_unitemporal(outputs, key_prefix="o")


MERGED_PARAMS = {
    "project": dict(f=lambda p: Payload({"g": p["g"], "xx": p["x"]})),
    "select": dict(f=lambda p: p["x"] >= 3),
    "join": dict(theta=lambda a, b: a["g"] == b["g"]),
    "union": {},
    "difference": {},
    "groupby": dict(key=("g",), agg="count", out="c"),
    "alter_lifetime": {},
    "window": dict(wl=4),
    "hopping_window": dict(p=5),
    "inserts": {},
    "deletes": {},
}

PATTERN_PARAMS = {
    "sequence": dict(k=2, w=12),
    "atleast": dict(n=2, k=2, w=12),
    "atmost": dict(n=1, k=2, w=6),
    "all": dict(k=2, w=12),
    "any": dict(k=2),
    "unless": dict(w=6),
    "not": dict(k=2, w=12),
    "cancel_when": {},
}


def module_under_test(kind):
    from cedr.algebra import LifetimeFunctions
    params = dict(MERGED_PARAMS.get(kind, PATTERN_PARAMS.get(kind, {})))
    if kind == "alter_lifetime":
        params["fns"] = LifetimeFunctions(
            lambda e: e.v_s, lambda e: min(e.v_e - e.v_s, 3))
        params["lag"] = 0
    return build_module(kind, **params)


def arity_of(kind):
    if kind in ("join", "union", "difference"):
        return 2
    if kind in MERGED_PARAMS:
        return 1
    if kind == "unless" or kind == "cancel_when":
        return 2
    if kind == "not":
        return 3
    return PATTERN_PARAMS[kind].get("k", 2)
