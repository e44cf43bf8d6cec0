"""Seeded input generators for the benchmark workloads.

Every generator takes the benchmark seed and derives its own
``random.Random`` from it, so the same seed always yields byte-identical
inputs.  The wire encodings come only from the public encoders in
:mod:`cedr.disorder`; the ideal (pre-encoding) events are kept alongside
so that the output checks can evaluate the pure denotation on them.
"""

from __future__ import annotations

import random

from cedr.disorder import (
    FRESH_PREFIX,
    bounded_shuffle,
    encode_with_retractions,
    expand_row,
    restamp_arrivals,
    rows_from_pattern,
    rows_from_unitemporal,
)
from cedr.patterns import primitive
from cedr.temporal import Payload, UnitemporalEvent

CIDR07_STREAMS = ("INSTALL", "SHUTDOWN", "RESTART")
ROLLUP_STREAMS = ("A", "B", "C")

SKEW = 8
RETRACT_PROB = 0.1


def pattern_stream(rng: random.Random, prefix: str, n_events: int,
                   machines: int = 10, max_gap: int = 30) -> list:
    """Primitive point events, 1..max_gap ticks apart, over ``machines`` ids.

    The stream is built from blocks of ``machines`` events.  Each block
    holds every machine id once and one of each of ``machines`` gaps
    spread evenly over 1..max_gap, both in an order the seed picks.  Every
    seed then yields the same event rate in every stretch of time and
    nearly the same number of pairs within a scope, so the engine's work,
    which grows with the square of those pairs, does not swing from seed
    to seed; only the arrangement does.
    """
    block_gaps = [1 + (i * (max_gap - 1)) // (machines - 1) for i in range(machines)]
    events = []
    t = 0
    while len(events) < n_events:
        gaps = list(block_gaps)
        ids = [f"m{i}" for i in range(machines)]
        rng.shuffle(gaps)
        rng.shuffle(ids)
        for gap, machine in zip(gaps, ids):
            t += gap
            events.append(primitive(f"{prefix}{len(events)}", t, t + 1,
                                    payload={"Machine_Id": machine}))
    return events[:n_events]


def reencode_share(rows: list, share: float, rng: random.Random) -> list:
    """``disorder.reencode`` with an exact share of the rows re-encoded.

    ``reencode`` flips a coin per row, so the number of extra rows, and
    with it the engine's work, varies from seed to seed.  Here the seed
    picks which rows are re-encoded, and exactly ``round(share * n)`` are.
    """
    chosen = set(rng.sample(range(len(rows)), round(share * len(rows))))
    out = []
    for i, row in enumerate(rows):
        if i in chosen:
            out.extend(expand_row(row, f"{FRESH_PREFIX}{len(out)}"))
        else:
            out.append(row)
    return out


def disorder_rows(rows: list, rng: random.Random) -> list:
    """What ``cedr disorder --skew 8 --retract-prob 0.1`` does, at an exact share."""
    return restamp_arrivals(bounded_shuffle(reencode_share(rows, RETRACT_PROB, rng),
                                            SKEW, rng))


def cidr07_inputs(seed: int, n_events: int, part: int = 0) -> tuple[dict, dict]:
    """Ideal events and disordered wire rows for INSTALL/SHUTDOWN/RESTART.

    ``n_events`` primitive events are split evenly over the three streams.
    ``part`` picks one of the independent inputs a seed yields.
    Each stream is disordered as ``cedr disorder`` would: retraction
    re-encoding of a tenth of the rows, a bounded shuffle of skew 8, and
    arrival restamping.
    """
    rng = random.Random(f"cidr07/{seed}/{part}")
    ideal, wire = {}, {}
    for name in CIDR07_STREAMS:
        events = pattern_stream(rng, f"{name[0].lower()}", n_events // len(CIDR07_STREAMS))
        ideal[name] = events
        wire[name] = disorder_rows(rows_from_pattern(events, key_prefix=f"{name[0]}k"), rng)
    return ideal, wire


def unitemporal_stream(rng: random.Random, prefix: str, n_events: int,
                       groups: int = 4, values: int = 3) -> list[UnitemporalEvent]:
    """Finite events over a small repeating payload pool, disjoint per payload.

    Payloads repeat so that union merges and difference subtracts real
    intervals.  Each run of ``groups * values`` consecutive events uses
    every payload once, in an order the seed picks, so every payload gets
    the same number of events and spans about the same time whatever the
    seed.  Every event ends: an open output of a coalescing operator holds
    its output guarantee back for good, which at STRONG would block the
    whole chain until flush.
    """
    pool = [Payload({"g": g, "x": x}) for g in range(groups) for x in range(values)]
    cursors = {p: 0 for p in pool}
    events = []
    while len(events) < n_events:
        block = list(pool)
        rng.shuffle(block)
        for payload in block[:n_events - len(events)]:
            start = cursors[payload] + rng.randint(0, 6)
            end = start + rng.randint(1, 12)
            cursors[payload] = end + 1
            events.append(UnitemporalEvent(start, end, payload,
                                           id=f"{prefix}{len(events)}"))
    return events


def rollup_inputs(seed: int, n_per_stream: int, part: int = 0) -> tuple[dict, dict]:
    """Ideal unitemporal events and encoded wire rows for streams A, B, C.

    ``part`` picks one of the independent inputs a seed yields.
    The encoding splits about half of the assertions into optimistic-
    insert-then-retract pairs, then disorders the stream as
    ``cidr07_inputs`` does.
    """
    rng = random.Random(f"rollup/{seed}/{part}")
    ideal, wire = {}, {}
    for name in ROLLUP_STREAMS:
        events = unitemporal_stream(rng, name.lower(), n_per_stream)
        ideal[name] = events
        rows = rows_from_unitemporal(events, key_prefix=f"{name}k")
        wire[name] = disorder_rows(encode_with_retractions(rows, rng), rng)
    return ideal, wire


def clean_pattern_stream(seed: int, n_rows: int) -> list:
    """One large clean (in-order, insert-only) pattern stream in wire form."""
    rng = random.Random(f"stream-tools/{seed}")
    return rows_from_pattern(pattern_stream(rng, "e", n_rows), key_prefix="k")
