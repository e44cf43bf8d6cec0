"""The simulated adversary: bounded disorder and retraction re-encodings.

Everything here rewrites a stream into a different *encoding* of the same
logical content: the output is always logically equivalent to infinity to
the input.  Arrival order within one lineage is preserved, so insertion
rows keep arriving before their retractions and sync classification stays
well defined.
"""

from __future__ import annotations

import random
from typing import Iterable

from .patterns import PatternEvent
from .temporal import INF, TritemporalEvent, UnitemporalEvent

FRESH_PREFIX = "~tmp"


def bounded_shuffle(rows: list[TritemporalEvent], skew: int,
                    rng: random.Random) -> list[TritemporalEvent]:
    """Permute rows, displacing each by at most ``skew`` positions.

    The relative order of rows sharing a lineage key is restored after the
    shuffle, which keeps the displacement bound intact.
    """
    if skew < 0:
        raise ValueError("skew must be non-negative")
    if skew == 0 or len(rows) < 2:
        return list(rows)
    keyed = sorted(range(len(rows)),
                   key=lambda i: (i + rng.randint(0, skew), i))
    permuted = [rows[i] for i in keyed]
    # Stable per-lineage repair: each lineage's rows take its own slots in
    # their original relative order.
    slots: dict[str, list[int]] = {}
    for pos, r in enumerate(permuted):
        slots.setdefault(r.k, []).append(pos)
    ordered: dict[str, list[TritemporalEvent]] = {}
    for r in rows:
        ordered.setdefault(r.k, []).append(r)
    out: list[TritemporalEvent] = list(permuted)
    for k, positions in slots.items():
        for pos, r in zip(positions, ordered[k]):
            out[pos] = r
    return out


def expand_row(r: TritemporalEvent, fresh_k: str) -> list[TritemporalEvent]:
    """Re-encode one row as an optimistic insert, its full removal, and the row.

    The temporary lineage asserts ``[o_s, inf)`` and is immediately removed
    (occurrence end set back to its start); the original row follows
    unchanged, so the net canonical content is identical.
    """
    tmp = TritemporalEvent(fresh_k, r.id, r.v_s, max(r.v_e, r.v_s + 1),
                           r.o_s, INF, r.c_s, INF, r.payload)
    kill = TritemporalEvent(fresh_k, r.id, tmp.v_s, tmp.v_e,
                            r.o_s, r.o_s, r.c_s, INF, r.payload)
    return [tmp, kill, r]


def reencode(rows: list[TritemporalEvent], retract_prob: float,
             rng: random.Random) -> list[TritemporalEvent]:
    if not 0.0 <= retract_prob <= 1.0:
        raise ValueError("retract_prob must be within [0, 1]")
    if retract_prob == 0.0:
        return list(rows)
    out: list[TritemporalEvent] = []
    seq = 0
    for r in rows:
        if rng.random() < retract_prob:
            out.extend(expand_row(r, f"{FRESH_PREFIX}{seq}"))
            seq += 1
        else:
            out.append(r)
    return out


def restamp_arrivals(rows: list[TritemporalEvent]) -> list[TritemporalEvent]:
    """Rewrite arrival starts to the row's position in the stream.

    A TritemporalEvent was validated when it was built, and a position is a
    valid tick before ``INF``, so it is rebuilt unchecked; any other object
    is checked.
    """
    return [
        (TritemporalEvent._trusted if type(r) is TritemporalEvent else TritemporalEvent)(
            r.k, r.id, r.v_s, r.v_e, r.o_s, r.o_e, i, INF, r.payload)
        for i, r in enumerate(rows)
    ]


def disorder_stream(rows: list[TritemporalEvent], skew: int,
                    retract_prob: float, seed: int) -> list[TritemporalEvent]:
    """Re-encode and permute a stream; identity when both knobs are zero."""
    if skew == 0 and retract_prob == 0.0:
        return list(rows)
    rng = random.Random(seed)
    expanded = reencode(rows, retract_prob, rng)
    shuffled = bounded_shuffle(expanded, skew, rng)
    return restamp_arrivals(shuffled)


# --- encodings of ideal tables, used by the verification suites -------------

def rows_from_unitemporal(events: Iterable[UnitemporalEvent],
                          key_prefix: str = "u") -> list[TritemporalEvent]:
    """Encode an ideal single-axis table directly: one row per event.

    The single time axis doubles as both valid and occurrence time, so a
    later retraction of the lifetime is a shrink of the occurrence end.
    """
    out = []
    for i, e in enumerate(sorted(events, key=lambda e: e.sort_key)):
        out.append(TritemporalEvent(f"{key_prefix}{i}", e.id, e.v_s, INF,
                                    e.v_s, e.v_e, i, INF, e.payload))
    return out


def rows_from_pattern(events: Iterable[PatternEvent],
                      key_prefix: str = "p") -> list[TritemporalEvent]:
    """Encode ideal pattern events, stashing lineage in reserved attributes."""
    from .engine import pattern_event_to_row  # local: engine owns the wire form

    out = []
    for i, e in enumerate(sorted(events, key=lambda e: e.sort_key)):
        out.append(pattern_event_to_row(e, f"{key_prefix}{i}", i))
    return out


def encode_with_retractions(rows: list[TritemporalEvent], rng: random.Random,
                            style_mix: float = 0.5) -> list[TritemporalEvent]:
    """Split finite assertions into optimistic-insert-then-retract pairs."""
    out: list[TritemporalEvent] = []
    for r in rows:
        if r.o_e != INF and rng.random() < style_mix:
            out.append(TritemporalEvent(r.k, r.id, r.v_s, r.v_e,
                                        r.o_s, INF, r.c_s, INF, r.payload))
            out.append(r)
        else:
            out.append(r)
    return restamp_arrivals(out)
