"""Tritemporal domain types and history-table canonicalization.

Every event row carries three half-open intervals over integer ticks:

* valid time ``[v_s, v_e)`` -- when the event holds, per its provider;
* occurrence time ``[o_s, o_e)`` -- when the assertion about the event was
  made and (if ever) withdrawn or superseded;
* arrival time ``[c_s, c_e)`` -- when the engine saw the row.

A history table is a finite set of such rows.  Rows that share a lineage
key ``k`` describe one assertion and its retractions: each later row
shrinks the occurrence end time, and shrinking it all the way to ``o_s``
removes the assertion entirely.  Canonicalization (reduce, then truncate
to a reference time ``t0``) collapses that bookkeeping into the surviving
state, which is what stream comparisons are defined on: two streams are
logically equivalent when their canonical tables agree after the arrival
columns are projected away.
"""

from __future__ import annotations

import struct
from collections.abc import ItemsView, Mapping
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Iterable, Iterator, NamedTuple

INF = float("inf")

# Finite ticks are non-negative ints; INF is the only permitted float.
Time = int | float

Scalar = int | float | str | bool


class TemporalError(Exception):
    """Base class for errors raised by the temporal core."""


class InfiniteInterval(TemporalError):
    """An operation that requires a finite interval met an infinite one."""


class AmbiguousLineage(TemporalError):
    """Two rows of one lineage share the minimum arrival time."""


def is_time(value: object) -> bool:
    if type(value) is int:
        return value >= 0
    if value is INF or (isinstance(value, float) and value == INF):
        return True
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def check_time(value: Time, name: str = "timestamp") -> Time:
    if not is_time(value):
        raise ValueError(f"{name} must be a non-negative tick count or INF, got {value!r}")
    return value


def fmt_time(t: Time) -> int | str:
    """JSON form of a timestamp: plain int, or the text ``"inf"``."""
    return "inf" if t == INF else int(t)


def parse_time(value: object, name: str = "timestamp") -> Time:
    if type(value) is int and value >= 0:
        return value
    if value == "inf":
        return INF
    if isinstance(value, int) and not isinstance(value, bool):
        return check_time(value, name)
    raise ValueError(f"{name} must be an int or 'inf', got {value!r}")


def _scalar_key(v: Scalar) -> tuple:
    # Exact types first; bool before int: True is an int in Python but a
    # distinct payload value.
    t = type(v)
    if t is str:
        return ("s", v)
    if t is int:
        return ("i", v)
    if isinstance(v, bool):
        return ("b", v)
    if isinstance(v, int):
        return ("i", v)
    if isinstance(v, float):
        # Bitwise comparison: NaN equals NaN, 0.0 differs from -0.0.
        return ("f", struct.pack(">d", v))
    if isinstance(v, str):
        return ("s", v)
    raise TypeError(f"payload values must be int, float, str or bool, got {type(v).__name__}")


class Payload(Mapping):
    """An insertion-ordered, immutable attribute map.

    Equality is field-by-field and deterministic: floats compare bitwise,
    so coalescing and set difference never depend on float formatting.
    A payload stores its attributes once, in a dict it owns; ``items()``
    returns that dict's own view of the (name, value) pairs in insertion
    order, the fast path for reading them.
    """

    __slots__ = ("_map", "_key", "_hash")

    def __init__(self, items: Mapping | Iterable[tuple[str, Scalar]] = ()):
        if type(items) is dict or isinstance(items, Mapping):
            items = items.items()
        seen: dict[str, Scalar] = {}
        keys = []
        for name, value in items:
            if not isinstance(name, str):
                raise TypeError(f"payload attribute names must be str, got {name!r}")
            if name in seen:
                raise ValueError(f"duplicate payload attribute {name!r}")
            keys.append((name, _scalar_key(value)))
            seen[name] = value
        key = frozenset(keys)
        object.__setattr__(self, "_map", seen)
        object.__setattr__(self, "_key", key)
        object.__setattr__(self, "_hash", hash(key))

    def __getitem__(self, name: str) -> Scalar:
        return self._map[name]

    def __contains__(self, name: object) -> bool:
        return name in self._map

    def __iter__(self) -> Iterator[str]:
        return iter(self._map)

    def __len__(self) -> int:
        return len(self._map)

    def items(self) -> ItemsView[str, Scalar]:
        return self._map.items()

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Payload):
            return self._key == other._key
        return NotImplemented

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        inner = ", ".join(f"{n}={v!r}" for n, v in self._map.items())
        return f"Payload({inner})"

    def __setattr__(self, name, value):  # pragma: no cover - defensive
        raise AttributeError("Payload is immutable")

    @property
    def canon(self) -> str:
        """Deterministic text form, usable as a sort key."""
        parts = []
        for name in sorted(self._map):
            tag, raw = _scalar_key(self._map[name])
            text = raw.hex() if isinstance(raw, bytes) else str(raw)
            parts.append(f"{name}={tag}:{text}")
        return ";".join(parts)


EMPTY_PAYLOAD = Payload()


def concat_payloads(parts: Iterable[Payload]) -> Payload:
    """Concatenate payloads left to right, suffixing colliding names.

    The second occurrence of a name becomes ``name#2``, the third ``name#3``
    and so on, so concatenation is deterministic and loses nothing.  A part
    may already carry a suffixed name (a nested composite's ``name#2``);
    then the suffix counts on until the name is free.

    Built unchecked: every part is a valid Payload, so the names are
    strings, ``out`` holds each once, and each value keeps the key its part
    computed for it.
    """
    out: dict[str, Scalar] = {}
    keys = []
    counts: dict[str, int] = {}
    for p in parts:
        value_keys = dict(p._key)
        for name, value in p._map.items():
            n = counts.get(name, 0) + 1
            unique = name if n == 1 else f"{name}#{n}"
            while unique in out:
                n += 1
                unique = f"{name}#{n}"
            counts[name] = n
            out[unique] = value
            keys.append((unique, value_keys[name]))
    key = frozenset(keys)
    return Payload._trusted(out, key, hash(key))


@dataclass(frozen=True, slots=True)
class TritemporalEvent:
    """One row of a history table."""

    k: str
    id: str
    v_s: Time
    v_e: Time
    o_s: Time
    o_e: Time
    c_s: Time
    c_e: Time = INF
    payload: Payload = EMPTY_PAYLOAD

    def __post_init__(self):
        for name in ("v_s", "v_e", "o_s", "o_e", "c_s", "c_e"):
            check_time(getattr(self, name), name)
        _check_intervals(self.v_s, self.v_e, self.o_s, self.o_e, self.c_s, self.c_e)

    @property
    def sort_key(self) -> tuple:
        return (self.k, self.o_s, self.o_e, self.c_s, self.c_e,
                self.id, self.v_s, self.v_e, self.payload.canon)

    def content(self, include_lineage: bool = True) -> tuple:
        """The row minus its arrival columns (and optionally its lineage key)."""
        head = (self.k,) if include_lineage else ()
        return head + (self.id, self.v_s, self.v_e, self.o_s, self.o_e, self.payload)


def _check_intervals(v_s: Time, v_e: Time, o_s: Time, o_e: Time,
                     c_s: Time, c_e: Time) -> None:
    """The interval rules of a row whose six times are already checked."""
    if o_s > o_e:
        raise ValueError(f"occurrence interval reversed: [{o_s}, {o_e})")
    if c_s > c_e:
        raise ValueError(f"arrival interval reversed: [{c_s}, {c_e})")
    if o_s == o_e:
        # Full-removal rows may carry a degenerate valid interval.
        if v_s > v_e:
            raise ValueError(f"valid interval reversed: [{v_s}, {v_e})")
    elif v_s >= v_e:
        raise ValueError(f"valid interval empty: [{v_s}, {v_e})")


def _trusted_constructor(cls):
    """The unchecked constructor of the slotted class ``cls``.

    Generated once, as ``dataclasses`` generates ``__init__``: straight-line
    code that writes each slot through its descriptor, in slot order (a
    slotted dataclass's field order), and skips ``__init__`` and
    ``__post_init__``.  Every slot is positional; none has a default.  Only
    for objects built from fields that are valid by construction (the
    engine's and the operators' rebuilds of events and payloads they
    already hold); input from outside uses the checking constructor.
    """
    names = cls.__slots__
    setters = [f"_set_{name}" for name in names]
    source = "\n".join([
        f"def make(_new, _cls, {', '.join(setters)}):",
        f" def trusted({', '.join(names)}):",
        "  obj = _new(_cls)",
        *(f"  {setter}(obj, {name})" for setter, name in zip(setters, names)),
        "  return obj",
        " return trusted",
    ])
    scope: dict = {}
    exec(source, scope)
    trusted = scope["make"](object.__new__, cls,
                            *(getattr(cls, name).__set__ for name in names))
    trusted.__qualname__ = f"{cls.__name__}._trusted"
    return staticmethod(trusted)


TritemporalEvent._trusted = _trusted_constructor(TritemporalEvent)
Payload._trusted = _trusted_constructor(Payload)


class HistoryTable:
    """A finite set of tritemporal rows."""

    __slots__ = ("rows",)

    def __init__(self, rows: Iterable[TritemporalEvent] = ()):
        object.__setattr__(self, "rows", frozenset(rows))

    def __iter__(self) -> Iterator[TritemporalEvent]:
        return iter(self.rows)

    def __len__(self) -> int:
        return len(self.rows)

    def __contains__(self, row: object) -> bool:
        return row in self.rows

    def __eq__(self, other: object) -> bool:
        if isinstance(other, HistoryTable):
            return self.rows == other.rows
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.rows)

    def __repr__(self) -> str:
        return f"HistoryTable({len(self.rows)} rows)"

    def __setattr__(self, name, value):  # pragma: no cover - defensive
        raise AttributeError("HistoryTable is immutable")

    def sorted_rows(self) -> list[TritemporalEvent]:
        return sorted(self.rows, key=lambda r: r.sort_key)


class AnnotatedRow(NamedTuple):
    sync: Time
    event: TritemporalEvent


class AnnotatedHistoryTable:
    """A history table whose rows carry their sync value."""

    __slots__ = ("rows",)

    def __init__(self, rows: Iterable[AnnotatedRow] = ()):
        object.__setattr__(self, "rows", frozenset(AnnotatedRow(*r) for r in rows))

    def __iter__(self) -> Iterator[AnnotatedRow]:
        return iter(self.rows)

    def __len__(self) -> int:
        return len(self.rows)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, AnnotatedHistoryTable):
            return self.rows == other.rows
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.rows)

    def __setattr__(self, name, value):  # pragma: no cover - defensive
        raise AttributeError("AnnotatedHistoryTable is immutable")


@dataclass(frozen=True, slots=True)
class UnitemporalEvent:
    """A row of an ideal single-axis history table.

    The ``id`` is provenance only: it never participates in equality or
    hashing, because the run-time algebra is defined on (interval, payload)
    content and must not distinguish differently-labelled repackagings.
    """

    v_s: Time
    v_e: Time
    payload: Payload = EMPTY_PAYLOAD
    id: str = field(default="", compare=False)

    def __post_init__(self):
        check_time(self.v_s, "v_s")
        check_time(self.v_e, "v_e")
        if self.v_s >= self.v_e:
            raise ValueError(f"valid interval empty: [{self.v_s}, {self.v_e})")

    @property
    def sort_key(self) -> tuple:
        return (self.v_s, self.v_e, self.payload.canon)


UnitemporalEvent._trusted = _trusted_constructor(UnitemporalEvent)
# In the single-axis reading the lifetime is the occurrence interval.
UnitemporalEvent.o_s = UnitemporalEvent.__dict__["v_s"]
UnitemporalEvent.o_e = UnitemporalEvent.__dict__["v_e"]


@dataclass(frozen=True, slots=True)
class SyncPointPair:
    """A candidate synchronization point: occurrence time plus arrival time."""

    t_o: Time
    t_c: Time

    def __post_init__(self):
        check_time(self.t_o, "t_o")
        check_time(self.t_c, "t_c")


def meets(i1: tuple[Time, Time], i2: tuple[Time, Time]) -> bool:
    """True when the first half-open interval ends exactly where the second starts."""
    for s, e in (i1, i2):
        if s > e:
            raise ValueError(f"interval reversed: [{s}, {e})")
    return i1[1] == i2[0]


def maximal_spans(events: Iterable[UnitemporalEvent]) -> dict[Payload, list[list]]:
    """Each payload's maximal intervals, as ``[v_s, v_e, id]`` in time order.

    One sort and sweep per payload: intervals of one payload that overlap or
    meet merge into one run, which keeps the id of its earliest event.  The
    one interval merge, behind ``coalesce_star`` and ``algebra``'s operators.
    """
    by_payload: dict[Payload, list] = {}
    for e in events:
        by_payload.setdefault(e.payload, []).append((e.v_s, e.v_e, e.id))
    for payload, spans in by_payload.items():
        spans.sort(key=itemgetter(0, 1))
        runs: list[list] = []
        for v_s, v_e, eid in spans:
            if runs and v_s <= runs[-1][1]:
                runs[-1][1] = max(runs[-1][1], v_e)
            else:
                runs.append([v_s, v_e, eid])
        by_payload[payload] = runs
    return by_payload


def coalesce_star(events: Iterable[UnitemporalEvent]) -> frozenset[UnitemporalEvent]:
    """The unique coalesced form: each payload's maximal intervals.

    Same-payload events that meet or overlap merge into one, which keeps
    the earliest one's id; every snapshot is preserved.  Overlap breaks the
    stream contract (one payload's intervals are disjoint) but merges too.
    """
    trusted = UnitemporalEvent._trusted
    return frozenset(trusted(v_s, v_e, payload, eid)
                     for payload, runs in maximal_spans(events).items()
                     for v_s, v_e, eid in runs)


def reduce(h: Iterable[TritemporalEvent]) -> HistoryTable:
    """Keep, per lineage key, only the row with the earliest occurrence end.

    Ties on ``o_e`` keep the latest arrival (largest ``c_s``): the most
    recent assertion wins.  ``h`` may be any iterable of rows; a row it
    repeats counts once.
    """
    return HistoryTable(_reduced(h))


def _reduced(rows: Iterable[TritemporalEvent]) -> Iterable[TritemporalEvent]:
    best: dict[str, TritemporalEvent] = {}
    for row in rows:
        cur = best.get(row.k)
        if cur is None or _reduce_wins(row, cur):
            best[row.k] = row
    return best.values()


def _reduce_wins(row: TritemporalEvent, cur: TritemporalEvent) -> bool:
    if row.o_e != cur.o_e:
        return row.o_e < cur.o_e
    if row.c_s != cur.c_s:
        return row.c_s > cur.c_s
    return row.sort_key < cur.sort_key


def truncate(h: Iterable[TritemporalEvent], t0: Time) -> HistoryTable:
    """Clamp occurrence ends to ``t0`` and drop rows that fall off.

    Rows starting after ``t0`` are removed, and so is any row whose
    occurrence interval is (or becomes) empty: ``o_e = o_s`` means the
    assertion was removed from the system entirely.  ``t0 = INF`` is
    allowed and performs no clamping, which is what comparisons "to
    infinity" need.  ``h`` may be any iterable of rows.
    """
    return HistoryTable(_truncated(h, t0))


def _truncated(rows: Iterable[TritemporalEvent], t0: Time) -> list[TritemporalEvent]:
    check_time(t0, "t0")
    out = []
    for row in rows:
        if row.o_s > t0:
            continue
        o_e = min(row.o_e, t0)
        if o_e == row.o_s:
            continue
        if o_e != row.o_e:
            # o_s < t0 < o_e: the clamped row stays live, and valid.
            row = TritemporalEvent._trusted(row.k, row.id, row.v_s, row.v_e,
                                            row.o_s, o_e, row.c_s, row.c_e, row.payload)
        out.append(row)
    return out


def _canonical(rows: Iterable[TritemporalEvent], t0: Time,
               mode: str) -> list[TritemporalEvent]:
    """The rows of ``canonical_to`` (``mode`` "to") or ``canonical_at`` ("at").

    Reduce and truncate run on plain rows, so a caller builds at most the
    one table it returns.
    """
    if mode == "to":
        return _truncated(_reduced(rows), t0)
    if mode != "at":
        raise ValueError(f"mode must be 'to' or 'at', got {mode!r}")
    check_time(t0, "t0")
    if t0 == INF:
        raise ValueError("canonical_at requires a finite t0")
    return _truncated([row for row in _reduced(rows) if row.o_s <= t0 <= row.o_e], t0)


def canonical_to(h: Iterable[TritemporalEvent], t0: Time) -> HistoryTable:
    """The canonical history table to time ``t0``: reduce, then truncate."""
    return HistoryTable(_canonical(h, t0, "to"))


def canonical_at(h: Iterable[TritemporalEvent], t0: Time) -> HistoryTable:
    """The canonical table at ``t0``: only assertions in effect at that instant.

    The intersection filter runs on the reduced (pre-truncation) table and
    keeps rows with ``o_s <= t0 <= o_e``; the survivors are then truncated.
    Filtering after truncation would make every table empty at its own
    truncation point, which contradicts the worked equivalence examples.
    """
    return HistoryTable(_canonical(h, t0, "at"))


def shred(rows: Iterable[TritemporalEvent]) -> frozenset[TritemporalEvent]:
    """Split each row into unit-length occurrence fragments.

    A row covering ``[o_s, o_e)`` becomes ``o_e - o_s`` rows with
    consecutive unit intervals.  Fragments of a multi-unit row get suffixed
    lineage keys (``k#0``, ``k#1``, ...): each fragment is an independent
    assertion, and sharing ``k`` would make reduction collapse them.
    Unit-length rows pass through unchanged.
    """
    out: list[TritemporalEvent] = []
    for row in rows:
        if row.o_e == INF:
            raise InfiniteInterval(f"cannot shred infinite occurrence interval of {row.k!r}")
        width = row.o_e - row.o_s
        if width == 1:
            out.append(row)
            continue
        for i in range(width):
            out.append(TritemporalEvent(
                f"{row.k}#{i}", row.id, row.v_s, row.v_e,
                row.o_s + i, row.o_s + i + 1, row.c_s, row.c_e, row.payload))
    return frozenset(out)


def annotate_sync(h: HistoryTable) -> AnnotatedHistoryTable:
    """Pair each row with its sync value.

    Per lineage, the earliest arrival is the insertion (sync = ``o_s``);
    every other row is a retraction (sync = ``o_e``).
    """
    by_k: dict[str, list[TritemporalEvent]] = {}
    for row in h:
        by_k.setdefault(row.k, []).append(row)
    out = []
    for k, rows in by_k.items():
        min_cs = min(r.c_s for r in rows)
        firsts = [r for r in rows if r.c_s == min_cs]
        if len(firsts) > 1:
            raise AmbiguousLineage(f"lineage {k!r} has {len(firsts)} rows arriving at {min_cs}")
        insert = firsts[0]
        for row in rows:
            out.append(AnnotatedRow(row.o_s if row is insert else row.o_e, row))
    return AnnotatedHistoryTable(out)


def is_sync_point(a: Iterable[tuple[Time, TritemporalEvent]], p: SyncPointPair) -> bool:
    """True when ``p`` cleanly separates past from future in both time domains.

    ``a`` may be any iterable of ``(sync, row)`` pairs; no table is built.
    """
    for sync, event in a:
        if event.c_s <= p.t_c:
            if sync > p.t_o:
                return False
        elif sync <= p.t_o:
            return False
    return True


def projected(h: Iterable[TritemporalEvent], include_lineage: bool = True) -> frozenset[tuple]:
    """Rows as tuples with arrival columns (and optionally lineage) removed."""
    return frozenset(row.content(include_lineage) for row in h)


def logically_equivalent(s1: Iterable[TritemporalEvent], s2: Iterable[TritemporalEvent],
                         t0: Time, mode: str = "to", *, include_lineage: bool = True) -> bool:
    """Compare canonical tables with arrival columns projected away.

    ``mode`` is ``"to"`` or ``"at"``.  ``t0 = INF`` is only meaningful with
    ``"to"`` and compares the fully reduced tables.  ``include_lineage=False``
    additionally projects the lineage key, which is what comparisons across
    independently re-encoded streams need (their keys are bookkeeping).
    ``s1`` and ``s2`` may be any iterables of rows; no table is built.
    """
    mode = mode.lower()
    return (projected(_canonical(s1, t0, mode), include_lineage)
            == projected(_canonical(s2, t0, mode), include_lineage))
