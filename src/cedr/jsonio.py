"""JSON-lines serialization for event streams.

Tritemporal rows: one object per line with keys ``k``, ``id``, ``vs``,
``ve``, ``os``, ``oe``, ``cs``, ``ce``, ``payload``; a missing ``ce``
defaults to infinity.  Timestamps are ints, or the text ``"inf"``.
"""

from __future__ import annotations

import json
from typing import Iterable

from .temporal import (
    INF,
    HistoryTable,
    Payload,
    TritemporalEvent,
    _check_intervals,
    fmt_time,
    parse_time,
)


class LineFormatError(Exception):
    """A malformed stream line, with its 1-based line number."""

    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


def payload_to_obj(p: Payload) -> dict:
    return dict(p.items())


def payload_from_obj(obj: object) -> Payload:
    if not isinstance(obj, dict):
        raise ValueError(f"payload must be an object, got {type(obj).__name__}")
    return Payload(obj)


def event_to_obj(e: TritemporalEvent) -> dict:
    return {
        "k": e.k, "id": e.id,
        "vs": fmt_time(e.v_s), "ve": fmt_time(e.v_e),
        "os": fmt_time(e.o_s), "oe": fmt_time(e.o_e),
        "cs": fmt_time(e.c_s), "ce": fmt_time(e.c_e),
        "payload": payload_to_obj(e.payload),
    }


def event_from_obj(obj: dict) -> TritemporalEvent:
    # Each field is read and checked once, in the checking constructor's
    # order, so a bad line fails on the same check with the same message.
    try:
        k, eid = obj["k"], obj["id"]
        # Rows are hashed by their fields; a JSON array or object is not.
        if isinstance(k, (list, dict)):
            raise ValueError(f"k must be a string, number, boolean or null, got {k!r}")
        if isinstance(eid, (list, dict)):
            raise ValueError(f"id must be a string, number, boolean or null, got {eid!r}")
        v_s, v_e = parse_time(obj["vs"], "vs"), parse_time(obj["ve"], "ve")
        o_s, o_e = parse_time(obj["os"], "os"), parse_time(obj["oe"], "oe")
        c_s = parse_time(obj["cs"], "cs")
        c_e = parse_time(obj.get("ce", "inf"), "ce")
        payload = payload_from_obj(obj.get("payload", {}))
    except KeyError as exc:
        raise ValueError(f"missing field {exc.args[0]!r}") from exc
    _check_intervals(v_s, v_e, o_s, o_e, c_s, c_e)
    return TritemporalEvent._trusted(k, eid, v_s, v_e, o_s, o_e, c_s, c_e, payload)


def loads_events(text: str) -> list[TritemporalEvent]:
    rows = []
    # "\n" only: str.splitlines() also breaks at characters, such as U+2028,
    # that JSON allows raw inside strings.  A trailing "\r" is whitespace.
    for lineno, line in enumerate(text.split("\n"), start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
            if not isinstance(obj, dict):
                raise ValueError("each line must be a JSON object")
            rows.append(event_from_obj(obj))
        except (ValueError, TypeError) as exc:
            raise LineFormatError(lineno, str(exc)) from exc
    return rows


# allow_nan=False: a payload with a non-finite float is an error here, not
# a silently invalid JSON document.
_encode = json.JSONEncoder(sort_keys=True, allow_nan=False).encode


def dumps_events(rows: Iterable[TritemporalEvent]) -> str:
    """One JSON line per row, formatted directly.

    The bytes are those of ``json.dumps(event_to_obj(row), sort_keys=True,
    allow_nan=False)``: keys sorted, default separators, and each time
    ``"inf"`` or its int.
    """
    inf = '"inf"'
    return "".join(
        f'{{"ce": {inf if r.c_e == INF else int(r.c_e)}, '
        f'"cs": {inf if r.c_s == INF else int(r.c_s)}, '
        f'"id": {_encode(r.id)}, "k": {_encode(r.k)}, '
        f'"oe": {inf if r.o_e == INF else int(r.o_e)}, '
        f'"os": {inf if r.o_s == INF else int(r.o_s)}, '
        f'"payload": {_encode(r.payload._map)}, '
        f'"ve": {inf if r.v_e == INF else int(r.v_e)}, '
        f'"vs": {inf if r.v_s == INF else int(r.v_s)}}}\n'
        for r in rows)


def read_events(path: str) -> list[TritemporalEvent]:
    with open(path, encoding="utf-8") as fh:
        return loads_events(fh.read())


def write_events(rows: Iterable[TritemporalEvent], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_events(rows))


def write_table(table: HistoryTable, path: str) -> None:
    write_events(table.sorted_rows(), path)
