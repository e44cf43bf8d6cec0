"""JSON-lines serialization for event streams.

Tritemporal rows: one object per line with keys ``k``, ``id``, ``vs``,
``ve``, ``os``, ``oe``, ``cs``, ``ce``, ``payload``; a missing ``ce``
defaults to infinity.  Unitemporal rows carry ``id``, ``vs``, ``ve``,
``payload``.  Timestamps are ints, or the text ``"inf"``.
"""

from __future__ import annotations

import json
from typing import Iterable

from .temporal import (
    HistoryTable,
    Payload,
    TritemporalEvent,
    UnitemporalEvent,
    fmt_time,
    parse_time,
)


class LineFormatError(Exception):
    """A malformed stream line, with its 1-based line number."""

    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


def payload_to_obj(p: Payload) -> dict:
    return dict(p.pairs)


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
    try:
        return TritemporalEvent(
            k=obj["k"], id=obj["id"],
            v_s=parse_time(obj["vs"], "vs"), v_e=parse_time(obj["ve"], "ve"),
            o_s=parse_time(obj["os"], "os"), o_e=parse_time(obj["oe"], "oe"),
            c_s=parse_time(obj["cs"], "cs"),
            c_e=parse_time(obj.get("ce", "inf"), "ce"),
            payload=payload_from_obj(obj.get("payload", {})),
        )
    except KeyError as exc:
        raise ValueError(f"missing field {exc.args[0]!r}") from exc


def unievent_to_obj(e: UnitemporalEvent) -> dict:
    return {"id": e.id, "vs": fmt_time(e.v_s), "ve": fmt_time(e.v_e),
            "payload": payload_to_obj(e.payload)}


def unievent_from_obj(obj: dict) -> UnitemporalEvent:
    try:
        return UnitemporalEvent(
            parse_time(obj["vs"], "vs"), parse_time(obj["ve"], "ve"),
            payload_from_obj(obj.get("payload", {})), id=obj.get("id", ""))
    except KeyError as exc:
        raise ValueError(f"missing field {exc.args[0]!r}") from exc


def _parse_lines(text: str, from_obj):
    rows = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
            if not isinstance(obj, dict):
                raise ValueError("each line must be a JSON object")
            rows.append(from_obj(obj))
        except (ValueError, TypeError) as exc:
            raise LineFormatError(lineno, str(exc)) from exc
    return rows


def loads_events(text: str) -> list[TritemporalEvent]:
    return _parse_lines(text, event_from_obj)


def dumps_events(rows: Iterable[TritemporalEvent]) -> str:
    # allow_nan=False: a payload with a non-finite float is an error here,
    # not a silently invalid JSON document.
    return "".join(json.dumps(event_to_obj(r), sort_keys=True, allow_nan=False) + "\n"
                   for r in rows)


def read_events(path: str) -> list[TritemporalEvent]:
    with open(path, encoding="utf-8") as fh:
        return loads_events(fh.read())


def write_events(rows: Iterable[TritemporalEvent], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_events(rows))


def write_table(table: HistoryTable, path: str) -> None:
    write_events(table.sorted_rows(), path)
