"""JSON-lines serialization for event streams.

Tritemporal rows: one object per line with keys ``k``, ``id``, ``vs``,
``ve``, ``os``, ``oe``, ``cs``, ``ce``, ``payload``; a missing ``ce``
defaults to infinity.  Timestamps are ints, or the text ``"inf"``.

Reading scans each line once with the C scanner that ``json.loads`` uses;
only a line the scan cannot take whole (whitespace around the object, or
bad JSON) goes through ``json.loads``, which accepts the padded line or
raises its own message.  A decoded payload object is built without
re-checking its names, which JSON makes unique strings; its values are
still checked.  Writing encodes every payload through one C encoder built
at import, with ``json.dumps``'s settings.
"""

from __future__ import annotations

import json
from json.encoder import c_make_encoder, encode_basestring_ascii
from typing import Iterable

from .temporal import (
    INF,
    Payload,
    TritemporalEvent,
    _check_intervals,
    _scalar_key,
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
    """The payload of a decoded JSON object, whose names are unique strings.

    Only the values are checked, in order, as ``Payload(obj)`` checks them.
    The payload owns a copy of ``obj``.
    """
    if not isinstance(obj, dict):
        raise ValueError(f"payload must be an object, got {type(obj).__name__}")
    keys = []
    for name, value in obj.items():
        keys.append((name, ("s", value) if type(value) is str else _scalar_key(value)))
    key = frozenset(keys)
    return Payload._trusted(dict(obj), key, hash(key))


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


# json.loads's decoder settings; scan_once decodes one value at an index.
_scan = json.JSONDecoder().scan_once


def loads_events(text: str) -> list[TritemporalEvent]:
    rows = []
    # "\n" only: str.splitlines() also breaks at characters, such as U+2028,
    # that JSON allows raw inside strings.  A trailing "\r" is whitespace.
    for lineno, line in enumerate(text.split("\n"), start=1):
        if not line.strip():
            continue
        try:
            # A scan from index 0 that ends at the line's end decodes what
            # json.loads would; any other line takes json.loads itself, which
            # skips surrounding whitespace or raises its own message.
            try:
                obj, end = _scan(line, 0)
            except (StopIteration, json.JSONDecodeError):
                end = -1
            if end != len(line):
                obj = json.loads(line)
            if not isinstance(obj, dict):
                raise ValueError("each line must be a JSON object")
            rows.append(event_from_obj(obj))
        except (ValueError, TypeError) as exc:
            raise LineFormatError(lineno, str(exc)) from exc
    return rows


# allow_nan=False: a payload with a non-finite float is an error here, not
# a silently invalid JSON document.
_encoder = json.JSONEncoder(sort_keys=True, allow_nan=False)
_encode = _encoder.encode
# The C encoder that _encode builds anew for every object, built once: no
# circular-reference markers (a payload holds only scalars), ASCII escapes,
# default separators, sorted keys, allow_nan=False.  It keeps no state
# between calls and returns the encoded chunks.
_encode_map = c_make_encoder(None, _encoder.default, encode_basestring_ascii, None,
                             ": ", ", ", True, False, False)


def dumps_events(rows: Iterable[TritemporalEvent]) -> str:
    """One JSON line per row, formatted directly.

    The bytes are those of ``json.dumps(event_to_obj(row), sort_keys=True,
    allow_nan=False)``: keys sorted, default separators, and each time
    ``"inf"`` or its int.
    """
    inf = '"inf"'
    quote = encode_basestring_ascii
    return "".join(
        f'{{"ce": {inf if r.c_e == INF else int(r.c_e)}, '
        f'"cs": {inf if r.c_s == INF else int(r.c_s)}, '
        f'"id": {quote(r.id) if type(r.id) is str else _encode(r.id)}, '
        f'"k": {quote(r.k) if type(r.k) is str else _encode(r.k)}, '
        f'"oe": {inf if r.o_e == INF else int(r.o_e)}, '
        f'"os": {inf if r.o_s == INF else int(r.o_s)}, '
        f'"payload": {"".join(_encode_map(r.payload._map, 0))}, '
        f'"ve": {inf if r.v_e == INF else int(r.v_e)}, '
        f'"vs": {inf if r.v_s == INF else int(r.v_s)}}}\n'
        for r in rows)


def read_events(path: str) -> list[TritemporalEvent]:
    with open(path, encoding="utf-8") as fh:
        return loads_events(fh.read())


def write_events(rows: Iterable[TritemporalEvent], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_events(rows))
