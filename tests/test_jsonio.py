"""The JSON-lines codec: exact bytes out, the same checks and errors in.

``dumps_events`` must write what ``json.dumps`` writes of ``event_to_obj``
(sorted keys, default separators, ASCII escapes, no NaN), and the reader
must accept and reject exactly what it always has, with the same message.
The rejection grid is pinned by a sha256 of every line's outcome, taken
from the reader that checked each field through the public constructors.
"""

import hashlib
import itertools
import json

import pytest

from cedr import jsonio, temporal
from cedr.jsonio import (
    LineFormatError,
    dumps_events,
    event_to_obj,
    loads_events,
)
from cedr.temporal import INF, Payload, TritemporalEvent

from perfbench import gen


def reference_dumps(rows) -> str:
    return "".join(json.dumps(event_to_obj(r), sort_keys=True, allow_nan=False) + "\n"
                   for r in rows)


def corpora():
    for seed in (1, 2, 1009):
        _, cidr07 = gen.cidr07_inputs(seed, 240, 0)
        _, rollup = gen.rollup_inputs(seed, 60, 0)
        yield from cidr07.values()
        yield from rollup.values()
        yield gen.clean_pattern_stream(seed, 300)


EDGE_ROWS = [
    TritemporalEvent("ключ \"q\" \\ \n\t", "é \u0085\x00", 1, 5, 1, INF, 0),
    TritemporalEvent(3, "e", 1, 5, 1, INF, 0),
    TritemporalEvent(None, 4, 1, 5, 1, 9, 0, 12),
    TritemporalEvent(("K", 1.5), "e", 1, 5, 1, INF, 0),
    TritemporalEvent("K", "e", 1, 5, 1, INF, 0, payload=Payload(
        {"t": True, "i": 1, "f": 1.0, "nz": -0.0, "z": 0.0, "big": 10**30,
         "s": "\u2028\u2029 \"\\/\x7f\U0001F600"})),
    TritemporalEvent("K", "e", 1, 5, 1, INF, 0, payload=Payload({"b": 1, "a": 2, "A": 3})),
    TritemporalEvent("K", "e", INF, INF, INF, INF, INF, INF),
    TritemporalEvent("K", "e", 0, INF, 0, INF, 0, INF, Payload({"big": 10**30})),
    TritemporalEvent("K", "e", 2**70, 2**71, 2**70, 2**70, 2**64, 2**65),
]


class TestWriter:
    def test_bytes_equal_json_dumps_on_generated_corpora(self):
        for rows in corpora():
            assert dumps_events(rows) == reference_dumps(rows)

    @pytest.mark.parametrize("row", EDGE_ROWS, ids=range(len(EDGE_ROWS)))
    def test_bytes_equal_json_dumps_on_edge_rows(self, row):
        assert dumps_events([row]) == reference_dumps([row])
        assert dumps_events([row, row]) == reference_dumps([row]) * 2

    def test_equal_payloads_in_other_orders_write_sorted(self):
        rows = [TritemporalEvent("K", "e", 1, 5, 1, INF, 0, payload=Payload(pairs))
                for pairs in ([("a", 1), ("b", 2)], [("b", 2), ("a", 1)])]
        assert dumps_events(rows) == reference_dumps(rows)
        first, second = dumps_events(rows).splitlines()
        assert first == second

    def test_typed_payload_values_stay_apart(self):
        # Equal as Python values, distinct as payloads: each keeps its text.
        values = (True, 1, 1.0, 0.0, -0.0, 10**30, float(10**30))
        rows = [TritemporalEvent("K", "e", 1, 5, 1, INF, 0, payload=Payload({"v": v}))
                for v in values]
        assert dumps_events(rows) == reference_dumps(rows)
        assert len(set(dumps_events(rows).splitlines())) == len(values)

    def test_nan_payload_is_a_value_error_both_ways(self):
        row = TritemporalEvent("K", "e", 1, 5, 1, INF, 0, payload=Payload({"x": float("nan")}))
        with pytest.raises(ValueError):
            reference_dumps([row])
        with pytest.raises(ValueError):
            dumps_events([row])

    def test_the_shared_encoder_keeps_nothing_from_a_failed_call(self):
        bad = TritemporalEvent("K", "e", 1, 5, 1, INF, 0, payload=Payload({"x": float("nan")}))
        rows = gen.clean_pattern_stream(1, 20) + EDGE_ROWS
        with pytest.raises(ValueError):
            dumps_events(rows[:3] + [bad])
        assert dumps_events(rows) == reference_dumps(rows)

    def test_unserializable_lineage_key_is_a_type_error_both_ways(self):
        row = TritemporalEvent(object(), "e", 1, 5, 1, INF, 0)
        with pytest.raises(TypeError):
            reference_dumps([row])
        with pytest.raises(TypeError):
            dumps_events([row])

    def test_round_trip(self):
        for rows in corpora():
            text = dumps_events(rows)
            assert loads_events(text) == rows
            assert dumps_events(loads_events(text)) == text


class TestLineSplitting:
    @pytest.mark.parametrize("sep", ["\u2028", "\u2029", "\u0085"])
    def test_raw_line_separator_inside_a_string(self, sep):
        # str.splitlines() breaks at these; JSON allows them raw in strings.
        row = TritemporalEvent("K", "e", 1, 5, 1, INF, 0, payload=Payload({"note": f"a{sep}b"}))
        line = json.dumps(event_to_obj(row), ensure_ascii=False)
        assert sep in line
        assert loads_events(line + "\n") == [row]
        assert loads_events(line + "\n" + line) == [row, row]

    def test_crlf_lines(self):
        rows = gen.clean_pattern_stream(1, 20)
        assert loads_events(dumps_events(rows).replace("\n", "\r\n")) == rows

    def test_line_numbers_count_newlines_only(self):
        row = TritemporalEvent("K", "e", 1, 5, 1, INF, 0, payload=Payload({"note": "a\u2028b"}))
        good = json.dumps(event_to_obj(row), ensure_ascii=False) + "\n"
        with pytest.raises(LineFormatError, match=r"^line 4: missing field 'k'"):
            loads_events(good + "\n" + good + "{}\n")

    def test_a_bare_carriage_return_does_not_end_a_line(self):
        text = dumps_events(gen.clean_pattern_stream(1, 2)).replace("\n", "\r")
        with pytest.raises(LineFormatError, match=r"^line 1: Extra data"):
            loads_events(text)

    def test_files_are_read_with_universal_newlines(self, tmp_path):
        # read_events opens files in text mode, which turns a bare "\r"
        # into "\n" before the lines are split.
        rows = gen.clean_pattern_stream(1, 2)
        path = tmp_path / "cr.jsonl"
        path.write_bytes(dumps_events(rows).replace("\n", "\r").encode())
        assert jsonio.read_events(str(path)) == rows

    def test_blank_lines_are_skipped(self):
        rows = gen.clean_pattern_stream(1, 2)
        text = "\n  \n" + dumps_events(rows[:1]) + "\t\n" + dumps_events(rows[1:]) + "\n"
        assert loads_events(text) == rows


def reference_loads(text: str) -> list:
    """The reference reader: ``json.loads`` on each line, then ``event_from_obj``."""
    rows = []
    for lineno, line in enumerate(text.split("\n"), start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
            if not isinstance(obj, dict):
                raise ValueError("each line must be a JSON object")
            rows.append(jsonio.event_from_obj(obj))
        except (ValueError, TypeError) as exc:
            raise LineFormatError(lineno, str(exc)) from exc
    return rows


GOOD_LINE = json.dumps(event_to_obj(TritemporalEvent("K", "e", 1, 5, 1, INF, 0,
                                                     payload=Payload({"m": "x"}))))
PARITY_LINES = [
    " " + GOOD_LINE, GOOD_LINE + " ", "\t" + GOOD_LINE, GOOD_LINE + "\t",
    "\r" + GOOD_LINE, GOOD_LINE + "\r", " \t" + GOOD_LINE + "\r",
    GOOD_LINE + GOOD_LINE, GOOD_LINE + " " + GOOD_LINE,
    "\ufeff" + GOOD_LINE,
    "[1]", "3", '"x"', "null", "{}", "{ }",
    GOOD_LINE.replace('"x"', "NaN"), GOOD_LINE.replace('"x"', "-Infinity"),
    GOOD_LINE[:-5], GOOD_LINE + "}",
    "\x0c" + GOOD_LINE, "\xa0" + GOOD_LINE,
    GOOD_LINE.replace('{"m": "x"}', '{"m": "x", "m": 2}'),
    GOOD_LINE.replace('{"m": "x"}', '{"m": "x", "n": [1], "m": 2}'),
]


class TestReader:
    @pytest.mark.parametrize("line", PARITY_LINES, ids=range(len(PARITY_LINES)))
    def test_each_line_reads_as_json_loads_reads_it(self, line):
        for text in (line, line + "\n" + line, line + "\n" + GOOD_LINE + "\n" + line):
            assert outcome(loads_events, text) == outcome(reference_loads, text)

    def test_a_decoded_payload_keeps_its_order_and_owns_its_map(self):
        obj = {"b": 1, "a": 2}
        payload = jsonio.payload_from_obj(obj)
        assert list(payload) == ["b", "a"]
        assert repr(payload) == "Payload(b=1, a=2)"
        obj["c"] = 3
        obj["b"] = 4
        assert list(payload.items()) == [("b", 1), ("a", 2)]
        assert payload == Payload({"a": 2, "b": 1})
        row, = loads_events(GOOD_LINE.replace('{"m": "x"}', '{"b": 1, "a": 2}'))
        assert list(row.payload) == ["b", "a"] and repr(row.payload) == "Payload(b=1, a=2)"

    def test_each_time_is_parsed_once_and_not_checked_again(self, monkeypatch):
        calls = {"parse_time": 0, "check_time": 0}

        def counted(name, fn):
            def call(*args):
                calls[name] += 1
                return fn(*args)
            return call

        monkeypatch.setattr(jsonio, "parse_time", counted("parse_time", jsonio.parse_time))
        monkeypatch.setattr(temporal, "check_time", counted("check_time", temporal.check_time))
        rows = gen.clean_pattern_stream(1, 50)
        assert loads_events(dumps_events(rows)) == rows
        assert calls == {"parse_time": 6 * len(rows), "check_time": 0}

    @pytest.mark.parametrize("field", ["k", "id"])
    def test_lineage_fields_must_be_hashable(self, field):
        base = event_to_obj(gen.clean_pattern_stream(1, 1)[0])
        for value in ("x", 3, 2.5, True, None):
            row = loads_events(json.dumps({**base, field: value}))[0]
            assert getattr(row, field) == value and hash(row) is not None
        for value in ([1], [], {"a": 1}, {}):
            with pytest.raises(LineFormatError, match=f"line 1: {field} must be a string, "
                                                      "number, boolean or null"):
                loads_events(json.dumps({**base, field: value}))


# --- rejection parity ---------------------------------------------------------

MISSING = object()
TIME_VARIANTS = [MISSING, -1, True, 2.5, "3", None, "INF", 0, 7, "inf", [1], 10**30]
ROW_VARIANTS = {
    "k": [MISSING, 3, None, "", ["K"]],
    "id": [MISSING, 7, None, {"a": 1}],
    **{name: TIME_VARIANTS for name in ("vs", "ve", "os", "oe", "cs", "ce")},
    "payload": [MISSING, [], "x", None, {"a": None}, {"a": [1]}, {"a": {"b": 1}},
                {"a": 1.5, "b": True}],
}
ROW_BASE = {"k": "K0", "id": "e0", "vs": 1, "ve": 5, "os": 1, "oe": "inf", "cs": 0,
            "ce": "inf", "payload": {"m": "x"}}

# sha256 of every grid line and its outcome, from the reader that built each
# row through the checking constructors.  ROW_GRID_SHA was written again when
# the reader began to reject a JSON array or object as ``k`` or ``id``; only
# lines holding such a ``k`` or ``id`` changed their outcome.
ROW_GRID_SHA = "23b5fdc8f792a12ba7bfccc7f6e94ef62e1ecee4c64aa8cb3ee65e32983a37f4"


def grid(base: dict, variants: dict):
    """``base`` with every pair of fields replaced by one of its variants."""
    for (f1, vs1), (f2, vs2) in itertools.combinations(variants.items(), 2):
        for v1, v2 in itertools.product(vs1, vs2):
            obj = dict(base)
            for name, value in ((f1, v1), (f2, v2)):
                if value is MISSING:
                    del obj[name]
                else:
                    obj[name] = value
            yield obj


def outcome(fn, arg) -> str:
    try:
        return repr(fn(arg))
    except Exception as exc:  # noqa: BLE001 - the exception text is the outcome
        cause = exc.__cause__
        return (f"{type(exc).__name__}: {exc}"
                + (f" <- {type(cause).__name__}: {cause}" if cause else ""))


def grid_digest(base, variants, fn, encode) -> tuple[int, str]:
    digest = hashlib.sha256()
    count = 0
    for obj in grid(base, variants):
        arg = encode(obj)
        digest.update(f"{json.dumps(obj, sort_keys=True)} -> {outcome(fn, arg)}\n".encode())
        count += 1
    return count, digest.hexdigest()


def row_grid_digest():
    return grid_digest(ROW_BASE, ROW_VARIANTS, loads_events, lambda obj: json.dumps(obj) + "\n")


class TestRejectionParity:
    def test_row_lines(self):
        assert row_grid_digest() == (3476, ROW_GRID_SHA)
