"""Command-line surface: run queries, simulate disorder, canonicalize, compare.

Subcommands:

* ``run``      execute a compiled query over event logs at a consistency level
* ``disorder`` re-encode a stream with bounded disorder and retractions
* ``canon``    write the canonical history table to/at a reference time
* ``equiv``    exit 0 when two streams are logically equivalent, 3 otherwise
* ``parse``    dump a query's AST as JSON

Exit codes: 0 success, 1 query diagnostics, 2 I/O or format failure,
3 streams differ (``equiv`` only).
"""

from __future__ import annotations

import argparse
import functools
import json
import shutil
import sys

from .disorder import disorder_stream
from .engine import ConsistencyLevel, Pipeline
from .jsonio import LineFormatError, dumps_events, read_events
from .patterns import plan_dumps
from .query import ast_to_obj, compile_query, leaf_streams, parse
from .temporal import (
    INF,
    Time,
    canonical_at,
    canonical_to,
    logically_equivalent,
    parse_time,
)

OK, DIAGNOSTICS, IO_FAILURE, DIFFER = 0, 1, 2, 3


def _time_flag(text: str) -> Time:
    """An argparse type: a non-negative tick count, or ``inf``."""
    try:
        return parse_time("inf" if text.lower() == "inf" else int(text))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"must be a non-negative integer or 'inf', got {text!r}") from None


def _count_flag(text: str) -> int:
    """An argparse type: a non-negative integer, in decimal digits."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return int(text)


def load_config(path: str) -> dict[str, str]:
    """Key=value lines; ``#`` starts a comment; quotes around values optional."""
    values: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key = value")
            key, _, value = line.partition("=")
            value = value.strip().strip("'\"")
            values[key.strip().replace("-", "_")] = value
    return values


def _with_config(parser: argparse.ArgumentParser, args: argparse.Namespace,
                 argv: list[str]) -> argparse.Namespace:
    """``argv`` parsed again with the config file's values as flags.

    The values go in ahead of the command line's flags, so argparse checks
    each against its option's type and choices, and a flag given on the
    command line wins.  Keys that name no option of the command are
    ignored; ``input`` holds comma-separated pairs and applies only when
    the command line gives none.
    """
    flags = []
    for key, value in load_config(args.config).items():
        if key == "input":
            if not args.input:
                flags += [f"--input={v.strip()}" for v in value.split(",") if v.strip()]
        elif key in vars(args) and key not in ("command", "func", "config"):
            flags.append(f"--{key.replace('_', '-')}={value}")
    return parser.parse_args([*flags, *argv])


def _read_stream(path: str):
    try:
        return read_events(path)
    except FileNotFoundError:
        print(f"error: {path}: no such file", file=sys.stderr)
        raise SystemExit(IO_FAILURE)
    except LineFormatError as exc:
        print(f"error: {path}: {exc}", file=sys.stderr)
        raise SystemExit(IO_FAILURE)


def _write_rows(rows, path: str | None) -> None:
    text = dumps_events(rows)
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _level_from_args(args) -> ConsistencyLevel:
    level = ConsistencyLevel.named(args.level)
    return ConsistencyLevel(level.memory if args.memory is None else args.memory,
                            level.blocking if args.block is None else args.block)


def _print_diagnostics(path: str, diagnostics) -> None:
    """Each diagnostic as ``path:line:col: severity: message (hint)``."""
    for d in diagnostics:
        hint = f" ({d.hint})" if d.hint else ""
        print(f"{path}:{d.line}:{d.col}: {d.severity}: {d.message}{hint}", file=sys.stderr)


def _parse_file(path: str):
    """The AST of the query in ``path``; exits 2 if unreadable, 1 on errors."""
    try:
        with open(path, encoding="utf-8") as fh:
            source = fh.read()
    except OSError as exc:
        print(f"error: {path}: {exc.strerror}", file=sys.stderr)
        raise SystemExit(IO_FAILURE)
    parsed = parse(source)
    _print_diagnostics(path, parsed.diagnostics)
    if not parsed.ok:
        raise SystemExit(DIAGNOSTICS)
    return parsed.ast


def _compile_from_file(query_path: str, ticks_per_minute: int):
    ast = _parse_file(query_path)
    compiled = compile_query(ast, ticks_per_minute)
    _print_diagnostics(query_path, compiled.diagnostics)
    if not compiled.ok:
        raise SystemExit(DIAGNOSTICS)
    return ast, compiled.plan


def _sync_sequence(feed):
    seen: dict[str, set] = {}
    out = []
    for stream, row in feed:
        marks = seen.setdefault(stream, set())
        out.append(row.o_s if row.k not in marks else row.o_e)
        marks.add(row.k)
    return out


def _guarantee_marks(feed, streams, every: int) -> dict[int, list[tuple[str, Time]]]:
    """Honest guarantees to declare before each ``every``-th arrival.

    At each mark every stream is promised one less than the smallest finite
    sync value it still has to deliver, when that is non-negative and
    higher than its last promise.  One backward pass keeps each stream's
    suffix minimum.
    """
    syncs = _sync_sequence(feed)
    suffix_min = dict.fromkeys(streams, INF)
    mins_at: dict[int, dict[str, Time]] = {}
    for i in range(len(feed) - 1, 0, -1):
        stream = feed[i][0]
        if syncs[i] < suffix_min[stream]:
            suffix_min[stream] = syncs[i]
        if i % every == 0:
            mins_at[i] = dict(suffix_min)
    marks: dict[int, list[tuple[str, Time]]] = {}
    last: dict[str, Time] = {}
    for i in sorted(mins_at):
        for stream in streams:
            threshold = mins_at[i][stream] - 1
            if threshold == INF or threshold < 0:
                continue
            if threshold > last.get(stream, -1):
                marks.setdefault(i, []).append((stream, threshold))
                last[stream] = threshold
    return marks


def cmd_run(args) -> int:
    ticks_per_minute = {"minute": 1, "second": 60}[args.tick_unit]
    ast, plan = _compile_from_file(args.query, ticks_per_minute)
    inputs: dict[str, list] = {}
    for spec in args.input or []:
        if "=" not in spec:
            print(f"error: --input expects name=path, got {spec!r}", file=sys.stderr)
            return DIAGNOSTICS
        name, _, path = spec.partition("=")
        if name in inputs:
            print(f"error: --input names stream {name!r} twice", file=sys.stderr)
            return DIAGNOSTICS
        inputs[name] = _read_stream(path)
    wanted = leaf_streams(ast)
    for name in inputs:
        if name not in wanted:
            print(f"warning: input {name!r} is not read by the query", file=sys.stderr)

    pipeline = Pipeline(plan, _level_from_args(args))
    feed = sorted(
        ((name, row) for name, rows in inputs.items() for row in rows),
        key=lambda item: (item[1].c_s, item[0], item[1].sort_key))
    every = args.guarantee_every
    marks = _guarantee_marks(feed, sorted(inputs), every) if every else {}
    for i, (name, row) in enumerate(feed):
        for stream, threshold in marks.get(i, ()):
            pipeline.guarantee(stream, threshold)
        pipeline.feed(name, row)
    pipeline.flush()

    _write_rows(pipeline.outputs, args.output)
    if args.metrics:
        with open(args.metrics, "w", encoding="utf-8") as fh:
            json.dump(pipeline.metrics(), fh, sort_keys=True, indent=2)
            fh.write("\n")
    return OK


def cmd_disorder(args) -> int:
    if args.seed is None:
        print("error: --seed is required for reproducible disorder", file=sys.stderr)
        return DIAGNOSTICS
    if args.skew < 0 or not 0.0 <= args.retract_prob <= 1.0:
        print("error: --skew must be >= 0 and --retract-prob within [0, 1]",
              file=sys.stderr)
        return DIAGNOSTICS
    rows = _read_stream(args.input)
    out = disorder_stream(rows, args.skew, args.retract_prob, args.seed)
    if not logically_equivalent(rows, out, INF, "to"):
        print("error: internal: re-encoding changed stream content", file=sys.stderr)
        return IO_FAILURE
    _write_rows(out, args.output)
    return OK


def cmd_canon(args) -> int:
    rows = _read_stream(args.input)
    canon = (canonical_to if args.mode == "to" else canonical_at)(rows, args.t0)
    _write_rows(canon.sorted_rows(), args.output)
    return OK


def cmd_equiv(args) -> int:
    same = logically_equivalent(_read_stream(args.a), _read_stream(args.b),
                                args.t0, args.mode)
    print("equivalent" if same else "different")
    return OK if same else DIFFER


def cmd_parse(args) -> int:
    ast = _parse_file(args.query)
    print(json.dumps(ast_to_obj(ast), indent=2, sort_keys=True))
    if args.plan:
        compiled = compile_query(ast)
        if compiled.ok:
            print(plan_dumps(compiled.plan))
    return OK


def _add_run(run: argparse.ArgumentParser) -> None:
    run.add_argument("--query", required=True, help="query file")
    run.add_argument("--input", action="append", metavar="NAME=PATH",
                     help="event log for one stream (repeatable)")
    run.add_argument("--level", default="middle",
                     choices=["strong", "middle", "weak"])
    run.add_argument("--memory", type=_time_flag, default=None, metavar="M",
                     help="memory limit in ticks, or 'inf'")
    run.add_argument("--block", type=_time_flag, default=None, metavar="B",
                     help="blocking limit in ticks, or 'inf'")
    run.add_argument("--tick-unit", default="minute", choices=["minute", "second"],
                     dest="tick_unit")
    run.add_argument("--output", default=None)
    run.add_argument("--metrics", default=None)
    run.add_argument("--guarantee-every", type=_count_flag, default=0,
                     dest="guarantee_every", metavar="N",
                     help="declare honest per-stream guarantees every N rows")
    run.add_argument("--config", default=None)
    run.set_defaults(func=cmd_run)


def _add_disorder(dis: argparse.ArgumentParser) -> None:
    dis.add_argument("--input", required=True)
    dis.add_argument("--output", default=None)
    dis.add_argument("--seed", type=int, default=None)
    dis.add_argument("--skew", type=int, default=0)
    dis.add_argument("--retract-prob", type=float, default=0.0, dest="retract_prob")
    dis.add_argument("--config", default=None)
    dis.set_defaults(func=cmd_disorder)


def _add_canon(canon: argparse.ArgumentParser) -> None:
    canon.add_argument("--input", required=True)
    canon.add_argument("--t0", type=_time_flag, required=True)
    canon.add_argument("--mode", default="to", choices=["to", "at"])
    canon.add_argument("--output", default=None)
    canon.set_defaults(func=cmd_canon)


def _add_equiv(eq: argparse.ArgumentParser) -> None:
    eq.add_argument("a")
    eq.add_argument("b")
    eq.add_argument("--t0", type=_time_flag, required=True)
    eq.add_argument("--mode", default="to", choices=["to", "at"])
    eq.set_defaults(func=cmd_equiv)


def _add_parse(pr: argparse.ArgumentParser) -> None:
    pr.add_argument("--query", required=True)
    pr.add_argument("--plan", action="store_true", help="also dump the compiled plan")
    pr.set_defaults(func=cmd_parse)


# Each command's help line in ``cedr --help`` and the function that adds
# its arguments, in the order ``cedr --help`` lists them.
COMMANDS = {
    "run": ("execute a query over event logs", _add_run),
    "disorder": ("re-encode a stream with disorder", _add_disorder),
    "canon": ("canonicalize a stream", _add_canon),
    "equiv": ("check logical equivalence of two streams", _add_equiv),
    "parse": ("dump a query AST", _add_parse),
}


def _formatter():
    # argparse makes a formatter for every add_argument, and a formatter
    # without a width probes the terminal; this is the width it would find.
    return functools.partial(argparse.HelpFormatter,
                             width=shutil.get_terminal_size().columns - 2)


def build_parser() -> argparse.ArgumentParser:
    """The full ``cedr`` parser: every command, as a subparser."""
    formatter = _formatter()
    parser = argparse.ArgumentParser(
        prog="cedr", formatter_class=formatter,
        description="Temporal event-stream engine: standing queries over "
                    "out-of-order streams with retractions.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, add_arguments) in COMMANDS.items():
        add_arguments(sub.add_parser(name, help=help_line, formatter_class=formatter))
    return parser


def _parse(argv: list[str]) -> tuple[argparse.ArgumentParser, argparse.Namespace]:
    """The parser of the command ``argv`` names, and its namespace of ``argv[1:]``.

    That parser is built as ``build_parser`` builds the command's subparser,
    so it parses ``argv[1:]`` as the full parser would.  Any other line, and
    a line with arguments the command does not know, goes to the full
    parser, which exits with its help text or usage error, so every such
    text is the full parser's.
    """
    if argv and argv[0] in COMMANDS:
        name = argv[0]
        parser = argparse.ArgumentParser(prog=f"cedr {name}", formatter_class=_formatter())
        COMMANDS[name][1](parser)
        parser.set_defaults(command=name)
        args, extras = parser.parse_known_args(argv[1:])
        if not extras:
            return parser, args
    build_parser().parse_args(argv)
    raise AssertionError(f"the full parser accepted {argv!r}, which no command's parser did")


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        parser, args = _parse(argv)
        if getattr(args, "config", None):
            args = _with_config(parser, args, argv[1:])
        return args.func(args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else DIAGNOSTICS
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return IO_FAILURE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return IO_FAILURE


if __name__ == "__main__":
    sys.exit(main())
