import argparse
import contextlib
import io
import json
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import cedr
from cedr import cli
from cedr.cli import main
from cedr.disorder import disorder_stream
from cedr.engine import Pipeline, pattern_event_to_row
from cedr.jsonio import dumps_events, loads_events
from cedr.patterns import PatternEvent
from cedr.temporal import INF, HistoryTable, Payload, logically_equivalent

from fixtures import TABLE_A, TABLE_B, row
from perfbench.workloads import StreamTools

QUERY = """\
EVENT CIDR07_Example
WHEN UNLESS(SEQUENCE(INSTALL x,
                      SHUTDOWN AS y, 12 hours),
            RESTART AS z, 5 minutes)
WHERE {x.Machine_Id = y.Machine_Id} AND
      {x.Machine_Id = z.Machine_Id}
"""


def write_stream(path, events):
    rows = [pattern_event_to_row(e, f"K{i}", i) for i, e in enumerate(events)]
    path.write_text(dumps_events(rows))


def machine_event(id, v_s, machine="m1"):
    return PatternEvent(id, v_s, v_s + 2000, v_s, INF, rt=v_s,
                        payload=Payload({"Machine_Id": machine}))


@pytest.fixture
def query_file(tmp_path):
    p = tmp_path / "q.cedr"
    p.write_text(QUERY)
    return p


class TestRun:
    def test_composite_without_restart(self, tmp_path, query_file):
        write_stream(tmp_path / "install.jsonl", [machine_event("i1", 10)])
        write_stream(tmp_path / "shutdown.jsonl", [machine_event("s1", 100)])
        out = tmp_path / "out.jsonl"
        metrics = tmp_path / "metrics.json"
        code = main([
            "run", "--query", str(query_file),
            "--input", f"INSTALL={tmp_path / 'install.jsonl'}",
            "--input", f"SHUTDOWN={tmp_path / 'shutdown.jsonl'}",
            "--level", "middle",
            "--output", str(out), "--metrics", str(metrics),
        ])
        assert code == 0
        rows = loads_events(out.read_text())
        assert len(rows) == 1
        assert rows[0].v_s == 100
        m = json.loads(metrics.read_text())
        assert m["total"]["output_rows"] == 1

    def test_restart_within_scope_blocks(self, tmp_path, query_file):
        write_stream(tmp_path / "install.jsonl", [machine_event("i1", 10)])
        write_stream(tmp_path / "shutdown.jsonl", [machine_event("s1", 100)])
        write_stream(tmp_path / "restart.jsonl", [machine_event("r1", 103)])
        out = tmp_path / "out.jsonl"
        code = main([
            "run", "--query", str(query_file),
            "--input", f"INSTALL={tmp_path / 'install.jsonl'}",
            "--input", f"SHUTDOWN={tmp_path / 'shutdown.jsonl'}",
            "--input", f"RESTART={tmp_path / 'restart.jsonl'}",
            "--level", "strong", "--output", str(out),
        ])
        assert code == 0
        assert loads_events(out.read_text()) == []

    def test_malformed_line_reports_line_number(self, tmp_path, query_file, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"k": "K0"}\nnot json\n')
        code = main([
            "run", "--query", str(query_file),
            "--input", f"INSTALL={bad}",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "line 1" in err or "line 2" in err

    @pytest.mark.parametrize("level", [["--memory", "1000", "--block", "1000"],
                                       ["--level", "strong"], ["--level", "weak"]])
    def test_finite_memory_with_blocking_keeps_blocked_rows(self, tmp_path, level):
        # At a finite M with B > 0 the two rows wait in the buffer until
        # flush, whose guarantee moves the horizon to infinity.  They were
        # admitted in time, so they are written, as at the named levels.
        q = tmp_path / "q.cedr"
        q.write_text("EVENT q WHEN INSTALL x\n")
        write_stream(tmp_path / "install.jsonl",
                     [machine_event("i1", 5), machine_event("i2", 8)])
        out, metrics = tmp_path / "out.jsonl", tmp_path / "metrics.json"
        assert main(["run", "--query", str(q), *level,
                     "--input", f"INSTALL={tmp_path / 'install.jsonl'}",
                     "--output", str(out), "--metrics", str(metrics)]) == 0
        assert [(r.id, r.o_s) for r in loads_events(out.read_text())] == [("i1", 5), ("i2", 8)]
        total = json.loads(metrics.read_text())["total"]
        assert (total["output_rows"], total["dropped_rows"]) == (2, 0)

    @pytest.mark.parametrize("via_config", [False, True])
    def test_stream_named_twice_exits_one(self, tmp_path, query_file, capsys, via_config):
        # The second file once replaced the first silently, with exit 0.
        for name, v_s in (("a1", 10), ("a2", 40)):
            write_stream(tmp_path / f"{name}.jsonl", [machine_event(name, v_s)])
        specs = [f"INSTALL={tmp_path / 'a1.jsonl'}", f"INSTALL={tmp_path / 'a2.jsonl'}"]
        if via_config:
            cfg = tmp_path / "run.cfg"
            cfg.write_text(f"input = {', '.join(specs)}\n")
            flags = ["--config", str(cfg)]
        else:
            flags = [arg for spec in specs for arg in ("--input", spec)]
        out = tmp_path / "out.jsonl"
        assert main(["run", "--query", str(query_file), *flags, "--output", str(out)]) == 1
        assert "error: --input names stream 'INSTALL' twice" in capsys.readouterr().err
        assert not out.exists()

    def test_input_without_equals_exits_one(self, query_file, capsys):
        assert main(["run", "--query", str(query_file), "--input", "A"]) == 1
        assert "error: --input expects name=path, got 'A'" in capsys.readouterr().err

    def test_bad_query_exits_one(self, tmp_path):
        q = tmp_path / "bad.cedr"
        q.write_text("EVENT e WHEN FOO(A)")
        assert main(["run", "--query", str(q)]) == 1

    def test_deterministic_bytes(self, tmp_path, query_file):
        write_stream(tmp_path / "install.jsonl",
                     [machine_event("i1", 10), machine_event("i2", 40)])
        write_stream(tmp_path / "shutdown.jsonl", [machine_event("s1", 100)])
        outs = []
        for name in ("a", "b"):
            out = tmp_path / f"{name}.jsonl"
            metrics = tmp_path / f"{name}.json"
            assert main([
                "run", "--query", str(query_file),
                "--input", f"INSTALL={tmp_path / 'install.jsonl'}",
                "--input", f"SHUTDOWN={tmp_path / 'shutdown.jsonl'}",
                "--guarantee-every", "1",
                "--output", str(out), "--metrics", str(metrics),
            ]) == 0
            outs.append(out.read_bytes() + metrics.read_bytes())
        assert outs[0] == outs[1]

    def test_config_file(self, tmp_path, query_file):
        write_stream(tmp_path / "install.jsonl", [machine_event("i1", 10)])
        write_stream(tmp_path / "shutdown.jsonl", [machine_event("s1", 100)])
        out = tmp_path / "out.jsonl"
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            f"level = strong\n"
            f"# comment\n"
            f"output = {out}\n"
            f"input = INSTALL={tmp_path / 'install.jsonl'}, "
            f"SHUTDOWN={tmp_path / 'shutdown.jsonl'}\n")
        assert main(["run", "--query", str(query_file), "--config", str(cfg)]) == 0
        assert len(loads_events(out.read_text())) == 1

    @pytest.mark.parametrize("line", ["tick_unit = hour", "level = loud",
                                      "guarantee_every = often", "guarantee_every = -3"])
    def test_bad_config_value_is_a_usage_error(self, tmp_path, query_file, capsys, line):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")
        assert main(["run", "--query", str(query_file), "--config", str(cfg)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_flag_is_a_usage_error(self, query_file, capsys):
        # main returns the exit code, as for a bad config value; it does
        # not raise SystemExit into an in-process caller.
        assert main(["run", "--query", str(query_file), "--tick-unit", "hour"]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["--memory", "abc"], ["--block", "-1"]])
    def test_bad_time_flag_is_a_usage_error(self, query_file, capsys, argv):
        assert main(["run", "--query", str(query_file), *argv]) == 2
        assert "error: argument " + argv[0] in capsys.readouterr().err

    def test_bad_time_in_config_is_a_usage_error(self, tmp_path, query_file, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("memory = abc\n")
        assert main(["run", "--query", str(query_file), "--config", str(cfg)]) == 2
        assert "error: argument --memory" in capsys.readouterr().err

    @pytest.mark.parametrize("every", ["-1", "-3"])
    def test_negative_guarantee_every_is_a_usage_error(self, tmp_path, query_file, capsys,
                                                       every):
        write_stream(tmp_path / "install.jsonl", [machine_event("i1", 10)])
        assert main(["run", "--query", str(query_file),
                     "--input", f"INSTALL={tmp_path / 'install.jsonl'}",
                     "--guarantee-every", every,
                     "--output", str(tmp_path / "out.jsonl")]) == 2
        assert "error: argument --guarantee-every" in capsys.readouterr().err
        assert not (tmp_path / "out.jsonl").exists()

    def test_zero_guarantee_every_declares_none(self, tmp_path, query_file, monkeypatch):
        write_stream(tmp_path / "install.jsonl",
                     [machine_event("i1", 10), machine_event("i2", 40)])
        declared = []
        monkeypatch.setattr(Pipeline, "guarantee",
                            lambda self, stream, threshold: declared.append(stream))
        assert main(["run", "--query", str(query_file),
                     "--input", f"INSTALL={tmp_path / 'install.jsonl'}",
                     "--guarantee-every", "0",
                     "--output", str(tmp_path / "out.jsonl")]) == 0
        assert declared == []

    def test_command_line_wins_over_config(self, tmp_path, query_file):
        write_stream(tmp_path / "install.jsonl", [machine_event("i1", 10)])
        write_stream(tmp_path / "shutdown.jsonl", [machine_event("s1", 100)])
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"output = {tmp_path / 'config.jsonl'}\nguarantee_every = 1\n"
                       f"input = INSTALL={tmp_path / 'install.jsonl'}\n")
        out = tmp_path / "flag.jsonl"
        assert main(["run", "--query", str(query_file), "--config", str(cfg),
                     "--output", str(out),
                     "--input", f"INSTALL={tmp_path / 'install.jsonl'}",
                     "--input", f"SHUTDOWN={tmp_path / 'shutdown.jsonl'}"]) == 0
        assert len(loads_events(out.read_text())) == 1
        assert not (tmp_path / "config.jsonl").exists()


class TestGuaranteeEvery:
    @staticmethod
    def _rescan(feed, streams, every):
        """The guarantees ``run`` declared by rescanning the rest of the feed
        for every stream at every mark; the suffix-minimum pass must agree."""
        seen, syncs = {}, []
        for name, r in feed:
            marks = seen.setdefault(name, set())
            syncs.append(r.o_s if r.k not in marks else r.o_e)
            marks.add(r.k)
        declared, last = [], {}
        for i in range(len(feed)):
            if every and i and i % every == 0:
                for stream in streams:
                    remaining = [s for (n, _), s in zip(feed[i:], syncs[i:])
                                 if n == stream and s != INF]
                    threshold = min(remaining) - 1 if remaining else INF
                    if threshold == INF or threshold < 0:
                        continue
                    if threshold > last.get(stream, -1):
                        declared.append((i, stream, threshold))
                        last[stream] = threshold
        return declared

    @pytest.mark.parametrize("every", [1, 3, 7, 20])
    def test_declares_what_a_rescan_declares(self, tmp_path, query_file, monkeypatch, every):
        rng = random.Random(f"guarantee-every-{every}")
        argv = ["run", "--query", str(query_file), "--level", "middle",
                "--guarantee-every", str(every), "--output", str(tmp_path / "out.jsonl")]
        for n, name in enumerate(("INSTALL", "SHUTDOWN", "RESTART")):
            events = sorted((machine_event(f"{name}{i}", rng.randint(0, 3000),
                                           rng.choice(("m1", "m2", "m3")))
                             for i in range(40)), key=lambda e: e.v_s)
            clean = [pattern_event_to_row(e, f"{name}K{i}", i) for i, e in enumerate(events)]
            path = tmp_path / f"{name}.jsonl"
            path.write_text(dumps_events(disorder_stream(clean, 6, 0.3, seed=n)))
            argv += ["--input", f"{name}={path}"]
        fed, declared = [], []
        feed, guarantee = Pipeline.feed, Pipeline.guarantee

        def recording_feed(self, stream, r):
            fed.append((stream, r))
            return feed(self, stream, r)

        def recording_guarantee(self, stream, threshold):
            declared.append((len(fed), stream, threshold))
            return guarantee(self, stream, threshold)

        monkeypatch.setattr(Pipeline, "feed", recording_feed)
        monkeypatch.setattr(Pipeline, "guarantee", recording_guarantee)
        assert main(argv) == 0
        assert len(declared) > 3
        assert declared == self._rescan(fed, ["INSTALL", "RESTART", "SHUTDOWN"], every)


class TestDisorder:
    def _write(self, tmp_path, rows, name="in.jsonl"):
        p = tmp_path / name
        p.write_text(dumps_events(rows))
        return p

    def test_identity_when_no_knobs(self, tmp_path):
        src = self._write(tmp_path, TABLE_A.sorted_rows())
        out = tmp_path / "out.jsonl"
        assert main(["disorder", "--input", str(src), "--output", str(out),
                     "--seed", "7"]) == 0
        assert out.read_bytes() == src.read_bytes()

    def test_skew_preserves_content(self, tmp_path):
        rows = [row("K%d" % i, "e%d" % i, i, i + 5, i, INF, i) for i in range(12)]
        src = self._write(tmp_path, rows)
        out = tmp_path / "out.jsonl"
        assert main(["disorder", "--input", str(src), "--output", str(out),
                     "--seed", "3", "--skew", "5"]) == 0
        shuffled = loads_events(out.read_text())
        assert logically_equivalent(HistoryTable(rows), HistoryTable(shuffled),
                                    INF, "to")
        assert [r.o_s for r in shuffled] != [r.o_s for r in rows]

    def test_full_retraction_expands_rows(self, tmp_path):
        rows = [row("K%d" % i, "e%d" % i, i, i + 5, i, i + 3, i) for i in range(4)]
        src = self._write(tmp_path, rows)
        out = tmp_path / "out.jsonl"
        assert main(["disorder", "--input", str(src), "--output", str(out),
                     "--seed", "3", "--retract-prob", "1.0"]) == 0
        expanded = loads_events(out.read_text())
        assert len(expanded) == 3 * len(rows)
        assert logically_equivalent(HistoryTable(rows), HistoryTable(expanded),
                                    INF, "to")

    def test_seed_required(self, tmp_path):
        src = self._write(tmp_path, TABLE_A.sorted_rows())
        assert main(["disorder", "--input", str(src)]) == 1

    @pytest.mark.parametrize("argv", [["--skew", "-1"], ["--retract-prob", "1.5"]])
    def test_knob_out_of_range_exits_one(self, tmp_path, capsys, argv):
        src = self._write(tmp_path, TABLE_A.sorted_rows())
        assert main(["disorder", "--input", str(src), "--seed", "1", *argv]) == 1
        assert ("error: --skew must be >= 0 and --retract-prob within [0, 1]"
                in capsys.readouterr().err)

    def test_config_line_without_equals_is_a_usage_error(self, tmp_path, capsys):
        src = self._write(tmp_path, TABLE_A.sorted_rows())
        cfg = tmp_path / "disorder.cfg"
        cfg.write_text("seed\n")
        assert main(["disorder", "--input", str(src), "--config", str(cfg)]) == 2
        assert f"error: {cfg}:1: expected key = value" in capsys.readouterr().err

    def test_seed_reproducible(self, tmp_path):
        rows = [row("K%d" % i, "e%d" % i, i, i + 5, i, INF, i) for i in range(10)]
        src = self._write(tmp_path, rows)
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        for out in (a, b):
            assert main(["disorder", "--input", str(src), "--output", str(out),
                         "--seed", "11", "--skew", "4", "--retract-prob", "0.5"]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestCanonEquiv:
    def _tables(self, tmp_path):
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        a.write_text(dumps_events(TABLE_A.sorted_rows()))
        b.write_text(dumps_events(TABLE_B.sorted_rows()))
        return a, b

    def test_equiv_at_three(self, tmp_path):
        a, b = self._tables(tmp_path)
        assert main(["equiv", str(a), str(b), "--t0", "3", "--mode", "to"]) == 0
        assert main(["equiv", str(a), str(b), "--t0", "3", "--mode", "at"]) == 0

    def test_differ_at_five(self, tmp_path):
        a, b = self._tables(tmp_path)
        assert main(["equiv", str(a), str(b), "--t0", "5", "--mode", "to"]) == 3

    def test_file_vs_itself(self, tmp_path):
        a, _ = self._tables(tmp_path)
        assert main(["equiv", str(a), str(a), "--t0", "5", "--mode", "to"]) == 0

    def test_canon_writes_reduced_truncated_table(self, tmp_path):
        a, _ = self._tables(tmp_path)
        out = tmp_path / "canon.jsonl"
        assert main(["canon", "--input", str(a), "--t0", "3", "--mode", "to",
                     "--output", str(out)]) == 0
        rows = loads_events(out.read_text())
        assert len(rows) == 1
        assert (rows[0].o_s, rows[0].o_e) == (1, 3)

    def test_missing_file_exit_two(self, tmp_path):
        assert main(["canon", "--input", str(tmp_path / "nope.jsonl"),
                     "--t0", "3"]) == 2

    def test_canon_writes_the_same_bytes_to_stdout_and_to_a_file(self, tmp_path, capsys):
        a, _ = self._tables(tmp_path)
        out = tmp_path / "canon.jsonl"
        argv = ["canon", "--input", str(a), "--t0", "inf", "--mode", "to"]
        assert main(argv) == 0
        printed = capsys.readouterr().out
        assert main([*argv, "--output", str(out)]) == 0
        assert printed and out.read_text(encoding="utf-8") == printed

    def test_output_into_missing_directory_exit_two(self, tmp_path, capsys):
        a, _ = self._tables(tmp_path)
        assert main(["canon", "--input", str(a), "--t0", "3",
                     "--output", str(tmp_path / "missing" / "canon.jsonl")]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("command,t0", [("canon", "-3"), ("equiv", "x")])
    def test_bad_t0_is_a_usage_error(self, tmp_path, capsys, command, t0):
        a, b = self._tables(tmp_path)
        files = ["--input", str(a)] if command == "canon" else [str(a), str(b)]
        assert main([command, *files, "--t0", t0]) == 2
        assert "error: argument --t0" in capsys.readouterr().err

    def test_t0_accepts_inf_in_any_case(self, tmp_path):
        a, _ = self._tables(tmp_path)
        assert main(["equiv", str(a), str(a), "--t0", "INF"]) == 0


class TestUnhashableLineage:
    """A JSON array or object as ``k`` or ``id`` is a format error, exit 2."""

    BAD = [("k", ["K"], "k must be a string, number, boolean or null, got ['K']"),
           ("id", {"a": 1}, "id must be a string, number, boolean or null, got {'a': 1}")]

    def _write(self, tmp_path, field, value):
        # Line 1 is valid; line 2 carries the bad field.
        good = machine_event("i1", 10)
        lines = dumps_events([pattern_event_to_row(good, "K0", 0),
                              pattern_event_to_row(machine_event("i2", 20), "K1", 1)])
        first, second = lines.splitlines()
        obj = json.loads(second)
        obj[field] = value
        path = tmp_path / "bad.jsonl"
        path.write_text(f"{first}\n{json.dumps(obj)}\n")
        return path

    @pytest.mark.parametrize("field,value,message", BAD, ids=["k", "id"])
    @pytest.mark.parametrize("command", ["canon", "equiv", "disorder", "run"])
    def test_exit_two_with_line_number(self, tmp_path, capsys, query_file,
                                       command, field, value, message):
        bad = self._write(tmp_path, field, value)
        good = tmp_path / "good.jsonl"
        write_stream(good, [machine_event("i1", 10)])
        argv = {
            "canon": ["canon", "--input", str(bad), "--t0", "inf"],
            "equiv": ["equiv", str(good), str(bad), "--t0", "inf"],
            "disorder": ["disorder", "--input", str(bad), "--seed", "1"],
            "run": ["run", "--query", str(query_file), "--input", f"INSTALL={bad}",
                    "--input", f"SHUTDOWN={good}"],
        }[command]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {bad}: line 2: {message}\n"
        assert captured.out == ""


class TestCommandCost:
    def test_stream_tools_commands_probe_once_and_build_two_tables(self, tmp_path,
                                                                   monkeypatch):
        # One stream-tools call: disorder, equiv, canon to and canon at on
        # one 100-row file.  Each command builds only its own parser, one
        # ArgumentParser with one terminal probe; only the two canon
        # commands build a table.
        counts = {"parsers": 0, "probes": 0, "tables": 0}
        parser_init = argparse.ArgumentParser.__init__
        probe, init = shutil.get_terminal_size, HistoryTable.__init__

        def counted_parser_init(self, *args, **kwargs):
            counts["parsers"] += 1
            parser_init(self, *args, **kwargs)

        def counted_probe(*args):
            counts["probes"] += 1
            return probe(*args)

        def counted_init(self, rows=()):
            counts["tables"] += 1
            init(self, rows)

        tools = StreamTools(1, str(tmp_path), n_rows=100, file_rows=100, parts=1)
        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted_parser_init)
        monkeypatch.setattr(shutil, "get_terminal_size", counted_probe)
        monkeypatch.setattr(HistoryTable, "__init__", counted_init)
        with contextlib.redirect_stdout(io.StringIO()):
            exits = [main(argv) for argv in tools.commands(0)]
        assert exits == [0, 0, 0, 0]
        assert counts["parsers"] == 4
        assert counts["probes"] == 4
        assert counts["tables"] <= 2


class TestOneCommandParser:
    """``main`` dispatches on the namespace the full ``cedr`` parser would make."""

    LINES = [
        ["run", "--query", "q.cedr"],
        ["run", "--query", "q.cedr", "--input", "A=a.jsonl", "--input=B=b.jsonl",
         "--level", "weak", "--memory", "inf", "--block", "5", "--tick-unit", "second",
         "--output", "out.jsonl", "--metrics", "m.json", "--guarantee-every", "20"],
        ["disorder", "--input", "a.jsonl"],
        ["disorder", "--input", "a.jsonl", "--output", "o.jsonl", "--seed", "7",
         "--skew", "3", "--retract-prob", "0.25"],
        ["canon", "--input", "a.jsonl", "--t0", "inf"],
        ["canon", "--mode", "at", "--t0=12", "--input", "a.jsonl", "--output", "o.jsonl"],
        ["equiv", "a.jsonl", "b.jsonl", "--t0", "0"],
        ["equiv", "--t0", "inf", "a.jsonl", "--mode", "at", "b.jsonl"],
        ["equiv", "a.jsonl", "--t0", "3", "--", "-b.jsonl"],
        ["parse", "--query", "q.cedr"],
        ["parse", "--plan", "--query", "q.cedr"],
    ]
    # A config file's values, and the flags the full parser must read them as.
    CONFIGS = [
        (["run", "--query", "q.cedr"],
         "level = strong\nmemory = 50\ninput = A=a.jsonl, B=b.jsonl\nskew = 3\n",
         ["--level=strong", "--memory=50", "--input=A=a.jsonl", "--input=B=b.jsonl"]),
        (["run", "--query", "q.cedr", "--level", "weak"],
         "level = strong\nguarantee-every = 4\n",
         ["--level=strong", "--guarantee-every=4"]),
        (["disorder", "--input", "a.jsonl"],
         "seed = 5\nretract_prob = 0.5\nt0 = 3\n",
         ["--seed=5", "--retract-prob=0.5"]),
    ]

    @pytest.fixture
    def dispatched(self, monkeypatch):
        """``vars()`` of each namespace ``main`` hands to a command."""
        seen = []

        def record(args):
            seen.append(vars(args))
            return 0

        for name in ("cmd_run", "cmd_disorder", "cmd_canon", "cmd_equiv", "cmd_parse"):
            monkeypatch.setattr(cli, name, record)
        return seen

    @pytest.mark.parametrize("argv", LINES, ids=" ".join)
    def test_namespace_equals_the_full_parsers(self, dispatched, argv):
        assert main(list(argv)) == 0
        assert dispatched == [vars(cli.build_parser().parse_args(argv))]
        assert dispatched[0]["command"] == argv[0]

    @pytest.mark.parametrize("argv, config, flags", CONFIGS,
                             ids=[" ".join(argv) for argv, _, _ in CONFIGS])
    def test_config_namespace_equals_the_full_parsers(self, tmp_path, dispatched,
                                                      argv, config, flags):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(config)
        argv = [*argv, "--config", str(cfg)]
        assert main(list(argv)) == 0
        want = cli.build_parser().parse_args([argv[0], *flags, *argv[1:]])
        assert dispatched == [vars(want)]


class TestModuleEntry:
    """``python -m cedr`` is ``cedr.cli.main`` in a new process."""

    @pytest.mark.parametrize("kind", ["help", "canon", "equiv-differ", "missing-file"])
    def test_same_exit_and_stdout_as_main(self, tmp_path, monkeypatch, capsys, kind):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        a.write_text(dumps_events(TABLE_A.sorted_rows()))
        b.write_text(dumps_events(TABLE_B.sorted_rows()))
        argv = {
            "help": ["canon", "--help"],
            "canon": ["canon", "--input", str(a), "--t0", "3"],
            "equiv-differ": ["equiv", str(a), str(b), "--t0", "5"],
            "missing-file": ["canon", "--input", str(tmp_path / "nope"), "--t0", "3"],
        }[kind]
        monkeypatch.setenv("COLUMNS", "72")
        src = str(Path(cedr.__file__).resolve().parents[1])
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-m", "cedr", *argv], env=env,
                              capture_output=True, text=True, timeout=60)
        code = main(argv)
        assert (proc.returncode, proc.stdout) == (code, capsys.readouterr().out)
        assert code == {"help": 0, "canon": 0, "equiv-differ": 3, "missing-file": 2}[kind]


class TestParseCommand:
    def test_ast_dump(self, tmp_path, capsys):
        q = tmp_path / "q.cedr"
        q.write_text(QUERY)
        assert main(["parse", "--query", str(q), "--plan"]) == 0
        out = capsys.readouterr().out
        # Two documents: the pretty-printed AST, then the compiled plan line.
        ast_text, plan_text = out.rsplit("\n", 2)[0:2]
        ast = json.loads(ast_text)
        assert ast["node"] == "QueryAst" and ast["when"]["node"] == "UnlessExpr"
        plan = json.loads(plan_text)
        assert plan["type"] == "unless"

    def test_parse_error_exit_one(self, tmp_path, capsys):
        q = tmp_path / "q.cedr"
        q.write_text("EVENT WHEN")
        assert main(["parse", "--query", str(q)]) == 1
        assert capsys.readouterr().err.startswith(f"{q}:1:7: error: ")

    def test_compile_diagnostics_name_path_line_and_column(self, tmp_path, capsys):
        q = tmp_path / "q.cedr"
        q.write_text("EVENT q WHEN SEQUENCE(A x, B y, 10) WHERE {x.a = z.a}")
        assert main(["run", "--query", str(q)]) == 1
        assert capsys.readouterr().err == (
            f"{q}:1:1: error: unbound variable(s): z "
            "(bind the variable with AS in the WHEN clause)\n")
        q.write_text("EVENT q WHEN A x WHERE CorrelationKey(a, EQUAL)")
        assert main(["run", "--query", str(q)]) == 0
        assert capsys.readouterr().err == (
            f"{q}:1:1: warning: CorrelationKey(a) needs two bound variables\n")

    @pytest.mark.parametrize("command", ["parse", "run"])
    def test_unreadable_query_exit_two(self, tmp_path, capsys, command):
        q = tmp_path / "nope.cedr"
        assert main([command, "--query", str(q)]) == 2
        assert capsys.readouterr().err == f"error: {q}: No such file or directory\n"


class TestDisorderedRunEquivalence:
    def test_strong_run_on_disordered_inputs_is_equivalent(self, tmp_path, query_file):
        install = [machine_event("i1", 10), machine_event("i2", 200),
                   machine_event("i3", 380, "m2")]
        shutdown = [machine_event("s1", 100), machine_event("s2", 320),
                    machine_event("s3", 400, "m2")]
        write_stream(tmp_path / "install.jsonl", install)
        write_stream(tmp_path / "shutdown.jsonl", shutdown)
        base_out = tmp_path / "base.jsonl"
        assert main([
            "run", "--query", str(query_file), "--level", "strong",
            "--input", f"INSTALL={tmp_path / 'install.jsonl'}",
            "--input", f"SHUTDOWN={tmp_path / 'shutdown.jsonl'}",
            "--output", str(base_out),
        ]) == 0
        for seed in (1, 2, 3):
            for name in ("install", "shutdown"):
                assert main([
                    "disorder", "--input", str(tmp_path / f"{name}.jsonl"),
                    "--output", str(tmp_path / f"{name}.d{seed}.jsonl"),
                    "--seed", str(seed), "--skew", "4", "--retract-prob", "0.5",
                ]) == 0
            out = tmp_path / f"out.d{seed}.jsonl"
            assert main([
                "run", "--query", str(query_file), "--level", "strong",
                "--input", f"INSTALL={tmp_path / f'install.d{seed}.jsonl'}",
                "--input", f"SHUTDOWN={tmp_path / f'shutdown.d{seed}.jsonl'}",
                "--output", str(out),
            ]) == 0
            assert logically_equivalent(
                HistoryTable(loads_events(base_out.read_text())),
                HistoryTable(loads_events(out.read_text())),
                INF, "to", include_lineage=False)
