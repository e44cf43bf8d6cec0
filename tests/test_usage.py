"""Pins exit code, stdout and stderr of ``cedr`` usage errors and help requests.

Each case is one command line run through ``cedr.cli.main`` in a directory
that holds the files the cases name, with ``COLUMNS`` fixed, since argparse
wraps its usage lines to the terminal width.  Run ``python
tests/test_usage.py`` to print the results as JSON, in the form of
``tests/usage_golden.json``.
"""

import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import pytest

from cedr.cli import main

GOLDEN = json.loads((Path(__file__).parent / "usage_golden.json").read_text("utf-8"))
COLUMNS = 80
FILES = {
    "q.cedr": "EVENT q\nWHEN INSTALL x\n",
    "bad-value.cfg": "level = sometimes\n",
    "unknown-key.cfg": "colour = blue\nskew = lots\nlevel = strong\n",
    "bad-skew.cfg": "skew = lots\n",
}
CASES = (
    [],
    ["frob"],
    ["-h"],
    ["--help", "canon"],
    ["run"],
    ["disorder"],
    ["canon"],
    ["canon", "--input", "a.jsonl"],
    ["equiv"],
    ["equiv", "a.jsonl", "b.jsonl"],
    ["parse"],
    ["canon", "--input", "a.jsonl", "--t0", "-1"],
    ["equiv", "a.jsonl", "b.jsonl", "--t0", "soon"],
    ["run", "--query", "q.cedr", "--level", "sometimes"],
    ["disorder", "--input", "a.jsonl", "--seed", "1", "--skew", "lots"],
    ["canon", "--input", "a.jsonl", "--t0", "1", "extra"],
    ["equiv", "a.jsonl", "b.jsonl", "c.jsonl", "--t0", "1"],
    ["canon", "--input", "a.jsonl", "--t0", "1", "--colour", "blue"],
    ["parse", "--query", "q.cedr", "--colour"],
    ["equiv", "--", "a.jsonl", "b.jsonl", "--t0", "1"],
    ["canon", "--input", "a.jsonl", "--t0", "1", "-h"],
    ["run", "--level", "weak", "-h"],
    ["run", "--level", "sometimes", "-h"],
    ["run", "--query", "q.cedr", "--config", "bad-value.cfg"],
    ["run", "--query", "q.cedr", "--config", "unknown-key.cfg"],
    ["disorder", "--input", "a.jsonl", "--config", "bad-skew.cfg"],
)


def case_name(argv: list[str]) -> str:
    return " ".join(["cedr", *argv])


def outcome(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def write_files(directory: Path) -> None:
    for name, text in FILES.items():
        (directory / name).write_text(text, encoding="utf-8")


def test_golden_covers_every_case():
    assert sorted(GOLDEN) == sorted(case_name(argv) for argv in CASES)


@pytest.mark.parametrize("argv", CASES, ids=case_name)
def test_usage(tmp_path, monkeypatch, argv):
    write_files(tmp_path)
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", str(COLUMNS))
    assert outcome(argv) == GOLDEN[case_name(argv)]


if __name__ == "__main__":
    os.environ["COLUMNS"] = str(COLUMNS)
    results = {}
    with tempfile.TemporaryDirectory() as directory:
        write_files(Path(directory))
        here = os.getcwd()
        os.chdir(directory)
        try:
            for argv in CASES:
                results[case_name(argv)] = outcome(argv)
        finally:
            os.chdir(here)
    json.dump(results, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
