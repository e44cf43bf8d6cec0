"""Pins the bytes of ``cedr --help`` and each subcommand's ``--help``.

argparse wraps help text to the terminal width, which it reads from
``COLUMNS`` when that is set.  Run ``python tests/test_help.py`` to print
the texts as JSON, in the form of ``tests/help_golden.json``.
"""

import contextlib
import io
import json
import os
import sys
from pathlib import Path

import pytest

from cedr.cli import main

GOLDEN = json.loads((Path(__file__).parent / "help_golden.json").read_text("utf-8"))
COMMANDS = ([], ["run"], ["disorder"], ["canon"], ["equiv"], ["parse"])
WIDTHS = (40, 80, 200)


def case_name(columns: int, command: list[str]) -> str:
    return " ".join(["cedr", *command, "--help", f"@{columns}"])


def help_text(command: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([*command, "--help"])
    return code, out.getvalue()


def test_golden_covers_every_case():
    assert sorted(GOLDEN) == sorted(case_name(c, cmd) for c in WIDTHS for cmd in COMMANDS)


@pytest.mark.parametrize("columns", WIDTHS)
@pytest.mark.parametrize("command", COMMANDS, ids=lambda c: " ".join(c) or "cedr")
def test_help_text(monkeypatch, columns, command):
    monkeypatch.setenv("COLUMNS", str(columns))
    assert help_text(command) == (0, GOLDEN[case_name(columns, command)])


if __name__ == "__main__":
    texts = {}
    for columns in WIDTHS:
        os.environ["COLUMNS"] = str(columns)
        for command in COMMANDS:
            code, text = help_text(command)
            assert code == 0, (command, code)
            texts[case_name(columns, command)] = text
    json.dump(texts, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
