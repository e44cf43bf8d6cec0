"""Output bytes pinned per run: ``cedr run`` and the stream commands.

Each case writes seeded ``perfbench.gen`` inputs as JSON lines, runs the
``cedr`` commands in process and compares the sha256 of every file they
read or write, and of ``--metrics``, with ``golden_runs.json``.  A change
that keeps the output the same keeps every hash; one that changes a byte
anywhere on the way (the JSON-lines writer, the reader, the engine, the
metrics) fails the case that shows it.

``python tests/test_golden_runs.py`` prints the hashes as JSON, for
writing the golden file from a tree whose output is the reference.
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import pytest

from cedr import jsonio
from cedr.cli import main

from perfbench import gen

GOLDEN_PATH = Path(__file__).parent / "golden_runs.json"

QUERY = """\
EVENT CIDR07_Example
WHEN UNLESS(SEQUENCE(INSTALL x,
                      SHUTDOWN AS y, 12 hours),
            RESTART AS z, 5 minutes)
WHERE {x.Machine_Id = y.Machine_Id} AND
      {x.Machine_Id = z.Machine_Id}
"""

RUNS = [(seed, n, level, every)
        for seed in (1, 2, 1009) for n in (90, 240)
        for level in ("strong", "middle", "weak") for every in (1, 20)]
STREAM_SEEDS = (1, 2)
STREAM_ROWS, FILE_ROWS = 1000, 100


def sha(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def run_hashes(workdir: Path, seed: int, n: int, level: str, every: int) -> dict:
    """``cedr run`` of the CIDR07 query on ``gen.cidr07_inputs(seed, n, 0)``."""
    query = workdir / "q.cedr"
    query.write_text(QUERY, encoding="utf-8")
    _, wire = gen.cidr07_inputs(seed, n, 0)
    inputs = hashlib.sha256()
    argv = ["run", "--query", str(query), "--level", level,
            "--guarantee-every", str(every)]
    for stream, rows in wire.items():
        path = workdir / f"{stream}.jsonl"
        jsonio.write_events(rows, str(path))
        inputs.update(path.read_bytes())
        argv += ["--input", f"{stream}={path}"]
    out, metrics = workdir / "out.jsonl", workdir / "metrics.json"
    code = main([*argv, "--output", str(out), "--metrics", str(metrics)])
    return {"exit": code, "inputs": inputs.hexdigest(),
            "output": sha(out), "metrics": sha(metrics)}


def stream_hashes(workdir: Path, seed: int) -> dict:
    """``disorder``, ``equiv`` and both ``canon`` modes per 100-row file.

    The commands and their arguments are those of the benchmark's
    ``stream-tools`` workload, on ``gen.clean_pattern_stream(seed, 1000)``.
    """
    clean_rows = gen.clean_pattern_stream(seed, STREAM_ROWS)
    digests = {kind: hashlib.sha256()
               for kind in ("clean", "disordered", "equiv", "canon-to", "canon-at")}
    exits = []
    for i in range(len(clean_rows) // FILE_ROWS):
        chunk = clean_rows[i * FILE_ROWS:(i + 1) * FILE_ROWS]
        mid = chunk[len(chunk) // 2].o_s
        paths = {kind: workdir / f"{kind}-{i}.jsonl"
                 for kind in ("clean", "disordered", "canon-to", "canon-at")}
        jsonio.write_events(chunk, str(paths["clean"]))
        clean, disordered = str(paths["clean"]), str(paths["disordered"])
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            exits += [
                main(["disorder", "--input", clean, "--output", disordered,
                      "--seed", str(seed * 100_003 + i),
                      "--skew", str(gen.SKEW), "--retract-prob", str(gen.RETRACT_PROB)]),
                main(["equiv", clean, disordered, "--t0", "inf"]),
                main(["canon", "--input", disordered, "--t0", "inf",
                      "--output", str(paths["canon-to"])]),
                main(["canon", "--input", disordered, "--mode", "at", "--t0", str(mid),
                      "--output", str(paths["canon-at"])]),
            ]
        digests["equiv"].update(stdout.getvalue().encode("utf-8"))
        for kind, path in paths.items():
            digests[kind].update(path.read_bytes())
    return {"exits": exits, **{kind: d.hexdigest() for kind, d in digests.items()}}


def run_id(seed, n, level, every) -> str:
    return f"run/{seed}/{n}/{level}/{every}"


def all_hashes(workdir: Path) -> dict:
    out = {}
    for case in RUNS:
        case_dir = workdir / run_id(*case).replace("/", "-")
        case_dir.mkdir()
        out[run_id(*case)] = run_hashes(case_dir, *case)
    for seed in STREAM_SEEDS:
        case_dir = workdir / f"stream-{seed}"
        case_dir.mkdir()
        out[f"stream-tools/{seed}"] = stream_hashes(case_dir, seed)
    return out


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text("utf-8"))


@pytest.mark.parametrize("case", RUNS, ids=lambda case: run_id(*case))
def test_cedr_run_bytes(case, tmp_path, golden):
    assert run_hashes(tmp_path, *case) == golden[run_id(*case)]


@pytest.mark.parametrize("seed", STREAM_SEEDS)
def test_stream_command_bytes(seed, tmp_path, golden):
    assert stream_hashes(tmp_path, seed) == golden[f"stream-tools/{seed}"]


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted([run_id(*case) for case in RUNS]
                                    + [f"stream-tools/{seed}" for seed in STREAM_SEEDS])


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        json.dump(all_hashes(Path(tmp)), sys.stdout, indent=1, sort_keys=True)
        sys.stdout.write("\n")
