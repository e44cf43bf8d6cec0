"""Output bytes pinned per run: ``cedr run``, the stream commands and a merged chain.

Each case writes seeded ``perfbench.gen`` inputs as JSON lines, runs the
``cedr`` commands in process and compares the sha256 of every file they
read or write, and of ``--metrics``, with ``golden_runs.json``.  A change
that keeps the output the same keeps every hash; one that changes a byte
anywhere on the way (the JSON-lines writer, the reader, the engine, the
metrics) fails the case that shows it.  Each ``cedr run`` case also pins
its clock-free output: the hash of the output rows without their arrival
stamps ``cs``, and the ``output_rows``, ``retraction_rows`` and
``dropped_rows`` totals.  The arrival clock ticks once per restamp and per
emitted row inside the engine, so a change to the engine's internal
hand-offs can move ``cs`` while these pins stay put.

The ``cedr run`` cases cover the CIDR07 query on three seeds, two sizes,
three levels and two guarantee rates, and four other operators on one
input at each level.  Five finite (M, B) levels, set through ``--memory``
and ``--block``, pin the CIDR07 query on two seeds: there the alignment
buffer holds rows across arrivals and releases them in sync order, which
B = 0 never exercises.  The merged ``union -> difference -> groupby``
chain is driven as the ``rollup-strong`` benchmark drives it, at STRONG
on twelve inputs, and at MIDDLE, WEAK and two finite levels on one, and
its output rows and metrics are hashed the same way.  Two queries with
wrappers at the root (slices, and in one a projection) are pinned too; for
them the tests also check that the output's content equals the
denotation and that ``--metrics`` counts the rows written.

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

from cedr import engine, jsonio, patterns, temporal
from cedr.cli import main
from cedr.disorder import rows_from_pattern
from cedr.query import compile_query, parse

from perfbench import gen, workloads

GOLDEN_PATH = Path(__file__).parent / "golden_runs.json"

QUERY = """\
EVENT CIDR07_Example
WHEN UNLESS(SEQUENCE(INSTALL x,
                      SHUTDOWN AS y, 12 hours),
            RESTART AS z, 5 minutes)
WHERE {x.Machine_Id = y.Machine_Id} AND
      {x.Machine_Id = z.Machine_Id}
"""

LEVELS = ("strong", "middle", "weak")
RUNS = [(seed, n, level, every)
        for seed in (1, 2, 1009) for n in (90, 240)
        for level in LEVELS for every in (1, 20)]
# (M, B) through --memory and --block, on seeds 1 and 2's 240-event
# inputs, a guarantee every 20 arrivals.
FINITE_RUNS = [(seed, memory, block) for seed in (1, 2)
               for memory, block in ((temporal.INF, 1), (temporal.INF, 5), (temporal.INF, 30),
                                     (50, 5), (5, 1))]

# One input each (seed 1, 90 events, a guarantee every 20 arrivals).
OTHER_QUERIES = {
    "not": """\
EVENT q
WHEN NOT(RESTART AS z, SEQUENCE(INSTALL x, SHUTDOWN AS y, 30 minutes))
""",
    "atleast": """\
EVENT q
WHEN ATLEAST(2, INSTALL, SHUTDOWN, RESTART, 30 minutes)
""",
    "cancel-when": """\
EVENT q
WHEN CANCEL-WHEN(SEQUENCE(INSTALL x, SHUTDOWN AS y, 2 hours), RESTART AS z)
WHERE {x.Machine_Id = y.Machine_Id} AND
      {x.Machine_Id = z.Machine_Id}
""",
    "unless-unkeyed": """\
EVENT q
WHEN UNLESS(SEQUENCE(INSTALL x, SHUTDOWN AS y, 1 hours), RESTART AS z, 5 minutes)
""",
}
QUERY_RUNS = [(name, level) for name in OTHER_QUERIES for level in LEVELS]

# Root wrappers, on seed 1's 240-event input, a guarantee every 20 arrivals.
WRAPPED_QUERIES = {
    "cidr07": QUERY + "OUTPUT Machine_Id\n@ [100, 1500] # [200, 2000]\n",
    "leaf": "EVENT q\nWHEN INSTALL x # [300, 2000]\n",
}
WRAPPED_RUNS = [(name, level) for name in WRAPPED_QUERIES for level in LEVELS]
# The chain at STRONG, as the benchmark runs it, and at the other levels on
# one input.
CHAIN_RUNS = ([(seed, part, "strong") for seed in (1, 2, 1009) for part in range(4)]
              + [(1, 0, "middle"), (1, 0, "weak"),
                 (1, 0, (temporal.INF, 5)), (1, 0, (50, 5))])
STREAM_SEEDS = (1, 2)
STREAM_ROWS, FILE_ROWS = 1000, 100


def sha(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def run_hashes(workdir: Path, seed: int, n: int, level: str, every: int,
               text: str = QUERY, flags: tuple = ()) -> dict:
    """``cedr run`` of ``text`` (the CIDR07 query) on ``gen.cidr07_inputs(seed, n, 0)``."""
    query = workdir / "q.cedr"
    query.write_text(text, encoding="utf-8")
    _, wire = gen.cidr07_inputs(seed, n, 0)
    inputs = hashlib.sha256()
    argv = ["run", "--query", str(query), "--level", level,
            "--guarantee-every", str(every), *flags]
    for stream, rows in wire.items():
        path = workdir / f"{stream}.jsonl"
        jsonio.write_events(rows, str(path))
        inputs.update(path.read_bytes())
        argv += ["--input", f"{stream}={path}"]
    out, metrics = workdir / "out.jsonl", workdir / "metrics.json"
    code = main([*argv, "--output", str(out), "--metrics", str(metrics)])
    return {"exit": code, "inputs": inputs.hexdigest(),
            "output": sha(out), "metrics": sha(metrics),
            "clock_free": clock_free(out, metrics)}


def clock_free(out: Path, metrics: Path) -> dict:
    """The hash of the output rows without ``cs``, and the row totals of ``--metrics``."""
    rows = hashlib.sha256()
    for line in out.read_text("utf-8").splitlines():
        obj = json.loads(line)
        del obj["cs"]
        rows.update(json.dumps(obj, sort_keys=True).encode("utf-8") + b"\n")
    total = json.loads(metrics.read_text("utf-8"))["total"]
    return {"rows": rows.hexdigest(),
            **{key: total[key] for key in ("output_rows", "retraction_rows", "dropped_rows")}}


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


def query_hashes(workdir: Path, name: str, level: str) -> dict:
    return run_hashes(workdir, 1, 90, level, 20, OTHER_QUERIES[name])


def wrapped_hashes(workdir: Path, name: str, level: str) -> dict:
    return run_hashes(workdir, 1, 240, level, 20, WRAPPED_QUERIES[name])


def finite_hashes(workdir: Path, seed: int, memory, block) -> dict:
    return run_hashes(workdir, seed, 240, "strong", 20,
                      flags=("--memory", str(memory), "--block", str(block)))


def chain_hashes(seed: int, part: int, level: str) -> dict:
    """The ``rollup-strong`` chain on ``gen.rollup_inputs(seed, 150, part)``.

    ``level`` is a level's name or its (M, B) pair.
    """
    _, wire = gen.rollup_inputs(seed, workloads.ROLLUP_EVENTS_PER_STREAM, part)
    feed = workloads.arrival_order(wire)
    schedule = workloads.guarantee_schedule(feed, sorted(wire), workloads.GUARANTEE_EVERY)
    chain = workloads.RollupChain(engine.ConsistencyLevel.named(level) if isinstance(level, str)
                                  else engine.ConsistencyLevel(*level))
    workloads.drive(chain, feed, schedule, chain.flush)
    metrics = json.dumps(chain.metrics(), sort_keys=True)
    return {"output": hashlib.sha256(jsonio.dumps_events(chain.outputs).encode()).hexdigest(),
            "metrics": hashlib.sha256(metrics.encode()).hexdigest()}


def run_id(seed, n, level, every) -> str:
    return f"run/{seed}/{n}/{level}/{every}"


def finite_id(seed, memory, block) -> str:
    return f"run/{seed}/240/{memory},{block}/20"


def query_id(name, level) -> str:
    return f"query/{name}/{level}"


def chain_id(seed, part, level) -> str:
    if level == "strong":
        return f"chain/{seed}/{part}"
    return f"chain/{seed}/{part}/{level if isinstance(level, str) else '%s,%s' % level}"


def wrapped_id(name, level) -> str:
    return f"wrapped/{name}/{level}"


def all_hashes(workdir: Path) -> dict:
    out = {}
    for cases, case_id, hashes in ((RUNS, run_id, run_hashes),
                                   (FINITE_RUNS, finite_id, finite_hashes),
                                   (QUERY_RUNS, query_id, query_hashes),
                                   (WRAPPED_RUNS, wrapped_id, wrapped_hashes)):
        for case in cases:
            case_dir = workdir / case_id(*case).replace("/", "-")
            case_dir.mkdir()
            out[case_id(*case)] = hashes(case_dir, *case)
    for case in CHAIN_RUNS:
        out[chain_id(*case)] = chain_hashes(*case)
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


@pytest.mark.parametrize("case", FINITE_RUNS, ids=lambda case: finite_id(*case))
def test_finite_level_bytes(case, tmp_path, golden):
    assert finite_hashes(tmp_path, *case) == golden[finite_id(*case)]


@pytest.mark.parametrize("case", QUERY_RUNS, ids=lambda case: query_id(*case))
def test_other_query_bytes(case, tmp_path, golden):
    assert query_hashes(tmp_path, *case) == golden[query_id(*case)]


@pytest.mark.parametrize("case", CHAIN_RUNS, ids=lambda case: chain_id(*case))
def test_merged_chain_bytes(case, golden):
    assert chain_hashes(*case) == golden[chain_id(*case)]


@pytest.fixture(scope="module")
def wrapped_runs(tmp_path_factory):
    """Each wrapped run's hashes, output rows, ``--metrics`` and denotation."""
    _, wire = gen.cidr07_inputs(1, 240, 0)
    surviving = {stream: [engine.pattern_event_from_row(r) for r in
                          temporal.canonical_to(temporal.HistoryTable(rows), temporal.INF)]
                 for stream, rows in wire.items()}
    runs = {}
    for name, level in WRAPPED_RUNS:
        workdir = tmp_path_factory.mktemp(f"wrapped-{name}-{level}")
        hashes = wrapped_hashes(workdir, name, level)
        plan = compile_query(parse(WRAPPED_QUERIES[name]).ast, 1).plan
        want = rows_from_pattern(patterns.evaluate_plan(plan, surviving), key_prefix="o")
        runs[name, level] = (hashes, jsonio.read_events(str(workdir / "out.jsonl")),
                             json.loads((workdir / "metrics.json").read_text("utf-8")), want)
    return runs


@pytest.mark.parametrize("case", WRAPPED_RUNS, ids=lambda case: wrapped_id(*case))
def test_wrapped_query_bytes(case, wrapped_runs, golden):
    assert wrapped_runs[case][0] == golden[wrapped_id(*case)]


@pytest.mark.parametrize("case", WRAPPED_RUNS, ids=lambda case: wrapped_id(*case))
def test_wrapped_query_content_equals_the_denotation(case, wrapped_runs):
    _, rows, _, want = wrapped_runs[case]
    # Content keeps the payload, so root times (@rt, @cbt) must agree too.
    assert want and workloads.content(rows) == workloads.content(want)


@pytest.mark.parametrize("case", WRAPPED_RUNS, ids=lambda case: wrapped_id(*case))
def test_wrapped_query_metrics_count_the_rows_written(case, wrapped_runs):
    _, rows, metrics, _ = wrapped_runs[case]
    keys = [r.k for r in rows]
    assert metrics["total"]["output_rows"] == len(keys)
    assert metrics["total"]["retraction_rows"] == len(keys) - len(set(keys))


@pytest.mark.parametrize("seed", STREAM_SEEDS)
def test_stream_command_bytes(seed, tmp_path, golden):
    assert stream_hashes(tmp_path, seed) == golden[f"stream-tools/{seed}"]


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted([run_id(*case) for case in RUNS]
                                    + [finite_id(*case) for case in FINITE_RUNS]
                                    + [query_id(*case) for case in QUERY_RUNS]
                                    + [chain_id(*case) for case in CHAIN_RUNS]
                                    + [wrapped_id(*case) for case in WRAPPED_RUNS]
                                    + [f"stream-tools/{seed}" for seed in STREAM_SEEDS])


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        json.dump(all_hashes(Path(tmp)), sys.stdout, indent=1, sort_keys=True)
        sys.stdout.write("\n")
