"""Tests of the benchmark itself: seeded inputs, tracing and output checks."""

import pytest

from cedr import engine, jsonio, patterns

from perfbench import gen, trace, workloads

SMALL = {
    "cidr07-middle": dict(n_events=45, parts=2),
    "rollup-strong": dict(n_per_stream=30, parts=2),
    "stream-tools": dict(n_rows=400, file_rows=100, parts=2),
}


def encoded(seed, part=0):
    _, cidr07 = gen.cidr07_inputs(seed, 60, part)
    _, rollup = gen.rollup_inputs(seed, 20, part)
    clean = gen.clean_pattern_stream(seed, 50)
    return [jsonio.dumps_events(rows) for rows in (*cidr07.values(), *rollup.values(), clean)]


def test_same_seed_gives_identical_inputs():
    assert encoded(7) == encoded(7)


def test_other_seed_gives_other_inputs():
    a, b = encoded(7), encoded(8)
    assert all(x != y for x, y in zip(a, b))


def test_parts_of_a_seed_differ():
    a, b = encoded(7, 0), encoded(7, 1)
    assert all(x != y for x, y in zip(a[:6], b[:6]))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_checks_pass(name, tmp_path):
    workload = workloads.WORKLOADS[name](3, str(tmp_path), **SMALL[name])
    passes = [workload.run_pass(part, workload.setup()) for _ in range(2) for part in range(2)]
    assert passes[0].latencies
    assert all(ok for _, ok in workload.checks(passes))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_checks_fail_when_an_input_was_never_run(name, tmp_path):
    workload = workloads.WORKLOADS[name](3, str(tmp_path), **SMALL[name])
    passes = [workload.run_pass(0, workload.setup())]
    assert not all(ok for _, ok in workload.checks(passes))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_run_emits_identical_rows(name, tmp_path):
    workload = workloads.WORKLOADS[name](4, str(tmp_path), **SMALL[name])
    untraced = workload.run_pass(1, workload.setup())
    originals = (engine.pattern_event_from_row, engine.make_accept,
                 patterns.make_accept, engine.Pipeline.feed)
    tracer = trace.Tracer()
    tracer.install()
    try:
        traced = workload.run_pass(1, workload.setup())
    finally:
        tracer.uninstall()
    assert traced.output == untraced.output
    assert len(tracer.start) > 0
    assert (engine.pattern_event_from_row, engine.make_accept,
            patterns.make_accept, engine.Pipeline.feed) == originals
