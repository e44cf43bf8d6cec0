"""How the engine's work grows with history: ratchets on deterministic counters.

The aim is per-arrival cost that depends on the rows inside an operator's
scope, not on the whole history.  Each input runs at two sizes, fed the way
``cedr run`` feeds it (arrival order, honest guarantees every 20
arrivals), and each bound caps how much a counter may grow between them:

- the CIDR07 query at MIDDLE on ``gen.cidr07_inputs(1, n, 0)``, n = 300
  and 1200;
- the ``union -> difference -> groupby`` roll-up chain at STRONG on
  ``gen.rollup_inputs(1, n, 0)``, n = 150 and 600 per stream;
- the CIDR07 query at WEAK, whose retained state the memory bound should
  keep flat.

Per node, the counter is ``evaluated_rows / reconciles``: the rows one
reconcile reads.  Under scope-bounded evaluation it stays flat (a ratio
near 1); re-reading a key's whole history makes it grow with the input.
On the CIDR07 query a second counter is the events a node's operator
returns per reconcile, counted by wrapping its module's ``evaluate``: the
matches a reconcile builds.  A delta rule that re-runs the operator only on
the matches a change can reach keeps it flat, however many rows the
reconcile reads.  The counters take no timing, so the bounds are exact:
each is the ratio this code measures plus about 10%.  Lower a bound when a
change earns it; never raise one.
"""

from dataclasses import replace

import pytest

from cedr import engine
from cedr.cli import _guarantee_marks
from cedr.query import compile_query, parse

from perfbench import gen, workloads

# The bound on each ratio, large size over small size, with the measured
# ratio beside it.
CIDR07_BOUNDS = {
    "unlessop0": 5.2,  # 4.71: 23.2 -> 109.4 rows per reconcile
    "sequenceop1": 4.3,  # 3.87: 10.4 -> 40.5
}
CIDR07_RETURNED_BOUNDS = {
    "unlessop0": 1.15,  # 1.05: 0.726 -> 0.761 events returned per reconcile
    "sequenceop1": 1.4,  # 1.26: 1.717 -> 2.159
}
CHAIN_BOUNDS = {
    "union": 3.9,  # 3.53: 99.0 -> 349.7
    "difference": 3.3,  # 3.01: 19.3 -> 58.2
    "groupby": 3.4,  # 3.11: 7.9 -> 24.7
}
WEAK_STATE_BOUND = 4.8  # 4.38: total max_state_rows 689 -> 3020


def cidr07_metrics(n: int, level: engine.ConsistencyLevel) -> dict:
    """``cedr run`` of the CIDR07 query on ``gen.cidr07_inputs(1, n, 0)``.

    Each node's entry also holds ``returned``: the events its module's
    ``evaluate`` returned, over all its evaluations.
    """
    _, wire = gen.cidr07_inputs(1, n, 0)
    pipe = engine.Pipeline(compile_query(parse(workloads.CIDR07_QUERY).ast, 1).plan, level)
    returned = {}
    for node in pipe._nodes:
        inst = node.instance

        def counting(ports, store, evaluate=inst.module.evaluate, name=inst.name):
            out = evaluate(ports, store)
            returned[name] = returned.get(name, 0) + len(out)
            return out
        inst.module = replace(inst.module, evaluate=counting)
    feed = sorted(((name, row) for name, rows in wire.items() for row in rows),
                  key=lambda item: (item[1].c_s, item[0], item[1].sort_key))
    marks = _guarantee_marks(feed, sorted(wire), workloads.GUARANTEE_EVERY)
    for i, (name, row) in enumerate(feed):
        for stream, threshold in marks.get(i, ()):
            pipe.guarantee(stream, threshold)
        pipe.feed(name, row)
    pipe.flush()
    metrics = pipe.metrics()
    for name, m in metrics["nodes"].items():
        m["returned"] = returned.get(name, 0)
    return metrics


def chain_metrics(n: int) -> dict:
    """The roll-up chain at STRONG on ``gen.rollup_inputs(1, n, 0)``."""
    _, wire = gen.rollup_inputs(1, n, 0)
    feed = workloads.arrival_order(wire)
    schedule = workloads.guarantee_schedule(feed, sorted(wire), workloads.GUARANTEE_EVERY)
    chain = workloads.RollupChain(engine.STRONG)
    workloads.drive(chain, feed, schedule, chain.flush)
    return chain.metrics()


def rows_per_reconcile(metrics: dict, node: str) -> float:
    m = metrics["nodes"][node]
    return m["evaluated_rows"] / m["reconciles"]


@pytest.fixture(scope="module")
def cidr07():
    return cidr07_metrics(300, engine.MIDDLE), cidr07_metrics(1200, engine.MIDDLE)


@pytest.fixture(scope="module")
def chain():
    return chain_metrics(150), chain_metrics(600)


@pytest.mark.parametrize("node", sorted(CIDR07_BOUNDS))
def test_cidr07_rows_per_reconcile(cidr07, node):
    small, large = cidr07
    ratio = rows_per_reconcile(large, node) / rows_per_reconcile(small, node)
    assert ratio <= CIDR07_BOUNDS[node], (node, ratio)


@pytest.mark.parametrize("node", sorted(CIDR07_RETURNED_BOUNDS))
def test_cidr07_returned_per_reconcile(cidr07, node):
    small, large = (m["nodes"][node] for m in cidr07)
    ratio = (large["returned"] / large["reconciles"]) / (small["returned"] / small["reconciles"])
    assert ratio <= CIDR07_RETURNED_BOUNDS[node], (node, ratio)


@pytest.mark.parametrize("node", sorted(CHAIN_BOUNDS))
def test_chain_rows_per_reconcile(chain, node):
    small, large = chain
    ratio = rows_per_reconcile(large, node) / rows_per_reconcile(small, node)
    assert ratio <= CHAIN_BOUNDS[node], (node, ratio)


def test_weak_state():
    small, large = (cidr07_metrics(n, engine.WEAK)["total"]["max_state_rows"]
                    for n in (300, 1200))
    assert large / small <= WEAK_STATE_BOUND, (small, large)

