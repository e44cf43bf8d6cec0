"""A fixed reference workload that measures how fast the CPU runs right now.

On a shared host, other tenants' load slows a CPU by up to 2x, in phases
that last from about a second to minutes; process CPU time slows with it,
because the slowdown is in the core, not in scheduling. A benchmark run
cannot wait such a phase out, so the runner times this reference workload
between passes and states every time in *reference seconds*: the measured
time scaled by ``REFERENCE_S`` over the reference workload's time around
that pass.  A pass that took twice as long because the CPU ran at half
speed then reads the same.

The reference workload does the kind of work the interpreter does in
``cedr``: JSON text in and out, small objects with slots, sorting by tuple
keys, grouping into dicts and a nested compare loop.  A pure arithmetic
loop tracks the slowdown less well.  It uses nothing from ``cedr``, so a
change to the program under test never changes it.
"""

from __future__ import annotations

import json
import random
import statistics
import time

clock = time.perf_counter

# The reference workload's median time on an idle CPU of the machine the
# benchmark was tuned on (2-vCPU Intel Xeon VM, Python 3.11.7), rounded.
# It fixes the unit only: a run on another machine gives other numbers,
# and runs on the same machine compare.
REFERENCE_S = 0.0015

REPEATS = 5

_rng = random.Random(20070107)
_DATA = [{"k": f"k{i}", "o_s": _rng.randrange(10 ** 6),
          "payload": {"Machine_Id": f"m{i % 10}", "x": _rng.randrange(100)}}
         for i in range(300)]


class _Row:
    __slots__ = ("key", "start", "payload")

    def __init__(self, key, start, payload):
        self.key, self.start, self.payload = key, start, payload


def reference_work() -> int:
    rows = json.loads(json.dumps(_DATA))
    objs = [_Row(r["k"], r["o_s"], frozenset(r["payload"].items())) for r in rows]
    objs.sort(key=lambda o: (o.start, o.key))
    groups: dict = {}
    for o in objs:
        groups.setdefault(o.payload, []).append(o)
    pairs = sum(len(g) for g in groups.values())
    head = objs[:120]
    for a in head:
        for b in head:
            if a.payload == b.payload and a.start < b.start:
                pairs += 1
    return pairs


def reference_s() -> float:
    """The median time of ``REPEATS`` runs of the reference workload."""
    times = []
    for _ in range(REPEATS):
        t = clock()
        reference_work()
        times.append(clock() - t)
    return statistics.median(times)
