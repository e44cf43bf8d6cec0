"""Measurement loop: set-up timing, timed passes, checks and the result line."""

from __future__ import annotations

import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass

from . import calibrate, trace, workloads

clock = time.perf_counter

# A run makes whole cycles, each one pass over every input of the workload,
# until it has measured for about --seconds, made MIN_CYCLES cycles and
# collected MIN_CALLS latency samples, so that p99 has ten samples beyond
# it.  Past EXTRA_FACTOR x --seconds it stops anyway, to end within its
# time limit.
MIN_CALLS = 1000
MIN_CYCLES = 3
EXTRA_FACTOR = 2

# One batch of set-ups lasts at least SETUP_BATCH_S.
SETUP_BATCH_S = 0.02

OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")


@dataclass
class Timed:
    """One pass, with its times in reference seconds."""

    run: workloads.Pass
    scale: float
    setup_s: float

    @property
    def seconds(self) -> float:
        return self.run.seconds * self.scale

    @property
    def latencies(self) -> list[float]:
        return [x * self.scale for x in self.run.latencies]


class Measurement:
    def __init__(self):
        self.cycles: list[list[Timed]] = []

    @property
    def timed(self) -> list[Timed]:
        return [t for cycle in self.cycles for t in cycle]

    @property
    def passes(self) -> list:
        return [t.run for t in self.timed]

    def samples(self) -> int:
        return sum(len(t.run.latencies) for t in self.timed)

    def rows_per_s(self) -> float:
        """The median over cycles of rows fed / reference seconds."""
        return statistics.median(sum(t.run.rows for t in cycle) / sum(t.seconds for t in cycle)
                                 for cycle in self.cycles)

    def end_to_end(self, peak_rss_mb: float) -> dict:
        latencies = [x for t in self.timed for x in t.latencies]
        cuts = statistics.quantiles(latencies, n=100)
        return {
            "rows_per_s": (self.rows_per_s(), "1/s"),
            "call_p50_ms": (cuts[49] * 1e3, "ms"),
            "call_p99_ms": (cuts[98] * 1e3, "ms"),
            "setup_s": (statistics.median(t.setup_s for t in self.timed), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }

    def summary(self) -> str:
        """Wall-clock figures and the speed scale, for the human-readable summary."""
        timed = self.timed
        raw = statistics.median(sum(t.run.rows for t in cycle) / sum(t.run.seconds for t in cycle)
                                for cycle in self.cycles)
        scales = [t.scale for t in timed]
        return (f"{len(self.cycles)} cycles of {len(self.cycles[0])} passes, "
                f"{self.samples()} latency samples; wall-clock rows_per_s {raw:.6g}; "
                f"scale to reference seconds: median {statistics.median(scales):.3f}, "
                f"range {min(scales):.3f}-{max(scales):.3f}")


def setup_reps(setup) -> int:
    reps = 1
    while True:
        t = clock()
        for _ in range(reps):
            setup()
        if clock() - t >= SETUP_BATCH_S:
            return reps
        reps *= 2


def measure(seconds: float, parts: int, setup, run_pass,
            min_calls: int = MIN_CALLS, min_cycles: int = MIN_CYCLES) -> Measurement:
    """Cycle through the inputs, timing a set-up batch and a pass for each.

    The reference workload runs before the first pass and after every
    pass; a pass and its set-up batch are scaled by the mean of the two
    reference times around them.
    """
    m = Measurement()
    reps = setup_reps(setup)
    before = calibrate.reference_s()
    start = clock()
    while True:
        cycle = []
        for part in range(parts):
            gc.collect()
            t = clock()
            for _ in range(reps):
                setup()
            setup_s = (clock() - t) / reps
            run = run_pass(part, setup())
            after = calibrate.reference_s()
            scale = 2 * calibrate.REFERENCE_S / (before + after)
            cycle.append(Timed(run, scale, setup_s * scale))
            before = after
        m.cycles.append(cycle)
        elapsed = clock() - start
        per_cycle = elapsed / len(m.cycles)
        if elapsed + per_cycle / 2 >= seconds and len(m.cycles) >= min_cycles \
                and m.samples() >= min_calls:
            return m
        if elapsed + per_cycle > EXTRA_FACTOR * seconds:
            return m


def traced_run(workload, seconds: float, spans_path: str):
    """Untraced cycles, then traced ones; returns all passes and the metrics.

    Neither half reports latency percentiles or a median over cycles, so
    neither needs MIN_CALLS or MIN_CYCLES.
    """
    untraced = measure(seconds / 2, workload.parts, workload.setup, workload.run_pass,
                       min_calls=0, min_cycles=1)
    tracer = trace.Tracer()
    setup_span = tracer.span("bench.setup", workload.setup)
    pass_span = tracer.span("bench.pass", workload.run_pass)
    tracer.install()
    try:
        traced = measure(seconds / 2, workload.parts, setup_span, pass_span,
                         min_calls=0, min_cycles=1)
    finally:
        tracer.uninstall()
    passes = traced.passes
    totals = [t.run.totals.get("total", {}) for t in traced.cycles[-1]]
    metrics = trace.layer_metrics(tracer.aggregate(), tracer.counts, len(passes),
                                  traced.samples(), totals)
    metrics["trace.overhead_ratio"] = (traced.rows_per_s() / untraced.rows_per_s(), "ratio")
    tracer.write(spans_path)
    return untraced.passes + passes, metrics


def main(args) -> int:
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = os.path.join(OUT_DIR, f"{args.workload}-s{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    summary = ""
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        if args.trace:
            spans = os.path.join(OUT_DIR, f"spans-{args.workload}-s{args.seed}.jsonl.gz")
            passes, metrics = traced_run(workload, args.seconds, spans)
        else:
            m = measure(args.seconds, workload.parts, workload.setup, workload.run_pass)
            passes = m.passes
            metrics = m.end_to_end(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
            summary = m.summary()
        checks = workload.checks(passes)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = [name for name, ok in checks if not ok]
    samples = sum(len(p.latencies) for p in passes)
    print(f"{args.workload} seed={args.seed}: {len(passes)} passes, {samples} latency "
          f"samples", file=sys.stderr)
    if summary:
        print(f"  {summary}", file=sys.stderr)
    for name, ok in checks:
        print(f"  check {'ok    ' if ok else 'FAILED'} {name}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}", file=sys.stderr)
    print(json.dumps({
        "correct": not failed,
        "attempted": len(checks),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0
