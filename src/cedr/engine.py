"""Incremental execution over out-of-order, retraction-bearing streams.

Each operator instance pairs an operational module (one pure operator from
the algebra) with a consistency monitor.  The monitor owns an alignment
buffer, the retained input state, and the outputs it has emitted and not
retracted, and runs one reconciliation loop: interpret the retained rows
canonically, apply the pure operator, and diff the result against those
outputs.
New results become insertion rows; results that shrank or vanished become
retraction rows under the same lineage key (a start change forces a full
removal plus re-insert under a fresh key).  Output is therefore always
convergent to the pure denotation of the surviving input, whatever the
arrival order.

The consistency level ``(M, B)`` shapes, never changes, that convergence:
``B`` bounds how long arrivals wait in the alignment buffer (infinite
blocking additionally withholds insertions until no future input can
contradict them), and ``M`` bounds how far behind the guarantee frontier
state is retained; older rows are forgotten and late arrivals beyond the
horizon are dropped and counted.
"""

from __future__ import annotations

import hashlib
import heapq
import json
from dataclasses import dataclass, replace
from operator import itemgetter
from typing import Callable, Collection, Iterable, Mapping, NamedTuple

from . import algebra, patterns
from .patterns import (
    EVERY,
    PatternEvent,
    make_accept,
    make_blocks,
    make_partition,
)
from .temporal import (
    INF,
    Payload,
    SyncPointPair,
    TemporalError,
    Time,
    TritemporalEvent,
    UnitemporalEvent,
    _reduce_wins,
    check_time,
    fmt_time,
    is_sync_point,
    parse_time,
)

NEG = float("-inf")

RT_ATTR = "@rt"
CBT_ATTR = "@cbt"
RESERVED_ATTRS = (RT_ATTR, CBT_ATTR)


class NonMonotoneGuarantee(TemporalError):
    """A guarantee threshold regressed."""


class NotASyncPoint(TemporalError):
    """A consistency-level switch was requested away from a sync point."""


@dataclass(frozen=True)
class ConsistencyLevel:
    """A point on the consistency spectrum: memory limit and blocking limit.

    Both are occurrence-time durations: a tick count or INF.  Blocking
    beyond the memory limit has no effect, so ``blocking`` is normalized
    down to ``memory``.
    """

    memory: Time
    blocking: Time

    def __post_init__(self):
        check_time(self.memory, "memory")
        check_time(self.blocking, "blocking")
        if self.blocking > self.memory:
            object.__setattr__(self, "blocking", self.memory)

    @classmethod
    def named(cls, name: str) -> "ConsistencyLevel":
        try:
            return _LEVELS[name.lower()]
        except KeyError:
            raise ValueError(f"unknown consistency level {name!r}") from None


STRONG = ConsistencyLevel(INF, INF)
MIDDLE = ConsistencyLevel(INF, 0)
WEAK = ConsistencyLevel(0, 0)
_LEVELS = {"strong": STRONG, "middle": MIDDLE, "weak": WEAK}


@dataclass(frozen=True)
class Guarantee:
    """No future row of ``stream`` will carry a sync value <= ``threshold``."""

    stream: str
    threshold: Time


# --- wire form of pattern events --------------------------------------------

# A primitive event's row carries its payload as is: a Payload is immutable,
# so the row and the event share it.  Only a composite, or an event whose
# root time is not its start, spells its lineage out in ``@rt``/``@cbt``.
#
# Inside a pipeline a node hands its parent each output row together with
# the event it holds, and the row carries the event's payload without
# ``@rt``/``@cbt``: those are spelled out only at the wire edge, for the
# pipeline's output and for callers of the public instance methods.

def pattern_event_to_row(e: PatternEvent, k: str, c_s: Time) -> TritemporalEvent:
    return _wire(TritemporalEvent._trusted(k, e.id, e.v_s, e.v_e, e.o_s, e.o_e,
                                           check_time(c_s, "c_s"), INF, e.payload), e)


def _wire(row: TritemporalEvent, e: PatternEvent | None) -> TritemporalEvent:
    """The wire form of a row built from ``e``'s payload.

    A row without an event (a merged row) is its own wire form.
    """
    if e is None or not (e.cbt or e.rt != e.v_s):
        return row
    payload = Payload([*e.payload.items(), (RT_ATTR, int(e.rt)),
                       (CBT_ATTR, json.dumps(list(e.cbt)))])
    return TritemporalEvent._trusted(row.k, row.id, row.v_s, row.v_e, row.o_s, row.o_e,
                                     row.c_s, row.c_e, payload)


def _wire_all(out: list[tuple]) -> list[TritemporalEvent]:
    return [_wire(row, e) for row, e in out]


def pattern_event_from_row(r: TritemporalEvent) -> PatternEvent:
    payload = r.payload
    if RT_ATTR not in payload and CBT_ATTR not in payload:
        if type(r) is TritemporalEvent and r.v_s < r.v_e:
            # A valid row with a non-empty valid interval is a valid
            # primitive event.
            return PatternEvent._trusted(r.id, r.v_s, r.v_e, r.o_s, r.o_e, r.v_s, (), payload)
        return PatternEvent(r.id, r.v_s, r.v_e, r.o_s, r.o_e, r.v_s, (), payload)
    rt = payload.get(RT_ATTR, r.v_s)
    cbt = tuple(json.loads(payload.get(CBT_ATTR, "[]")))
    payload = Payload([(n, v) for n, v in payload.items() if n not in RESERVED_ATTRS])
    return PatternEvent(r.id, r.v_s, r.v_e, r.o_s, r.o_e, rt, cbt, payload)


def merged_event_from_row(r: TritemporalEvent) -> UnitemporalEvent:
    # In the merged single-axis reading the occurrence interval is the
    # event lifetime; wire rows keep an open valid interval so that every
    # row of a lineage carries identical valid columns.  Built unchecked: a
    # live row (o_s < o_e) has valid occurrence times.
    return UnitemporalEvent._trusted(r.o_s, r.o_e, r.payload, r.id)


# --- operational modules -----------------------------------------------------

def whole_bucket(ports: tuple, changes: list) -> tuple:
    """The default delta rule: every output goes, and the whole bucket runs again."""
    return None, (ports,)


@dataclass(frozen=True)
class OpModule:
    """A pure operator plus the engine-facing facts about it.

    ``lag`` is how far an output anchor can trail the inputs that settle it
    (the operator scope for pattern operators); ``coalescing`` marks
    operators whose outputs merge across input events, which makes their
    output guarantees data-dependent; ``retire`` decides when a retained
    input row can no longer influence any state at or past the horizon.
    ``partition`` holds one key function per port (or None for a port whose
    events join every bucket), as :func:`patterns.make_partition` and a
    merged kind's partition rule build them; a module without it keeps all
    its state in one bucket.  Either way a reconcile evaluates only the
    buckets a change reached since the last one.  ``evaluate`` takes the
    ports and a second argument that no module reads; an instance passes
    None.

    ``delta`` is the module's delta rule.  It takes a stale bucket's ports
    and the ``(port, event)`` pairs changed in it since its last
    evaluation, and returns the contributor ids whose outputs go (None for
    every output) and the port tuples on which ``evaluate`` runs again.
    Every output of those runs holds one of the ids, and every output of
    the bucket that holds none is still right.  The default,
    :func:`whole_bucket`, reads no changes, so an instance records none
    for it.
    """

    name: str
    arity: int
    pattern_mode: bool
    evaluate: Callable[[tuple, None], Iterable]
    lag: Time = 0
    coalescing: bool = False
    retire: Callable[[TritemporalEvent, Time, int], bool] | None = None
    partition: tuple | None = None
    delta: Callable[[tuple, list], tuple] = whole_bucket


def _retire_never(row: TritemporalEvent, horizon: Time, port: int) -> bool:
    return False


def _retire_after(lag: Time) -> Callable[[TritemporalEvent, Time, int], bool]:
    def retire(row: TritemporalEvent, horizon: Time, port: int) -> bool:
        return row.o_e != INF and row.o_e + lag < horizon
    return retire


def _retire_pattern(w: Time, keep_ports: tuple[int, ...] = ()
                    ) -> Callable[[TritemporalEvent, Time, int], bool]:
    def retire(row: TritemporalEvent, horizon: Time, port: int) -> bool:
        if port in keep_ports:
            return False
        return row.o_e != INF and max(row.o_e, row.v_s + w) < horizon - w
    return retire


class MergedKind(NamedTuple):
    """The facts that differ between merged (relational) operator kinds.

    ``run`` is the kind's pure :mod:`algebra` operator on the module's ports
    and build parameters.  ``required`` names the parameters a module cannot
    be built without, and ``lag`` the parameter, if any, that holds how far
    an output can trail the inputs that settle it.  ``coalescing`` marks
    outputs that merge across input events.  A kind that ``keeps_history``
    never forgets an input row; any other forgets a row once it ended more
    than its lag before the horizon.  ``partition``, as on
    :class:`patterns.NodeKind`, builds the module's per-port keys from the
    build parameters; a kind without one is one bucket.
    """

    run: Callable[[tuple, dict], Iterable]
    arity: int = 1
    required: tuple[str, ...] = ()
    lag: str | None = None
    coalescing: bool = False
    keeps_history: bool = False
    partition: Callable[[dict], tuple] | None = None


def _group_partition(params: dict) -> tuple:
    # Each group is its own bucket: a group's rows depend only on its
    # members.  An event missing a key attribute joins no group.
    key = tuple(params.get("key", ()))

    def bucket(e: UnitemporalEvent) -> tuple:
        group = algebra.group_of(e.payload, key)
        return () if group is None else (group,)
    return (bucket,)


MERGED_KINDS = {
    "project": MergedKind(lambda ports, p: algebra.project(ports[0], p["f"]),
                          required=("f",)),
    "select": MergedKind(lambda ports, p: algebra.select(ports[0], p["f"]),
                         required=("f",)),
    "join": MergedKind(lambda ports, p: algebra.join(ports[0], ports[1], p["theta"]),
                       arity=2, required=("theta",)),
    "union": MergedKind(lambda ports, p: algebra.union(ports[0], ports[1]),
                        arity=2, coalescing=True, keeps_history=True),
    "difference": MergedKind(lambda ports, p: algebra.difference(ports[0], ports[1]),
                             arity=2, coalescing=True, keeps_history=True),
    "groupby": MergedKind(lambda ports, p: algebra.groupby_aggregate(
                              ports[0], tuple(p.get("key", ())), p.get("agg", "count"),
                              p.get("target"), p.get("out")),
                          coalescing=True, keeps_history=True, partition=_group_partition),
    "alter_lifetime": MergedKind(lambda ports, p: algebra.alter_lifetime(ports[0], p["fns"]),
                                 required=("fns",), lag="lag", keeps_history=True),
    "window": MergedKind(lambda ports, p: algebra.window(ports[0], p["wl"]),
                         required=("wl",)),
    "hopping_window": MergedKind(lambda ports, p: algebra.hopping_window(ports[0], p["p"]),
                                 required=("p",), lag="p"),
    "inserts": MergedKind(lambda ports, p: algebra.inserts(ports[0]), keeps_history=True),
    "deletes": MergedKind(lambda ports, p: algebra.deletes(ports[0]), keeps_history=True),
}


def build_module(kind: str, **params) -> OpModule:
    """Construct an operational module for one algebra or pattern operator."""
    merged = MERGED_KINDS.get(kind)
    # Every pattern kind is a plan-node kind.
    node = patterns.NODE_KINDS_BY_TAG.get(kind)
    if merged is None and (node is None or node.wrapper):
        raise ValueError(f"unknown operator kind {kind!r}")
    missing = [name for name in (merged or node).required if name not in params]
    if missing:
        raise KeyError(f"operator kind {kind!r} needs {', '.join(missing)}")
    if merged:
        run = merged.run
        lag = params.get(merged.lag, 0) if merged.lag else 0
        return OpModule(kind, merged.arity, False, lambda ports, store: run(ports, params),
                        lag, merged.coalescing,
                        _retire_never if merged.keeps_history else _retire_after(lag),
                        merged.partition(params) if merged.partition else None)
    run, accept, blocks = node.run, params.get("accept"), params.get("blocks")
    arity, delta = node.arity(params), node.delta
    return OpModule(kind, arity, True, lambda ports, store: run(params, ports, accept, blocks),
                    node.lag(params), False,
                    _retire_pattern(node.retire(params),
                                    (arity - 1,) if node.keep_blocker else ()),
                    params.get("partition"),
                    whole_bucket if delta is None
                    else lambda ports, changes: delta(params, ports, changes))


# --- the operator instance ---------------------------------------------------

class _Port:
    """One input's frontier and retained state.

    ``reduced`` holds the winning row of each lineage.  ``buckets`` indexes
    the decoded event of each of those rows that is live (``o_s < o_e``)
    under every partition bucket it joined, and ``joined`` records those
    buckets per lineage.  So a reconcile never decodes a retained row again,
    and a change re-evaluates only the buckets it touched.
    """

    __slots__ = ("threshold", "reduced", "buckets", "joined", "seen")

    def __init__(self):
        self.threshold: Time = NEG
        self.reduced: dict[str, TritemporalEvent] = {}
        self.buckets: dict[object, dict[str, object]] = {}
        self.joined: dict[str, tuple] = {}
        self.seen: set[str] = set()


class _Tracked:
    __slots__ = ("k", "event")

    def __init__(self, k, event):
        self.k = k
        self.event = event


class OperatorInstance:
    """One operator under a consistency monitor.

    An arrival is restamped, dropped if it is behind the memory horizon, and
    otherwise pushed on the alignment buffer: a heap of ``(sync, c_s, port,
    row, event)`` in release order.  Every restamp ticks the clock, so
    ``c_s`` is unique and entries never compare past it.  ``_drain`` pops
    what the release frontier passed into the ports' state and reconciles.

    Not safe for concurrent use: each instance belongs to one logical
    worker; pipelines may place distinct instances on distinct workers and
    connect them with order-preserving links.
    """

    def __init__(self, module: OpModule, level: ConsistencyLevel = MIDDLE,
                 name: str | None = None, clock: list | None = None):
        self.module = module
        self.level = level
        self.name = name or module.name
        self._ports = [_Port() for _ in range(module.arity)]
        self._keys = module.partition or (None,) * module.arity
        # Each bucket's last output by stable key, the buckets holding each
        # key, and the buckets a change has touched since (all of them once
        # it holds EVERY).
        self._outputs: dict[object, dict[tuple, object]] = {}
        self._holders: dict[tuple, tuple] = {}
        self._stale: set = set()
        # Per stale bucket, the (port, event) pairs changed in it since its
        # last evaluation, for the delta rule; None for the default rule,
        # which reads none.
        self._changes: dict | None = None if module.delta is whole_bucket else {}
        self._buffer: list[tuple] = []
        self._tracked: dict[tuple, _Tracked] = {}
        # What the next reconcile must settle: a tracked key whose output
        # changed maps to its new ideal output (None if gone), an untracked
        # key to its ideal output, which is not emitted yet.
        self._due: dict[tuple, object] = {}
        self._incarnations: dict[str, int] = {}
        self._payloads: dict[Payload, Payload] = {}
        self._clock = clock if clock is not None else [0]
        check_time(self._clock[0], "clock")
        self._max_seen: Time = NEG
        # What a level switch must lie at or past: the largest sync of any
        # row taken in (dropped ones too) or sent out, and the last stamp
        # this instance gave.
        self._max_sync: Time = NEG
        self._last_stamp: Time = NEG
        self.blocking_time: Time = 0
        self.max_state_rows = 0
        self.output_rows = 0
        self.retraction_rows = 0
        self.dropped_rows = 0
        self.reconciles = 0
        self.evaluated_rows = 0

    # -- ingestion and guarantees

    def ingest(self, row: TritemporalEvent, port: int = 0) -> list[TritemporalEvent]:
        """Accept one arrival; returns whatever output it releases."""
        event = None
        if row.o_s < row.o_e:
            event = (pattern_event_from_row if self.module.pattern_mode
                     else merged_event_from_row)(row)
        return _wire_all(self._take(row, port, event))

    def _take(self, row: TritemporalEvent, port: int, event) -> list[tuple]:
        """``ingest`` of a row and, if the row is live, its decoded event.

        Returns the released output as (row, event) pairs, for _wire.  A
        removal row (``o_s == o_e``) is never decoded: its valid interval
        may be empty, and it retracts an event already taken in.
        """
        p = self._ports[port]
        row = self._restamp(row)
        sync = row.o_s if row.k not in p.seen else row.o_e
        if sync > self._max_sync:
            self._max_sync = sync
        horizon = self._horizon()
        if sync < horizon:
            self.dropped_rows += 1
            return []
        # Only an admitted row makes its key seen, so the retraction of a
        # dropped insertion is read by its o_s and dropped in turn.
        p.seen.add(row.k)
        if sync > self._max_seen:
            self._max_seen = sync
        heapq.heappush(self._buffer, (sync, row.c_s, port, row, event))
        out = self._drain(horizon)
        self._sample_state()
        return out

    def declare_guarantee(self, threshold: Time, port: int = 0
                          ) -> tuple[list[TritemporalEvent], Guarantee | None]:
        """Raise one input's frontier; returns released rows and the output promise."""
        out, promise = self._declare(threshold, port)
        return _wire_all(out), promise

    def _declare(self, threshold: Time, port: int) -> tuple[list[tuple], Guarantee | None]:
        check_time(threshold, "threshold")
        p = self._ports[port]
        if threshold < p.threshold:
            raise NonMonotoneGuarantee(
                f"threshold regressed from {p.threshold} to {threshold} on port {port}")
        # The rows this guarantee releases were admitted under the horizon
        # in force before it, so they are reconciled under that horizon;
        # only then does the new one forget state.
        before = self._horizon()
        p.threshold = threshold
        out = self._drain(before, reconcile=self.level.blocking == INF)
        self._apply_horizon()
        self._sample_state()
        return out, self.output_guarantee()

    def flush(self) -> list[TritemporalEvent]:
        """End of stream: every input frontier jumps to infinity."""
        return _wire_all(self._flush())

    def _flush(self) -> list[tuple]:
        out = []
        for port in range(len(self._ports)):
            out.extend(self._declare(INF, port)[0])
        return out

    def switch_level(self, new_level: ConsistencyLevel, at: SyncPointPair
                     ) -> list[TritemporalEvent]:
        """Change the consistency level at the present; returns the rows it releases.

        ``at`` must be a sync point of everything this instance took in and
        sent out, with every row in its past: ``at.t_c`` at or after the
        last stamp the instance gave, and ``at.t_o`` at or above the sync of
        every row.  A switch before the last stamp could not be honoured,
        since the rows after it were handled at the old level.
        """
        if at.t_c < self._last_stamp or at.t_o < self._max_sync:
            raise NotASyncPoint(f"({at.t_o}, {at.t_c}) is not a sync point at or past the"
                                f" present ({self._max_sync}, {self._last_stamp})")
        if new_level == self.level:
            return []
        # What the old level held back is reconciled under its horizon.
        before = self._horizon()
        self.level = new_level
        out = self._drain(before, reconcile=True)
        self._apply_horizon()
        return _wire_all(out)

    def metrics(self) -> dict:
        return {
            "blocking_time": self.blocking_time,
            "max_state_rows": self.max_state_rows,
            "output_rows": self.output_rows,
            "retraction_rows": self.retraction_rows,
            "dropped_rows": self.dropped_rows,
            "reconciles": self.reconciles,
            "evaluated_rows": self.evaluated_rows,
        }

    def output_guarantee(self) -> Guarantee | None:
        frontier = self._guarantee_frontier()
        if frontier == NEG:
            return None
        if frontier == INF:
            # No input can follow, so no output can (also at an infinite lag).
            return Guarantee(self.name, INF)
        threshold = frontier - self.module.lag
        if self.module.coalescing:
            # Any still-open output can shrink past the frontier and then be
            # re-extended by a later merge, forcing a removal at its start.
            at_risk = [t.event.o_s for t in self._tracked.values()
                       if t.event.o_e > frontier]
            if at_risk:
                threshold = min(threshold, min(at_risk) - 1)
        if threshold < 0:
            return None
        return Guarantee(self.name, threshold)

    # -- internals

    def _restamp(self, row: TritemporalEvent) -> TritemporalEvent:
        # A TritemporalEvent was validated when it was built, and the clock
        # starts at a valid tick and counts up; any other object is checked.
        make = TritemporalEvent._trusted if type(row) is TritemporalEvent else TritemporalEvent
        return make(row.k, row.id, row.v_s, row.v_e, row.o_s, row.o_e, self._tick(), INF,
                    row.payload)

    def _guarantee_frontier(self) -> Time:
        return min(p.threshold for p in self._ports)

    def _horizon(self) -> Time:
        if self.level.memory == INF:
            return NEG
        frontier = self._guarantee_frontier()
        if frontier == NEG:
            return NEG
        return frontier - self.level.memory

    def _release_frontier(self) -> Time:
        frontier = self._guarantee_frontier()
        if self.level.blocking == INF:
            return frontier
        if self._max_seen == NEG:
            return frontier
        return max(frontier, self._max_seen - self.level.blocking)

    def _apply_horizon(self) -> None:
        horizon = self._horizon()
        if horizon == NEG:
            return
        retire = self.module.retire
        changed = False
        for port_i, p in enumerate(self._ports):
            stale = [k for k, row in p.reduced.items()
                     if retire(row, horizon, port_i)]
            for k in stale:
                del p.reduced[k]
                self._unindex(port_i, k)
                changed = True
        if changed:
            # Freeze silently: outputs that are no longer derivable from the
            # trimmed state keep their emitted rows but stop being repaired.
            self._refresh()
            for key in [k for k, now in self._due.items() if now is None]:
                del self._due[key]
                del self._tracked[key]

    def _drain(self, horizon: Time, reconcile: bool = False) -> list[tuple]:
        """Apply the buffered rows the release frontier passed, then reconcile.

        Rows are popped off the heap in (sync, c_s) order while its head is
        at or below the frontier, so a call that releases nothing reads only
        the head, whatever waits behind it.  It reconciles only if it
        released a row or ``reconcile`` is set: when what may be emitted
        changed without a row (a frontier move at infinite blocking, a
        level switch).

        ``horizon`` is the memory horizon the rows were admitted under: no
        result anchored behind it, less the operator lag, is introduced.
        """
        release = self._release_frontier()
        buffer = self._buffer
        if not (buffer and buffer[0][0] <= release or reconcile):
            return []
        while buffer and buffer[0][0] <= release:
            _, c_s, port, row, event = heapq.heappop(buffer)
            # Waiting measured on the arrival clock: zero when a row is
            # applied within the same ingestion step that admitted it.
            self.blocking_time += max(0, self._clock[0] - c_s - 1)
            self._apply(port, row, event)
        return self._reconcile(horizon)

    def _apply(self, port: int, row: TritemporalEvent, event) -> None:
        p = self._ports[port]
        cur = p.reduced.get(row.k)
        if cur is not None and not _reduce_wins(row, cur):
            return
        p.reduced[row.k] = row
        if row.o_s < row.o_e:
            key = self._keys[port]
            joined = (EVERY,) if key is None else key(event)
            was = p.joined.get(row.k)
            if was != joined:
                if was is not None:
                    self._unindex(port, row.k)
                p.joined[row.k] = joined
            elif joined and self._changes is not None:
                # The replaced event changed too: its outputs go.
                self._record(port, joined, p.buckets[joined[0]][row.k])
            # A replaced event keeps its place: operators see their input
            # in first-arrival order, which keeps it close to sorted.
            for bucket in joined:
                p.buckets.setdefault(bucket, {})[row.k] = event
            self._stale.update(joined)
            if self._changes is not None:
                self._record(port, joined, event)
        else:
            self._unindex(port, row.k)

    def _unindex(self, port: int, k: str) -> None:
        p = self._ports[port]
        joined = p.joined.pop(k, None)
        if joined is None:
            return
        if self._changes is not None and joined:
            self._record(port, joined, p.buckets[joined[0]][k])
        for bucket in joined:
            events = p.buckets[bucket]
            del events[k]
            if not events:
                del p.buckets[bucket]
        self._stale.update(joined)

    def _record(self, port: int, joined: tuple, event) -> None:
        """Note ``event`` as changed in ``port`` of each bucket it joined."""
        changes = self._changes
        for bucket in joined:
            changes.setdefault(bucket, []).append((port, event))

    def _refresh(self) -> None:
        """Evaluate the stale buckets and file the keys whose output changed.

        The ideal output is the operator's output over the live state, keyed
        by stable key: the union of the buckets' last outputs.  Only stale
        buckets are evaluated; the others keep their last output, so a
        module whose state did not change since the last call (a frontier
        move at infinite blocking) evaluates nothing.  A module without a
        partition is one bucket, which every change reaches.

        A stale bucket is evaluated through the module's delta rule, given
        the events that changed in it (those of the EVERY bucket change
        every bucket).  Its outputs holding an id the rule names go, and
        the outputs of the rule's runs of ``evaluate`` take their place by
        stable key.  The default rule names every output and runs the whole
        bucket.

        Every stale bucket is evaluated before any change is filed or the
        record of changes is cleared.  If an evaluation raises, nothing is
        committed and every stale bucket stays stale, so each later call
        raises again until the input that caused it is gone, as the
        one-bucket evaluation of all state would.

        Each key that appeared, vanished or changed its end in a bucket's
        output is resolved again over every bucket holding it and filed in
        ``_due``; an untracked key whose output vanished leaves it.  So a
        reconcile diffs only what changed and what is not emitted yet.
        """
        if EVERY in self._stale:
            stale = set(self._outputs).union(*(p.buckets for p in self._ports))
        else:
            stale = self._stale
        changes = self._changes or {}
        shared = changes.get(EVERY)
        delta, evaluate = self.module.delta, self.module.evaluate
        results = []
        for bucket in stale:
            ports = self._bucket_ports(bucket)
            if ports is None:
                results.append((bucket, None, None))
                continue
            self.evaluated_rows += sum(map(len, ports))
            mine = changes.get(bucket, ())
            if shared and bucket is not EVERY:
                mine = [*mine, *shared]
            # A bucket that held no events at its last evaluation has no
            # output for a delta to build on: its matches among the EVERY
            # bucket's events are new without any of them changing.
            rule = delta if bucket in self._outputs else whole_bucket
            gone, reruns = rule(ports, mine)
            results.append((bucket, gone, [evaluate(sub, None) for sub in reruns]))
        self._stale = set()
        if changes:
            self._changes = {}
        changed = []
        for bucket, gone, outs in results:
            new = {self._stable_key(e): e for out in outs or () for e in out}
            if outs and len(new) < sum(map(len, outs)):
                new = self._longest_lived((self._stable_key(e), e) for out in outs for e in out)
            old = self._outputs.get(bucket, {})
            for key, e in new.items():
                was = old.get(key)
                if was is None:
                    self._holders[key] = self._holders.get(key, ()) + (bucket,)
                    changed.append(key)
                elif was.o_e != e.o_e:
                    changed.append(key)
            if gone is None:
                goes = [key for key in old if key not in new]
            else:
                # Every new output holds a gone id, so none shares its key
                # with an output that stays.
                goes = [key for key, e in old.items()
                        if not gone.isdisjoint(e.cbt) and key not in new]
                for key in goes:
                    del old[key]
                old.update(new)
                new = old
            for key in goes:
                # Buckets match as dict keys do: by identity, then value.
                rest = tuple(b for b in self._holders[key]
                             if b is not bucket and b != bucket)
                if rest:
                    self._holders[key] = rest
                else:
                    del self._holders[key]
                changed.append(key)
            # A bucket stays filed, its output possibly empty, while it holds events.
            if outs is None:
                self._outputs.pop(bucket, None)
            else:
                self._outputs[bucket] = new
        due = self._due
        for key in changed:
            now = self._resolve(key)
            if now is None and key not in self._tracked:
                due.pop(key, None)
            else:
                due[key] = now

    def _resolve(self, key: tuple):
        """The ideal output under ``key``; None if no bucket holds it."""
        holders = self._holders.get(key)
        if holders is None:
            return None
        if len(holders) == 1:
            return self._outputs[holders[0]][key]
        return self._longest_lived((key, self._outputs[b][key]) for b in holders)[key]

    def _ideal(self) -> dict[tuple, object]:
        """The whole ideal output by stable key, after a refresh."""
        self._refresh()
        return {key: self._resolve(key) for key in self._holders}

    def _longest_lived(self, pairs) -> dict[tuple, object]:
        """Outputs by stable key; of two sharing one, the longer-lived wins.

        Two live lineages of one event id (a re-encoding that arrived before
        the old lineage's removal) give outputs that differ only in ``o_e``.
        Keeping the larger one, not the one a result set yields last, keeps
        the emitted rows independent of the string hash seed.
        """
        out: dict[tuple, object] = {}
        for key, e in pairs:
            cur = out.get(key)
            if cur is None or e.o_e > cur.o_e:
                out[key] = e
        return out

    def _bucket_ports(self, bucket) -> tuple | None:
        """The operator's input for one bucket; None if it yields nothing."""
        ports = []
        own = False
        for p in self._ports:
            events = p.buckets.get(bucket)
            shared = p.buckets.get(EVERY) if bucket is not EVERY else None
            own = own or events is not None
            ports.append((tuple(events.values()) if events else ())
                         + (tuple(shared.values()) if shared else ()))
        # A keyed operator yields nothing without a first-port event.
        if not own or (self.module.partition is not None and not ports[0]):
            return None
        return tuple(ports)

    def _stable_key(self, e) -> tuple:
        if self.module.pattern_mode:
            return ("p", e.id, e.v_s, e.v_e, e.o_s, e.rt, e.cbt, e.payload)
        return ("m", e.id, e.v_s, e.payload)

    def _fresh_k(self, text: str) -> str:
        """A new lineage key for the output whose stable key's repr is ``text``."""
        digest = hashlib.md5(text.encode()).hexdigest()[:10]
        n = self._incarnations.get(digest, 0) + 1
        self._incarnations[digest] = n
        return f"{self.name}:{digest}#{n}"

    def _out_row(self, k: str, e, o_e: Time) -> TritemporalEvent:
        """The output row of ``e`` under lineage ``k``, its occurrence ending at ``o_e``.

        Built unchecked: ``e`` is a valid output event and ``o_e`` is its
        end (insert, shrink) or its anchor (kill), so the row is valid.
        """
        if self.module.pattern_mode:
            return TritemporalEvent._trusted(k, e.id, e.v_s, e.v_e, e.o_s, o_e,
                                             self._tick(), INF, e.payload)
        # The rows share one object per payload value: evaluations rebuild
        # their output payloads, and input rows each bring their own.  An
        # equal payload with its attributes in another order keeps its own
        # object, because its text form shows the order.
        payload = self._payloads.setdefault(e.payload, e.payload)
        if payload is not e.payload and tuple(payload._map) != tuple(e.payload._map):
            payload = e.payload
        return TritemporalEvent._trusted(k, e.id, e.v_s, INF, e.v_s, o_e,
                                         self._tick(), INF, payload)

    def _tick(self) -> Time:
        """The next stamp of the shared arrival clock."""
        c_s = self._clock[0]
        self._clock[0] += 1
        self._last_stamp = c_s
        return c_s

    def _reconcile(self, horizon: Time) -> list[tuple]:
        self.reconciles += 1
        self._refresh()
        bound = None
        if self.level.blocking == INF:
            frontier = self._guarantee_frontier()
            bound = frontier - self.module.lag if frontier != NEG else NEG

        suppress_below = horizon - self.module.lag

        # (anchor, 0 for a tracked key or 1 for an untracked one, repr of
        # the stable key, the key, whether its output is killed first, its
        # new output or None): a total order, as the repr tells keys apart.
        # The repr also names new lineages.  A new output is inserted if the
        # key is untracked or killed first, and otherwise shrinks its output.
        actions: list[tuple[Time, int, str, tuple, bool, object]] = []
        due = self._due
        for key, now in list(due.items()):
            tracked = self._tracked.get(key)
            if tracked is None:
                anchor = now.o_s
                # Forgotten past: results anchored behind the memory horizon
                # are never (re)introduced.  The operator lag protects
                # genuinely new results whose anchors trail the inputs that
                # produced them.
                if anchor >= suppress_below and (bound is None or anchor <= bound):
                    actions.append((anchor, 1, repr(key), key, False, now))
                continue
            del due[key]
            if now is not None and now.o_e == tracked.event.o_e:
                continue
            if now is not None and now.o_e < tracked.event.o_e:
                actions.append((now.o_e, 0, repr(key), key, False, now))
            else:
                actions.append((tracked.event.o_s, 0, repr(key), key, True, now))

        actions.sort(key=itemgetter(0, 1, 2))
        emitted: list[tuple] = []
        for _, untracked, text, key, kill_first, e in actions:
            if kill_first:
                tracked = self._tracked.pop(key)
                row = self._out_row(tracked.k, tracked.event, tracked.event.o_s)
                self.retraction_rows += 1
                emitted.append(self._emit(row.o_e, row, tracked.event))
            if e is None:
                continue
            if untracked or kill_first:
                due.pop(key, None)
                k = self._fresh_k(text)
                self._tracked[key] = _Tracked(k, e)
                row = self._out_row(k, e, e.o_e)
                emitted.append(self._emit(row.o_s, row, e))
            else:
                tracked = self._tracked[key]
                tracked.event = e
                row = self._out_row(tracked.k, e, e.o_e)
                self.retraction_rows += 1
                emitted.append(self._emit(row.o_e, row, e))
        return emitted

    def _emit(self, sync: Time, row: TritemporalEvent, e) -> tuple:
        """Count one emitted row; returns it paired with its event for _wire."""
        self.output_rows += 1
        if sync > self._max_sync:
            self._max_sync = sync
        if not self.module.pattern_mode:
            e = None  # a merged row is its own wire form
        return row, e

    def _sample_state(self) -> None:
        held = sum(len(p.reduced) for p in self._ports) + len(self._buffer)
        if held > self.max_state_rows:
            self.max_state_rows = held


def sync_points_of(a: Collection[tuple[Time, TritemporalEvent]]) -> list[SyncPointPair]:
    """Every per-row pair of an annotated table that cleanly separates past from future."""
    pairs = sorted({(sync, event.c_s) for sync, event in a})
    out = []
    for t_o, t_c in pairs:
        p = SyncPointPair(t_o, t_c)
        if is_sync_point(a, p):
            out.append(p)
    return out


# --- pipelines ---------------------------------------------------------------

class _Node:
    __slots__ = ("instance", "parent", "parent_port")

    def __init__(self, instance, parent, parent_port):
        self.instance = instance
        self.parent = parent
        self.parent_port = parent_port


class Pipeline:
    """A compiled plan wired into a tree of operator instances.

    A stream leaf is the identity on its stream, so a leaf below the root
    has no instance: it is a port of its parent.  A row fed to a stream is
    decoded once and handed to every port a leaf of that stream names,
    except that a live event failing the leaf's pushed-down predicates is
    dropped there; a guarantee on the stream is declared on those ports.
    Only a leaf at the root, which has no parent, is an instance.  Each
    instance's output is its parent's input.  Instances are named by kind
    and preorder position, leaves counted, and ``node_levels`` naming
    anything else raises ``ValueError``.  Slice and projection wrappers
    at the plan root run inside the root operator's module, so its
    reconcile diffs, keys and counts the events they give.

    The instances share only the arrival clock.  The pipeline owns the
    lineage store (event id to event), through which the predicate and
    partition hooks resolve contributor references anywhere in the plan,
    and is its only writer: every live event that enters an instance, a
    leaf row or a child's output, passes through ``_push``.
    """

    def __init__(self, plan, level: ConsistencyLevel = MIDDLE,
                 node_levels: Mapping[str, ConsistencyLevel] | None = None):
        self.plan = plan
        self._store: dict = {}
        self._clock = [0]
        self._nodes: list[_Node] = []
        # Per stream, each port it feeds: (node, port, the leaf's accept hook).
        self._leaves: dict[str, list[tuple]] = {}
        self._counter = 0
        node_levels = dict(node_levels or {})
        self._root = self._build(plan, None, 0, level, node_levels)
        names = [n.instance.name for n in self._nodes]
        unknown = sorted(set(node_levels) - set(names))
        if unknown:
            raise ValueError(f"node_levels names no operator instance: {', '.join(unknown)}"
                             f" (the instances are {', '.join(names)})")
        self.outputs: list[TritemporalEvent] = []

    def _build(self, plan, parent, parent_port, level, node_levels) -> _Node | None:
        kind = patterns.node_kind(plan)
        wrappers = []  # the root's slice and projection wrappers, innermost first
        while parent is None and kind.wrapper:
            wrappers.insert(0, (kind.run, patterns.node_params(plan)))
            plan = plan.child
            kind = patterns.node_kind(plan)
        name = f"{type(plan).__name__.lower()}{self._counter}"
        self._counter += 1
        if kind.wrapper:
            raise TypeError(f"cannot build an operator for plan node {plan!r}")
        ports = kind.ports_of(plan)
        if not ports and parent is not None:
            self._leaves.setdefault(plan.stream, []).append(
                (parent, parent_port, make_accept(plan, self._store)))
            return None
        module = build_module(kind.tag, accept=make_accept(plan, self._store),
                              blocks=make_blocks(plan, self._store),
                              partition=make_partition(plan, self._store),
                              **patterns.node_params(plan))
        if wrappers:
            evaluate = module.evaluate

            def wrapped(ports, store):
                out = evaluate(ports, store)
                for run, params in wrappers:
                    out = run(params, (out,), None, None)
                return out

            module = replace(module, evaluate=wrapped)
        instance = OperatorInstance(module, node_levels.get(name, level),
                                    name=name, clock=self._clock)
        node = _Node(instance, parent, parent_port)
        self._nodes.append(node)
        if not ports:  # a root leaf reads its stream and tests its own predicates
            self._leaves.setdefault(plan.stream, []).append((node, 0, None))
        for i, child in enumerate(ports):
            self._build(child, node, i, level, node_levels)
        return node

    def feed(self, stream: str, row: TritemporalEvent) -> list[TritemporalEvent]:
        released = []
        ports = self._leaves.get(stream, ())
        if ports:
            # Decoded once for every port the stream feeds.
            event = pattern_event_from_row(row) if row.o_s < row.o_e else None
            for node, port, accept in ports:
                if event is None or accept is None or accept(((0, event),)):
                    released.extend(self._push(node, port, row, event))
        self.outputs.extend(released)
        return released

    def guarantee(self, stream: str, threshold: Time) -> list[TritemporalEvent]:
        check_time(threshold, "threshold")
        released = []
        for node, port, _ in self._leaves.get(stream, ()):
            released.extend(self._propagate_guarantee(node, port, threshold))
        self.outputs.extend(released)
        return released

    def flush(self) -> list[TritemporalEvent]:
        released = []
        for node in self._nodes[::-1]:
            released.extend(self._forward(node, node.instance._flush()))
        self.outputs.extend(released)
        return released

    def metrics(self) -> dict:
        per_node = {n.instance.name: n.instance.metrics() for n in self._nodes}
        totals = {key: sum(m[key] for m in per_node.values())
                  for key in ("blocking_time", "max_state_rows", "dropped_rows")}
        # Output and retraction counts describe the query's result stream,
        # not internal hand-offs, so they come from the root operator.
        root = self._root.instance
        totals["output_rows"] = root.output_rows
        totals["retraction_rows"] = root.retraction_rows
        return {"total": totals, "nodes": per_node}

    def root_instance(self) -> OperatorInstance:
        return self._root.instance

    def _push(self, node: _Node, port: int, row: TritemporalEvent,
              event: PatternEvent | None) -> list[TritemporalEvent]:
        instance = node.instance
        dropped = instance.dropped_rows
        out = instance._take(row, port, event)
        # Only an admitted row's event can be a contributor; the hooks that
        # read the store look up contributors, never the row's own id.
        if event is not None and row.o_s < row.o_e and instance.dropped_rows == dropped:
            self._store[row.id] = event
        return self._forward(node, out)

    def _forward(self, node: _Node, out: list[tuple]) -> list[TritemporalEvent]:
        """Hand each (row, event) output to the parent, or release it in wire form."""
        if node.parent is None:
            return _wire_all(out)
        parent, port = node.parent, node.parent_port
        released = []
        for row, e in out:
            released.extend(self._push(parent, port, row, e))
        return released

    def _propagate_guarantee(self, node: _Node, port: int,
                             threshold: Time) -> list[TritemporalEvent]:
        out, out_g = node.instance._declare(threshold, port)
        released = self._forward(node, out)
        if node.parent is not None and out_g is not None:
            released.extend(self._propagate_guarantee(
                node.parent, node.parent_port, out_g.threshold))
        return released


def _level_from_obj(obj: dict) -> ConsistencyLevel:
    if "name" in obj:
        return ConsistencyLevel.named(obj["name"])
    return ConsistencyLevel(parse_time(obj["memory"], "memory"),
                            parse_time(obj["blocking"], "blocking"))


def _level_to_obj(level: ConsistencyLevel) -> dict:
    return {"memory": fmt_time(level.memory), "blocking": fmt_time(level.blocking)}


def pipeline_to_obj(pipeline: Pipeline) -> dict:
    """The wiring format: a plan tree plus per-node consistency overrides."""
    return {
        "plan": patterns.plan_to_obj(pipeline.plan),
        "node_levels": {n.instance.name: _level_to_obj(n.instance.level)
                        for n in pipeline._nodes},
    }


def pipeline_from_obj(obj: dict) -> Pipeline:
    """Build a pipeline from the wiring format produced by the compiler side.

    ``obj["plan"]`` is the serialized plan tree; the optional
    ``obj["level"]`` names the default consistency level and
    ``obj["node_levels"]`` maps node names to per-node overrides.
    """
    plan = patterns.plan_from_obj(obj["plan"])
    level = _level_from_obj(obj["level"]) if "level" in obj else MIDDLE
    overrides = {name: _level_from_obj(spec)
                 for name, spec in obj.get("node_levels", {}).items()}
    return Pipeline(plan, level, overrides)
