"""Temporal event-stream processing with retractions and tunable consistency.

The package is layered: :mod:`cedr.temporal` defines the tritemporal types
and canonical forms every comparison rests on; :mod:`cedr.algebra` and
:mod:`cedr.patterns` are the pure operator algebras; :mod:`cedr.engine`
lifts them to incremental execution over out-of-order, retraction-bearing
streams; :mod:`cedr.query` compiles the declarative language to plans; and
:mod:`cedr.cli` is the command-line surface.
"""

from .algebra import (
    LifetimeFunctions,
    TypeMismatch,
    alter_lifetime,
    deletes,
    difference,
    groupby_aggregate,
    hopping_window,
    inserts,
    join,
    project,
    select,
    union,
    window,
)
from .engine import (
    MIDDLE,
    STRONG,
    WEAK,
    ConsistencyLevel,
    Guarantee,
    NonMonotoneGuarantee,
    NotASyncPoint,
    OperatorInstance,
    Pipeline,
    build_module,
    sync_points_of,
)
from .patterns import (
    ArityMismatch,
    AttrRef,
    EmptyInput,
    PatternEvent,
    Predicate,
    UnboundVariable,
    all_of,
    any_of,
    atleast,
    atmost,
    cancel_when,
    evaluate_plan,
    idgen,
    inject_predicates,
    not_seq,
    primitive,
    sequence,
    unless,
)
from .query import compile_query, format_query, parse
from .temporal import (
    INF,
    AmbiguousLineage,
    AnnotatedHistoryTable,
    HistoryTable,
    InfiniteInterval,
    Payload,
    SyncPointPair,
    TemporalError,
    TritemporalEvent,
    UnitemporalEvent,
    annotate_sync,
    canonical_at,
    canonical_to,
    coalesce_star,
    is_sync_point,
    logically_equivalent,
    meets,
    reduce,
    shred,
    truncate,
)

__version__ = "0.1.0"
