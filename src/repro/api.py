"""Stable public API facade for the repro package.

``repro.api`` is the one import surface that examples, benchmarks and
external callers should use::

    from repro.api import (
        Database, Session, TableSchema,
        FojSpec, FojTransformation,
        SplitSpec, SplitTransformation,
        TransformationSupervisor, TransformOptions,
    )

    db = Database()
    ...
    tf = FojTransformation(db, spec, options=TransformOptions(
        sync="nonblocking_commit", shards=4))
    tf.run()

Everything here is re-exported from its home module; the deep import
paths (``repro.engine.database``, ``repro.transform.foj``, ...) keep
working, but only the names below are covered by the API-surface
snapshot test (``tests/test_api_surface.py``) and hence by the
compatibility promise.

Configuration goes through :class:`TransformOptions` -- a frozen
dataclass bundling the synchronization strategy (selectable by registry
string, e.g. ``sync="nonblocking_commit"``), shard count, population
mode, storage backend, analysis policy and the metrics attachment.
How much work a step does is the ``step(budget)`` argument; faults and
the group-commit :class:`FlushPolicy` attach to the ``Database``.

Multi-step schema changes go through the declarative plan API
(:mod:`repro.plan`): build a :class:`MigrationPlan` (or decode one from
JSON), and :func:`run_plan` validates it eagerly, compiles each step
into a supervised transformation, and executes the chain online --
resumable after a crash via ``run_plan(db, plan, resume=True)``.
"""

from __future__ import annotations

# -- engine: database, sessions, recovery -----------------------------------
from repro.engine import (
    Database,
    FuzzyScan,
    Session,
    bulk_load,
    fuzzy_copy,
    restart,
    restart_from_disk,
)

# -- schemas and transformation specs ---------------------------------------
from repro.storage import (
    Attribute,
    FunctionalDependency,
    SnapshotHandle,
    TableSchema,
)
from repro.relational import (
    AttrPredicate,
    ExplodeSpec,
    FojSpec,
    MergeSpec,
    PartitionSpec,
    RETYPE_CASTS,
    RetypeSpec,
    SplitSpec,
    explode,
    full_outer_join,
    retype,
    rows_equal,
    split,
)

# -- declarative migration plans ---------------------------------------------
from repro.plan import (
    CORPUS,
    CorpusScenario,
    MigrationPlan,
    MigrationStep,
    PLAN_OPERATORS,
    PlanExecutor,
    PlanValidationError,
    PlanValidator,
    Workload,
    run_plan,
)

# -- transformations and their configuration --------------------------------
from repro.transform import (
    ExplodeTransformation,
    FixedIterationsPolicy,
    FojTransformation,
    Many2ManyFojTransformation,
    MaterializedFojView,
    MergeTransformation,
    PartitionTransformation,
    RetypeTransformation,
    Phase,
    POPULATION_MODES,
    RemainingRecordsPolicy,
    SplitTransformation,
    STORAGE_BACKENDS,
    SYNC_STRATEGIES,
    SyncStrategy,
    TransformationSupervisor,
    TransformOptions,
    VersionFlipSync,
    add_attribute,
    remove_attribute,
    rename_attribute,
    resolve_sync_strategy,
)

# -- WAL group commit and durable storage ------------------------------------
from repro.wal import (
    FlushPolicy,
    GROUP_FLUSH,
    IMMEDIATE_FLUSH,
    SalvageReport,
    SimulatedDisk,
)

# -- observability: metrics and run reports ---------------------------------
from repro.obs import (
    Metrics,
    NULL_METRICS,
    build_run_report,
    render_report,
    run_section,
)

# -- fault injection ---------------------------------------------------------
from repro.faults import (
    AbortFault,
    BitFlipFault,
    CrashFault,
    DelayFault,
    FaultInjector,
    FaultPlan,
    LostFlushFault,
    TornWriteFault,
)

# -- errors callers are expected to catch -----------------------------------
from repro.common.errors import (
    DeadlockError,
    DuplicateKeyError,
    InconsistentDataError,
    LockWaitError,
    LogCorruptionError,
    NoSuchRowError,
    NoSuchTableError,
    ReproError,
    SchemaError,
    SimulatedCrashError,
    TransactionAbortedError,
    TransformationAbortedError,
    TransformationError,
    TransformationStarvedError,
)

__all__ = [
    # engine
    "Database",
    "FuzzyScan",
    "Session",
    "bulk_load",
    "fuzzy_copy",
    "restart",
    "restart_from_disk",
    # schemas / specs
    "Attribute",
    "ExplodeSpec",
    "FojSpec",
    "FunctionalDependency",
    "RETYPE_CASTS",
    "RetypeSpec",
    "SnapshotHandle",
    "SplitSpec",
    "TableSchema",
    "explode",
    "full_outer_join",
    "retype",
    "rows_equal",
    "split",
    # declarative migration plans
    "CORPUS",
    "CorpusScenario",
    "MigrationPlan",
    "MigrationStep",
    "PLAN_OPERATORS",
    "PlanExecutor",
    "PlanValidationError",
    "PlanValidator",
    "Workload",
    "run_plan",
    # transformations + configuration
    "AttrPredicate",
    "ExplodeTransformation",
    "FixedIterationsPolicy",
    "FojTransformation",
    "Many2ManyFojTransformation",
    "MaterializedFojView",
    "MergeSpec",
    "MergeTransformation",
    "PartitionSpec",
    "PartitionTransformation",
    "Phase",
    "RetypeTransformation",
    "POPULATION_MODES",
    "RemainingRecordsPolicy",
    "SplitTransformation",
    "STORAGE_BACKENDS",
    "SYNC_STRATEGIES",
    "SyncStrategy",
    "TransformOptions",
    "TransformationSupervisor",
    "VersionFlipSync",
    "add_attribute",
    "remove_attribute",
    "rename_attribute",
    "resolve_sync_strategy",
    # WAL group commit + durable storage
    "FlushPolicy",
    "GROUP_FLUSH",
    "IMMEDIATE_FLUSH",
    "SalvageReport",
    "SimulatedDisk",
    # observability
    "Metrics",
    "NULL_METRICS",
    "build_run_report",
    "render_report",
    "run_section",
    # fault injection
    "AbortFault",
    "BitFlipFault",
    "CrashFault",
    "DelayFault",
    "FaultInjector",
    "FaultPlan",
    "LostFlushFault",
    "TornWriteFault",
    # errors
    "DeadlockError",
    "DuplicateKeyError",
    "InconsistentDataError",
    "LockWaitError",
    "LogCorruptionError",
    "NoSuchRowError",
    "NoSuchTableError",
    "ReproError",
    "SchemaError",
    "SimulatedCrashError",
    "TransactionAbortedError",
    "TransformationAbortedError",
    "TransformationError",
    "TransformationStarvedError",
]
