"""Snapshot of the stable public API surface.

``repro.api`` is the compatibility promise: every name below must keep
importing from ``repro.api`` (and from ``repro`` itself, whose ``__all__``
is a superset).  A failure here means a PR changed the public surface --
either restore the name or consciously update the snapshot (a breaking
change worth calling out in the changelog).
"""

import warnings

import repro
import repro.api as api

#: The frozen surface of ``repro.api``.  Keep sorted.
API_SURFACE = sorted([
    # engine
    "Database", "FuzzyScan", "Session", "bulk_load", "fuzzy_copy",
    "restart", "restart_from_disk",
    # schemas / specs / oracles
    "Attribute", "ExplodeSpec", "FojSpec", "FunctionalDependency",
    "RETYPE_CASTS", "RetypeSpec", "SnapshotHandle", "SplitSpec",
    "TableSchema", "explode", "full_outer_join", "retype", "rows_equal",
    "split",
    # declarative migration plans
    "CORPUS", "CorpusScenario", "MigrationPlan", "MigrationStep",
    "PLAN_OPERATORS", "PlanExecutor",
    "PlanValidationError", "PlanValidator", "Workload", "run_plan",
    # transformations + configuration
    "AttrPredicate", "ExplodeTransformation",
    "FixedIterationsPolicy", "FojTransformation",
    "Many2ManyFojTransformation", "MaterializedFojView", "MergeSpec",
    "MergeTransformation", "PartitionSpec", "PartitionTransformation",
    "Phase", "POPULATION_MODES", "RemainingRecordsPolicy",
    "RetypeTransformation", "SplitTransformation", "STORAGE_BACKENDS",
    "SYNC_STRATEGIES", "SyncStrategy", "TransformOptions",
    "TransformationSupervisor", "VersionFlipSync",
    "add_attribute", "remove_attribute",
    "rename_attribute", "resolve_sync_strategy",
    # WAL group commit + durable storage
    "FlushPolicy", "GROUP_FLUSH", "IMMEDIATE_FLUSH", "SalvageReport",
    "SimulatedDisk",
    # observability
    "Metrics", "NULL_METRICS", "build_run_report", "render_report",
    "run_section",
    # fault injection
    "AbortFault", "BitFlipFault", "CrashFault", "DelayFault",
    "FaultInjector", "FaultPlan", "LostFlushFault", "TornWriteFault",
    # errors
    "DeadlockError", "DuplicateKeyError", "InconsistentDataError",
    "LockWaitError", "LogCorruptionError", "NoSuchRowError",
    "NoSuchTableError", "ReproError",
    "SchemaError", "SimulatedCrashError", "TransactionAbortedError",
    "TransformationAbortedError", "TransformationError",
    "TransformationStarvedError",
])


def test_api_surface_matches_snapshot():
    assert sorted(api.__all__) == API_SURFACE


def test_every_api_name_importable():
    missing = [name for name in API_SURFACE if not hasattr(api, name)]
    assert not missing, f"repro.api lost: {missing}"


def test_repro_package_exports_superset_of_api():
    """``from repro import X`` keeps working for everything in the
    facade (minus the flat helpers that only live there)."""
    package = set(repro.__all__)
    for name in API_SURFACE:
        assert hasattr(repro, name), f"repro lost attribute {name}"
    # The package __all__ covers the facade's transformation/config core.
    for name in ("Database", "TransformOptions", "FlushPolicy",
                 "SYNC_STRATEGIES", "FojTransformation",
                 "SplitTransformation", "TransformationSupervisor",
                 "restart"):
        assert name in package


def test_api_import_emits_no_warnings():
    """Importing the facade must never trip its own deprecation shims."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        import importlib
        importlib.reload(api)
