"""TransformOptions: validation, registry strings, and how options thread
through transformations and the supervisor."""

import inspect
import warnings
from functools import partial

import pytest

from repro.api import (
    Database,
    FlushPolicy,
    FojSpec,
    FojTransformation,
    Metrics,
    MigrationPlan,
    PlanExecutor,
    Session,
    SplitSpec,
    SplitTransformation,
    SyncStrategy,
    SYNC_STRATEGIES,
    TableSchema,
    TransformationSupervisor,
    TransformOptions,
    resolve_sync_strategy,
    run_plan,
)
from repro.obs import (BlameBoard, ConvergenceMonitor, EventRing, Gauge,
                       Histogram, SpanTracker)


def build_db():
    db = Database()
    db.create_table(TableSchema("R", ["a", "b", "c"], primary_key=["a"]))
    db.create_table(TableSchema("S", ["c", "d"], primary_key=["c"]))
    with Session(db) as s:
        for i in range(6):
            s.insert("R", {"a": i, "b": i, "c": i % 3})
        for c in range(3):
            s.insert("S", {"c": c, "d": f"d{c}"})
    return db


def foj_spec(db):
    return FojSpec.derive(db.table("R").schema, db.table("S").schema,
                          "T", "c", "c")


# -- validation --------------------------------------------------------------


def test_defaults_are_valid_and_frozen():
    opts = TransformOptions()
    assert opts.sync_strategy is SyncStrategy.NONBLOCKING_ABORT
    assert opts.shards == 1
    with pytest.raises(AttributeError):
        opts.shards = 2


@pytest.mark.parametrize("bad", [
    {"shards": 0}, {"shards": -1}, {"sync": "version_flip"},
    {"population_mode": "on_demand"}, {"storage": "lsm"},
    {"sync": "no_such_strategy"},
])
def test_invalid_options_raise_value_error(bad):
    with pytest.raises(ValueError):
        TransformOptions(**bad)


def test_removed_option_fields_are_rejected():
    """The knob census, one row per configuration surface: exactly these
    keywords are accepted and every retired one raises ``TypeError``.
    The ``step(budget)`` argument is the one throttle; chunk and slice
    sizes, retention bounds and retry sizes are constants of the code
    that uses them; faults and the flush policy belong to the
    ``Database`` the caller already holds."""
    db = build_db()
    plan = MigrationPlan.single("census", "foj", {
        "r_name": "R", "s_name": "S", "target_name": "T",
        "join_attr_r": "c", "join_attr_s": "c"})
    clock = lambda: 0.0  # noqa: E731
    census = [  # (surface, the keywords it accepts, retired keywords)
        (TransformOptions, "sync shards metrics policy transform_id "
         "population_mode storage", "population_chunk propagation_batch "
         "priority faults flush_policy"),
        (Metrics, "enabled clock", "trace_capacity sample_cap "
         "span_capacity gauge_series_cap blame_edge_capacity"),
        (partial(TransformationSupervisor, db, lambda: None),
         "budget on_wait", "slo flight max_attempts backoff_base "
         "backoff_factor backoff_cap escalation_factor max_budget "
         "max_steps_per_attempt"),
        (partial(PlanExecutor, db, plan), "validate observe",
         "supervisor_kwargs"),
        (partial(run_plan, db, plan), "resume validate observe",
         "supervisor_kwargs"),
        (EventRing, "", "capacity"),
        (partial(SpanTracker, clock), "", "capacity"),
        (partial(BlameBoard, Metrics()), "", "edge_capacity"),
        (partial(Histogram, "h"), "", "sample_cap"),
        (partial(Gauge, "g"), "", "series_cap"),
        (partial(ConvergenceMonitor, Metrics()), "", "capacity transform_id"),
    ]
    for make, accepted, retired in census:
        assert list(inspect.signature(make).parameters) == accepted.split()
        for name in retired.split():
            with pytest.raises(TypeError):
                make(**{name: 1})


def test_evolve_revalidates():
    opts = TransformOptions()
    assert opts.evolve(shards=4).shards == 4
    with pytest.raises(ValueError):
        opts.evolve(shards=-1)


# -- sync strategy registry --------------------------------------------------


def test_sync_selectable_by_registry_string():
    assert set(SYNC_STRATEGIES) == {
        "blocking_commit", "nonblocking_abort", "nonblocking_commit",
        "version_flip"}
    opts = TransformOptions(sync="nonblocking_commit")
    assert opts.sync_strategy is SyncStrategy.NONBLOCKING_COMMIT
    assert resolve_sync_strategy(SyncStrategy.BLOCKING_COMMIT) \
        is SyncStrategy.BLOCKING_COMMIT
    with pytest.raises(ValueError, match="available"):
        resolve_sync_strategy("eventual")


def test_unknown_sync_strategy_error_enumerates_registry():
    """Regression: the error must teach every registered strategy, so a
    typo'd config never strands the caller guessing at valid names."""
    with pytest.raises(ValueError) as err:
        resolve_sync_strategy("zzz")
    message = str(err.value)
    assert "unknown sync strategy 'zzz'" in message
    for key in SYNC_STRATEGIES:
        assert key in message


def test_registry_string_drives_transformation():
    db = build_db()
    tf = FojTransformation(db, foj_spec(db), options=TransformOptions(
        sync="blocking_commit"))
    assert tf.options.sync_strategy is SyncStrategy.BLOCKING_COMMIT
    tf.run()
    assert db.table("T").row_count > 0


# -- the legacy per-call kwargs are gone -------------------------------------


def test_legacy_per_call_kwargs_rejected():
    """The pre-TransformOptions shim (sync_strategy=, shards=, ...) was
    removed: transformations take exactly (db, spec, options) plus their
    genuinely per-operator kwargs."""
    db = build_db()
    for bad in ({"sync_strategy": SyncStrategy.NONBLOCKING_COMMIT},
                {"shards": 2}, {"population_chunk": 5},
                {"transform_id": "tf-x"}):
        with pytest.raises(TypeError):
            FojTransformation(db, foj_spec(db), **bad)


def test_construction_emits_no_warnings():
    db = build_db()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        FojTransformation(db, foj_spec(db))


# -- options threading -------------------------------------------------------


def test_metrics_attach_through_options_flush_policy_on_database():
    db = build_db()
    metrics = Metrics()
    policy = FlushPolicy(max_pending_requests=4, max_pending_records=32)
    db.log.flush_policy = policy
    tf = FojTransformation(db, foj_spec(db), options=TransformOptions(
        metrics=metrics))
    assert db.log.flush_policy is policy  # options leave the log alone
    assert db.metrics is metrics
    tf.run()
    assert metrics.counter_value("wal.appends") > 0


# -- the supervisor takes no options: the factory configures each attempt ----


def test_supervisor_shards_kwarg_removed():
    db = build_db()
    for gone in ({"shards": 2}, {"options": TransformOptions(shards=2)}):
        with pytest.raises(TypeError):
            TransformationSupervisor(db, lambda: None, **gone)
