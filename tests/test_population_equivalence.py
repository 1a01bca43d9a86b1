"""One way into a target table, checked once for every operator.

Eager population, the lazy sweep, restart's swap-point rebuild and the
registry's offline ``reference`` must publish the same rows from the
same quiescent seeds, for every scenario of :data:`repro.plan.CORPUS` --
they are one path (``RuleEngine.migrate_rows``) run three ways.  The
second half is the metamorphic check of the paper's propagation rules:
they are idempotent by construction, so re-propagating any log slice
from an earlier cursor must leave the targets unchanged.
"""

import random

import pytest

from repro.api import (
    CORPUS,
    FojSpec,
    FojTransformation,
    PLAN_OPERATORS,
    CrashFault,
    Database,
    FaultInjector,
    FaultPlan,
    FixedIterationsPolicy,
    InconsistentDataError,
    Phase,
    SimulatedCrashError,
    TableSchema,
    TransformOptions,
    bulk_load,
    restart,
)
from repro.faults import NULL_FAULTS
from repro.faults.sweep import RunConfig, ScenarioRun, draw_history
from repro.plan.corpus import WORKLOAD_SCENARIOS
from repro.transform.base import RuleEngine
from repro.transform.keyed import KeyedRuleEngine
from repro.transform.split import SplitTransformation
from repro.wal.records import FuzzyMarkRecord
from tests.conftest import T_SPLIT_SCHEMA, load_split_data, split_spec

BY_NAME = pytest.mark.parametrize("scenario", CORPUS, ids=lambda s: s.name)

def supports_lazy(scenario):
    return all(PLAN_OPERATORS[step.operator].supports_lazy
               for step in scenario.plan.steps)


def run_steps(db, scenario, **options):
    for step in scenario.plan.steps:
        PLAN_OPERATORS[step.operator].build(
            db, step.params, TransformOptions(**options)).run()


def image(tables):
    """Rows with their metadata (split counters and flags, FOJ null
    markers), as a comparable multiset per table."""
    return {name: sorted(((sorted(row.values.items()),
                           sorted((row.meta or {}).items()))
                          for row in table.scan()), key=repr)
            for name, table in tables.items()}


# -- population equivalence --------------------------------------------------


@BY_NAME
def test_eager_population_publishes_the_reference_rows(scenario):
    db = Database()
    scenario.build(db)
    run_steps(db, scenario)
    assert scenario.verify(db) == []


@BY_NAME
def test_lazy_sweep_publishes_the_reference_rows(scenario):
    if not supports_lazy(scenario):
        pytest.skip("an operator of this plan is eager-only")
    db = Database()
    scenario.build(db)
    run_steps(db, scenario, population_mode="lazy")
    assert scenario.verify(db) == []


@BY_NAME
def test_restart_rebuild_publishes_the_reference_rows(scenario):
    """Kill the last step right after its catalog swap: restart recomputes
    every published table from the recovered sources."""
    db = Database()
    scenario.build(db)
    db.attach_faults(FaultInjector(FaultPlan().arm(
        "sync.swapped", CrashFault(), hit=len(scenario.plan.steps))))
    with pytest.raises(SimulatedCrashError):
        run_steps(db, scenario)
    db.log.faults = NULL_FAULTS
    assert scenario.verify(restart(db.log)) == []


@BY_NAME
def test_migrate_row_twice_equals_once(scenario):
    db = Database()
    scenario.build(db)
    for step in scenario.plan.steps:
        operator = PLAN_OPERATORS[step.operator]
        tf = operator.build(db, step.params, TransformOptions())
        tf.prepare()

        def migrate_all():
            for name in tf.source_tables:
                for row in db.table(name).scan():
                    tf.engine.migrate_row(name, dict(row.values), row.lsn)

        migrate_all()
        once = image(tf.targets)
        assert once == image({name: db.table(table.name)
                              for name, table in tf.targets.items()})
        if step.operator == "merge":
            # Declared eager-only for this reason: a B row finding its
            # key present reads as "key in both sources".
            with pytest.raises(InconsistentDataError):
                migrate_all()
        else:
            migrate_all()
        assert image(tf.targets) == once
        tf.abort()
        operator.build(db, step.params, TransformOptions()).run()
    assert scenario.verify(db) == []


def test_engines_migrate_chunks_and_share_the_one_image_form():
    """The key-preserving operators (retype, partition, merge) share one
    engine, :class:`KeyedRuleEngine`; the other four each have their
    own.  Every engine class defines ``migrate_rows`` -- its one loop,
    which population calls once per scanned chunk; ``migrate_row`` (the
    miss hook's one image) is the base class's on all of them, and no
    ``populate_row`` alias is left."""
    engine_of = {name: operator.transformation.engine_class
                 for name, operator in PLAN_OPERATORS.items()}
    keyed = ("merge", "partition", "retype")
    assert {engine_of[name] for name in keyed} == {KeyedRuleEngine}
    others = [engine for name, engine in engine_of.items()
              if name not in keyed]
    assert len(set(others)) == len(others) == len(PLAN_OPERATORS) - 3
    assert KeyedRuleEngine not in others
    engines = set(engine_of.values())
    for engine in engines:
        assert "migrate_rows" in vars(engine), engine
        assert engine.migrate_row is RuleEngine.migrate_row, engine
        assert not hasattr(engine, "populate_row"), engine


def test_population_probes_each_target_row_once():
    """A split's population claims each R row with its insert (no
    counted lookup) and looks each S contribution up once: N rows cost
    0 lookups on R and N on S, read off ``probe_stats["misses"]``.

    A FOJ's R rows cost no lookup on T's primary index either, and one
    on the join index per distinct (non-NULL) join value of each chunk
    -- chunks of the step budget, 7 rows; each S row costs one."""
    db = Database()
    db.create_table(T_SPLIT_SCHEMA)
    load_split_data(db, n=40, n_zip=6)
    tf = SplitTransformation(db, split_spec(db))
    while tf.phase in (Phase.CREATED, Phase.PREPARED, Phase.POPULATING):
        tf.step(7)
    r_table, s_table = tf.targets["T_r"], tf.targets["postal"]
    assert r_table.row_count == 40
    assert [sum(index.probe_stats["misses"]
                for index in table.indexes.values())
            for table in (r_table, s_table)] == [0, 40]

    db = Database()
    r_schema = TableSchema("R", ["a", "b", "c"], primary_key=["a"])
    s_schema = TableSchema("S", ["c", "d"], primary_key=["c"])
    joins = [None if i % 9 == 0 else i % 5 for i in range(40)]
    for schema, rows in (
            (r_schema, [{"a": i, "b": i, "c": c}
                        for i, c in enumerate(joins)]),
            (s_schema, [{"c": c, "d": c} for c in range(6)])):
        db.create_table(schema)
        bulk_load(db, schema.name, rows)
    tf = FojTransformation(db, FojSpec.derive(r_schema, s_schema, "T",
                                              "c", "c"))
    while tf.phase in (Phase.CREATED, Phase.PREPARED, Phase.POPULATING):
        tf.step(7)
    t = tf.targets["T"]
    assert t.row_count == 41
    per_chunk = sum(len(set(joins[i:i + 7]) - {None})
                    for i in range(0, 40, 7))
    assert {name: index.probe_stats["misses"]
            for name, index in t.indexes.items()} == \
        {"__primary__": 0, "__join__": per_chunk + 6}


# -- metamorphic idempotence of the propagation rules ------------------------


@pytest.mark.parametrize("operator,seed", [
    (operator, seed)
    for operator in sorted(WORKLOAD_SCENARIOS) for seed in range(20)])
def test_repropagating_an_earlier_log_slice_changes_nothing(operator, seed):
    """Run the operator's corpus workload (plus a seeded history) under a
    policy that never synchronizes, park it caught up in PROPAGATING,
    rewind the cursor to a random LSN at or after the begin mark and
    propagate again: Rules 1-11 (and their cousins) are idempotent, so
    the targets come out unchanged."""
    rng = random.Random(seed)
    run = ScenarioRun(RunConfig(WORKLOAD_SCENARIOS[operator],
                                history=draw_history(rng, 6)))
    run.options = run.options.evolve(policy=FixedIterationsPolicy(10 ** 9))
    log = run.db.log

    def caught_up(run):
        return run.tf.phase is Phase.PROPAGATING \
            and run.tf._cursor > log.end_lsn

    run.execute(until=caught_up)
    tf = run.tf
    begin_mark = next(
        record.lsn for record in log.scan()
        if isinstance(record, FuzzyMarkRecord) and record.phase == "begin"
        and record.transform_id == tf.transform_id)
    before = image(tf.targets)
    tf._cursor = rng.randint(begin_mark, tf._cursor - 1)
    budget = rng.choice((1, 3, 64))
    while not caught_up(run):
        tf.step(budget)
    assert image(tf.targets) == before
