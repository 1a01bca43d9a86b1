"""Tests for the declarative migration plan API (repro.plan)."""

import json

import pytest

from repro import (
    CORPUS,
    CrashFault,
    Database,
    FaultInjector,
    FaultPlan,
    MigrationPlan,
    MigrationStep,
    NULL_FAULTS,
    PLAN_OPERATORS,
    PlanExecutor,
    PlanValidationError,
    PlanValidator,
    Session,
    SimulatedCrashError,
    TableSchema,
    TransformOptions,
    full_outer_join,
    restart,
    rows_equal,
    run_plan,
    split,
)
from repro.faults.sweep import (
    ALL_OPERATORS,
    RunConfig,
    ScenarioRun,
    parse_label,
)
from repro.common.errors import SchemaError
from repro.plan import WORKLOAD_SCENARIOS, get_scenario
from repro.plan.operators import live_schemas
from repro.relational import FojSpec, SplitSpec

from tests.conftest import values_of


def chain_plan(plan_id="chain"):
    """A two-step FOJ -> split plan over emp/dept."""
    return MigrationPlan(plan_id, (
        MigrationStep("join", "foj", {
            "r_name": "emp", "s_name": "dept", "target_name": "emp_dept",
            "join_attr_r": "dept_id", "join_attr_s": "did"}),
        MigrationStep("split", "split", {
            "source_name": "emp_dept", "r_name": "staff",
            "s_name": "dept_info", "split_attr": "dept_id",
            "s_attrs": ["dname", "floor"]}),
    ))


def make_chain_db():
    db = Database()
    db.create_table(TableSchema("emp", ["eid", "ename", "dept_id"],
                                primary_key=["eid"]))
    db.create_table(TableSchema("dept", ["did", "dname", "floor"],
                                primary_key=["did"]))
    with Session(db) as s:
        for i in range(12):
            s.insert("emp", {"eid": i, "ename": f"e{i}",
                             "dept_id": i % 3})
        for d in range(3):
            s.insert("dept", {"did": d, "dname": f"d{d}", "floor": d + 1})
    return db


# -- codec ---------------------------------------------------------------


def test_plan_dict_and_json_round_trip():
    plan = MigrationPlan("p", (
        MigrationStep("a", "explode",
                      {"source_name": "t", "target_name": "u",
                       "list_attr": "l", "value_attr": "v"},
                      {"shards": 2}),
    ), defaults={"sync": "nonblocking_commit"}, description="demo")
    assert MigrationPlan.from_dict(plan.to_dict()) == plan
    assert MigrationPlan.from_json(plan.to_json()) == plan
    decoded = json.loads(plan.to_json())
    assert decoded["plan_id"] == "p"
    assert decoded["steps"][0]["options"] == {"shards": 2}


def test_plan_from_dict_collects_all_structural_problems():
    with pytest.raises(PlanValidationError) as err:
        MigrationPlan.from_dict({
            "plan_id": "",
            "steps": [
                {"step_id": "s1", "operator": "foj", "params": "nope"},
                {"step_id": "", "operator": "", "params": {},
                 "bogus": 1},
                "not-a-dict",
            ],
            "defaults": [],
        })
    message = str(err.value)
    for fragment in ("plan_id", "params", "bogus", "defaults"):
        assert fragment in message
    assert len(err.value.problems) >= 4


def test_plan_from_json_rejects_invalid_json():
    with pytest.raises(PlanValidationError):
        MigrationPlan.from_json("{not json")


def test_plan_single_and_transform_ids():
    plan = MigrationPlan.single("p1", "retype", {
        "source_name": "t", "target_name": "u", "attr": "v"})
    assert plan.step_ids() == ["retype"]
    assert plan.transform_id(plan.steps[0]) == "p1.retype"
    assert plan.transform_id("retype") == "p1.retype"


# -- validation failure modes -------------------------------------------


def problems_of(db, plan):
    return PlanValidator(db).problems(plan)


def test_validator_unknown_operator_enumerates_registry():
    db = make_chain_db()
    plan = MigrationPlan.single("p", "sideways", {})
    probs = problems_of(db, plan)
    assert any("unknown operator 'sideways'" in p for p in probs)
    enumerated = next(p for p in probs if "available" in p)
    for name in PLAN_OPERATORS:
        assert name in enumerated


def test_validator_dangling_table_enumerates_catalog():
    db = make_chain_db()
    plan = MigrationPlan.single("p", "foj", {
        "r_name": "ghost", "s_name": "dept", "target_name": "t",
        "join_attr_r": "x", "join_attr_s": "did"})
    probs = problems_of(db, plan)
    joined = "\n".join(probs)
    assert "unknown table 'ghost'" in joined
    assert "'dept'" in joined and "'emp'" in joined


def test_validator_dangling_attribute():
    db = make_chain_db()
    plan = MigrationPlan.single("p", "foj", {
        "r_name": "emp", "s_name": "dept", "target_name": "t",
        "join_attr_r": "ghost_attr", "join_attr_s": "did"})
    probs = problems_of(db, plan)
    assert any("ghost_attr" in p for p in probs)


def test_validator_lazy_on_eager_only_operator():
    db = make_chain_db()
    for op in ("foj_m2m", "partition", "merge"):
        assert not PLAN_OPERATORS[op].supports_lazy
    plan = MigrationPlan("p", (
        MigrationStep("m", "merge",
                      {"a_name": "emp", "b_name": "emp",
                       "target_name": "t"},
                      {"population_mode": "lazy"}),
    ))
    probs = problems_of(db, plan)
    lazy_prob = next(p for p in probs if "lazy" in p)
    # The error teaches which operators *do* support lazy population.
    for name, op in PLAN_OPERATORS.items():
        if op.supports_lazy:
            assert name in lazy_prob


def test_validator_version_flip_requires_mvcc():
    db = make_chain_db()
    plan = MigrationPlan.single("p", "foj", {
        "r_name": "emp", "s_name": "dept", "target_name": "t",
        "join_attr_r": "dept_id", "join_attr_s": "did"},
        options={"sync": "version_flip"})
    probs = problems_of(db, plan)
    assert any('requires storage="mvcc"' in p for p in probs)


def test_validator_duplicate_step_ids():
    db = make_chain_db()
    step = MigrationStep("dup", "retype", {
        "source_name": "emp", "target_name": "emp2", "attr": "ename"})
    plan = MigrationPlan("p", (step, step))
    probs = problems_of(db, plan)
    assert any("duplicate step id" in p for p in probs)


def test_validator_unknown_params_and_options_enumerate():
    db = make_chain_db()
    plan = MigrationPlan.single("p", "retype", {
        "source_name": "emp", "target_name": "emp2", "attr": "ename",
        "bogus_param": 1}, options={"bogus_option": 2})
    joined = "\n".join(problems_of(db, plan))
    assert "bogus_param" in joined
    assert "bogus_option" in joined
    assert "shards" in joined  # option error lists the allowed fields


def test_validator_failure_leaves_catalog_untouched():
    db = make_chain_db()
    before = db.catalog.table_names()
    plan = MigrationPlan.single("p", "sideways", {})
    with pytest.raises(PlanValidationError):
        run_plan(db, plan)
    assert db.catalog.table_names() == before


def test_validator_walks_chained_catalog():
    """Step 2 references step 1's output; step 3 references a retired
    source and must be rejected."""
    db = make_chain_db()
    assert problems_of(db, chain_plan()) == []
    bad = MigrationPlan("p", chain_plan().steps + (
        MigrationStep("late", "retype", {
            "source_name": "emp_dept", "target_name": "x",
            "attr": "ename"}),
    ))
    probs = problems_of(db, bad)
    assert any("'late'" in p and "emp_dept" in p for p in probs)


# -- execution -----------------------------------------------------------


def chain_oracle(db):
    emp_schema = TableSchema("emp", ["eid", "ename", "dept_id"],
                             primary_key=["eid"])
    dept_schema = TableSchema("dept", ["did", "dname", "floor"],
                              primary_key=["did"])
    foj_spec = FojSpec.derive(emp_schema, dept_schema, "emp_dept",
                              "dept_id", "did")
    joined = full_outer_join(foj_spec, values_of(db, "emp"),
                             values_of(db, "dept"))
    split_spec = SplitSpec.derive(
        foj_spec.target_schema(),
        "staff", "dept_info", "dept_id", ["dname", "floor"])
    staff, dept_info, _, _ = split(split_spec, joined, strict=False)
    return staff, dept_info


def test_chain_plan_executes_and_matches_oracle():
    db = make_chain_db()
    staff, dept_info = chain_oracle(db)
    report = run_plan(db, chain_plan())
    assert [s["status"] for s in report["steps"]] == ["done", "done"]
    assert rows_equal(values_of(db, "staff"), staff)
    assert rows_equal(values_of(db, "dept_info"), dept_info)
    assert sorted(db.catalog.table_names()) == ["dept_info", "staff"]
    assert report["steps"][0]["transform_id"] == "chain.join"
    assert report["steps"][1]["published"]["staff"] == 12


def test_run_plan_observe_reports_blame_sections():
    db = make_chain_db()
    report = run_plan(db, chain_plan(), observe=True)
    for step in report["steps"]:
        assert "blame" in step
        assert step["section"]["name"] == step["transform_id"]


def test_run_plan_observe_sections_carry_the_convergence_series():
    """Each observed step's section carries the completed
    transformation's lag series, ending on the synchronize verdict."""
    db = make_chain_db()
    report = run_plan(db, chain_plan(), observe=True)
    for step in report["steps"]:
        series = step["section"]["convergence"]
        assert series, step["step_id"]
        assert series[-1]["decision"] == "synchronize"


# -- crash resume --------------------------------------------------------


def crash_then_resume(site, hit):
    sc = get_scenario("chain-foj-split")
    db = Database()
    sc.build(db)
    db.attach_faults(FaultInjector(FaultPlan().arm(site, CrashFault(),
                                                  hit=hit)))
    with pytest.raises(SimulatedCrashError):
        run_plan(db, sc.plan)
    db.log.faults = NULL_FAULTS
    recovered = restart(db.log)
    report = run_plan(recovered, sc.plan, resume=True)
    assert sc.verify(recovered) == []
    return report


def test_resume_after_crash_at_first_swap():
    report = crash_then_resume("sync.swap.logged", hit=1)
    assert report["resumed"]
    assert [s["status"] for s in report["steps"]] == ["replayed", "done"]


def test_resume_after_crash_at_second_prepare():
    report = crash_then_resume("tf.prepare", hit=2)
    assert [s["status"] for s in report["steps"]] == ["replayed", "done"]


def test_resume_after_crash_at_second_swap():
    report = crash_then_resume("sync.swap.logged", hit=2)
    assert [s["status"] for s in report["steps"]] == [
        "replayed", "replayed"]


def test_resume_reads_no_log(monkeypatch):
    """Which steps swapped is the recovered catalog's registry: resume
    replays both steps of a chain crashed at its second swap with every
    log read failing, and reports what an unpatched resume reports."""
    sc = get_scenario("chain-foj-split")

    def crashed_and_restarted():
        db = Database()
        sc.build(db)
        db.attach_faults(FaultInjector(FaultPlan().arm(
            "sync.swap.logged", CrashFault(), hit=2)))
        with pytest.raises(SimulatedCrashError):
            run_plan(db, sc.plan)
        db.log.faults = NULL_FAULTS
        return restart(db.log)

    unpatched = run_plan(crashed_and_restarted(), sc.plan, resume=True)
    recovered = crashed_and_restarted()

    def no_log_read(*args, **kwargs):
        raise AssertionError("plan resume read the log")

    monkeypatch.setattr(recovered.log, "scan", no_log_read)
    monkeypatch.setattr(recovered.log, "record_at", no_log_read)
    report = run_plan(recovered, sc.plan, resume=True)
    assert [s["status"] for s in report["steps"]] == [
        "replayed", "replayed"]
    assert [s["published"] for s in report["steps"]] == \
        [s["published"] for s in unpatched["steps"]]
    assert report["steps"][1]["published"] == {"dept_info": 3, "staff": 5}


def test_resume_after_crash_mid_population_restarts_from_scratch():
    report = crash_then_resume("tf.populate.chunk", hit=1)
    assert not report["resumed"]
    assert [s["status"] for s in report["steps"]] == ["done", "done"]


def test_completed_steps_must_be_plan_prefix():
    sc = get_scenario("chain-foj-split")
    db = Database()
    sc.build(db)
    run_plan(db, sc.plan)
    # A plan claiming different early steps does not match this log.
    impostor = MigrationPlan(sc.plan.plan_id, (
        MigrationStep("other", "retype", {
            "source_name": "staff", "target_name": "staff2",
            "attr": "ename"}),
        sc.plan.steps[1],
    ))
    with pytest.raises(PlanValidationError, match="prefix"):
        PlanExecutor(db, impostor).completed_step_ids()


# -- corpus --------------------------------------------------------------


@pytest.mark.parametrize("scenario", CORPUS, ids=lambda sc: sc.name)
def test_corpus_scenario_end_to_end(scenario):
    db = Database()
    scenario.build(db)
    report = run_plan(db, scenario.plan)
    assert scenario.verify(db) == []
    assert all(s["status"] == "done" for s in report["steps"])
    # Every scenario's plan survives the JSON codec.
    assert MigrationPlan.from_json(scenario.plan.to_json()) == \
        scenario.plan


def test_expected_of_the_chain_is_this_hand_written_row_list():
    """The folded oracle against rows written out by hand: the join keeps
    the dangling department of ``dee`` as a NULL-padded row, the split
    then makes a department of it with nothing known about it."""
    expected = get_scenario("chain-foj-split").expected()
    assert sorted(expected) == ["dept_info", "staff"]
    assert rows_equal(expected["staff"], [
        {"eid": 1, "ename": "ada", "dept_id": "d1"},
        {"eid": 2, "ename": "bob", "dept_id": "d1"},
        {"eid": 3, "ename": "cyn", "dept_id": "d2"},
        {"eid": 4, "ename": "dee", "dept_id": "d9"},
        {"eid": 5, "ename": "eli", "dept_id": "d2"},
    ])
    assert rows_equal(expected["dept_info"], [
        {"dept_id": "d1", "dname": "storage", "floor": 2},
        {"dept_id": "d2", "dname": "recovery", "floor": 3},
        {"dept_id": "d9", "dname": None, "floor": None},
    ])


@pytest.mark.parametrize("scenario", CORPUS, ids=lambda sc: sc.name)
def test_reference_agrees_with_derive(scenario):
    """Folding ``reference`` publishes exactly the tables folding
    ``derive`` publishes, and every row carries exactly the derived
    attribute list."""
    schemas = {schema.name: schema for schema, _ in scenario.seeds}
    for step in scenario.plan.steps:
        published, retired = \
            PLAN_OPERATORS[step.operator].derive(schemas, step.params)
        for name in retired:
            del schemas[name]
        schemas.update(published)
    expected = scenario.expected()
    assert sorted(expected) == sorted(schemas)
    for name, rows in expected.items():
        assert rows, f"{name}: the seeds publish nothing here"
        for row in rows:
            assert tuple(row) == schemas[name].attribute_names


#: Steps whose schema checks only the spec knows, over ``bad_step_db``'s
#: tables: a many-to-many join whose S is keyed by the join attribute, a
#: partition on an attribute the source lacks, a merge of tables that are
#: not union-compatible.
BAD_STEPS = {
    "foj_m2m_join_keyed_s": ("foj_m2m", {
        "r_name": "r", "s_name": "s", "target_name": "t",
        "join_attr_r": "c", "join_attr_s": "c"}),
    "partition_unknown_attr": ("partition", {
        "source_name": "r", "a_name": "r_eu", "b_name": "r_rest",
        "predicate": {"attr": "nope", "op": "==", "value": "eu"}}),
    "merge_incompatible": ("merge", {
        "a_name": "r", "b_name": "s", "target_name": "t"}),
}


def bad_step_db():
    db = Database()
    db.create_table(TableSchema("r", ["a", "c"], primary_key=["a"]))
    db.create_table(TableSchema("s", ["c", "d"], primary_key=["c"]))
    with Session(db) as session:
        session.insert("r", {"a": 1, "c": 10})
        session.insert("s", {"c": 10, "d": "x"})
    return db


@pytest.mark.parametrize("case", sorted(BAD_STEPS))
def test_validator_and_live_build_reject_the_same_steps(case):
    """The validator and the live build run the one check the spec
    carries: the plan is refused naming the step, and building and
    running the transformation from the same params raises before
    anything is published."""
    operator, params = BAD_STEPS[case]
    db = bad_step_db()
    plan = MigrationPlan.single("p", operator, params)
    assert [problem.split(":")[0] for problem in problems_of(db, plan)] == \
        [f"step {plan.steps[0].step_id!r}"]
    with pytest.raises(SchemaError):
        PLAN_OPERATORS[operator].build(db, params, TransformOptions()).run()
    assert db.catalog.table_names() == ["r", "s"]
    assert sorted(values_of(db, "r")) == [{"a": 1, "c": 10}]


@pytest.mark.parametrize("scenario", WORKLOAD_SCENARIOS.values(),
                         ids=lambda sc: sc.name)
def test_live_targets_equal_the_derived_schemas(scenario):
    """What preparation creates is what ``derive`` publishes: the same
    sources retired, and each target with the published attribute names
    and primary key."""
    db = Database()
    scenario.build(db)
    step = scenario.plan.steps[0]
    operator = PLAN_OPERATORS[step.operator]
    published, retired = operator.derive(live_schemas(db), step.params)
    tf = operator.build(db, step.params, TransformOptions())
    assert tf.source_tables == retired
    tf.prepare()
    assert sorted(tf.targets) == sorted(published)
    for name, table in tf.targets.items():
        assert table.schema.attribute_names == \
            published[name].attribute_names, name
        assert table.schema.primary_key == published[name].primary_key, name


# -- the corpus as the one scenario source ---------------------------------


def test_every_plan_operator_has_a_workload_scenario():
    assert sorted(WORKLOAD_SCENARIOS) == sorted(PLAN_OPERATORS)
    # ... and the sweep labels are those operators plus suffix variants.
    assert {parse_label(label).operator
            for label in ALL_OPERATORS} == set(PLAN_OPERATORS)
    assert [parse_label(label).label for label in ALL_OPERATORS] == \
        list(ALL_OPERATORS)
    for scenario in WORKLOAD_SCENARIOS.values():
        assert scenario in CORPUS and len(scenario.plan.steps) == 1


@pytest.mark.parametrize("operator", sorted(PLAN_OPERATORS))
def test_lazy_label_accepted_iff_operator_supports_lazy(operator):
    if PLAN_OPERATORS[operator].supports_lazy:
        config = parse_label(f"{operator}:lazy@2")
        assert config.scenario is WORKLOAD_SCENARIOS[operator]
        assert (config.population, config.shards) == ("lazy", 2)
    else:
        with pytest.raises(ValueError, match="eager-only"):
            parse_label(f"{operator}:lazy")
    assert parse_label(operator) == RunConfig(WORKLOAD_SCENARIOS[operator])


@pytest.mark.parametrize("label", ["join", "foj:eager", "foj@", "foj@x",
                                   "chain-foj-split", ""])
def test_unknown_sweep_labels_are_rejected(label):
    with pytest.raises(ValueError, match="unknown sweep operator"):
        parse_label(label)


def test_scenario_run_needs_a_workload():
    with pytest.raises(ValueError, match="not sweepable"):
        ScenarioRun(RunConfig(get_scenario("chain-foj-split")))


@pytest.mark.parametrize("scenario", WORKLOAD_SCENARIOS.values(),
                         ids=lambda sc: sc.name)
def test_workload_names_only_its_own_tables_and_attributes(scenario):
    """Workloads are data over the scenario: every op and read must
    resolve against the seeds' schemas, every probe against the
    published ones (an in-place change publishes under a seed's name)."""
    schemas = {schema.name: schema for schema, _ in scenario.seeds}
    sources = set(schemas)
    step = scenario.plan.steps[0]
    published, _ = PLAN_OPERATORS[step.operator].derive(schemas,
                                                        step.params)
    workload = scenario.workload
    for op in workload.ops():
        kind, table = op[0], op[1]
        schema = (published if op in workload.probes else schemas)[table]
        attrs = set(op[2]) if kind == "i" else \
            set(op[3]) if kind == "u" else set()
        assert attrs <= set(schema.attribute_names), op
        if kind != "i":
            assert len(op[2]) == len(schema.primary_key), op
    for probe in workload.probes:
        assert probe[0] == "i" and probe[1] in published
    for table, key in workload.lazy_reads:
        assert table in sources
        assert len(key) == len(schemas[table].primary_key)
    # The long transaction's two writes hit one source row.
    assert workload.long_op[1] == workload.long_post_swap_op[1]
    assert workload.long_op[1] in sources
    assert workload.long_op[2] == workload.long_post_swap_op[2]
