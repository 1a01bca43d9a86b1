"""The migration law (``tests/migrate_contract.py``) for every plan
operator's rule engine, on rows Hypothesis draws: NULL join values,
several rows per join value, key and non-key joins, NULL and empty
lists -- cut into chunks of one to four rows, migrated in any order.

Three pinned cases are the defects the law was written against, and
the join-value shape the FOJ chunk paths read off one row is checked
as an invariant that a planted break trips."""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import Database, Phase, TableSchema
from repro.engine.session import bulk_load
from repro.plan import PLAN_OPERATORS
from repro.transform.foj import NULL_FLAGS
from repro.transform.options import TransformOptions
from tests.migrate_contract import MigrationCase, check_migrate_law

R = TableSchema("R", ["a", "b", "c"], primary_key=["a"])
S_JOIN_KEYED = TableSchema("S", ["c", "d"], primary_key=["c"])
S_KEYED = TableSchema("S", ["k", "c", "d"], primary_key=["k"])
JOIN = {"r_name": "R", "s_name": "S", "target_name": "T",
        "join_attr_r": "c", "join_attr_s": "c"}
AB = [TableSchema(name, ["id", "v"], primary_key=["id"])
      for name in ("A", "B")]
MERGE = {"a_name": "A", "b_name": "B", "target_name": "T"}

JOINS = st.sampled_from([None, 0, 1, 2])
SMALL = st.sampled_from([None, "x", "y"])


def _chunks(draw, rows):
    """Each source's rows in a drawn order, cut into chunks of 1-4, and
    all chunks in a drawn order."""
    chunks = []
    for table, table_rows in rows.items():
        order = list(draw(st.permutations(range(len(table_rows)))))
        while order:
            size = draw(st.integers(1, 4))
            chunks.append((table, order[:size]))
            order = order[size:]
    return list(draw(st.permutations(chunks)))


def _join_case(draw, operator):
    r_rows = [{"a": a, "b": b, "c": c} for a, (b, c) in enumerate(
        draw(st.lists(st.tuples(SMALL, JOINS), max_size=7)))]
    if operator == "foj" and draw(st.booleans()):
        schema = S_JOIN_KEYED
        s_rows = [{"c": c, "d": d} for c, d in draw(st.lists(
            st.tuples(st.integers(0, 3), SMALL), max_size=4,
            unique_by=lambda pair: pair[0]))]
    else:
        schema = S_KEYED
        joins = draw(st.lists(st.sampled_from([None, 0, 1, 2, 3]),
                              max_size=5))
        if operator == "foj":  # one S record per (non-NULL) join value
            seen = set()
            joins = [c for c in joins if c is None or
                     not (c in seen or seen.add(c))]
        s_rows = [{"k": k, "c": c, "d": draw(SMALL)}
                  for k, c in enumerate(joins)]
    return [R, schema], JOIN, {"R": r_rows, "S": s_rows}


def _keyed_rows(draw, values, max_size=8):
    return [{"id": i, "v": v}
            for i, v in enumerate(draw(st.lists(values, max_size=max_size)))]


def draw_case(draw, operator) -> MigrationCase:
    if operator in ("foj", "foj_m2m"):
        schemas, params, rows = _join_case(draw, operator)
    elif operator == "split":
        city = draw(st.lists(SMALL, min_size=3, max_size=3))
        schemas = [TableSchema("T", ["id", "zip", "city"],
                               primary_key=["id"])]
        params = {"source_name": "T", "r_name": "R", "s_name": "S",
                  "split_attr": "zip", "s_attrs": ["city"]}
        rows = {"T": [{"id": i, "zip": z, "city": city[z]} for i, z in
                      enumerate(draw(st.lists(st.integers(0, 2),
                                              max_size=8)))]}
    elif operator == "explode":
        schemas = [TableSchema("T", ["id", "tags", "x"], primary_key=["id"])]
        params = {"source_name": "T", "target_name": "E",
                  "list_attr": "tags", "value_attr": "tag"}
        tags = st.sampled_from([None, "", " , ", "a", "a,b", "b,a,a"])
        rows = {"T": [{"id": i, "tags": t, "x": x} for i, (t, x) in
                      enumerate(draw(st.lists(st.tuples(tags, SMALL),
                                              max_size=6)))]}
    elif operator == "partition":
        schemas = AB[:1]
        params = {"source_name": "A", "a_name": "P", "b_name": "Q",
                  "predicate": {"attr": "v", "op": ">=", "value": 1}}
        rows = {"A": _keyed_rows(draw, JOINS)}
    elif operator == "merge":
        schemas, params = AB, MERGE
        sides = draw(st.lists(st.tuples(st.booleans(), JOINS), max_size=8))
        rows = {name: [{"id": i, "v": v}
                       for i, (in_b, v) in enumerate(sides)
                       if in_b == (name == "B")] for name in ("A", "B")}
    else:
        assert operator == "retype"
        schemas = [TableSchema("T", ["id", "v", "note"], primary_key=["id"])]
        params = {"source_name": "T", "target_name": "T2", "attr": "v",
                  "cast": "int", "default": 0, "rename": {"note": "label"},
                  "add": {"unit": "C"}}
        values = st.sampled_from([None, "1", " 2", "30"])
        rows = {"T": [{"id": i, "v": v, "note": n} for i, (v, n) in
                      enumerate(draw(st.lists(st.tuples(values, SMALL),
                                              max_size=8)))]}
    return MigrationCase(operator, schemas, params, rows,
                         _chunks(draw, rows))


@pytest.mark.parametrize("operator", sorted(PLAN_OPERATORS))
@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_migrate_rows_keeps_the_law(operator, data):
    check_migrate_law(draw_case(data.draw, operator))


CONTROLS = {
    # A NULL-join S row's t^null has a NULL R key and a NULL join value;
    # only the S-key index finds it again.
    "foj_null_join_twice": MigrationCase(
        "foj", [R, S_KEYED], JOIN,
        {"R": [], "S": [{"k": 1, "c": None, "d": "x"}]}, [("S", [0])]),
    # Two placeholder fills for one S record: a raise at the second
    # must take the first back, or the retry skips a carried record.
    "m2m_raise_then_retry": MigrationCase(
        "foj_m2m", [R, S_KEYED], JOIN,
        {"R": [{"a": 1, "b": "x", "c": 10}, {"a": 2, "b": "y", "c": 10}],
         "S": [{"k": 7, "c": 10, "d": "z"}]},
        [("R", [0, 1]), ("S", [0])]),
    # B's chunk half stored reads as a collision on its retry.
    "merge_raise_then_retry": MigrationCase(
        "merge", AB, MERGE,
        {"A": [{"id": 1, "v": 0}],
         "B": [{"id": 2, "v": 0}, {"id": 3, "v": 1}]},
        [("A", [0]), ("B", [0, 1])]),
}


@pytest.mark.parametrize("name", sorted(CONTROLS))
def test_migrate_law_controls(name):
    check_migrate_law(CONTROLS[name])


@pytest.mark.parametrize("operator", ["foj", "foj_m2m"])
def test_join_value_shape_is_an_invariant(operator):
    """Populated, the rows at each join value are one side's records
    joined with the mirror's NULL record, or a cross product; an R row
    planted beside them joined with snull breaks that."""
    db = Database()
    for schema, rows in (
            (R, [{"a": a, "b": "b", "c": a % 2} for a in range(4)]),
            (S_KEYED, [{"k": 7, "c": 0, "d": "d7"},
                       {"k": 8, "c": 5, "d": "d8"}])):
        db.create_table(schema)
        bulk_load(db, schema.name, rows)
    tf = PLAN_OPERATORS[operator].build(db, JOIN, TransformOptions())
    while tf.phase is not Phase.PROPAGATING:
        tf.step(3)
    assert tf.check_invariants() == []
    tf.targets["T"].insert_row({"a": 9, "b": "b", "c": 0},
                               meta=NULL_FLAGS["s_null"])
    assert tf.check_invariants() == \
        ["T join value 0 mixes ['joined', 's_null'] rows"]
