"""The migration law, spelled out once for every rule engine.

``RuleEngine.migrate_rows`` is the one way source rows enter a target
(population in every mode, the lazy miss hook, restart rebuild), and
Theorem 1 rests on it keeping three laws:

* **once** -- any cut of the source rows into chunks, migrated in any
  order, publishes the operator's ``reference`` rows, with the NULL-record
  flags (FOJ) and the duplicate counters and C flags (split) it implies;
* **twice = once** -- migrating a chunk again changes nothing (a merge's
  second source must raise instead: a key found present there reads as a
  key in both sources), storing nothing;
* **raise, then retry = once** -- an :class:`AbortFault` at any crossing
  of a storage site inside a chunk stores nothing of the chunk, and
  migrating it again leaves what migrating it once does.

A :class:`MigrationCase` is the rows of an operator's sources and a cut
of them into ordered chunks; :func:`check_migrate_law` asserts all three
on it.  ``tests/test_migrate_contract.py`` draws cases with Hypothesis
for every operator of :data:`repro.plan.PLAN_OPERATORS` and pins the
controls the law was written against.
"""

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import pytest

from repro import Database, TableSchema
from repro.common.errors import (
    InconsistentDataError,
    TransformationAbortedError,
)
from repro.faults import NULL_FAULTS, AbortFault, FaultInjector, FaultPlan
from repro.plan import PLAN_OPERATORS
from repro.transform.options import TransformOptions
from repro.transform.split import FLAG_CONSISTENT

#: The storage sites a chunk crosses; the raise law arms each crossing.
SITES = ("table.insert", "table.insert.indexed", "table.update",
         "table.delete")


@dataclass
class MigrationCase:
    """An operator's sources, their rows, and a cut of them into chunks.

    ``chunks`` lists ``(source table, row positions)`` in migration
    order; every row of ``rows`` is in a chunk (a row in two is migrated
    twice, which the law allows).  A row's LSN is its position in all
    sources' rows, counted from 1 -- the same whatever the cut.
    """

    operator: str
    schemas: List[TableSchema]
    params: Dict[str, object]
    rows: Dict[str, List[Dict[str, object]]]
    chunks: List[Tuple[str, List[int]]] = field(default_factory=list)

    def transformation(self):
        """A fresh transformation over empty sources, its targets built
        detached and its engine wired to them."""
        db = Database()
        for schema in self.schemas:
            db.create_table(schema)
        tf = PLAN_OPERATORS[self.operator].build(db, self.params,
                                                 TransformOptions())
        tf._wire(tf.target_tables(db, tf.spec, detached=True))
        return tf

    def images(self, table: str, positions: List[int]):
        base = sum(len(self.rows[name]) for name in self.rows
                   if name < table)
        return [(dict(self.rows[table][i]), base + i + 1)
                for i in positions]

    def migrate(self, tf, chunks) -> None:
        for table, positions in chunks:
            tf.engine.migrate_rows(table, self.images(table, positions))

    def second_source(self, table: str) -> bool:
        """Whether a present key in ``table`` reads as a collision."""
        return self.operator == "merge" and table == self.params["b_name"]


def image(tf) -> Dict[str, List[str]]:
    """Every target row with its LSN and metadata, as a sorted multiset
    per published table."""
    return {name: sorted(repr((sorted(row.values.items()), row.lsn,
                               sorted((row.meta or {}).items())))
                         for row in table.scan())
            for name, table in tf.targets.items()}


def _rows(rows) -> List[str]:
    return sorted(repr(sorted(values.items())) for values in rows)


def check_flags(case: MigrationCase, tf) -> None:
    """The metadata the reference implies: a FOJ row's NULL-record flags
    exactly where its R key is NULL or its join value matches no S row;
    a split S row's duplicate
    counter and C flag (the drawn rows are consistent); nothing else."""
    spec = tf.spec
    for name, table in tf.targets.items():
        for row in table.scan():
            meta = dict(row.meta or {})
            if case.operator in ("foj", "foj_m2m"):
                r_null = all(row.values[a] is None for a in spec.r_key)
                join_value = row.values[spec.join_column]
                s_null = not r_null and all(
                    join_value is None or source[spec.join_attr_s] !=
                    join_value for source in case.rows[spec.s_name])
                expected = {flag: True for flag, on in (
                    ("r_null", r_null), ("s_null", s_null)) if on}
                meta = {flag: on for flag, on in meta.items() if on}
            elif case.operator == "split" and name == spec.s_name:
                value = row.values[spec.split_attr]
                expected = {"counter": sum(
                    source[spec.split_attr] == value
                    for source in case.rows[spec.source_name]),
                    "flag": FLAG_CONSISTENT}
            else:
                expected = {}
            assert meta == expected, (name, row.values, meta)


def _armed(tf, plan=None) -> FaultInjector:
    injector = FaultInjector(plan) if plan is not None else FaultInjector()
    for table in tf.targets.values():
        table.faults = injector
    return injector


def _disarm(tf) -> None:
    for table in tf.targets.values():
        table.faults = NULL_FAULTS


def check_migrate_law(case: MigrationCase) -> None:
    """Assert the three laws of the module docstring on ``case``."""
    # Once.
    tf = case.transformation()
    case.migrate(tf, case.chunks)
    reference = PLAN_OPERATORS[case.operator].reference(
        {schema.name: schema for schema in case.schemas}, case.params,
        case.rows)
    assert {name: _rows(row.values for row in table.scan())
            for name, table in tf.targets.items()
            } == {name: _rows(rows) for name, rows in reference.items()}
    check_flags(case, tf)
    once = image(tf)

    # Twice = once.
    for table, positions in case.chunks:
        if case.second_source(table):
            with pytest.raises(InconsistentDataError):
                case.migrate(tf, [(table, positions)])
        else:
            case.migrate(tf, [(table, positions)])
        assert image(tf) == once, ("twice", table, positions)

    # Raise, then retry = once.
    for at, chunk in enumerate(case.chunks):
        tf = case.transformation()
        case.migrate(tf, case.chunks[:at])
        before = image(tf)
        hits = _armed(tf).hits
        case.migrate(tf, [chunk])
        after, hits = image(tf), dict(hits)
        for site in SITES:
            for k in range(1, hits.get(site, 0) + 1):
                tf = case.transformation()
                case.migrate(tf, case.chunks[:at])
                _armed(tf, FaultPlan().arm(site, AbortFault(), hit=k))
                with pytest.raises(TransformationAbortedError):
                    case.migrate(tf, [chunk])
                assert image(tf) == before, ("raise stored", site, k, chunk)
                _disarm(tf)
                case.migrate(tf, [chunk])
                assert image(tf) == after, ("retry", site, k, chunk)
