"""The dispatch contract (``tests/dispatch_contract.py``) for every plan
operator's rule engine, on the log of its corpus scenario.

Each stream is a real history: the scenario's seed inserts, its scripted
transactions (aborts included, so CLRs arrive unwrapped as the
propagation loop hands them over) and seeded random writes, replayed from
empty targets.  ``apply_run`` for a live owner must touch what ``apply``
touches record by record; for owner ``0`` it must touch nothing and leave
the same rows."""

import random

import pytest

from repro import Database
from repro.plan import PLAN_OPERATORS, WORKLOAD_SCENARIOS
from repro.transform.options import TransformOptions
from repro.wal.records import CLRecord, DeleteRecord, InsertRecord, \
    UpdateRecord
from tests.dispatch_contract import check_dispatch_contract

DATA = (InsertRecord, UpdateRecord, DeleteRecord)


def _run_txn(db, ops, abort):
    txn = db.begin()
    for op in ops:
        if op[0] == "i":
            db.insert(txn, op[1], dict(op[2]))
        elif op[0] == "u":
            db.update(txn, op[1], tuple(op[2]), dict(op[3]))
        else:
            db.delete(txn, op[1], tuple(op[2]))
    (db.abort if abort else db.commit)(txn)


def _history(scenario, rng):
    """The scenario's sources after seeds, script and 40 random
    transactions on its scratch table."""
    db = Database()
    scenario.build(db)
    workload = scenario.workload
    for ops, abort in workload.script:
        _run_txn(db, ops, abort)
    _run_txn(db, [workload.long_op], False)
    table, attr = workload.scratch
    schema = db.catalog.get(table).schema
    live = list(scenario.safe_keys())
    for i in range(40):
        ops, inserted, deleted = [], [], []
        for j in range(rng.randint(1, 3)):
            roll = rng.random()
            if roll < 0.4 or not live:
                values = workload.fresh_row(rng, 10 * i + j)
                ops.append(("i", table, values))
                inserted.append(schema.key_of(values))
            elif roll < 0.8:
                ops.append(("u", table, rng.choice(live),
                            {attr: f"x{i}.{j}"}))
            else:
                key = live.pop(rng.randrange(len(live)))
                ops.append(("d", table, key))
                deleted.append(key)
        abort = rng.random() < 0.25
        _run_txn(db, ops, abort)
        live.extend(deleted if abort else inserted)
    return db


def _state(table):
    return sorted(repr((sorted(row.values.items()), row.lsn,
                        sorted((row.meta or {}).items())))
                  for row in table.scan())


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("operator", sorted(WORKLOAD_SCENARIOS))
def test_apply_run_owner_contract(operator, seed):
    scenario = WORKLOAD_SCENARIOS[operator]
    step = scenario.plan.steps[0]
    rng = random.Random(seed)
    db = _history(scenario, rng)

    def make():
        tf = PLAN_OPERATORS[step.operator].build(db, step.params,
                                                 TransformOptions())
        tf._wire(tf.target_tables(db, tf.spec, detached=True))
        return tf.engine, list(tf.targets.values())

    sources = set(make()[0].source_tables)
    changes = [record.action if record.__class__ is CLRecord else record
               for record in db.log.scan()
               if record.__class__ in DATA or record.__class__ is CLRecord]
    stream = [change for change in changes if change.table in sources]
    assert any(isinstance(change, DeleteRecord) for change in stream)
    expected = check_dispatch_contract(make, stream, rng, _state)
    assert sum(map(len, expected)) >= len(stream) // 2
