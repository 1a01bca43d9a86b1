"""The dispatch contract (``tests/dispatch_contract.py``) for every plan
operator's rule engine, on the log of its corpus scenario.

Each stream is a real history: the scenario's seed inserts, its scripted
transactions and a generated history (aborts included, so CLRs arrive
unwrapped as the propagation loop hands them over), as the one model
(:class:`repro.faults.sweep.ScenarioRun`) writes it, replayed from empty
targets.  ``apply_run`` for a live owner must touch what ``apply``
touches record by record; for owner ``0`` it must touch nothing and leave
the same rows."""

import random

import pytest

from repro.faults.sweep import RunConfig, ScenarioRun, draw_history
from repro.plan import PLAN_OPERATORS, WORKLOAD_SCENARIOS
from repro.transform.analysis import FixedIterationsPolicy
from repro.transform.options import TransformOptions
from repro.wal.records import CLRecord, DeleteRecord, InsertRecord, \
    UpdateRecord
from tests.dispatch_contract import check_dispatch_contract

DATA = (InsertRecord, UpdateRecord, DeleteRecord)


def _history(scenario, seed):
    """The scenario's sources after seeds, script and a 40-transaction
    generated history, parked before the transformation synchronizes."""
    run = ScenarioRun(RunConfig(scenario, history=draw_history(
        random.Random(seed), 40)))
    run.options = run.options.evolve(policy=FixedIterationsPolicy(10 ** 9))
    run.execute(until=lambda run: True)
    return run.db


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
    db = _history(scenario, seed)

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
