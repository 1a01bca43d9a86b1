"""One model for the whole configuration matrix (Theorem 1, any history).

Every legal cell of plan operator x (synchronization strategy, storage)
x population mode (:func:`~repro.transform.options.population_problem`:
lazy and trigger only where the registry ``supports_lazy``, blocking
only under blocking commit): 7 x 7 eager + 4 x 7 lazy = the 77 cells of
the online method, plus 7 x 2 blocking + 4 x 7 trigger for the paper's
two baselines = 119 cells -- runs its operator's corpus scenario through
the one model, :class:`repro.faults.sweep.ScenarioRun`.  Inside a cell
hypothesis draws the rest of the run description (``tests/model.py``):
the generated history, the step budgets, the shards, the flush policy
and, for the FOJ, whether it is built as a published materialized view.
A cell passes when the model's verdict is empty.

The three positive controls plant one mutation each and drive chaos's
seeded drawer over a fixed seed range: the model must report it.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.faults.chaos import draw_config
from repro.faults.sweep import PAIRS, RunConfig, ScenarioRun
from repro.plan import PLAN_OPERATORS, WORKLOAD_SCENARIOS
from repro.transform.foj import FojRuleEngine
from repro.transform.options import POPULATION_MODES, population_problem
from repro.transform.split import SplitRuleEngine

from tests.model import check_model, configs, violations

CELLS = [(operator, strategy, storage, population)
         for operator in sorted(WORKLOAD_SCENARIOS)
         for strategy, storage in PAIRS
         for population in POPULATION_MODES
         if population_problem(population, strategy,
                               PLAN_OPERATORS[operator].supports_lazy)
         is None]


def test_the_matrix_has_77_cells():
    """77 cells of the online method, 42 of the baselines beside them."""
    online = [cell for cell in CELLS if cell[3] in ("eager", "lazy")]
    assert len(online) == 7 * 7 + 4 * 7
    assert len(CELLS) == len(online) + 7 * 2 + 4 * 7 == 119


@pytest.mark.parametrize(
    "operator,strategy,storage,population", CELLS,
    ids=["-".join((op, sync.value, backend, mode))
         for op, sync, backend, mode in CELLS])
@given(data=st.data())
@settings(max_examples=3, deadline=None)
def test_cell_converges_for_any_history(operator, strategy, storage,
                                        population, data):
    viewable = population == "eager" and \
        ":view" in WORKLOAD_SCENARIOS[operator].workload.variants
    check_model(data.draw(configs(
        operator, strategy, storage, population,
        view=st.booleans() if viewable else False)))



#: A history hypothesis found: its committed transaction updates R row
#: 4's ``title``, then moves the row's join value and changes the title
#: again; the fuzzy read sees the final row and replay writes the first
#: title back before Rule 5 meets the already-reflected move.
FOJ_REPLAYED_MOVE = (("update", 1314),)


@pytest.mark.parametrize("strategy,storage", PAIRS,
                         ids=[f"{sync.value}-{backend}"
                              for sync, backend in PAIRS])
@pytest.mark.parametrize("budget", (1, 7, 64))
def test_foj_keeps_the_side_changes_of_a_replayed_move(strategy, storage,
                                                       budget):
    check_model(RunConfig(WORKLOAD_SCENARIOS["foj"], strategy, storage,
                          budgets=(budget,), history=FOJ_REPLAYED_MOVE))

# -- positive controls -----------------------------------------------------


def _rule10_unguarded(original):
    def rule(self, change, lsn, touched):
        r_row = self.r.get(change.key)
        if r_row is not None:   # "stored LSN > record LSN" never holds
            r_row.lsn = min(r_row.lsn, lsn)
        original(self, change, lsn, touched)
    return rule


def _rule3_leaves_nothing(_original):
    def rule(self, change, lsn, touched):
        row = self.t.get(change.key)
        if row is not None:
            self.t.delete_rowid(row.rowid)
    return rule


def _drop_without_decrement(_original):
    def drop(self, split_key, lsn, touched):
        s_row = self.s.get(split_key)
        if s_row is not None and lsn > s_row.lsn:
            s_row.lsn = lsn
    return drop


@pytest.mark.parametrize("engine,name,mutant", [
    (SplitRuleEngine, "_rules10_11_update", _rule10_unguarded),
    (FojRuleEngine, "_rule3_delete_r", _rule3_leaves_nothing),
    (SplitRuleEngine, "_drop_s_contribution", _drop_without_decrement),
], ids=["split-rule10-lsn-guard", "foj-rule3-null-record",
        "split-rule9-counter"])
def test_model_catches_a_planted_mutation(monkeypatch, engine, name,
                                          mutant):
    """Drawn runs keep chaos's drawn budgets (log-uniform over 1..64):
    the model checks its invariants after every applied group as well
    as every step, so a large step no longer hides what a group did."""
    operator = "split" if engine is SplitRuleEngine else "foj"
    monkeypatch.setattr(engine, name, mutant(getattr(engine, name)))
    for seed in range(400):
        config = draw_config(random.Random(seed), 24)
        if config.operator == operator:
            run = ScenarioRun(config)
            run.execute()
            if violations(run):
                return
    pytest.fail(f"no drawn {operator} run reported the planted mutation")
