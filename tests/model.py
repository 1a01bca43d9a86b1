"""The one model of "a transformation beside a user history", as the test
suite drives it.

:class:`repro.faults.sweep.ScenarioRun` runs a :class:`RunConfig`; this
module adds the third producer of run descriptions, a hypothesis
strategy (the sweep parses labels, the chaos soak draws from a seed),
and the verdict every property test asserts.
"""

import random
from dataclasses import replace
from typing import List

from hypothesis import strategies as st

from repro.faults.chaos import BACKLOGS, CHAOS_POLICIES, SHARDS
from repro.faults.sweep import (
    RunConfig,
    ScenarioRun,
    check_completed,
    draw_history,
    parse_label,
)
from repro.plan import PLAN_OPERATORS, WORKLOAD_SCENARIOS
from repro.relational import split
from repro.transform.base import SyncStrategy

#: Transactions a drawn history holds at most.
HISTORY_LEN = 12


def configs(operator, strategy=SyncStrategy.NONBLOCKING_ABORT,
            storage="latch", population="eager", view=False,
            shards=SHARDS, budgets=None, backlogs=BACKLOGS):
    """Run descriptions of ``operator``'s corpus scenario.

    Hypothesis draws the history (from ``st.randoms()``, so a failure
    shrinks), the shard count out of ``shards``, the flush policy, the
    synchronization threshold out of ``backlogs``, and one to three step
    budgets in 1..64 -- or one of ``budgets``.  Every
    other argument is fixed, or a strategy (``view=st.booleans()``).
    """
    return st.builds(
        RunConfig, st.just(WORKLOAD_SCENARIOS[operator]), st.just(strategy),
        st.just(storage), st.just(population),
        view if isinstance(view, st.SearchStrategy) else st.just(view),
        shards=st.sampled_from(shards),
        budgets=st.lists(st.integers(1, 64), min_size=1, max_size=3).map(
            tuple) if budgets is None else st.sampled_from(budgets).map(
            lambda budget: (budget,)),
        max_remaining=st.sampled_from(backlogs),
        flush_policy=st.sampled_from(CHAOS_POLICIES),
        history=st.randoms(use_true_random=False).map(
            lambda rng: draw_history(rng, HISTORY_LEN)))


def backlogged(operator, **fixed):
    """:func:`configs` at the default synchronization threshold (64
    records), where the per-feature harnesses ran: whatever is still
    waiting after the first propagation pass commits just before the
    latch, a backlog for the final propagation."""
    return configs(operator, backlogs=(64,), **fixed)


def seeded(label, seed, **fixed):
    """The sweep label's run description (an operator name alone: the
    default strategy and storage, eager, one shard) with the rest drawn
    from ``seed`` as the seeded per-operator loops ran: budgets in 1..11
    and a history of up to 40 transactions -- ``fixed`` overrides a
    field."""
    rng = random.Random(seed)
    return replace(parse_label(label), **{
        "budgets": tuple(rng.randint(1, 11) for _ in range(3)),
        "max_remaining": rng.choice(BACKLOGS),
        "history": draw_history(rng, 40), **fixed})


def violations(run: ScenarioRun) -> List[str]:
    """The model's verdict on an executed run: :func:`check_completed`
    (published tables equal the reference folded over the committed
    sources; engine and transformation invariants) and, for the split,
    S rows carrying the reference's duplicate counters."""
    problems = check_completed(run)
    step = run.scenario.plan.steps[0]
    if step.operator == "split":
        schemas = {schema.name: schema for schema, _ in run.scenario.seeds}
        spec = PLAN_OPERATORS["split"].spec(schemas, step.params)
        rows = run.shadow.resolve(run.log)[spec.source_name].values()
        _, _, counters, _ = split(spec, [dict(r) for r in rows])
        s_table = run.db.table(spec.s_name)
        got = {key: row.meta["counter"] for row in s_table.scan()
               for key in [s_table.schema.key_of(row.values)]
               if key in counters}
        if got != counters:
            problems.append(f"S counters {got} != reference {counters}")
    return problems


def check_model(config: RunConfig) -> None:
    """Run ``config`` and assert the model finds nothing; a failure
    prints the run description."""
    run = ScenarioRun(config)
    run.execute()
    problems = violations(run)
    assert problems == [], f"{config.label} {config}:\n" + \
        "\n".join(problems)
