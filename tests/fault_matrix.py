"""Crash-point matrix: kill the system at every registered injection site.

For each sweep label -- every workload-carrying scenario of the corpus
(:data:`repro.plan.CORPUS`), one per registered plan operator, plus its
``:<mode>`` / ``:view`` / ``:rename`` / ``@N`` variants -- x
synchronization strategy it can run under
(:data:`repro.faults.sweep.SWEEP_COMBOS`),
:func:`repro.faults.sweep.sweep` records which injection sites the
scenario crosses, then re-runs it once per site with a
:class:`~repro.faults.CrashFault` armed mid-scenario, salvages the log
from the simulated disk's crash image, reruns ARIES restart on the
salvaged flushed prefix and checks the recovery invariants (committed
*and flushed* data preserved byte-for-byte, transient targets discarded
or published tables rebuilt, losers and doomed transactions rolled back,
no leaked latches or blocks).  The matrix runs once, in a module-scoped
fixture that feeds both the per-combo assertions and the coverage
assertion.  The ``disk`` layer composes those crash sites with disk
faults -- torn writes, lying fsyncs, flipped bits -- via
:mod:`repro.faults.chaos`.  See ``python -m benchmarks.fault_sweep`` for
the JSON report version of the sweep and ``python -m
benchmarks.chaos_soak`` for the seeded crash x disk-fault soak.
"""

from __future__ import annotations

import pytest

from repro.faults.chaos import chaos_run
from repro.faults.sweep import SWEEP_COMBOS, parse_label, run_sweep
from repro.plan import PLAN_OPERATORS


@pytest.fixture(scope="module")
def matrix():
    """The whole sweep, run once: the report plus its combos by
    ``(label, strategy)``."""
    report = run_sweep()
    return report, {(c["operator"], c["strategy"]): c
                    for c in report["combos"]}


@pytest.mark.parametrize(
    "operator,strategy", SWEEP_COMBOS,
    ids=[f"{label}-{strategy.value}" for label, strategy in SWEEP_COMBOS])
def test_crash_at_every_site(matrix, operator, strategy):
    report = matrix[1][operator, strategy.value]
    bad = [s for s in report["sites"] if s["outcome"] != "ok"]
    assert not bad, f"{len(bad)} crash points failed recovery: {bad}"
    # Every combo must exercise a substantial share of the registry.
    assert report["site_count"] >= 25


def test_sweep_coverage_spans_all_layers(matrix):
    summary = matrix[0]["summary"]
    assert summary["violations"] == 0
    assert summary["covered_sites"] >= 32
    assert set(summary["layers"]) >= {
        "wal", "storage", "engine", "transform", "sync", "consistency",
        "shard", "lazy", "disk"}
    assert summary["never_fired"] == [], \
        f"registered sites never crossed: {summary['never_fired']}"


@pytest.mark.parametrize("seed", range(24))
def test_chaos_crash_disk_fault_composition(seed):
    """A bounded slice of the chaos soak: each seed composes a crash
    site with a disk fault over a randomized workload and checks the
    durability-aware recovery invariants."""
    outcome = chaos_run(seed)
    assert outcome["violations"] == [], (
        f"chaos seed {seed} violated recovery invariants: "
        f"{outcome['violations']}; repro: {outcome['repro']}")


def test_chaos_draw_reaches_every_operator():
    """Over the soak's default seed range every registered plan
    operator is drawn (the draw used to know only FOJ and split), and
    none of the 200 experiments violates an invariant."""
    reports = [chaos_run(seed) for seed in range(200)]
    drawn = {parse_label(r["operator"]).operator for r in reports}
    assert drawn == set(PLAN_OPERATORS)
    assert [r["repro"] for r in reports if r["violations"]] == []
