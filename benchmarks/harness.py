"""Shared machinery of the benchmarks, and the observability smoke.

``bench_paper.py`` runs the paper's simulated experiments (the DESIGN.md
§4 index) from one table; ``bench_lazy_migration``, ``bench_mvcc_ablation``
and ``bench_shard_scaling`` keep their drift-gated ``BENCH_*.json`` files.
They print their series next to the paper's reading and record the
numbers in the pytest-benchmark ``extra_info`` and under
``benchmarks/results/``, through the helpers here: result tables
(:func:`print_series`, :func:`save_results`, :func:`save_results_json`)
and observed run reports (:func:`save_bench_report`).

Run as ``python -m benchmarks.harness`` it is the observability smoke:
one split per Section 3.4 strategy with metrics attached
(``observability.json``), the interference probe that rewrites
``BENCH_interference.json``, and the canonical ``run_report.json``.

Knobs (environment variables):

* ``REPRO_SCALE`` / ``REPRO_FULL_SCALE`` -- table sizes (see
  :func:`repro.sim.scale_factor`); default is 10x smaller than the paper.
* ``REPRO_BENCH_SEEDS`` -- seeds averaged per data point (default 2).
* ``REPRO_BENCH_FAST`` -- set to 1 to measure fewer workload points
  (``bench_paper``).
"""

from __future__ import annotations

import json
import os
import pathlib
from dataclasses import replace
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.api import (
    Database,
    LockWaitError,
    Metrics,
    Phase,
    SplitSpec,
    SplitTransformation,
    SyncStrategy,
    TableSchema,
    TransactionAbortedError,
    TransformOptions,
    build_run_report,
    bulk_load,
    run_section,
)
from repro.sim import RunSettings, build_split_scenario, run_once

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
#: Repo root, home of the ``BENCH_*.json`` perf-trajectory files.
REPO_ROOT = pathlib.Path(__file__).parent.parent


def seed_list() -> List[int]:
    """Seeds to average per data point."""
    return list(range(int(os.environ.get("REPRO_BENCH_SEEDS", "2"))))


def print_series(title: str, paper_note: str,
                 header: Sequence[str],
                 rows: Iterable[Sequence[object]],
                 capsys=None) -> List[str]:
    """Print a result table (visibly, even under pytest capture)."""
    lines = [f"\n=== {title} ===", f"paper: {paper_note}",
             " | ".join(f"{h:>14}" for h in header)]
    for row in rows:
        lines.append(" | ".join(
            f"{v:14.4f}" if isinstance(v, float) else f"{str(v):>14}"
            for v in row))
    text = "\n".join(lines)
    if capsys is not None:
        with capsys.disabled():
            print(text)
    else:
        print(text)
    return lines


def save_results(name: str, lines: List[str]) -> None:
    """Persist a benchmark's printed table under benchmarks/results/."""
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text("\n".join(lines) + "\n")


def save_results_json(name: str, payload: Dict[str, object]) -> pathlib.Path:
    """Persist a machine-readable result next to the ``.txt`` table.

    Every benchmark that saves a human-readable table should also save its
    numbers here: JSON results are diffable across PRs, so the perf
    trajectory of the reproduction stays visible.
    """
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True,
                               default=str) + "\n")
    return path


def series_payload(name: str, paper_note: str, header: Sequence[str],
                   rows: Iterable[Sequence[object]]) -> Dict[str, object]:
    """Structured form of a printed table, for :func:`save_results_json`."""
    return {
        "benchmark": name,
        "paper": paper_note,
        "rows": [dict(zip(header, row)) for row in rows],
    }


def run_benchmark(benchmark, fn: Callable[[], object]):
    """Run ``fn`` exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)


# ---------------------------------------------------------------------------
# Run reports: {meta, metrics, span tree, convergence} per observed run
# ---------------------------------------------------------------------------


def save_run_report(name: str, report: Dict[str, object]) -> pathlib.Path:
    """Persist a run report under ``benchmarks/results/<name>.json``.

    The file renders with ``python -m repro.obs <path>``.
    """
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.json"
    path.write_text(json.dumps(report, indent=2, sort_keys=True,
                               default=str) + "\n")
    return path


def blame_breakdown(run) -> Optional[Dict[str, object]]:
    """Per-phase wait attribution of an observed run.

    Pulls the :mod:`repro.obs.blame` snapshot out of
    ``RunResult.info["blame"]``: total user wait (virtual ms), the
    per-role split (user / populate / propagate / sync / latched-window /
    lazy-miss / sweeper / recovery) and the edge accounting.  The split
    is exact by construction -- ``by_role`` sums to ``total_wait_ms`` --
    which downstream checks assert within 1%.
    """
    blame = (run.info or {}).get("blame")
    if not blame:
        return None
    return {
        "total_wait_ms": blame["total_wait_ms"],
        "by_role": dict(blame["by_role"]),
        "by_txn_count": len(blame.get("by_txn") or {}),
        "edges": dict(blame.get("edges") or {}),
    }


def observed_run_section(name: str, run,
                         meta: Optional[Dict[str, object]] = None
                         ) -> Dict[str, object]:
    """Run-report section from an observed :class:`RunResult`.

    The run must have been produced with ``observe=True`` (otherwise the
    span tree and metrics snapshot are empty, which is still a valid --
    if boring -- section).
    """
    info = run.info
    result = run.to_dict()
    result.pop("info", None)
    return run_section(
        name,
        metrics=info.get("obs"),
        convergence=info.get("convergence") or [],
        meta=dict(meta or {}),
        spans=info.get("spans") or [],
        result=result,
        series=info.get("series") or [])


def save_bench_report(name: str, builder: Callable, *,
                      settings: Optional[RunSettings] = None,
                      meta: Optional[Dict[str, object]] = None,
                      interference: Optional[Dict[str, object]] = None
                      ) -> Dict[str, object]:
    """One *observed* run of a bench's scenario, saved as its run report.

    The benches measure their ratios with observability off (observation
    costs a few percent and the paired runs don't need it); this drives a
    single additional run of the same scenario with the full registry
    attached, so every bench leaves a span tree and convergence series
    next to its numbers under ``benchmarks/results/<name>.report.json``.
    """
    settings = settings or RunSettings(
        n_clients=6, warmup_ms=10.0, window_ms=80.0, priority=0.2,
        stop_after_window=False, t_max_ms=8000.0)
    settings = replace(settings, observe=True)
    run = run_once(builder, settings)
    section = observed_run_section(
        "observed", run, meta={"n_clients": settings.n_clients,
                               "priority": settings.priority,
                               "seed": settings.seed})
    report = build_run_report(name, [section], meta=dict(meta or {}),
                              interference=interference)
    breakdown = blame_breakdown(run)
    if breakdown is not None:
        report["blame"] = breakdown
    save_run_report(f"{name}.report", report)
    return report


def interference_probe(rows: int = 600, n_clients: int = 8, seed: int = 0,
                       out_path: Optional[pathlib.Path] = None
                       ) -> Tuple[Dict[str, object], object]:
    """Paired baseline/treatment run seeding ``BENCH_interference.json``.

    Unlike the figure benches this skips the 100%-workload calibration and
    runs at a *fixed* client count on a small scenario: the ratios are a
    deterministic (seeded simulator) regression-tracking signal for CI,
    not a paper comparison.  Returns ``(payload, treatment_run)`` -- the
    treatment run is observed, so its span tree and convergence series can
    join a run report.
    """

    def builder(s: int):
        return build_split_scenario(s, rows=rows,
                                    dummy_rows=max(200, rows // 2))

    settings = RunSettings(n_clients=n_clients, warmup_ms=10.0,
                           window_ms=120.0, priority=0.1, seed=seed)
    base = run_once(builder, replace(settings, with_transformation=False))
    treat = run_once(builder, replace(settings, with_transformation=True,
                                      observe=True))
    rel_thr = treat.throughput / base.throughput if base.throughput else 0.0
    rel_rt = treat.mean_response / base.mean_response \
        if base.mean_response else 0.0
    payload: Dict[str, object] = {
        "benchmark": "interference_probe",
        "rows": rows,
        "n_clients": n_clients,
        "seed": seed,
        "workload_pct": "fixed-clients (uncalibrated)",
        "relative_throughput": rel_thr,
        "relative_response": rel_rt,
        "baseline": {"throughput": base.throughput,
                     "mean_response": base.mean_response,
                     "committed": base.committed,
                     "aborted": base.aborted},
        "treatment": {"throughput": treat.throughput,
                      "mean_response": treat.mean_response,
                      "committed": treat.committed,
                      "aborted": treat.aborted,
                      "completion_time": treat.completion_time,
                      "blocked_time": treat.blocked_time},
        "blame": {"interference_probe.treatment":
                  blame_breakdown(treat)},
    }
    path = out_path if out_path is not None \
        else REPO_ROOT / "BENCH_interference.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return payload, treat


# ---------------------------------------------------------------------------
# Observability smoke: the CI-checked machine-readable output
# ---------------------------------------------------------------------------


def observability_smoke(rows: int = 400,
                        out_name: Optional[str] = "observability"
                        ) -> Dict[str, object]:
    """Run one small split per sync strategy with metrics enabled.

    This is the harness's structured-output smoke test (run by CI as
    ``python -m benchmarks.harness``): for each of the three Section 3.4
    synchronization strategies it drives a transformation to completion
    against a trickle of concurrent updates, with the ``repro.obs``
    registry attached, and persists a JSON summary containing the
    latched-window units, propagation iterations, lock-wait counts and
    WAL append totals -- the quantities every perf PR should watch.

    The payload also carries a full run report (``payload["run_report"]``)
    with one section per strategy: metrics snapshot, span tree covering
    every transformation phase, and the convergence series.
    """
    strategies: Dict[str, Dict[str, object]] = {}
    sections: List[Dict[str, object]] = []
    for strategy in (SyncStrategy.NONBLOCKING_ABORT,
                     SyncStrategy.NONBLOCKING_COMMIT,
                     SyncStrategy.BLOCKING_COMMIT):
        metrics = Metrics(enabled=True)
        db = Database(metrics=metrics)
        db.create_table(TableSchema("T", ["id", "name", "grp", "info"],
                                    primary_key=["id"]))
        bulk_load(db, "T", [
            {"id": i, "name": float(i), "grp": i % 20, "info": f"g{i % 20}"}
            for i in range(rows)
        ])
        # One genuine lock conflict, so the wait counters are exercised.
        holder = db.begin()
        db.update(holder, "T", (2,), {"name": -2.0})
        waiter = db.begin()
        try:
            db.update(waiter, "T", (2,), {"name": -3.0})
        except LockWaitError:
            pass
        db.abort(waiter)
        db.commit(holder)

        spec = SplitSpec.derive(db.table("T").schema, r_name="T_r",
                                s_name="T_s", split_attr="grp",
                                s_attrs=["info"])
        tf = SplitTransformation(db, spec, options=TransformOptions(
            sync=strategy))
        # A transaction kept open across synchronization makes the
        # non-blocking strategies exercise their BACKGROUND phase (the
        # blocking strategy must see it end before its drain completes).
        lingering = None
        release_phases = (Phase.SYNCHRONIZING, Phase.BACKGROUND) \
            if strategy is SyncStrategy.BLOCKING_COMMIT \
            else (Phase.BACKGROUND,)
        steps = 0
        while not tf.done and steps < 100_000:
            tf.step(64)
            steps += 1
            if lingering is None and tf.phase is Phase.PROPAGATING:
                lingering = db.begin()
                try:
                    db.update(lingering, "T", (1,), {"name": -1.0})
                except LockWaitError:
                    db.abort(lingering)
                    lingering = None
            if lingering is not None and \
                    (tf.phase in release_phases or tf.done):
                _finish_lingering(db, lingering)
                lingering = None
            if steps % 5 == 0 and db.catalog.exists("T"):
                # Concurrent update trickle feeding the propagator.
                try:
                    db.run(lambda d, t, k=(steps % rows,):
                           d.update(t, "T", k, {"name": float(steps)}))
                except LockWaitError:
                    pass  # sources latched/blocked: skip this update
        if lingering is not None:
            _finish_lingering(db, lingering)
        assert tf.done, f"{strategy.value}: did not finish in {steps} steps"

        sections.append(run_section(
            strategy.value, metrics=metrics, convergence=tf.convergence,
            meta={"rows": rows, "strategy": strategy.value, "steps": steps}))
        snapshot = metrics.snapshot()
        strategies[strategy.value] = {
            "latched_window_units": tf.stats["sync_latch_units"],
            "propagation_iterations": tf.stats["iterations"],
            "population_units": tf.stats["population_units"],
            "propagated_records": tf.stats["propagated_records"],
            "lock_waits": db.locks.wait_count,
            "lock_deadlocks": db.locks.deadlock_count,
            "wal_appends": snapshot["counters"].get("wal.appends", 0),
            "latched_window": snapshot["histograms"].get(
                "sync.latched_window"),
            "latch_hold_time": snapshot["histograms"].get("latch.hold_time"),
            "blame": snapshot["blame"],
            "metrics": snapshot,
        }

    payload: Dict[str, object] = {
        "benchmark": "observability_smoke",
        "rows": rows,
        "strategies": strategies,
        # CI's blame-smoke gate: an interference-exercising run that
        # records zero wait edges means the attribution hooks fell off.
        "blame_edges_recorded": sum(
            data["blame"]["edges"]["recorded"]
            for data in strategies.values()),
        "run_report": build_run_report("observability_smoke", sections,
                                       meta={"rows": rows}),
    }
    if out_name is not None:
        save_results_json(out_name, payload)
    return payload


def _finish_lingering(db: Database, txn) -> None:
    """Commit the deliberately long-lived smoke transaction; a
    non-blocking-abort synchronization dooms and rolls it back first, in
    which case there is nothing left to commit."""
    try:
        db.commit(txn)
    except TransactionAbortedError:
        pass


def recovery_run_section() -> Dict[str, object]:
    """A small crash/restart, observed: the recovery pass spans.

    Builds a database with one committed and one in-flight transaction,
    'crashes' it (drops the in-memory state, keeps the log) and runs ARIES
    restart with a fresh registry attached, so the run report also covers
    the ``recovery -> analysis/redo/undo`` part of the span vocabulary.
    """
    from repro.engine.recovery import restart

    db = Database()
    db.create_table(TableSchema("T", ["id", "v"], primary_key=["id"]))
    bulk_load(db, "T", [{"id": i, "v": float(i)} for i in range(50)])
    committed = db.begin()
    db.update(committed, "T", (1,), {"v": -1.0})
    db.commit(committed)
    loser = db.begin()
    db.update(loser, "T", (2,), {"v": -2.0})  # never commits: crash victim
    metrics = Metrics(enabled=True)
    restart(db.log, metrics=metrics)
    return run_section("recovery", metrics=metrics,
                       meta={"rows": 50, "losers": 1})


if __name__ == "__main__":
    result = observability_smoke()
    path = RESULTS_DIR / "observability.json"
    summary = {name: {k: data[k] for k in ("latched_window_units",
                                           "propagation_iterations",
                                           "lock_waits", "wal_appends")}
               for name, data in result["strategies"].items()}
    print(json.dumps(summary, indent=2, sort_keys=True))
    print(f"full snapshot written to {path}")

    # The canonical run report: the three strategy runs, a simulated
    # interference probe (which also seeds BENCH_interference.json) and
    # an observed recovery run.
    probe, treat_run = interference_probe()
    report = result["run_report"]
    report["runs"].append(observed_run_section(
        "interference_probe.treatment", treat_run,
        meta={"rows": probe["rows"], "n_clients": probe["n_clients"]}))
    report["runs"].append(recovery_run_section())
    report["interference"] = {
        "relative_throughput": probe["relative_throughput"],
        "relative_response": probe["relative_response"],
        "workload_pct": probe["workload_pct"],
        "source": "interference_probe",
    }
    report_path = save_run_report("run_report", report)
    print(f"run report written to {report_path}")
    print(f"interference ratios written to "
          f"{REPO_ROOT / 'BENCH_interference.json'}: "
          f"rel-throughput {probe['relative_throughput']:.4f}, "
          f"rel-response {probe['relative_response']:.4f}")
