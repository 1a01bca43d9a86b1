"""MVCC-ABLATION: latch design vs. MVCC snapshot backend, head to head.

The tentpole question: what does the paper's latch-based design pay that
a snapshot-isolation backend with a version-flip synchronization (in the
spirit of "Online Schema Evolution is (Almost) Free for Snapshot
Databases", VLDB 2023) does not?  Both arms run the *same* FOJ scenario
at the same seeds and fixed client count:

* **latch** -- the paper's design: fuzzy population under short record
  latches, synchronization as an exclusive latched window over the
  source tables (default ``TransformOptions``);
* **snapshot** -- ``TransformOptions(sync="version_flip",
  storage="mvcc")``: population reads a pinned snapshot through the
  version chains (no latches), and synchronization is a versioned
  catalog write with an atomic visible-version flip.

Per arm the probe reports relative throughput, relative mean response,
p99 response during the change, the latched-window units, and the
per-role blame split (who user transactions actually waited on).  A
deterministic (non-simulated) paired run additionally checks both arms
produce row-identical final target tables for the same workload script.

Outputs: ``BENCH_mvcc_ablation.json`` at the repo root (the CI
drift-gate file) and a structured table under
``benchmarks/results/mvcc_ablation.json``.
"""

import json
import random
from dataclasses import replace
from typing import Callable, Dict, Optional

from repro.api import (
    Database,
    FojSpec,
    FojTransformation,
    Phase,
    Session,
    TableSchema,
    TransformOptions,
    full_outer_join,
    rows_equal,
)
from repro.common.errors import DuplicateKeyError, NoSuchRowError
from repro.sim import RunSettings, build_foj_scenario, run_once

from benchmarks.harness import (
    REPO_ROOT,
    blame_breakdown,
    print_series,
    run_benchmark,
    save_bench_report,
    save_results,
    save_results_json,
    series_payload,
)

#: Arm name -> transformation options (None = the paper's latch design).
ARMS: Dict[str, Optional[TransformOptions]] = {
    "latch": None,
    "snapshot": TransformOptions(sync="version_flip", storage="mvcc"),
}

#: Fixed-size FOJ scenario (no calibration): the two arms are compared
#: at identical workload, so only the backend differs.
N_R, N_S, DUMMY_ROWS = 400, 160, 200
N_CLIENTS = 8
SEEDS = (0, 1)

SETTINGS = RunSettings(n_clients=N_CLIENTS, warmup_ms=10.0,
                       window_ms=120.0, priority=0.1,
                       stop_after_window=False, t_max_ms=8000.0)


def arm_builder(arm: str) -> Callable:
    """FOJ scenario builder for one ablation arm."""
    options = ARMS[arm]
    tf_kwargs = {"options": options} if options is not None else None

    def build(seed: int):
        return build_foj_scenario(seed, source_fraction=0.2, n_r=N_R,
                                  n_s=N_S, dummy_rows=DUMMY_ROWS,
                                  tf_kwargs=tf_kwargs)
    return build


def measure_arm(arm: str) -> Dict[str, object]:
    """Seed-averaged paired (baseline vs. during-change) run of one arm.

    The treatment runs are observed so the per-role blame split is
    available; ratios are averaged over ``SEEDS``.
    """
    builder = arm_builder(arm)
    rel_thr, rel_rt, p99s, latch_units = [], [], [], []
    blame: Optional[Dict[str, object]] = None
    for seed in SEEDS:
        base = run_once(builder, replace(
            SETTINGS, seed=seed, with_transformation=False,
            stop_after_window=True))
        treat = run_once(builder, replace(
            SETTINGS, seed=seed, observe=True))
        rel_thr.append(treat.throughput / base.throughput
                       if base.throughput else 0.0)
        rel_rt.append(treat.mean_response / base.mean_response
                      if base.mean_response else 0.0)
        p99s.append(treat.info["p99_response"])
        latch_units.append(
            (treat.info["tf_stats"] or {}).get("sync_latch_units", 0))
        if blame is None:
            blame = blame_breakdown(treat)
    n = len(SEEDS)
    return {
        "relative_throughput": sum(rel_thr) / n,
        "relative_response": sum(rel_rt) / n,
        "p99_response_ms": sum(p99s) / n,
        "latched_window_units": max(latch_units),
        "blame": blame,
    }


# ---------------------------------------------------------------------------
# Row identity: both arms converge to the same final table
# ---------------------------------------------------------------------------

_OPS = ("ins_r", "del_r", "upd_r_join", "upd_r_other",
        "ins_s", "del_s", "upd_s_other")


def _run_arm_deterministic(arm: str, workload_seed: int) -> Dict[str, object]:
    """Drive one FOJ transformation to completion against a seeded
    workload script, outside the simulator, and return the final rows."""
    rng = random.Random(workload_seed)
    db = Database()
    db.create_table(TableSchema("R", ["a", "b", "c"], primary_key=["a"]))
    db.create_table(TableSchema("S", ["c", "d"], primary_key=["c"]))
    with Session(db) as s:
        for i in range(40):
            s.insert("R", {"a": i, "b": i, "c": i % 12})
        for c in range(0, 12, 2):
            s.insert("S", {"c": c, "d": f"d{c}"})
    spec = FojSpec.derive(db.table("R").schema, db.table("S").schema,
                          "T", "c", "c")
    options = ARMS[arm] or TransformOptions()
    tf = FojTransformation(db, spec, options=options)
    for i in range(120):
        kind = rng.choice(_OPS)
        key, join_value = rng.randrange(40), rng.randrange(12)
        try:
            if kind == "ins_r":
                with Session(db) as s:
                    s.insert("R", {"a": 100 + i, "b": i, "c": join_value})
            elif kind == "del_r":
                with Session(db) as s:
                    s.delete("R", (key,))
            elif kind == "upd_r_join":
                with Session(db) as s:
                    s.update("R", (key,), {"c": join_value})
            elif kind == "upd_r_other":
                with Session(db) as s:
                    s.update("R", (key,), {"b": f"v{i}"})
            elif kind == "ins_s":
                with Session(db) as s:
                    s.insert("S", {"c": join_value, "d": f"new{i}"})
            elif kind == "del_s":
                with Session(db) as s:
                    s.delete("S", (join_value,))
            elif kind == "upd_s_other":
                with Session(db) as s:
                    s.update("S", (join_value,), {"d": f"u{i}"})
        except (NoSuchRowError, DuplicateKeyError):
            pass
        if not tf.done and tf.phase is not Phase.SYNCHRONIZING:
            tf.step(rng.randrange(1, 16))
    # Stepping pauses at SYNCHRONIZING, so the sources are still live.
    r_rows = [dict(r.values) for r in db.table("R").scan()]
    s_rows = [dict(r.values) for r in db.table("S").scan()]
    tf.run()
    rows = [dict(r.values) for r in db.table("T").scan()]
    return {"rows": rows,
            "oracle": full_outer_join(spec, r_rows, s_rows),
            "latched_units": tf.stats["sync_latch_units"]}


def row_identity_check(workload_seed: int = 7) -> Dict[str, object]:
    """Both arms, same workload seed: final target tables must match."""
    latch = _run_arm_deterministic("latch", workload_seed)
    snapshot = _run_arm_deterministic("snapshot", workload_seed)
    return {
        "workload_seed": workload_seed,
        "row_count": len(latch["rows"]),
        "identical": rows_equal(latch["rows"], snapshot["rows"]),
        "latch_matches_oracle": rows_equal(latch["rows"], latch["oracle"]),
        "snapshot_matches_oracle": rows_equal(snapshot["rows"],
                                              snapshot["oracle"]),
        "latch_latched_units": latch["latched_units"],
        "snapshot_latched_units": snapshot["latched_units"],
    }


# ---------------------------------------------------------------------------
# Sweep + checks + trajectory file
# ---------------------------------------------------------------------------


def sweep() -> Dict[str, object]:
    arms = {arm: measure_arm(arm) for arm in ARMS}
    identity = row_identity_check()
    return {"arms": arms, "row_identity": identity}


def check_and_save(result: Dict[str, object]) -> Dict[str, object]:
    arms, identity = result["arms"], result["row_identity"]
    assert identity["identical"], \
        "latch and snapshot arms diverged on the same workload script"
    assert identity["latch_matches_oracle"]
    assert identity["snapshot_matches_oracle"]
    assert identity["snapshot_latched_units"] == 0, \
        "version flip took a latched window"
    snapshot = arms["snapshot"]
    assert snapshot["latched_window_units"] == 0
    # The snapshot arm has no latched window to blame waits on; the
    # sync-side attribution must be (near) zero while the latch arm is
    # free to accrue both.
    snap_blame = (snapshot["blame"] or {}).get("by_role", {})
    latch_blame = ((arms["latch"]["blame"]) or {}).get("by_role", {})
    snap_sync = snap_blame.get("sync", 0.0) + \
        snap_blame.get("latched-window", 0.0)
    total = sum(snap_blame.values()) or 1.0
    assert snap_sync <= 0.01 * total, \
        f"snapshot arm accrued sync/latched blame: {snap_sync} ms"
    payload = {
        "benchmark": "mvcc_ablation",
        "n_r": N_R, "n_s": N_S, "n_clients": N_CLIENTS,
        "seeds": list(SEEDS),
        "arms": {
            arm: {
                "relative_throughput": data["relative_throughput"],
                "relative_response": data["relative_response"],
                "p99_response_ms": data["p99_response_ms"],
                "latched_window_units": data["latched_window_units"],
                # Rounded: re-summing float wait shares across processes
                # jitters the last bits, and this file is diffed by CI.
                "blame_by_role": {
                    role: round(ms, 6) for role, ms in
                    ((data["blame"] or {}).get("by_role", {})).items()},
            } for arm, data in arms.items()
        },
        "row_identity": identity,
        "blame": {
            "snapshot_sync_plus_latched_ms": snap_sync,
            "latch_sync_plus_latched_ms":
                latch_blame.get("sync", 0.0) +
                latch_blame.get("latched-window", 0.0),
        },
    }
    (REPO_ROOT / "BENCH_mvcc_ablation.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n")
    save_results_json("mvcc_ablation", payload)
    return payload


def _print_payload(payload: Dict[str, object], capsys=None) -> None:
    rows = [(arm, data["relative_throughput"], data["relative_response"],
             data["p99_response_ms"], data["latched_window_units"])
            for arm, data in payload["arms"].items()]
    header = ["arm", "rel throughput", "rel response", "p99 (ms)",
              "latched units"]
    lines = print_series(
        "MVCC ablation: latch vs snapshot (version flip)",
        "VLDB'23: schema evolution ~free under snapshot isolation",
        header, rows, capsys)
    save_results("mvcc_ablation", lines)
    save_results_json("mvcc_ablation_series", series_payload(
        "mvcc_ablation", "latch vs snapshot backend", header, rows))


def bench_mvcc_ablation(benchmark, capsys):
    payload = check_and_save(run_benchmark(benchmark, sweep))
    _print_payload(payload, capsys)
    report = save_bench_report(
        "mvcc_ablation", arm_builder("snapshot"),
        meta={"comparison": "latch vs snapshot", "arm": "snapshot"})
    blame = report.get("blame")
    if blame is not None:
        total = blame["total_wait_ms"]
        assert abs(sum(blame["by_role"].values()) - total) <= \
            max(0.01 * total, 1e-9)


if __name__ == "__main__":
    payload = check_and_save(sweep())
    _print_payload(payload)
    print(json.dumps({"arms": payload["arms"],
                      "row_identity": payload["row_identity"]},
                     indent=2, sort_keys=True))
    print(f"trajectory written to {REPO_ROOT / 'BENCH_mvcc_ablation.json'}")
