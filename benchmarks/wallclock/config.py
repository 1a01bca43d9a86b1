"""Fixed sizes, rates and the metric vocabulary of the wall-clock ledger.

Everything a later performance PR compares against is pinned here: row
counts, arrival rate, the transformation's CPU share, the latency limit,
and every metric's name, unit, direction and regression bound.
``BENCHMARK.json`` at the repo root is generated from these tables
(``tests/test_contract.py`` keeps the two in step).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Tuple

# -- driver rules (all live workloads) ---------------------------------------

#: Open-loop arrival rate of user transactions, per second.
RATE_TXN_PER_S = 800.0
#: Logical sessions in flight at most; their operations interleave one at
#: a time, so synchronization always meets an active transaction.
MAX_SESSIONS = 2
#: Client round trip between two operations of one transaction.  It is
#: what lets a transformation step run *between* the operations of an
#: in-flight transaction.  Eleven operations x (0.1 ms + service time)
#: keep a transaction in flight ~1.4 ms, so two sessions carry 800 txn/s
#: at a little over half their capacity.
OP_GAP_S = 0.0001
#: The paper's priority knob on a real clock: the transformation may step
#: only while its cumulative busy time <= this share of the time elapsed
#: since it (re)started.
TF_SHARE = 0.25
#: The paper's remedy for a propagator that cannot keep up (Section 3.3:
#: "abort, or raise its priority"): a change that has not synchronized
#: this long after it (re)started loses its throttle.  At ``TF_SHARE`` the
#: ``foj_catchup`` race is won 3:1 on a quiet box (~8 s) but a box running
#: at half speed wins it only 3:2 (a 30 s catch-up was seen), and a slower
#: one never would.
TF_ESCALATE_AFTER_S = 30.0
#: Units per background step under live load / with no load.
TF_BUDGET_LIVE = 64
TF_BUDGET_QUIESCENT = 256
#: Latency limit from intended start; a slower, aborted-and-retried or
#: failed transaction misses it.
SLO_MS = 50.0
#: A transaction is given up (counted failed) after this many retries.
MAX_RETRIES = 20
#: Operations per transaction (the paper's 10 updates; inserts come in 5s).
OPS_PER_TXN = 10
INSERTS_PER_TXN = 5


@dataclass(frozen=True)
class Sizes:
    """Row counts and fixed work per repetition (paper size by default)."""

    acct_rows: int = 50_000
    #: Closed-loop transactions per ``oltp_durable`` repetition.  Three
    #: repetitions make the ledger's 20,000.
    oltp_txns: int = 6_667
    split_rows: int = 50_000
    foj_r_rows: int = 50_000
    foj_s_rows: int = 20_000
    dummy_rows: int = 20_000
    #: Update transactions building the ``foj_catchup`` backlog.
    backlog_txns: int = 10_000
    hot_keys: int = 200
    #: Live windows: traffic alone before the change, and after the swap.
    #: (The issue's 2 s / 1 s / 1 s, halved: they carry no bound metric,
    #: and what they cost buys another repetition a run.)
    split_before_s: float = 1.0
    foj_before_s: float = 0.5
    after_s: float = 0.5

    @property
    def split_values(self) -> int:
        """Distinct split values drawn from (~40% of the rows)."""
        return max(20, int(self.split_rows * 0.4))

    def scaled(self, scale: float) -> "Sizes":
        """Rows and fixed work multiplied by ``scale`` (off-ledger runs)."""
        def n(value: int, floor: int) -> int:
            return max(floor, int(value * scale))
        return replace(
            self,
            acct_rows=n(self.acct_rows, 500),
            oltp_txns=n(self.oltp_txns, 300),
            split_rows=n(self.split_rows, 500),
            foj_r_rows=n(self.foj_r_rows, 500),
            foj_s_rows=n(self.foj_s_rows, 200),
            dummy_rows=n(self.dummy_rows, 300),
            backlog_txns=n(self.backlog_txns, 100),
        )


PAPER_SIZES = Sizes()
#: ``--quick``: a tenth of the rows and shorter live windows.
QUICK_SIZES = replace(PAPER_SIZES.scaled(0.1), split_before_s=0.5,
                      foj_before_s=0.3, after_s=0.3)

# -- workloads ----------------------------------------------------------------

#: name -> (why it exists, repetitions of one run at ``RUN_SECONDS``).
#: A repetition costs about 5 / 2.8 / 16 / 7 s of wall time, a run
#: 16 / 20 / 49 / 29 s.  The repetitions buy run length, not samples: the
#: bound metrics report the best repetition, and on this shared box a
#: memory-heavy Python program runs up to 1.5x slower for 10 - 30 s at a
#: time, so a run is only as steady as its chance of holding one quiet
#: repetition.  Runs of 10 s (2 / 4 / 2 / 2 repetitions) spread past the
#: bound in the driver's first check and, in a noisy half-hour here, on
#: ``split_quiescent`` and ``foj_catchup`` (0.30 and 0.28).
WORKLOADS: Dict[str, Tuple[str, int]] = {
    "oltp_durable": (
        "no schema change: wal, locks, storage, engine and recovery do all "
        "the work; bypass workload for every transformation change",
        3),
    "split_quiescent": (
        "paper-size split with no user load: population is ~100% of the "
        "work and propagation ~0",
        7),
    "foj_catchup": (
        "paused FOJ resumed on a ~130k-record backlog under 800 txn/s: "
        "propagation and synchronization only, probe cache miss-heavy",
        3),
    "split_live_mixed": (
        "split under 800 txn/s of reads and updates on a 200-key hot set: "
        "population under load, skipped records, lock waits, cache hit-heavy",
        4),
}

#: The contract's ``run_seconds``: the measuring budget the repetitions
#: above are sized for (their timed sections: ~10 / 6 / 28 / 20 s).
RUN_SECONDS = 30

#: Repetitions of the ledger command (``python -m benchmarks.wallclock``).
LEDGER_REPS = {"oltp_durable": 3, "split_quiescent": 7, "foj_catchup": 3,
               "split_live_mixed": 3}


def repetitions(workload: str, seconds: float) -> int:
    """How many repetitions a run of ``--seconds`` makes: proportional to
    the budget, never fewer than one.  A function of the budget alone, so
    the work of a run -- and every count of the two deterministic
    workloads -- repeats exactly."""
    at_run_seconds = WORKLOADS[workload][1]
    return max(1, int(round(at_run_seconds * seconds / RUN_SECONDS)))


# -- end-to-end metrics ---------------------------------------------------------

#: (name, unit, better, bound): the generic names every workload reports.
#: The bounds are this box's noise floor, not what would matter to a
#: user: the same GC-free loop varies by a quarter from minute to minute
#: here (README, "Sandbox caveats").  p99 is measured but not bound, see
#: ``runtime.op_p99_ms``.
END_TO_END: List[Tuple[str, str, str, float]] = [
    ("setup_s", "s", "lower", 0.25),
    ("work_per_s", "1/s", "higher", 0.25),
    ("time_to_ready_s", "s", "lower", 0.25),
    ("op_p50_ms", "ms", "lower", 0.25),
    ("op_ok_share", "share", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.2),
]

#: What each generic name means on each workload: the workload's own
#: (issue-glossary) metric it is read from.
ALIASES: Dict[str, Dict[str, str]] = {
    "oltp_durable": {
        "work_per_s": "txn_per_s",
        "time_to_ready_s": "restart_s",
        "op_p50_ms": "txn_p50_ms",
        "op_ok_share": "txn_slo_ok_share",
    },
    "split_quiescent": {
        "work_per_s": "migrate_rows_per_s",
        "time_to_ready_s": "migrate_s",
        "op_p50_ms": "step_p50_ms",
        "op_ok_share": "step_slo_ok_share",
    },
    "foj_catchup": {
        "work_per_s": "user_txn_per_s_during",
        "time_to_ready_s": "time_to_sync_s",
        "op_p50_ms": "user_p50_ms_during",
        "op_ok_share": "user_slo_ok_share",
    },
    "split_live_mixed": {
        "work_per_s": "user_txn_per_s_during",
        "time_to_ready_s": "time_to_sync_s",
        "op_p50_ms": "user_p50_ms_during",
        "op_ok_share": "user_slo_ok_share",
    },
}

#: Units of the workloads' own metrics (the issue glossary).
DETAIL_UNITS: Dict[str, str] = {
    "setup_s": "s", "peak_rss_mb": "MB", "failed_share": "share",
    "txn_per_s": "1/s", "txn_p50_ms": "ms", "txn_p99_ms": "ms",
    "txn_slo_ok_share": "share", "wal_bytes_per_txn": "bytes",
    "restart_s": "s", "restart_records": "count",
    "migrate_rows_per_s": "1/s", "migrate_s": "s", "step_p50_ms": "ms",
    "step_p99_ms": "ms", "step_slo_ok_share": "share",
    "time_to_sync_s": "s", "user_txn_per_s_during": "1/s",
    "user_p50_ms_before": "ms", "user_p50_ms_during": "ms",
    "user_p99_ms_during": "ms", "user_slo_miss_share": "share",
    "user_slo_ok_share": "share", "backlog_records": "count",
}

#: Those of them where more is better; every other one is a time, a
#: size, a count or a miss share.
HIGHER_IS_BETTER = {"txn_per_s", "migrate_rows_per_s",
                    "user_txn_per_s_during", "txn_slo_ok_share",
                    "step_slo_ok_share", "user_slo_ok_share"}

# -- per-layer metrics ----------------------------------------------------------------

#: (name, unit, better).  Counts and self times come from the traced
#: repetition of the workload; ``*_ns`` and ``*_per_s`` entries marked
#: micro come from fixed-count microbenches that do not depend on it.
PER_LAYER: List[Tuple[str, str, str]] = [
    ("wal.appends", "count", "lower"),
    ("wal.append_ns", "ns", "lower"),
    ("wal.append_batch_ns_per_record", "ns", "lower"),
    ("wal.frame_bytes_per_record", "bytes", "lower"),
    ("wal.flushes", "count", "lower"),
    ("wal.syncs", "count", "lower"),
    ("wal.flush_self_s", "s", "lower"),
    ("wal.salvage_s", "s", "lower"),
    ("wal.slice_records_per_s", "1/s", "higher"),
    ("concurrency.acquires", "count", "lower"),
    ("concurrency.acquire_ns", "ns", "lower"),
    ("concurrency.release_all_ns", "ns", "lower"),
    ("concurrency.lock_waits", "count", "lower"),
    ("concurrency.deadlocks", "count", "lower"),
    ("concurrency.wait_s", "s", "lower"),
    ("storage.index_lookup_ns", "ns", "lower"),
    ("storage.index_insert_ns", "ns", "lower"),
    ("storage.index_cache_hit_rate", "share", "higher"),
    ("storage.insert_row_ns", "ns", "lower"),
    ("storage.update_rowid_ns", "ns", "lower"),
    ("storage.self_s", "s", "lower"),
    ("engine.update_ns", "ns", "lower"),
    ("engine.read_ns", "ns", "lower"),
    ("engine.commit_ns", "ns", "lower"),
    ("engine.self_s", "s", "lower"),
    ("engine.fuzzy_chunk_rows_per_s", "1/s", "higher"),
    ("engine.restart_analysis_s", "s", "lower"),
    ("engine.restart_redo_s", "s", "lower"),
    ("engine.restart_undo_s", "s", "lower"),
    ("engine.restart_records_per_s", "1/s", "higher"),
    ("transform.populate_self_s", "s", "lower"),
    ("transform.populate_rows_per_s", "1/s", "higher"),
    ("transform.propagate_self_s", "s", "lower"),
    ("transform.propagate_records_per_s", "1/s", "higher"),
    ("transform.apply_ns_per_record.split", "ns", "lower"),
    ("transform.apply_ns_per_record.foj", "ns", "lower"),
    ("transform.skip_share", "share", "lower"),
    ("transform.iterations", "count", "lower"),
    ("transform.steps", "count", "lower"),
    ("transform.step_max_ms", "ms", "lower"),
    ("transform.sync_window_ms.blocking_commit", "ms", "lower"),
    ("transform.sync_window_ms.nonblocking_abort", "ms", "lower"),
    ("transform.sync_window_ms.nonblocking_commit", "ms", "lower"),
    ("transform.sync_window_ms.version_flip", "ms", "lower"),
    ("transform.doomed_txns", "count", "lower"),
    ("shard.wall_speedup_4", "ratio", "higher"),
    ("obs.enabled_overhead_ratio", "ratio", "lower"),
    ("runtime.gc_pause_total_ms", "ms", "lower"),
    ("runtime.gc_pause_max_ms", "ms", "lower"),
    ("runtime.gen2_collections", "count", "lower"),
    ("runtime.op_p99_ms", "ms", "lower"),
    ("runtime.generator_late_ms_p99", "ms", "lower"),
    ("runtime.trace_overhead_ratio", "ratio", "lower"),
    ("runtime.layer_coverage_share", "share", "higher"),
    ("runtime.driver_self_s", "s", "lower"),
]

def benchmark_json() -> Dict[str, object]:
    """The exact content of the root ``BENCHMARK.json``."""
    return {
        "command": ["python3", "benchmarks/wallclock/run.py"],
        "paths": ["benchmarks/wallclock"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why}
                      for name, (why, _reps) in WORKLOADS.items()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, u, b in PER_LAYER],
    }
