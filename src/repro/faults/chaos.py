"""Seeded chaos runs: crash sites composed with disk faults.

One :func:`chaos_run` draws a full experiment from a single seed -- a
run description (:func:`draw_config`: any registered plan operator's
corpus scenario, any legal (strategy, storage) pair, population mode,
shards, step budgets, synchronization threshold, group-commit flush
policy and a generated history), a crash point (any injection site the
scenario crosses, at a random crossing) and optionally one disk fault
armed on the ``disk.sync`` site before the crash:

* :class:`~repro.faults.TornWriteFault` -- the kill cuts the final
  flush mid-frame; salvage must truncate the torn tail and recovery must
  succeed on the remaining prefix;
* :class:`~repro.faults.LostFlushFault` -- one or more fsyncs lie;
  the crash loses a frame-aligned tail that the log *believed* was
  flushed, and the durability-aware oracle must accept exactly the
  commits whose records really reached the platter;
* :class:`~repro.faults.BitFlipFault` -- a synced frame rots; salvage
  must detect the checksum mismatch and either quarantine the log
  (mid-log corruption) or truncate a corrupt final frame -- a flipped
  bit must never be silently applied.

Every run is fully reproducible from its integer seed; on a violation
the returned report carries a one-line repro recipe.  The soak driver is
``python -m benchmarks.chaos_soak``; a bounded slice runs in CI via
``tests/fault_matrix.py``.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional

from repro.common.errors import LogCorruptionError, SimulatedCrashError
from repro.engine.recovery import restart
from repro.faults.injection import (
    BitFlipFault,
    CrashFault,
    FaultInjector,
    FaultPlan,
    LostFlushFault,
    TornWriteFault,
)
from repro.faults.sweep import (
    PAIRS,
    RunConfig,
    check_byte_identity,
    check_recovered,
    check_salvage,
    draw_history,
    policy_name,
    recording_pass,
)
from repro.plan.corpus import WORKLOAD_SCENARIOS
from repro.plan.operators import PLAN_OPERATORS
from repro.transform.options import POPULATION_MODES, population_problem
from repro.wal.durable import SITE_DISK_SYNC, _frame_regions
from repro.wal.log import (
    GROUP_FLUSH,
    IMMEDIATE_FLUSH,
    FlushPolicy,
    LogManager,
)

#: Flush policies the chaos layer samples from: immediate (every commit
#: durable at once), the stock group-commit policy, and a small-batch
#: coalescer that trips its thresholds often.
CHAOS_POLICIES = (
    IMMEDIATE_FLUSH,
    GROUP_FLUSH,
    FlushPolicy(max_pending_requests=4, max_pending_records=16),
)

_FAULT_KINDS = ("none", "torn_write", "lost_flush", "bit_flip")

#: Shard counts the draws choose from.
SHARDS = (1, 2, 3, 7)

#: Synchronization thresholds the draws choose from: never while user
#: transactions arrive, or after the first pass with the rest as backlog.
BACKLOGS = (2, 64)


def draw_config(rng: random.Random, history_len: int = 6) -> RunConfig:
    """A run description drawn from ``rng``: operator, (strategy,
    storage) pair, population mode (any the operator and strategy can
    run, the FOJ also as a materialized view), shards, one to three step
    budgets, synchronization threshold, flush policy and up to
    ``history_len`` generated transactions."""
    operator = rng.choice(sorted(WORKLOAD_SCENARIOS))
    strategy, storage = rng.choice(PAIRS)
    supports_lazy = PLAN_OPERATORS[operator].supports_lazy
    modes = [(mode, False) for mode in POPULATION_MODES
             if population_problem(mode, strategy, supports_lazy) is None]
    if ":view" in WORKLOAD_SCENARIOS[operator].workload.variants:
        modes.append(("eager", True))
    population, view = rng.choice(modes)
    return RunConfig(
        WORKLOAD_SCENARIOS[operator], strategy, storage, population, view,
        shards=rng.choice(SHARDS),
        # Log-uniform over 1..64: a third of the budgets are at most 4,
        # small enough for the history to interleave with population.
        budgets=tuple(round(64 ** rng.random())
                      for _ in range(rng.randint(1, 3))),
        max_remaining=rng.choice(BACKLOGS),
        flush_policy=rng.choice(CHAOS_POLICIES),
        history=draw_history(rng, history_len))


def chaos_run(seed: int, metrics=None) -> Dict[str, object]:
    """One seeded crash x disk-fault experiment; returns a report dict.

    The report's ``violations`` list is empty iff every durability and
    recovery invariant held; ``repro`` is a one-line recipe that re-runs
    exactly this experiment.

    When a :class:`~repro.obs.metrics.Metrics` registry is passed, the
    *armed* pass runs observed -- spans, trace events, blame edges and
    fault firings (traced *before* the fault acts: a crash fault never
    returns control) accumulate in it, so a violating seed can be dumped
    as a postmortem bundle (:func:`repro.obs.report.postmortem_bundle`:
    the report, snapshot, span tree, blame snapshot and trace events).
    """
    rng = random.Random(seed)
    config = draw_config(rng)

    report: Dict[str, object] = {
        "seed": seed,
        "operator": config.label,
        "strategy": config.strategy.value,
        "storage": config.storage,
        "budgets": list(config.budgets),
        "max_remaining": config.max_remaining,
        "flush_policy": policy_name(config.flush_policy),
        "history": len(config.history),
        "repro": f"python -m benchmarks.chaos_soak --seed {seed}",
        "violations": [],
    }
    violations: List[str] = report["violations"]

    # Recording pass: learn which sites this configuration crosses.
    make_run, hits, baseline = recording_pass(config)
    if baseline:
        report["outcome"] = "baseline_broken"
        violations.extend(f"fault-free baseline: {b}" for b in baseline)
        return report
    crash_site = rng.choice(sorted(hits))
    count = hits[crash_site]
    # Bias the kill into the interesting part of the scenario rather
    # than the first crossings (usually the bulk load).
    crash_hit = rng.randint(max(1, count // 3), count)
    fault_kind = rng.choice(_FAULT_KINDS)
    sync_total = hits.get(SITE_DISK_SYNC, 0)

    plan = FaultPlan()
    disk_hit: Optional[int] = None
    # The injector fires one arming per crossing; keep the disk fault
    # strictly before the crash so both take effect.
    last = crash_hit - 1 if crash_site == SITE_DISK_SYNC else sync_total
    if fault_kind != "none" and last >= 1:
        disk_hit = rng.randint(1, last)
        if fault_kind == "torn_write":
            plan.arm(SITE_DISK_SYNC, TornWriteFault(), hit=disk_hit)
        elif fault_kind == "lost_flush":
            # Each lost flush takes a crossing of its own: when the
            # crash is on ``disk.sync`` too, leave it its hit.
            times = rng.randint(1, 3)
            if crash_site == SITE_DISK_SYNC:
                times = min(times, crash_hit - disk_hit)
            plan.arm(SITE_DISK_SYNC, LostFlushFault(), hit=disk_hit,
                     times=times)
        else:
            plan.arm(SITE_DISK_SYNC, BitFlipFault(bit=rng.randrange(64)),
                     hit=disk_hit)
    else:
        fault_kind = "none"
    plan.arm(crash_site, CrashFault(), hit=crash_hit)
    report.update(crash_site=crash_site, crash_hit=crash_hit,
                  disk_fault=fault_kind, disk_fault_hit=disk_hit)

    run = make_run(FaultInjector(plan), metrics=metrics)
    try:
        run.execute()
    except SimulatedCrashError:
        pass
    else:
        report["outcome"] = "not_hit"
        violations.append(
            f"armed crash at {crash_site} hit {crash_hit} never fired")
        return report

    fired_kinds = {kind for (_, _, kind) in run.faults.fired}
    disk_fault_fired = fault_kind != "none" and fault_kind in fired_kinds
    # Facts captured before salvage reopens (and thereby resets) the disk.
    raw_durable = bytes(run.disk._buffer[:run.disk._durable_len])
    durable_frames = len(_frame_regions(bytearray(raw_durable)))

    try:
        salvaged = LogManager.from_disk(run.disk)
    except LogCorruptionError as exc:
        if fault_kind == "bit_flip" and disk_fault_fired:
            # The rotten frame was detected and the log quarantined with
            # nothing applied -- the required outcome for mid-log rot.
            report["outcome"] = "quarantined"
            report["salvaged_records"] = len(exc.salvaged)
        else:
            report["outcome"] = "violation"
            violations.append(
                f"salvage quarantined a log with no bit rot: {exc}")
        return report

    salvage = salvaged.salvage
    report["salvage"] = salvage.describe()
    if fault_kind == "bit_flip" and disk_fault_fired:
        if salvage.tail_corrupt:
            # The flip landed in the only/final frame: truncated, never
            # applied -- acceptable, and recovery must still succeed.
            report["outcome"] = "tail_truncated"
        elif durable_frames > 0:
            report["outcome"] = "violation"
            violations.append(
                "a fired bit flip was neither quarantined nor truncated "
                f"({durable_frames} durable frames, salvage "
                f"{salvage.describe()})")
            return report
        else:
            report["outcome"] = "recovered"
    elif fault_kind == "torn_write" and disk_fault_fired:
        # A tear at a frame boundary is a clean truncation; anything else
        # must be reported as torn.  Either way, no quarantine.
        report["outcome"] = "recovered"
        violations.extend(check_byte_identity(run, salvaged))
    elif fault_kind == "lost_flush" and disk_fault_fired:
        # Lying fsyncs lose a frame-aligned tail: the surviving prefix
        # must be clean, even though the log believed it was flushed.
        report["outcome"] = "recovered"
        if salvage.torn or salvage.tail_corrupt:
            violations.append(
                f"lost flush left a non-aligned prefix: "
                f"{salvage.describe()}")
        violations.extend(check_byte_identity(run, salvaged))
    else:
        report["outcome"] = "recovered"
        violations.extend(check_salvage(run, salvaged))

    # Recovery runs on the same registry, so the postmortem's span tree
    # shows the analysis/redo/undo passes that followed the crash.
    recovered = restart(salvaged, metrics=metrics)
    violations.extend(check_recovered(run, recovered, salvaged))
    if violations:
        report["outcome"] = "violation"
    return report
