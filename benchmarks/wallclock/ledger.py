"""From raw repetitions to named metrics.

:func:`details` turns a workload's repetitions into its own end-to-end
metrics (the issue glossary: ``txn_per_s``, ``time_to_sync_s``, ...), each
a median over repetitions with minimum, inter-quartile range and sample
count, latency percentiles pooled over repetitions.  :func:`end_to_end`
projects them onto the generic names of ``BENCHMARK.json`` through
``config.ALIASES``.  :func:`per_layer` reads the traced repetition.
"""

from __future__ import annotations

import ctypes
import os
import pickle
import signal
import statistics
import sys
import traceback
from typing import Callable, Dict, List, Sequence

from benchmarks.wallclock.config import (
    ALIASES,
    DETAIL_UNITS,
    END_TO_END,
    HIGHER_IS_BETTER,
    PER_LAYER,
    Sizes,
)
from benchmarks.wallclock.oracle import OracleMismatch
from benchmarks.wallclock.stats import (
    min_and_iqr,
    percentile,
    top_percentile,
)
from benchmarks.wallclock.tracer import DRIVER_LAYER, POPULATE_PHASES
from benchmarks.wallclock.workloads import REPS, rep_rng, run_rep

Out = Dict[str, object]
Metric = Dict[str, object]


def _in_child(run: Callable[[], Out]) -> Out:
    """``run()`` in a forked child, waited for; its result comes back
    through a pipe, with the child's own peak resident set size.

    An oracle mismatch is re-raised here; any other failure of the child
    has printed its traceback and is an error."""
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            # Linux PR_SET_PDEATHSIG: a killed parent leaves no child.
            ctypes.CDLL(None).prctl(1, signal.SIGKILL)
            try:
                answer = ("out", run())
            except OracleMismatch as mismatch:
                answer = ("mismatch", str(mismatch))
            with os.fdopen(write_fd, "wb") as pipe:
                pickle.dump(answer, pipe)
            status = 0
        except BaseException:
            traceback.print_exc()
        finally:
            os._exit(status)
    os.close(write_fd)
    try:
        with os.fdopen(read_fd, "rb") as pipe:
            data = pipe.read()
    except BaseException:       # leaving early: take the child along
        os.kill(pid, signal.SIGKILL)
        raise
    finally:
        _pid, status, usage = os.wait4(pid, 0)
    if status:
        raise RuntimeError(f"repetition exited with status {status}")
    kind, answer = pickle.loads(data)
    if kind == "mismatch":
        raise OracleMismatch(answer)
    answer["peak_rss_mb"] = usage.ru_maxrss / 1024.0    # Linux: KiB
    return answer


def measure(workload: str, seed: int, reps: int, sizes: Sizes) -> List[Out]:
    """Run ``reps`` untraced repetitions on fresh databases, one after
    the other, each in its own forked process.

    A repetition then starts on the heap the first one started on (no
    garbage, arenas or fragmentation inherited), and has a peak resident
    set size of its own: the process-wide peak is the *worst* repetition
    of a run, and on ``foj_catchup`` -- where a slow catch-up keeps more
    log -- it spread by 0.4 - 0.5 over ten runs next to a noisy
    neighbour, against 0.04 for the best repetition's timings."""
    return [_in_child(lambda: run_rep(
        REPS[workload](rep_rng(seed, workload, rep), sizes)))
        for rep in range(reps)]


def _metric(name: str, value: float, n: int,
            per_rep: Sequence[float] = ()) -> Metric:
    """One named number: ``value`` (the median over repetitions, or a
    statistic pooled over ``n`` samples) plus, from the per-repetition
    values, their minimum, inter-quartile range and *best*.

    The best repetition is what the contract's bound metrics report.
    Contention on this shared box only ever slows a repetition down, so
    the best of a run's repetitions is the least contaminated one: over
    ten runs it spread half as much as their median (README).
    """
    metric = {"value": value, "unit": DETAIL_UNITS[name], "n": n,
              "min": None, "iqr": None, "best": None}
    if per_rep:
        lowest, iqr = min_and_iqr(per_rep)
        metric.update(min=lowest, iqr=iqr,
                      best=max(per_rep) if name in HIGHER_IS_BETTER
                      else lowest)
    return metric


def _over_reps(name: str, values: Sequence[float]) -> Metric:
    return _metric(name, statistics.median(values), len(values), values)


def _pool(outs: List[Out], key: str) -> List[float]:
    return [x for out in outs for x in out[key]]


def _latency_metrics(names: Sequence[str],
                     outs: List[Out]) -> Dict[str, Metric]:
    """Median, top percentile and share within the limit of the
    repetitions' operation latencies (``op_ms``), pooled; a slower,
    aborted-and-retried or failed operation (``slo_missed``) misses the
    limit.  Under the three given metric names."""
    pooled = sorted(_pool(outs, "op_ms"))
    n = len(pooled)
    p50, top, ok_share = names
    return {
        p50: _metric(p50, percentile(pooled, 50), n,
                     [percentile(sorted(out["op_ms"]), 50) for out in outs]),
        top: _metric(top, top_percentile(pooled), n),
        ok_share: _metric(
            ok_share, 1.0 - sum(out["slo_missed"] for out in outs) / n, n,
            [1.0 - out["slo_missed"] / len(out["op_ms"]) for out in outs]),
    }


def details(workload: str, outs: List[Out]) -> Dict[str, Metric]:
    """The workload's own end-to-end metrics, by their glossary names."""
    attempted = sum(out["attempted"] for out in outs)
    failed = sum(out["failed"] for out in outs)
    found: Dict[str, Metric] = {
        "setup_s": _over_reps("setup_s", [out["setup_s"] for out in outs]),
        "peak_rss_mb": _over_reps("peak_rss_mb",
                                  [out["peak_rss_mb"] for out in outs]),
        "failed_share": _metric("failed_share", failed / attempted,
                                attempted),
    }
    if workload == "oltp_durable":
        found["txn_per_s"] = _over_reps("txn_per_s", [
            len(out["op_ms"]) * 1000.0 / sum(out["op_ms"]) for out in outs])
        found.update(_latency_metrics(
            ("txn_p50_ms", "txn_p99_ms", "txn_slo_ok_share"), outs))
        found["wal_bytes_per_txn"] = _over_reps("wal_bytes_per_txn", [
            out["wal_bytes"] / len(out["op_ms"]) for out in outs])
        found["restart_s"] = _over_reps(
            "restart_s", [out["restart_s"] for out in outs])
        found["restart_records"] = _over_reps(
            "restart_records", [out["restart_records"] for out in outs])
    elif workload == "split_quiescent":
        found["migrate_s"] = _over_reps(
            "migrate_s", [out["migrate_s"] for out in outs])
        found["migrate_rows_per_s"] = _over_reps("migrate_rows_per_s", [
            out["rows"] / out["migrate_s"] for out in outs])
        found.update(_latency_metrics(
            ("step_p50_ms", "step_p99_ms", "step_slo_ok_share"), outs))
    else:
        found["time_to_sync_s"] = _over_reps(
            "time_to_sync_s", [out["time_to_sync_s"] for out in outs])
        found["user_txn_per_s_during"] = _over_reps("user_txn_per_s_during", [
            len(out["op_ms"]) / out["time_to_sync_s"] for out in outs])
        before = sorted(_pool(outs, "before_ms"))
        found["user_p50_ms_before"] = _metric(
            "user_p50_ms_before", percentile(before, 50), len(before))
        found.update(_latency_metrics(
            ("user_p50_ms_during", "user_p99_ms_during",
             "user_slo_ok_share"), outs))
        ok = found["user_slo_ok_share"]
        found["user_slo_miss_share"] = _metric(
            "user_slo_miss_share", 1.0 - ok["value"], ok["n"])
        if workload == "foj_catchup":
            found["backlog_records"] = _over_reps(
                "backlog_records", [out["backlog_records"] for out in outs])
    return found


def end_to_end(workload: str, found: Dict[str, Metric]) -> Dict[str, Metric]:
    """The generic end-to-end metrics of ``BENCHMARK.json``: the
    workload's own metric each one reads, at its best repetition."""
    alias = ALIASES[workload]
    out: Dict[str, Metric] = {}
    for name, unit, _better, _bound in END_TO_END:
        metric = dict(found[alias.get(name, name)])
        metric["unit"] = unit
        if metric["best"] is not None:
            metric["value"] = metric["best"]
        out[name] = metric
    return out


def counts(workload: str, outs: List[Out]) -> Dict[str, object]:
    """Counts that must repeat exactly for the same seed (only the two
    deterministic workloads have any: the live ones depend on timing)."""
    if workload == "oltp_durable":
        keys = ("attempted", "wal_bytes", "wal_syncs", "restart_records",
                "index_probes", "index_hits", "lock_waits")
    elif workload == "split_quiescent":
        keys = ("attempted", "tf_stats", "index_probes", "index_hits")
    else:
        return {}
    return {key: [out[key] for out in outs] for key in keys}


# -- the traced repetition ---------------------------------------------------------


def per_layer(traced: Out, untraced: Out,
              spans: Dict[str, Dict[str, float]],
              extra: Dict[str, float]) -> Dict[str, float]:
    """Every per-layer metric, from the traced repetition's counters and
    spans (``Tracer.by_name()``), the untraced repetition beside it
    (collector pauses, generator lateness, the overhead ratio) and
    ``extra`` (microbenches and arms; an arm not run on this workload
    reads 0)."""

    def field(name: str, key: str) -> float:
        return spans.get(name, {}).get(key, 0)

    def layer_self(layer: str) -> float:
        return sum(s["self_s"] for s in spans.values() if s["layer"] == layer)

    prefix = "Transformation.step["
    steps = {name[len(prefix):-1]: s for name, s in spans.items()
             if name.startswith(prefix)}
    populate = [s for phase, s in steps.items() if phase in POPULATE_PHASES]
    propagate = [s for phase, s in steps.items()
                 if phase not in POPULATE_PHASES]
    rules = [s for name, s in spans.items()
             if s["layer"] == "transform" and not name.startswith(prefix)]
    stats = traced.get("tf_stats", {})
    scanned = stats.get("propagated_records", 0)
    applied = sum(s["units"] for name, s in spans.items()
                  if name.endswith(".apply_run"))
    populate_total = sum(s["total_s"] for s in populate)
    propagate_total = sum(s["total_s"] for s in propagate)

    root = field("timed", "total_s")
    busy = root - traced["idle_s"]
    layers_self = sum(s["self_s"] for s in spans.values()
                      if s["layer"] != DRIVER_LAYER)
    late = sorted(untraced.get("late_ms", ()))
    probes = traced["index_probes"]
    restart_s = traced.get("restart_s", 0.0)

    out = {
        "wal.appends": field("LogManager.append", "units")
        + field("LogManager.append_batch", "units"),
        "wal.flushes": field("LogManager.flush", "count"),
        "wal.syncs": traced.get("wal_syncs", 0),
        "wal.flush_self_s": field("LogManager.flush", "self_s"),
        "wal.salvage_s": field("LogManager.from_disk", "total_s"),
        "concurrency.acquires": field("LockManager.acquire", "count"),
        "concurrency.lock_waits": traced["lock_waits"],
        "concurrency.deadlocks": traced["deadlocks"],
        "concurrency.wait_s": traced.get("wait_s", 0.0),
        "storage.index_cache_hit_rate":
            traced["index_hits"] / probes if probes else 0.0,
        "storage.self_s": layer_self("storage"),
        "engine.self_s": layer_self("engine"),
        "engine.restart_analysis_s": traced.get("restart_analysis_s", 0.0),
        "engine.restart_redo_s": traced.get("restart_redo_s", 0.0),
        "engine.restart_undo_s": traced.get("restart_undo_s", 0.0),
        "engine.restart_records_per_s":
            traced["restart_records"] / restart_s if restart_s else 0.0,
        "transform.populate_self_s": sum(s["self_s"] for s in populate),
        "transform.populate_rows_per_s":
            stats.get("population_units", 0) / populate_total
            if populate_total else 0.0,
        "transform.propagate_self_s":
            sum(s["self_s"] for s in propagate + rules),
        "transform.propagate_records_per_s":
            scanned / propagate_total if propagate_total else 0.0,
        "transform.skip_share": 1.0 - applied / scanned if scanned else 0.0,
        "transform.iterations": stats.get("iterations", 0),
        "transform.steps": sum(s["count"] for s in steps.values()),
        "transform.step_max_ms":
            max((s["max_s"] for s in steps.values()), default=0.0) * 1000.0,
        "transform.doomed_txns": traced.get("doomed", 0),
        "shard.wall_speedup_4": 0.0,
        "obs.enabled_overhead_ratio": 0.0,
        "runtime.gc_pause_total_ms": untraced["gc_pause_total_ms"],
        "runtime.gc_pause_max_ms": untraced["gc_pause_max_ms"],
        "runtime.gen2_collections": untraced["gen2_collections"],
        "runtime.op_p99_ms": top_percentile(untraced["op_ms"]),
        "runtime.generator_late_ms_p99":
            percentile(late, 99) if late else 0.0,
        "runtime.trace_overhead_ratio":
            busy / (untraced["timed_s"] - untraced["idle_s"]),
        "runtime.layer_coverage_share": layers_self / busy,
        "runtime.driver_self_s": busy - layers_self,
    }
    out.update(extra)
    missing = {name for name, _u, _b in PER_LAYER} ^ set(out)
    if missing:
        raise RuntimeError(f"per-layer metric tables disagree: {missing}")
    return out
