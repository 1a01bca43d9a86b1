"""Crash-scoped flight recorder: bounded history + postmortem bundles.

A failing chaos seed or a tripped latency objective is only as useful as
the context it leaves behind.  The :class:`FlightRecorder` keeps a small
bounded window of *moments* (periodic metric snapshots and notable
events: fault firings, SLO trips, oracle violations) next to the
registry's own bounded rings (trace events, spans, blame edges), and
:meth:`bundle` assembles all of it into one JSON-able postmortem the
harnesses persist when something goes wrong:

* a **fault site fires** -- :meth:`note_fault` records the crossing so
  the bundle shows what was armed and what actually hit;
* a **chaos-oracle violation** -- :func:`postmortem_bundle` wraps a
  chaos/sweep report (the violating seed, its repro line) together with
  the run's final spans and blame edges;
* an **SLO monitor trips** -- :class:`SloMonitor` watches a snapshot
  stream for p99 breaches, convergence stalls and starvation and
  records a trip moment (and fires an optional callback) on the first
  crossing of each objective.

Everything is bounded: the moment ring drops oldest-first and counts its
drops, exactly like :class:`~repro.obs.trace.EventRing`.
"""

from __future__ import annotations

import json
import os
from collections import deque
from typing import Callable, Dict, List, Optional

from repro.obs.metrics import Metrics, NULL_METRICS


class FlightRecorder:
    """Bounded black box over one observability registry.

    Args:
        metrics: The registry to read spans/trace/blame from (the no-op
            singleton yields empty bundles but never fails).
    """

    #: Moment-ring bound (snapshots + notable events).
    CAPACITY = 128

    def __init__(self, metrics: Optional[Metrics] = None) -> None:
        self.metrics = metrics if metrics is not None else NULL_METRICS
        self._moments: deque = deque(maxlen=self.CAPACITY)
        self.recorded = 0
        self.dropped = 0

    # -- recording ---------------------------------------------------------

    def note(self, kind: str, **fields: object) -> None:
        """Record one notable moment (bounded, oldest dropped)."""
        if len(self._moments) == self.CAPACITY:
            self.dropped += 1
        self.recorded += 1
        self._moments.append({"t": self.metrics.now(), "kind": kind,
                              **fields})

    def note_fault(self, site: str, hit: int, kind: str) -> None:
        """Record one fault firing (wire into a FaultInjector's log)."""
        self.note("fault.fired", site=site, hit=hit, fault=kind)

    def tick(self, **context: object) -> None:
        """Record a periodic metric snapshot (cheap, counters only).

        The full final snapshot lands in :meth:`bundle`; ticks keep a
        coarse trajectory so a postmortem shows *when* things bent, at a
        bounded cost per tick.
        """
        if not self.metrics.enabled:
            return
        snap = self.metrics.snapshot()
        self.note("tick",
                  counters=snap.get("counters", {}),
                  blame_total=snap.get("blame", {}).get("total_wait_ms"),
                  **context)

    def moments(self) -> List[Dict[str, object]]:
        """The retained moment window, oldest first."""
        return list(self._moments)

    # -- bundles -----------------------------------------------------------

    def bundle(self, reason: str, **context: object) -> Dict[str, object]:
        """Assemble the postmortem: reason + context + the full black box
        (final snapshot, span tree, recent trace events, blame edges,
        the moment window)."""
        snapshot = self.metrics.snapshot() if self.metrics.enabled else {}
        spans = self.metrics.spans.tree() if self.metrics.enabled else []
        events = [e.as_dict() for e in self.metrics.events()] \
            if self.metrics.enabled else []
        blame = self.metrics.blame
        return {
            "reason": reason,
            "context": dict(context),
            "moments": self.moments(),
            "moments_dropped": self.dropped,
            "snapshot": snapshot,
            "spans": spans,
            "events": events,
            "blame_edges": blame.recent_edges(),
            "blame": blame.snapshot() if blame.enabled else {},
        }

    def dump(self, path: str, reason: str,
             **context: object) -> Dict[str, object]:
        """Write :meth:`bundle` as JSON to ``path``; returns the bundle."""
        bundle = self.bundle(reason, **context)
        directory = os.path.dirname(path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(bundle, fh, indent=2, sort_keys=True, default=str)
        return bundle


def postmortem_bundle(report: Dict[str, object],
                      metrics: Optional[Metrics] = None,
                      recorder: Optional[FlightRecorder] = None
                      ) -> Dict[str, object]:
    """A chaos/sweep failure report + the run's black box, in one dict.

    ``report`` is the chaos or sweep report carrying the violating seed,
    repro recipe and violation list; the bundle nests it under
    ``report`` and adds spans/blame/trace from ``metrics`` (via a fresh
    recorder when none was threaded through the run).
    """
    if recorder is None:
        recorder = FlightRecorder(metrics)
    return recorder.bundle(
        "chaos.violation" if report.get("violations") else "report",
        seed=report.get("seed"),
        repro=report.get("repro"),
        violations=list(report.get("violations") or ()),
        report=report,
    )


# ---------------------------------------------------------------------------
# SLO monitors
# ---------------------------------------------------------------------------


class SloPolicy:
    """Objectives the monitor holds a run to.

    Any objective left ``None`` is not checked.

    Args:
        p99_ms: Ceiling on the p99 of ``p99_instrument``.
        p99_instrument: Histogram name the latency objective reads.
        stall_checks: Trip after this many consecutive convergence
            observations without progress (remaining not shrinking).
        starvation_budget: Trip when a convergence observation reports
            the transformation starving (the Section 3.3 early warning).
    """

    def __init__(self, p99_ms: Optional[float] = None,
                 p99_instrument: str = "txn.response_time",
                 stall_checks: Optional[int] = None,
                 starvation: bool = False) -> None:
        self.p99_ms = p99_ms
        self.p99_instrument = p99_instrument
        self.stall_checks = stall_checks
        self.starvation = starvation


class SloMonitor:
    """Evaluates an :class:`SloPolicy` over snapshot/convergence feeds.

    Each objective trips at most once per monitor (a postmortem per
    breach, not one per poll); every trip is recorded as a moment on the
    recorder and handed to ``on_trip`` when given.
    """

    def __init__(self, policy: SloPolicy,
                 recorder: Optional[FlightRecorder] = None,
                 on_trip: Optional[Callable[[Dict[str, object]], None]]
                 = None) -> None:
        self.policy = policy
        self.recorder = recorder
        self.on_trip = on_trip
        self.trips: List[Dict[str, object]] = []
        self._tripped: set = set()
        self._last_remaining: Optional[float] = None
        self._stalled_checks = 0

    def _trip(self, objective: str, **detail: object) -> None:
        if objective in self._tripped:
            return
        self._tripped.add(objective)
        trip = {"objective": objective, **detail}
        self.trips.append(trip)
        if self.recorder is not None:
            self.recorder.note("slo.trip", **trip)
        if self.on_trip is not None:
            self.on_trip(trip)

    def observe_snapshot(self, snapshot: Dict[str, object]) -> None:
        """Check the latency objective against one metrics snapshot."""
        policy = self.policy
        if policy.p99_ms is None:
            return
        hist = (snapshot.get("histograms") or {}).get(
            policy.p99_instrument)
        if not hist or not hist.get("count"):
            return
        if hist["p99"] > policy.p99_ms:
            self._trip("p99_breach", instrument=policy.p99_instrument,
                       p99=hist["p99"], limit=policy.p99_ms)

    def observe_convergence(self, remaining: float,
                            starving: bool = False) -> None:
        """Check stall/starvation objectives against one convergence
        observation (estimated remaining work + the starving flag)."""
        policy = self.policy
        if policy.starvation and starving:
            self._trip("starvation", remaining=remaining)
        if policy.stall_checks is None:
            return
        if self._last_remaining is not None and \
                remaining >= self._last_remaining and remaining > 0:
            self._stalled_checks += 1
            if self._stalled_checks >= policy.stall_checks:
                self._trip("convergence_stall", remaining=remaining,
                           checks=self._stalled_checks)
        else:
            self._stalled_checks = 0
        self._last_remaining = remaining
