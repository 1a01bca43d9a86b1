"""Machine-readable run reports, and a human-readable renderer.

A *run report* is the one JSON document that answers "what did this run
do, where did the time go, did propagation keep up, and how much did user
traffic suffer" -- the questions the paper's Section 6 evaluation asks.
It bundles, per observed run:

* the ``Metrics`` snapshot (counters / histograms / gauges),
* the span tree (:mod:`repro.obs.spans`) covering transformation phases,
  iterations, batches, the latched synchronization window, recovery
  passes and CC sweeps,
* the convergence series (:mod:`repro.obs.convergence`) -- the Section 3.3
  propagation-lag analyses, per iteration,

plus report-level interference ratios (relative throughput / response,
the paper's reporting unit).  The benchmark harness persists these under
``benchmarks/results/`` and seeds the repo-root ``BENCH_interference.json``
consumed by the CI regression gate.

A *postmortem bundle* (:func:`postmortem_bundle`) is the failure-side
sibling: a chaos or sweep failure report next to the failing run's
snapshot, span tree, blame snapshot and trace-ring events.

Render a run report from the command line::

    python -m repro.obs benchmarks/results/run_report.json

which prints a phase timeline, the top-N slowest spans and a
propagation-lag sparkline per run.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, Iterable, List, Optional, Sequence

#: Format version stamped into every report.
REPORT_VERSION = 1

_SPARK_CHARS = "▁▂▃▄▅▆▇█"


# ---------------------------------------------------------------------------
# Building
# ---------------------------------------------------------------------------


def run_section(name: str, metrics=None, convergence=None,
                meta: Optional[Dict[str, object]] = None,
                **extra: object) -> Dict[str, object]:
    """One observed run's slice of a report.

    Args:
        name: Run label (e.g. the synchronization strategy).
        metrics: A :class:`~repro.obs.metrics.Metrics` registry (its
            snapshot and span tree are captured), or an already-rendered
            snapshot dict, or ``None``.
        convergence: A :class:`~repro.obs.convergence.ConvergenceMonitor`
            or an already-rendered series list, or ``None``.
        meta: Arbitrary run facts (seed, rows, strategy knobs).
        extra: Additional top-level fields merged into the section.
    """
    if metrics is None:
        snapshot, spans = None, []
    elif isinstance(metrics, dict):
        snapshot, spans = metrics, list(metrics.get("span_tree") or [])
    else:
        snapshot, spans = metrics.snapshot(), metrics.spans.tree()
    if convergence is None:
        series: List[Dict[str, object]] = []
    elif isinstance(convergence, list):
        series = convergence
    else:
        series = convergence.series()
    section: Dict[str, object] = {
        "name": name,
        "meta": dict(meta or {}),
        "metrics": snapshot,
        "spans": spans,
        "convergence": series,
    }
    section.update(extra)
    return section


def build_run_report(name: str, runs: Sequence[Dict[str, object]], *,
                     meta: Optional[Dict[str, object]] = None,
                     interference: Optional[Dict[str, object]] = None
                     ) -> Dict[str, object]:
    """Assemble the canonical report document.

    Args:
        name: Report name (the producing benchmark/harness).
        runs: Sections from :func:`run_section`.
        meta: Report-level facts (scale, seeds, environment).
        interference: Relative throughput/response ratios and their
            inputs, when the producer measured a paired run.
    """
    return {
        "report_version": REPORT_VERSION,
        "name": name,
        "meta": dict(meta or {}),
        "runs": list(runs),
        "interference": interference,
    }


def postmortem_bundle(report: Dict[str, object],
                      metrics) -> Dict[str, object]:
    """A chaos/sweep failure report + the failing run's black box.

    ``report`` carries the violating seed or site, its repro recipe and
    the violation list; ``metrics`` is the registry the replayed run was
    observed with.  ``events`` is its trace ring, oldest first: the
    framework's trace events, the ``blame.edge`` wait edges and the
    ``fault.fired`` firings share it.
    """
    snapshot = metrics.snapshot()
    return {
        "reason": "violation" if report.get("violations") else "report",
        "report": report,
        "snapshot": snapshot,
        "spans": metrics.spans.tree(),
        "blame": snapshot["blame"],
        "events": [event.as_dict() for event in metrics.events()],
    }


# ---------------------------------------------------------------------------
# Span helpers (operate on the JSON tree form)
# ---------------------------------------------------------------------------


def flatten_spans(tree: Iterable[Dict[str, object]]
                  ) -> List[Dict[str, object]]:
    """Depth-first flattening of a nested span tree."""
    out: List[Dict[str, object]] = []
    stack = list(tree)[::-1]
    while stack:
        node = stack.pop()
        out.append(node)
        stack.extend(list(node.get("children") or [])[::-1])
    return out


def slowest_spans(tree: Iterable[Dict[str, object]],
                  top: int = 10) -> List[Dict[str, object]]:
    """The ``top`` longest-duration spans, longest first."""
    spans = flatten_spans(tree)
    spans.sort(key=lambda s: s.get("duration") or 0.0, reverse=True)
    return spans[:top]


def sparkline(values: Sequence[float], width: int = 60) -> str:
    """Render a numeric series as a unicode sparkline.

    Down-samples to ``width`` by bucket-maximum (a starvation spike must
    stay visible); an empty series renders as ``(empty)``.
    """
    values = [float(v) for v in values]
    if not values:
        return "(empty)"
    if len(values) > width:
        per = len(values) / width
        values = [max(values[int(i * per):max(int((i + 1) * per),
                                              int(i * per) + 1)])
                  for i in range(width)]
    peak = max(values)
    if peak <= 0:
        return _SPARK_CHARS[0] * len(values)
    scale = len(_SPARK_CHARS) - 1
    return "".join(_SPARK_CHARS[min(scale, int(round(v / peak * scale)))]
                   for v in values)


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


def _span_label(span: Dict[str, object]) -> str:
    attrs = span.get("attrs") or {}
    decor = ""
    for key in ("transform", "strategy", "phase", "iteration", "attempt"):
        if key in attrs:
            decor += f" {key}={attrs[key]}"
    if span.get("error"):
        decor += " !ERROR"
    return f"{span['name']}{decor}"


def _render_timeline(tree: List[Dict[str, object]], lines: List[str],
                     width: int = 32) -> None:
    """Indented span tree with offset/duration columns and a gantt bar."""
    flat = flatten_spans(tree)
    if not flat:
        lines.append("  (no spans recorded)")
        return
    t0 = min(s["start"] for s in flat)
    t1 = max((s["end"] if s.get("end") is not None else s["start"])
             for s in flat)
    extent = max(t1 - t0, 1e-12)

    #: Same-named siblings shown before the rest collapse to one line.
    shown_per_name = 3

    def emit(node: Dict[str, object], depth: int) -> None:
        start = node["start"] - t0
        end = (node["end"] - t0) if node.get("end") is not None else None
        left = int(start / extent * width)
        right = left + 1 if end is None else \
            max(left + 1, int(round(end / extent * width)))
        bar = " " * left + "█" * (right - left)
        bar = bar[:width].ljust(width)
        dur = "   open " if end is None else f"{end - start:8.4f}"
        label = ("  " * depth + _span_label(node))[:44].ljust(44)
        lines.append(f"  {label} {start:9.4f} {dur} |{bar}|")
        emit_children(list(node.get("children") or []), depth + 1)

    def emit_children(children: List[Dict[str, object]],
                      depth: int) -> None:
        counts: Dict[str, int] = {}
        for child in children:
            counts[child["name"]] = counts.get(child["name"], 0) + 1
        seen: Dict[str, int] = {}
        for child in children:
            name = child["name"]
            seen[name] = seen.get(name, 0) + 1
            if counts[name] > shown_per_name + 1:
                if seen[name] == shown_per_name + 1:
                    hidden = counts[name] - shown_per_name
                    label = ("  " * depth +
                             f"... +{hidden} more {name}")[:44].ljust(44)
                    lines.append(f"  {label} {'':9} {'':8} |{' ' * width}|")
                if seen[name] > shown_per_name:
                    continue
            emit(child, depth)

    lines.append(f"  {'span':<44} {'offset':>9} {'duration':>8} "
                 f"|{'timeline'.center(width)}|")
    emit_children(list(tree), 0)


def _render_convergence(series: List[Dict[str, object]],
                        lines: List[str]) -> None:
    lags = [point.get("lag", 0) for point in series]
    lines.append(f"  propagation lag over {len(series)} iterations "
                 f"(max {max(lags) if lags else 0}):")
    lines.append("    " + sparkline(lags))
    last = series[-1]
    lines.append(
        "    last: produced={produced} consumed={consumed} lag={lag} "
        "est_remaining_units={est:.1f} decision={decision}".format(
            produced=last.get("produced"), consumed=last.get("consumed"),
            lag=last.get("lag"), est=last.get("est_remaining_units") or 0.0,
            decision=last.get("decision")))


def _render_blame(blame: Optional[Dict[str, object]],
                  lines: List[str]) -> None:
    """One line of per-role wait attribution, nonzero roles only."""
    if not blame or not blame.get("total_wait_ms"):
        return
    parts = ", ".join(
        f"{role}={ms:.2f}"
        for role, ms in sorted((blame.get("by_role") or {}).items(),
                               key=lambda kv: -kv[1])
        if ms > 0)
    edges = blame.get("edges") or {}
    lines.append(
        f"  blame: total wait {blame['total_wait_ms']:.2f} ms "
        f"over {edges.get('recorded', 0)} edges ({parts})")


def render_report(report: Dict[str, object], top: int = 10) -> str:
    """Human-readable rendering of a run report (the CLI output)."""
    lines: List[str] = []
    name = report.get("name", "?")
    lines.append(f"=== run report: {name} ===")
    meta = report.get("meta") or {}
    if meta:
        lines.append("meta: " + ", ".join(f"{k}={v}"
                                          for k, v in sorted(meta.items())))
    interference = report.get("interference")
    if interference:
        lines.append(
            "interference: rel-throughput {thr:.4f}, rel-response {rt:.4f} "
            "(workload {pct}%)".format(
                thr=interference.get("relative_throughput", 0.0),
                rt=interference.get("relative_response", 0.0),
                pct=interference.get("workload_pct", "?")))
    for run in report.get("runs") or []:
        lines.append("")
        lines.append(f"--- run: {run.get('name', '?')} ---")
        tree = list(run.get("spans") or [])
        lines.append("phase timeline:")
        _render_timeline(tree, lines)
        slow = slowest_spans(tree, top)
        if slow:
            lines.append(f"top {len(slow)} slowest spans:")
            for span in slow:
                lines.append(f"  {span.get('duration') or 0.0:10.4f}  "
                             f"{_span_label(span)}")
        series = list(run.get("convergence") or [])
        if series:
            _render_convergence(series, lines)
        else:
            lines.append("  (no convergence series recorded)")
        snapshot = run.get("metrics") or {}
        _render_blame(snapshot.get("blame"), lines)
        spans_meta = snapshot.get("spans") or {}
        trace_meta = snapshot.get("trace") or {}
        if spans_meta or trace_meta:
            lines.append(
                "retention: spans {sr}/{ss} (dropped {sd}), "
                "trace {tr}/{ta} (dropped {td})".format(
                    sr=spans_meta.get("retained", 0),
                    ss=spans_meta.get("started", 0),
                    sd=spans_meta.get("dropped", 0),
                    tr=trace_meta.get("retained", 0),
                    ta=trace_meta.get("appended", 0),
                    td=trace_meta.get("dropped", 0)))
    return "\n".join(lines)


def _coerce_report(payload: object) -> Dict[str, object]:
    """Accept a full report, a bare run section, or any JSON dict.

    A report missing ``spans``/``convergence`` (or any recognizable
    section at all) still renders -- the renderer prints explicit
    "(no spans recorded)" / "(no convergence series recorded)" lines --
    so a partially produced artifact never crashes the CLI.  Only
    *malformed JSON* is an error, handled in :func:`main`.
    """
    if isinstance(payload, dict) and "runs" in payload:
        return payload
    if isinstance(payload, dict):
        return build_run_report(str(payload.get("name", "run")),
                                [payload])
    return build_run_report("run", [])


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point: render a report file to stdout.

    Exits nonzero only when the input cannot be read or is not valid
    JSON; structurally incomplete reports render with explicit
    placeholder lines instead.
    """
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Render a run-report JSON into a phase timeline, the "
                    "slowest spans and a propagation-lag sparkline.")
    parser.add_argument("file", help="run-report JSON path")
    parser.add_argument("--top", type=int, default=10,
                        help="slowest spans to list per run (default 10)")
    args = parser.parse_args(argv)
    try:
        with open(args.file) as handle:
            payload = json.load(handle)
    except json.JSONDecodeError as exc:
        print(f"error: {args.file} is not valid JSON: {exc}",
              file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: cannot read {args.file}: {exc}", file=sys.stderr)
        return 1
    print(render_report(_coerce_report(payload), top=args.top))
    return 0


if __name__ == "__main__":
    sys.exit(main())
