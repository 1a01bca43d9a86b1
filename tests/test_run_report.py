"""Tests for the run-report layer (:mod:`repro.obs.report`) and the span /
trace wiring of the supervisor, recovery and the simulated experiments."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

from repro import (
    Database,
    Metrics,
    Phase,
    Session,
    TableSchema,
    TransformationSupervisor,
    restart,
)
from repro.obs import build_run_report, run_section, sparkline
from repro.obs.report import (
    _coerce_report,
    flatten_spans,
    main as report_main,
    render_report,
    slowest_spans,
)
from repro.sim import RunSettings, build_split_scenario, run_once
from repro.transform import FojTransformation
from repro.transform.analysis import Decision, RemainingRecordsPolicy

from tests.conftest import (
    R_SCHEMA,
    S_SCHEMA,
    foj_spec,
    load_foj_data,
    values_of,
)
from repro.api import TransformOptions


def ticking_clock():
    state = {"t": -1.0}

    def clock():
        state["t"] += 1.0
        return state["t"]

    return clock


# ---------------------------------------------------------------------------
# Sections and documents
# ---------------------------------------------------------------------------


def make_observed_metrics():
    m = Metrics(enabled=True, clock=ticking_clock())
    with m.span("tf", transform="t1"):
        with m.span("tf.phase.populating"):
            m.inc("tf.steps", 3)
    return m


def test_run_section_from_live_objects():
    m = make_observed_metrics()
    section = run_section("nb-abort", metrics=m, meta={"rows": 10})
    assert section["name"] == "nb-abort"
    assert section["meta"] == {"rows": 10}
    assert section["metrics"]["counters"]["tf.steps"] == 3
    assert section["spans"][0]["name"] == "tf"
    assert section["convergence"] == []


def test_run_section_accepts_rendered_values_and_extras():
    section = run_section("pre", metrics={"counters": {}},
                          convergence=[{"iteration": 1}],
                          spans=[{"name": "x"}], extra_field=7)
    assert section["metrics"] == {"counters": {}}
    assert section["convergence"] == [{"iteration": 1}]
    # An explicit extra overrides the derived key (used by the harness to
    # substitute the simulator's own span tree).
    assert section["spans"] == [{"name": "x"}]
    assert section["extra_field"] == 7


def test_build_run_report_shape():
    report = build_run_report("bench", [run_section("a")],
                              meta={"seed": 0},
                              interference={"relative_throughput": 0.9})
    assert report["report_version"] == 1
    assert report["name"] == "bench"
    assert [r["name"] for r in report["runs"]] == ["a"]
    assert report["interference"]["relative_throughput"] == 0.9


def test_flatten_and_slowest_spans():
    tree = [{"name": "root", "start": 0.0, "end": 10.0, "duration": 10.0,
             "children": [
                 {"name": "fast", "start": 1.0, "end": 2.0,
                  "duration": 1.0, "children": []},
                 {"name": "slow", "start": 2.0, "end": 9.0,
                  "duration": 7.0, "children": []},
             ]}]
    assert [s["name"] for s in flatten_spans(tree)] == \
        ["root", "fast", "slow"]
    assert [s["name"] for s in slowest_spans(tree, top=2)] == \
        ["root", "slow"]


# ---------------------------------------------------------------------------
# Sparkline
# ---------------------------------------------------------------------------


def test_sparkline_empty_and_flat():
    assert sparkline([]) == "(empty)"
    assert sparkline([0, 0, 0]) == "▁▁▁"


def test_sparkline_downsamples_by_max():
    # One spike in 300 points must survive the downsample to width 30.
    values = [1.0] * 300
    values[150] = 100.0
    line = sparkline(values, width=30)
    assert len(line) == 30
    assert "█" in line


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


def observed_report():
    m = Metrics(enabled=True, clock=ticking_clock())
    root = m.begin_span("tf", transform="t1")
    for i in range(6):
        m.end_span(m.begin_span("tf.batch", parent=root, i=i))
    m.end_span(root)
    section = run_section(
        "run-a", metrics=m,
        convergence=[{"iteration": i, "lag": 10 - i, "produced": 10,
                      "consumed": i, "est_remaining_units": float(10 - i),
                      "decision": "iterate"} for i in range(5)])
    return build_run_report(
        "render-test", [section], meta={"rows": 5},
        interference={"relative_throughput": 0.95,
                      "relative_response": 1.02, "workload_pct": 75})


def test_render_report_contains_all_blocks():
    text = render_report(observed_report())
    assert "run report: render-test" in text
    assert "rel-throughput 0.9500" in text
    assert "--- run: run-a ---" in text
    assert "tf transform=t1" in text
    assert "slowest spans" in text
    assert "propagation lag over 5 iterations" in text
    assert "retention: spans" in text


def test_render_timeline_collapses_sibling_floods():
    text = render_report(observed_report())
    # 6 same-named children, 3 shown, the rest folded into one line.
    assert text.count("tf.batch\n") + text.count("tf.batch ") >= 3
    assert "... +3 more tf.batch" in text


def test_render_report_empty_section():
    text = render_report(build_run_report("empty", [run_section("none")]))
    assert "(no spans recorded)" in text


def test_coerce_report_accepts_bare_sections_and_partial_dicts():
    bare = run_section("solo", spans=[], convergence=[])
    coerced = _coerce_report(bare)
    assert coerced["runs"][0]["name"] == "solo"
    full = build_run_report("f", [])
    assert _coerce_report(full) is full
    # A dict with no recognizable section still renders -- one run with
    # explicit placeholder lines -- rather than crashing the CLI.
    partial = _coerce_report({"name": "nope"})
    assert partial["runs"][0]["name"] == "nope"
    text = render_report(partial)
    assert "(no spans recorded)" in text
    assert "(no convergence series recorded)" in text


def test_report_cli_handles_missing_sections(tmp_path, capsys):
    """A report without convergence/spans renders with placeholders and
    exits zero -- only malformed JSON is an error."""
    path = tmp_path / "partial.json"
    path.write_text(json.dumps(
        {"name": "partial", "runs": [{"name": "r1", "meta": {}}]}))
    assert report_main([str(path)]) == 0
    out = capsys.readouterr().out
    assert "run report: partial" in out
    assert "(no spans recorded)" in out
    assert "(no convergence series recorded)" in out


def test_report_cli_malformed_json_is_a_clear_nonzero_error(tmp_path,
                                                            capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert report_main([str(path)]) == 1
    captured = capsys.readouterr()
    assert "not valid JSON" in captured.err
    assert captured.out == ""


def test_report_cli_renders_file(tmp_path, capsys):
    path = tmp_path / "report.json"
    path.write_text(json.dumps(observed_report(), default=str))
    assert report_main([str(path)]) == 0
    out = capsys.readouterr().out
    assert "run report: render-test" in out


def test_report_cli_runs_as_the_package_without_a_double_import(tmp_path):
    """``python -m repro.obs FILE`` renders with RuntimeWarnings as errors:
    the report module is imported once, not re-run as ``__main__``."""
    path = tmp_path / "report.json"
    path.write_text(json.dumps(observed_report(), default=str))
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "repro.obs",
         str(path)], capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert "run report: render-test" in done.stdout


def test_report_cli_renders_committed_fixture(capsys):
    """The committed sample report stays renderable.

    Generated results under ``benchmarks/results/`` are gitignored; this
    trimmed fixture (one ``observability_smoke`` strategy section) is the
    committed stand-in that pins the on-disk report schema.
    """
    fixture = pathlib.Path(__file__).parent / "fixtures" \
        / "run_report_trimmed.json"
    assert report_main([str(fixture)]) == 0
    out = capsys.readouterr().out
    assert "run report: observability_smoke" in out
    assert "run: nonblocking_abort" in out
    assert "phase timeline:" in out


# ---------------------------------------------------------------------------
# Supervisor retry/backoff observability
# ---------------------------------------------------------------------------


class _AlwaysStalled:
    def decide(self, report):
        return Decision.STALLED


def test_supervisor_retries_and_escalations_are_observable():
    m = Metrics(enabled=True)
    db = Database(metrics=m)
    db.create_table(R_SCHEMA)
    db.create_table(S_SCHEMA)
    load_foj_data(db, n_r=12, n_s=5)
    policies = [_AlwaysStalled(), _AlwaysStalled()]

    def factory():
        policy = policies.pop(0) if policies else RemainingRecordsPolicy()
        return FojTransformation(db, foj_spec(db), options=TransformOptions(policy=policy))

    sup = TransformationSupervisor(db, factory, budget=64,
                                   on_wait=lambda w: None)
    tf = sup.run()
    assert tf.phase is Phase.DONE

    # Counters: two starved attempts -> two retries, two escalations.
    assert m.counter_value("supervisor.retries") == 2
    assert m.counter_value("supervisor.escalations") == 2
    backoff = m.snapshot()["histograms"]["supervisor.backoff_wait"]
    assert backoff["count"] == 2
    assert backoff["total"] == pytest.approx(1.0 + 2.0)

    # Trace events carry the schedule: waits 1, 2 and budgets 64 -> 1024.
    waits = [e.fields["wait"] for e in m.events("supervisor.backoff")]
    assert waits == [1.0, 2.0]
    escalations = m.events("supervisor.escalate")
    assert [(e.fields["from_budget"], e.fields["to_budget"])
            for e in escalations] == [(64, 256), (256, 1024)]
    outcomes = [e.fields["outcome"] for e in m.events("supervisor.attempt")]
    assert outcomes == ["starved", "starved", "done"]

    # Spans: one root, one child per attempt, each tf nested in its attempt.
    root = m.spans.find("supervisor")
    assert root is not None and not root.open
    attempts = m.spans.spans("supervisor.attempt")
    assert [s.attrs["outcome"] for s in attempts] == \
        ["starved", "starved", "done"]
    assert all(s.parent_id == root.span_id for s in attempts)
    tf_spans = m.spans.spans("tf")
    assert len(tf_spans) == 3
    assert [s.parent_id for s in tf_spans] == \
        [s.span_id for s in attempts]


# ---------------------------------------------------------------------------
# Recovery spans
# ---------------------------------------------------------------------------


def test_restart_emits_recovery_span_tree():
    db = Database()
    db.create_table(TableSchema("t", ["id", "x"], primary_key=["id"]))
    with Session(db) as s:
        s.insert("t", {"id": 1, "x": "keep"})
    loser = db.begin()
    db.insert(loser, "t", {"id": 2, "x": "dirty"})
    # crash: no commit for `loser`

    m = Metrics(enabled=True)
    recovered = restart(db.log, metrics=m)
    assert [r["id"] for r in values_of(recovered, "t")] == [1]

    root = m.spans.find("recovery")
    assert root is not None and not root.open
    assert root.attrs["end_lsn"] > 0
    assert root.attrs["propagators"] == 0
    children = {s.name: s for s in m.spans.spans()
                if s.parent_id == root.span_id}
    assert set(children) == {"recovery.analysis", "recovery.redo",
                             "recovery.undo"}
    assert children["recovery.analysis"].attrs["losers"] == 1
    assert children["recovery.redo"].attrs["records"] > 0
    assert children["recovery.undo"].attrs["losers_rolled_back"] == 1


def test_restart_without_metrics_records_nothing():
    db = Database()
    db.create_table(TableSchema("t", ["id"], primary_key=["id"]))
    with Session(db) as s:
        s.insert("t", {"id": 1})
    recovered = restart(db.log)
    assert [r["id"] for r in values_of(recovered, "t")] == [1]


# ---------------------------------------------------------------------------
# Observed simulator runs feed the report
# ---------------------------------------------------------------------------


def test_run_once_observe_produces_spans_and_convergence():
    def builder(seed):
        return build_split_scenario(seed, rows=120, dummy_rows=60)

    run = run_once(builder, RunSettings(
        n_clients=4, warmup_ms=5.0, window_ms=60.0, priority=0.2,
        stop_after_window=False, t_max_ms=4000.0, seed=0,
        observe=True))
    info = run.info
    assert info["obs"]["counters"]["tf.steps"] > 0
    roots = [s["name"] for s in info["spans"]]
    assert "sim.run" in roots
    names = {s["name"] for s in _walk(info["spans"])}
    assert "tf" in names and "sync.window" in names
    assert info["convergence"], "observed run must carry the lag series"
    assert info["series"], "bucketed throughput series must be on"


def _walk(tree):
    for node in tree:
        yield node
        yield from _walk(node.get("children") or [])


def test_run_once_unobserved_leaves_info_lean():
    def builder(seed):
        return build_split_scenario(seed, rows=60, dummy_rows=30)

    run = run_once(builder, RunSettings(
        n_clients=2, warmup_ms=5.0, window_ms=40.0, priority=0.2,
        stop_after_window=False, t_max_ms=4000.0, seed=0))
    assert run.info["obs"] is None
    assert run.info["spans"] is None
    # The convergence monitor is metrics-independent (the analysis inputs
    # are recorded regardless), so the series is present even unobserved.
    assert isinstance(run.info["convergence"], list)
    assert run.info["series"] == []
