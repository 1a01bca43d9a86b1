"""End to end at a tenth of the size: both front ends print what they
promise, and the oracle notices a wrong output."""

import json
import random

import pytest

from benchmarks.wallclock import cli, config, oracle
from benchmarks.wallclock.workloads import REPS, SplitQuiescent, run_rep


def last_json_line(capsys):
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(config.WORKLOADS))
def test_untraced_run_prints_every_end_to_end_metric(workload, capsys):
    code = cli.main(["--workload", workload, "--seed", "3", "--seconds", "1",
                     "--trace", "0", "--quick"])
    result = last_json_line(capsys)
    assert code == 0 and result["correct"] is True
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1 and result["failed"] == 0
    units = {name: unit for name, unit, _b, _bound in config.END_TO_END}
    assert set(result["metrics"]) == set(units)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == units[name]
        assert metric["value"] > 0, name


@pytest.mark.parametrize("workload", sorted(config.WORKLOADS))
def test_traced_run_prints_every_per_layer_metric(workload, capsys):
    code = cli.main(["--workload", workload, "--seed", "3", "--seconds", "1",
                     "--trace", "1", "--quick"])
    result = last_json_line(capsys)
    assert code == 0 and result["correct"] is True
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert set(metrics) == {name for name, _u, _b in config.PER_LAYER}
    assert metrics["runtime.trace_overhead_ratio"] > 1.0
    assert metrics["wal.appends"] > 0
    # The predicted contrasts between the workloads.
    if workload == "oltp_durable":
        assert metrics["transform.populate_self_s"] == 0
        assert metrics["transform.propagate_self_s"] == 0
        assert metrics["engine.restart_redo_s"] > 0
    elif workload == "split_quiescent":
        assert metrics["transform.populate_self_s"] > \
            20 * metrics["transform.propagate_self_s"]
        assert metrics["shard.wall_speedup_4"] > 0
    elif workload == "foj_catchup":
        assert metrics["transform.populate_self_s"] == 0
        assert metrics["transform.propagate_self_s"] > 0
    else:
        assert metrics["transform.populate_self_s"] > 0
        assert metrics["transform.skip_share"] > 0.5


def test_same_seed_same_counts():
    sizes = config.QUICK_SIZES
    for workload in ("oltp_durable", "split_quiescent"):
        first = cli.untraced(workload, 5, 2, sizes)["counts"]
        second = cli.untraced(workload, 5, 2, sizes)["counts"]
        assert first and first == second


def test_oracle_rejects_a_wrong_target():
    rep = SplitQuiescent(random.Random(0), config.QUICK_SIZES)
    run_rep(rep)                      # verifies: the honest output passes
    row = next(iter(rep.db.table("T_s").scan()))
    row.values["info"] = "tampered"
    with pytest.raises(oracle.OracleMismatch):
        rep.verify()


def test_oracle_rejects_a_lost_commit():
    rep = REPS["oltp_durable"](random.Random(0), config.QUICK_SIZES)
    run_rep(rep)
    # An acknowledged commit the recovered database does not have.
    rep.model.apply([("acct", (0,), {"bal": -1.0})])
    with pytest.raises(oracle.OracleMismatch):
        rep.verify()
