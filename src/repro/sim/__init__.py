"""Discrete-event performance simulator: the evaluation substrate.

Replaces the paper's 6-node cluster testbed (see DESIGN.md, Section 2)
with a deterministic capacity-sharing model: a single simulated server
processes user operations FIFO while granting the transformation a
priority-bounded share of its capacity, plus all idle capacity for free.
"""

from repro.sim.events import Simulator
from repro.sim.experiments import (
    RunSettings,
    Scenario,
    build_foj_scenario,
    build_split_scenario,
    calibrate_max_workload,
    clients_for_workload,
    keep_up_priority,
    run_once,
    run_relative,
    scale_factor,
)
from repro.sim.metrics import MetricsCollector, RelativeResult, RunResult
from repro.sim.server import Job, Server
from repro.sim.workload import Client, ClientPool, UpdateTarget, Workload

__all__ = [
    "Client",
    "ClientPool",
    "Job",
    "MetricsCollector",
    "RelativeResult",
    "RunResult",
    "RunSettings",
    "Scenario",
    "Server",
    "Simulator",
    "UpdateTarget",
    "Workload",
    "build_foj_scenario",
    "build_split_scenario",
    "calibrate_max_workload",
    "clients_for_workload",
    "keep_up_priority",
    "run_once",
    "run_relative",
    "scale_factor",
]
