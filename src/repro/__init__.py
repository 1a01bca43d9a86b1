"""repro: Online, Non-blocking Relational Schema Changes.

A faithful, self-contained reproduction of Løland & Hvasshovd,
*Online, Non-blocking Relational Schema Changes* (EDBT 2006): a
main-memory relational engine with ARIES-style logging and strict 2PL,
and on top of it the paper's log-redo-based framework for performing
full outer join and vertical split schema transformations without
blocking concurrent user transactions -- plus the companion operators
(explode, horizontal partition/merge, retype) and a declarative,
crash-resumable migration-plan API chaining them.

Quickstart::

    from repro import Database, Session, TableSchema
    from repro import MigrationPlan, run_plan

    db = Database()
    db.create_table(TableSchema("R", ["a", "b", "c"], primary_key=["a"]))
    db.create_table(TableSchema("S", ["c", "d", "e"], primary_key=["c"]))
    with Session(db) as s:
        s.insert("R", {"a": 1, "b": "x", "c": 10})
        s.insert("S", {"c": 10, "d": "d1", "e": "e1"})

    plan = MigrationPlan.single("quickstart", "foj", {
        "r_name": "R", "s_name": "S", "target_name": "T",
        "join_attr_r": "c", "join_attr_s": "c"})
    report = run_plan(db, plan)
    print(report["steps"][0]["published"])   # {'T': 1}

See ``examples/`` for concurrent-workload scenarios and ``benchmarks/``
for the reproduction of the paper's evaluation (Figure 4).
"""

from repro import api
from repro.api import *  # noqa: F401,F403 -- the facade is the surface
from repro.faults import NULL_FAULTS, SITE_REGISTRY, register_site, \
    sites_by_layer
from repro.obs import Counter, EventRing, Histogram, TraceEvent

__version__ = "1.0.0"

#: ``repro.api``'s names plus the fault-site registry and the raw metric
#: types, which only the package root exports.
__all__ = [
    *api.__all__,
    "Counter",
    "EventRing",
    "Histogram",
    "NULL_FAULTS",
    "SITE_REGISTRY",
    "TraceEvent",
    "register_site",
    "sites_by_layer",
    "__version__",
]
