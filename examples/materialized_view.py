#!/usr/bin/env python
"""Build a denormalized reporting view online, then keep it fresh.

Section 7: "Non-blocking population of tables may have other important
usages than schema changes.  Using the technique to create other types of
derived tables like Materialized Views is an obvious example."

An ``account`` table joins a ``branch`` table into a reporting view --
built with a fuzzy read plus log propagation (no blocking read, unlike
classic MV initialization, Section 2.3), published next to the sources,
and thereafter maintained as a *deferred* view: changes flow in whenever
the maintainer gets cycles.

Run:  python examples/materialized_view.py
"""

import random

from repro.api import (
    Database,
    FojSpec,
    LockWaitError,
    MaterializedFojView,
    NoSuchRowError,
    Session,
    TableSchema,
    full_outer_join,
    rows_equal,
)

RNG = random.Random(99)
N_ACCOUNTS, N_BRANCHES = 300, 12


def main() -> None:
    db = Database()
    db.create_table(TableSchema(
        "account", ["acct", "owner", "branch_id", "balance"],
        primary_key=["acct"]))
    db.create_table(TableSchema(
        "branch", ["branch_id", "city", "manager"],
        primary_key=["branch_id"]))
    with Session(db) as s:
        for b in range(N_BRANCHES):
            s.insert("branch", {"branch_id": b, "city": f"city-{b}",
                                "manager": f"mgr-{b}"})
        for a in range(N_ACCOUNTS):
            s.insert("account", {"acct": a, "owner": f"owner-{a}",
                                 "branch_id": RNG.randrange(N_BRANCHES),
                                 "balance": 100.0})

    spec = FojSpec.derive(db.table("account").schema,
                          db.table("branch").schema,
                          target_name="account_report",
                          join_attr_r="branch_id", join_attr_s="branch_id")
    view = MaterializedFojView(db, spec)

    # Build the view while banking transactions run.
    banked = 0
    while not view.published:
        try:
            with Session(db) as s:
                acct = RNG.randrange(N_ACCOUNTS)
                s.update("account", (acct,),
                         {"balance": round(RNG.uniform(0, 1000), 2)})
            banked += 1
        except (NoSuchRowError, LockWaitError):
            pass
        view.step(8)

    print(f"view published; {banked} transactions ran during the build")
    print(f"catalog: {db.catalog.table_names()}  (sources intact)")

    # Deferred maintenance: changes accumulate, then the maintainer runs.
    with Session(db) as s:
        s.update("account", (0,), {"branch_id": 1})
        s.update("branch", (1,), {"manager": "new-manager"})
    print(f"staleness before maintenance: {view.staleness} log records")
    view.refresh()
    print(f"staleness after refresh: {view.staleness}")

    expected = full_outer_join(
        spec,
        [dict(r.values) for r in db.table("account").scan()],
        [dict(r.values) for r in db.table("branch").scan()])
    got = [dict(r.values) for r in db.table("account_report").scan()]
    assert rows_equal(got, expected)
    row = db.table("account_report").get((0,))
    print(f"account 0 in the view: {row.values}")
    print("view equals the join of the live sources -- maintained online.")


if __name__ == "__main__":
    main()
