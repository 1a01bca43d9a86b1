#!/usr/bin/env python
"""Horizontal partition: move closed orders to an archive table, online.

The paper's further work (Section 7) asks for "methods for other
relational operators"; this example uses the library's horizontal
partition extension.  An ``orders`` table is split by status into
``orders_active`` and ``orders_archive`` while order-processing
transactions keep closing and amending orders -- including rows that
*migrate between the partitions* mid-transformation, the interesting case
the propagation rules must handle.

Run:  python examples/partition_archive.py
"""

import random

from repro.api import (
    AttrPredicate,
    Database,
    LockWaitError,
    NoSuchRowError,
    PartitionSpec,
    PartitionTransformation,
    Session,
    TableSchema,
    rows_equal,
)

N_ORDERS = 300
RNG = random.Random(7)


def main() -> None:
    db = Database()
    db.create_table(TableSchema(
        "orders", ["order_id", "status", "total"],
        primary_key=["order_id"]))
    with Session(db) as s:
        for i in range(N_ORDERS):
            s.insert("orders", {
                "order_id": i,
                "status": RNG.choice(["open", "shipped", "closed"]),
                "total": round(RNG.uniform(5, 500), 2)})

    spec = PartitionSpec(
        "orders", "orders_archive", "orders_active",
        predicate=AttrPredicate("status", "==", "closed"))
    transformation = PartitionTransformation(db, spec)

    processed = migrated = 0
    while not transformation.done:
        # Order processing continues: close orders (migrating them to the
        # archive side), amend totals, take new orders.
        try:
            with Session(db) as s:
                order = RNG.randrange(N_ORDERS)
                action = RNG.random()
                if action < 0.4:
                    s.update("orders", (order,), {"status": "closed"})
                    migrated += 1
                elif action < 0.8:
                    s.update("orders", (order,),
                             {"total": round(RNG.uniform(5, 500), 2)})
                else:
                    s.update("orders", (order,), {"status": "open"})
                processed += 1
        except (NoSuchRowError, LockWaitError):
            pass
        transformation.step(8)

    print(f"orders processed during the partition: {processed} "
          f"({migrated} status flips)")
    print(f"catalog: {db.catalog.table_names()}")
    archive = db.table("orders_archive")
    active = db.table("orders_active")
    print(f"archive rows: {archive.row_count}, active rows: "
          f"{active.row_count}")
    assert all(r.values["status"] == "closed" for r in archive.scan())
    assert all(r.values["status"] != "closed" for r in active.scan())
    print("partition invariant holds: every archived order is closed, "
          "every active one is not")


if __name__ == "__main__":
    main()
