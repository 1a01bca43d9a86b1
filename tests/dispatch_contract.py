"""The rule engines' dispatch contract, shared by every engine's tests.

A stream of data changes applied through ``apply_run`` in arbitrary run
splits must touch exactly what it touches record by record through
``apply`` while its owner is live, and touch nothing -- with target rows
identical all the same -- when the owner is ``0`` (finished)."""


def _named(touched):
    return [(table.name, key) for table, key in touched]


def touched_per_record(engine, stream):
    """Apply ``stream`` through ``apply``; LSNs count from 1."""
    return [_named(engine.apply(record, lsn))
            for lsn, record in enumerate(stream, 1)]


def touched_in_random_runs(engine, stream, rng, owner=1):
    """Apply ``stream`` through ``apply_run`` on behalf of ``owner``: runs
    break where the (table, record class) changes, as in the propagation
    loop, and at random points besides."""
    got, items = [], []

    def flush():
        head = items[0][0]
        got.extend(engine.apply_run(head.table, type(head), items))
        del items[:]

    for lsn, record in enumerate(stream, 1):
        if items and ((record.table, type(record)) !=
                      (items[0][0].table, type(items[0][0]))
                      or rng.random() < 0.3):
            flush()
        items.append((record, lsn, owner))
    flush()
    return [_named(touched) for touched in got]


def check_dispatch_contract(make_engine, stream, rng, state):
    """Apply ``stream`` to three fresh engines from ``make_engine()``
    (which returns ``(engine, target tables)``): through ``apply``, and
    through ``apply_run`` in random runs for a live owner and for owner
    ``0``.  Asserts the contract; returns the per-record touched lists.
    ``state(table)`` is the row image the three must agree on."""
    one, one_tables = make_engine()
    live, live_tables = make_engine()
    done, done_tables = make_engine()
    expected = touched_per_record(one, stream)
    assert touched_in_random_runs(live, stream, rng, owner=7) == expected
    assert touched_in_random_runs(done, stream, rng, owner=0) == \
        [[] for _ in stream]
    images = [state(table) for table in one_tables]
    assert [state(table) for table in live_tables] == images
    assert [state(table) for table in done_tables] == images
    return expected
