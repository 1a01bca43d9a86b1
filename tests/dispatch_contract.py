"""The rule engines' dispatch contract, shared by the FOJ and split rule
tests: a stream applied through ``apply_run`` in arbitrary run splits must
touch exactly what it touches record by record through ``apply``."""


def _named(touched):
    return [(table.name, key) for table, key in touched]


def touched_per_record(engine, stream):
    """Apply ``stream`` through ``apply``; LSNs count from 1."""
    return [_named(engine.apply(record, lsn))
            for lsn, record in enumerate(stream, 1)]


def touched_in_random_runs(engine, stream, rng):
    """Apply ``stream`` through ``apply_run``: runs break where the
    (table, record class) changes, as in the propagation loop, and at
    random points besides."""
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
        items.append((record, lsn, 1))
    flush()
    return [_named(touched) for touched in got]
