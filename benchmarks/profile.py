"""cProfile of one repetition of a ledger workload: the profile before code.

    python3 benchmarks/profile.py WORKLOAD [--seed N] [--top 30]
        [--sort tottime|cumtime] [--quick] [--heap | --drain]

Builds the repetition the ledger would (``benchmarks.wallclock.workloads``,
imported read-only), runs ``setup()`` unprofiled and ``timed(False)`` under
``cProfile``, verifies the output, and prints the top functions plus the
total call count -- and, where the timed section is one initial
population (``split_quiescent``), the calls per source row.  cProfile
taxes every Python call and no native one, so shares shift: find
candidates here, measure with ``benchmarks/pairs.py``.

``--drain`` is the same for a propagation claim, on a workload whose
set-up leaves its transformation paused on a log backlog
(``foj_catchup``): it profiles only the transformation, stepped with the
live budget to the swap with no user load, then verifies the published
target.  Records propagated, wall seconds and records/s (all under
cProfile) come before the top functions.  ``foj_catchup`` has no
default mode: under cProfile its throttled catch-up never wins the race
against the live traffic, so its timed section cannot reach the swap.

``--heap`` is the same "profile before code" for a memory or collector
claim: no cProfile; resident MB after ``setup()``, after ``timed(False)``
and after ``verify()`` (the ledger's ``peak_rss_mb`` is the last column,
the process's high-water mark), then a census of the database by
component.  The census is ``sys.getsizeof`` bytes and the objects the
cyclic collector tracks, every object counted once, under the first
component that reaches it (log before rows): an insert image the row
shares with its log record is the log's.  A log is charged what it
keeps: the objects of its live tail, then -- never a decoded copy --
its frames (one row, bytes only: on the disk and in the log's memory)
and their offset index, the same two rows for a volatile and a durable
log.  It runs last because walking the heap allocates.  Two collector
lines close it: the process's tracked objects after set-up and after
the timed section (each after a full collection), and the census's
tracked objects per stored row (the tables' value, LSN and meta maps)
and per log record (what the log keeps over every record of the log);
a last line gives the frames' and the index's bytes per log record.
"""

import argparse
import os
import sys

_MB = 1024.0 * 1024.0


def _resident_mb():
    """(resident now, high-water mark) of this process, in MB."""
    import resource
    with open("/proc/self/statm") as statm:
        pages = int(statm.read().split()[1])
    return (pages * os.sysconf("SC_PAGE_SIZE") / _MB,
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)


def heap_census(db, extra_tables=()):
    """``[(component, objects, bytes, tracked)]`` for everything ``db``
    keeps; ``tracked`` counts the objects the cyclic collector walks.

    ``extra_tables`` are tables something else still references (the
    ledger keeps retired sources for its probe counts).  A table's rows
    are its three maps: values, LSNs and (for the rows that have any)
    metadata.
    """
    import gc

    from repro.wal.log import FIRST_LSN
    from repro.wal.records import LogRecord

    seen = set()
    rows = {}

    def add(component, obj):
        """Charge ``obj`` and what it contains to ``component``."""
        if id(obj) in seen:
            return
        seen.add(id(obj))
        entry = rows.setdefault(component, [0, 0, 0])
        entry[0] += 1
        entry[1] += sys.getsizeof(obj)
        entry[2] += gc.is_tracked(obj)
        if isinstance(obj, dict):
            for key, value in obj.items():
                add(component, key)
                add(component, value)
        elif isinstance(obj, (tuple, list, set, frozenset)):
            for item in obj:
                add(component, item)

    def add_record(record):
        add("log: record objects", record)
        for name in record.FIELDS:
            value = getattr(record, name)
            if isinstance(value, LogRecord):
                add_record(value)
            elif isinstance(value, dict):
                add(f"log: images ({name})", value)
            elif name in ("key", "split_value"):
                add("log: keys", value)
            else:
                add("log: other payload", value)

    # A log keeps objects for its live tail only; below it the records
    # are frames -- on the disk, or in the log's memory until written --
    # found through the offset index.
    log = db.log
    for record in log.records_slice(log.tail_lsn, log.end_lsn):
        add_record(record)
    on_disk = log.disk.size if log.disk is not None else 0
    rows["log: frames (bytes)"] = [log.tail_lsn - FIRST_LSN,
                                   on_disk + sys.getsizeof(log._frames), 0]
    add("log: frame index", log._offsets)
    if log.salvage is not None:
        add("log: salvage headers", log.salvage.codes)
        add("log: salvage headers", log.salvage.txn_ids)
    for table in stored_tables(db, extra_tables):
        add("rows: value map", table.rows)
        add("rows: LSN map", table.lsns)
        add("rows: meta map", table.metas)
        for index in table.indexes.values():
            add("tables: indexes", index._map)
    for txn in db.txns.active_txns():
        add("transaction blocks", txn)
        add("transaction blocks", txn.tables_touched)
    return [(name, count, size, tracked)
            for name, (count, size, tracked) in sorted(rows.items())]


def stored_tables(db, extra_tables=()):
    """Every table ``db``'s catalog reaches, zombies included, plus
    ``extra_tables``; each once."""
    tables = {id(t): t for t in extra_tables}
    for name in db.catalog.table_names() + db.catalog.zombie_names():
        table = db.catalog.get_any(name)
        tables[id(table)] = table
    return list(tables.values())


def _tracked_objects():
    """Objects the cyclic collector tracks, after a full collection."""
    import gc
    gc.collect()
    return len(gc.get_objects())


def heap_report(rep, args, out):
    """Run one repetition as the ledger does, unprofiled, and print
    where its bytes are and what the collector walks."""
    from benchmarks.wallclock.stats import GcWatch

    rep.setup()
    marks = [_resident_mb()]
    tracked = [_tracked_objects()]
    with GcWatch() as rep.watch:
        rep.timed(False)
    marks.append(_resident_mb())
    tracked.append(_tracked_objects())
    rep.verify()
    marks.append(_resident_mb())
    db = getattr(rep, "db", None) or rep.recovered
    tables = list(rep._probed.values())
    census = heap_census(db, tables)
    print(f"heap of {args.workload} (seed {args.seed}, "
          f"{'quick' if args.quick else 'paper'} sizes), MB", file=out)
    for label, (now, peak) in zip(("set-up", "timed", "verify()"), marks):
        print(f"  after {label:<9} resident {now:8.1f}   high-water "
              f"{peak:8.1f}", file=out)
    print(f"  {'component':<28}{'objects':>12}{'MB':>10}{'tracked':>12}",
          file=out)
    for name, count, size, walked in census:
        print(f"  {name:<28}{count:>12,}{size / _MB:>10.1f}{walked:>12,}",
              file=out)
    total = sum(size for _name, _count, size, _walked in census)
    print(f"  {'attributed':<28}{'':>12}{total / _MB:>10.1f}", file=out)
    print(f"  {'resident after timed, rest':<28}{'':>12}"
          f"{marks[1][0] - total / _MB:>10.1f}", file=out)

    def walked(prefix):
        return sum(w for name, _c, _s, w in census if name.startswith(prefix))

    stored = sum(len(table.rows) for table in stored_tables(db, tables))
    records = len(db.log)
    kept = db.log.end_lsn + 1 - db.log.tail_lsn
    print(f"collector: tracked objects after set-up {tracked[0]:,}, "
          f"after timed {tracked[1]:,}", file=out)
    print(f"collector: tracked per stored row "
          f"{walked('rows: ') / max(stored, 1):.4f} "
          f"({walked('rows: '):,} / {stored:,} rows), per log record "
          f"{walked('log: ') / max(records, 1):.4f} "
          f"({walked('log: '):,} / {records:,} records, {kept:,} kept "
          f"as objects)", file=out)
    framed = sum(size for name, _c, size, _w in census
                 if name in ("log: frames (bytes)", "log: frame index"))
    print(f"log: frames and offset index {framed / max(records, 1):.1f} "
          f"bytes per log record ({framed / _MB:.1f} MB / {records:,} "
          f"records)", file=out)


def drain(tf, profiler, args, out):
    """Step ``tf`` with the live budget until it has swapped, under
    ``profiler``, and print what it propagated and how fast."""
    import time

    from benchmarks.wallclock.config import TF_BUDGET_LIVE
    from repro.transform.base import Phase

    before = tf.stats["propagated_records"]
    started = time.perf_counter()
    profiler.enable()
    try:
        while tf.phase not in (Phase.BACKGROUND, Phase.DONE):
            tf.step(TF_BUDGET_LIVE)
    finally:
        profiler.disable()
    wall_s = time.perf_counter() - started
    records = tf.stats["propagated_records"] - before
    print(f"drain of {args.workload} (seed {args.seed}, "
          f"{'quick' if args.quick else 'paper'} sizes) to the swap, "
          f"step({TF_BUDGET_LIVE}), under cProfile: {records:,} records "
          f"in {wall_s:.3f} s = {records / wall_s:,.0f} records/s",
          file=out)


def main(argv=None, out=sys.stdout):
    # Imported here, not at the top: run as a script, this file's directory
    # leads sys.path until the block below swaps it out, and ``cProfile``
    # imports the stdlib module ``profile`` -- which would resolve to us.
    import cProfile
    import pstats

    from benchmarks.wallclock.config import PAPER_SIZES, QUICK_SIZES
    from benchmarks.wallclock.stats import GcWatch
    from benchmarks.wallclock.workloads import REPS, rep_rng

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(REPS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--top", type=int, default=30)
    parser.add_argument("--sort", choices=("tottime", "cumtime"),
                        default="tottime")
    parser.add_argument("--quick", action="store_true",
                        help="a tenth of the rows, as the ledger's --quick")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--heap", action="store_true",
                      help="resident MB per stage and a census by "
                           "component, instead of the cProfile")
    mode.add_argument("--drain", action="store_true",
                      help="profile the paused transformation's drain to "
                           "the swap, with no user load")
    args = parser.parse_args(argv)
    if args.workload == "foj_catchup" and not (args.heap or args.drain):
        parser.error("foj_catchup cannot reach its swap under cProfile; "
                     "use --drain (the catch-up alone) or --heap")

    sizes = QUICK_SIZES if args.quick else PAPER_SIZES
    rep = REPS[args.workload](rep_rng(args.seed, args.workload, 0), sizes)
    if args.heap:
        heap_report(rep, args, out)
        return 0
    rep.setup()
    profiler = cProfile.Profile()
    if args.drain:
        tf = getattr(rep, "tf", None)
        if tf is None:
            parser.error(f"--drain: {args.workload} leaves no paused "
                         f"transformation after set-up")
        drain(tf, profiler, args, out)
    else:
        with GcWatch() as rep.watch:
            profiler.enable()
            try:
                rep.timed(False)
            finally:
                profiler.disable()
    rep.verify()
    stats = pstats.Stats(profiler, stream=out)
    stats.strip_dirs().sort_stats(args.sort).print_stats(args.top)
    print(f"total calls: {stats.total_calls}", file=out)
    rows = rep.out.get("rows")
    if rows and not args.drain:
        # The timed section is one whole initial population.
        print(f"calls per source row: {stats.total_calls / rows:.2f} "
              f"({stats.total_calls:,} / {rows:,} rows)", file=out)
    return 0


if __name__ == "__main__":
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path[0:1] = [root, os.path.join(root, "src")]
    sys.exit(main())
