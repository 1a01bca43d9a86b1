"""The self-time arithmetic on a synthetic span tree, and that the
wrappers go on and come off without leaving a trace in the engine."""

from benchmarks.wallclock.tracer import Tracer, load, self_times


def test_self_time_is_duration_minus_direct_children():
    # index  name  [start, end)   parent
    #   0     A     0 .. 100       root
    #   1     B    10 ..  40       A
    #   2     C    15 ..  25       B
    #   3     B    50 ..  90       A
    #   4     D   100 .. 130       root (a second tree)
    A, B, C, D = 0, 1, 2, 3
    names = [A, B, C, B, D]
    starts = [0, 10, 15, 50, 100]
    ends = [100, 40, 25, 90, 130]
    parents = [-1, 0, 1, 0, -1]
    got = self_times(names, starts, ends, parents)
    # (count, total, self, max)
    assert got[A] == (1, 100, 100 - 30 - 40, 100)
    assert got[B] == (2, 70, (30 - 10) + 40, 40)
    assert got[C] == (1, 10, 10, 10)
    assert got[D] == (1, 30, 30, 30)
    # Self times partition the roots' durations: nothing is lost or
    # counted twice.
    assert sum(entry[2] for entry in got.values()) == 100 + 30


def test_wrappers_record_nested_spans_and_are_removed(tmp_path):
    from repro.api import Database, Session, TableSchema
    from repro.engine.database import Database as DatabaseClass
    from repro.storage.index import HashIndex

    before = (DatabaseClass.update, HashIndex.lookup)
    tracer = Tracer()
    db = Database()
    db.create_table(TableSchema("t", ["id", "v"], primary_key=["id"]))
    with Session(db) as session:
        session.insert("t", {"id": 1, "v": 0})
    with tracer.installed(), tracer.span("timed"):
        with Session(db) as session:
            session.update("t", (1,), {"v": 1})
    assert (DatabaseClass.update, HashIndex.lookup) == before
    with Session(db) as session:          # untraced again
        session.update("t", (1,), {"v": 2})

    spans = tracer.by_name()
    assert spans["Database.update"]["count"] == 1
    assert spans["Database.update"]["layer"] == "engine"
    assert spans["HashIndex.lookup"]["layer"] == "storage"
    assert spans["LogManager.append"]["count"] == 4   # begin/update/commit/end
    update = spans["Database.update"]
    assert 0 < update["self_s"] < update["total_s"]
    # Every layer's self time sums to the root's duration exactly.
    total_self = sum(s["self_s"] for s in spans.values())
    assert abs(total_self - spans["timed"]["total_s"]) < 1e-9
    # The update's lock acquisitions are its children.
    names = [tracer.names[i] for i in tracer.name_ids]
    update_at = names.index("Database.update")
    acquire_at = names.index("LockManager.acquire", update_at)
    assert tracer.parents[acquire_at] == update_at

    path = str(tmp_path / "spans.bin")
    tracer.dump(path, run_id="test/0/0")
    dumped = load(path)
    assert dumped["run_id"] == "test/0/0" and dumped["names"] == tracer.names
    assert dumped["start_ns"] == tracer.starts
    assert dumped["parent"] == tracer.parents
    # The file alone reproduces the analysis.
    assert self_times(dumped["name_id"], dumped["start_ns"],
                      dumped["end_ns"], dumped["parent"]) == self_times(
        tracer.name_ids, tracer.starts, tracer.ends, tracer.parents)
