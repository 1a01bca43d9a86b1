"""The scenario corpus: one source for plans, workloads and oracles.

Each :class:`CorpusScenario` is a complete experiment as plain data:
source schemas with their seed rows, a declarative
:class:`~repro.plan.spec.MigrationPlan` and, for the single-step
scenarios, a :class:`Workload` -- the user activity that runs beside the
change.  The oracle is not stored: :meth:`CorpusScenario.fold` folds the
plan's steps over any rows of the sources with each step's spec's
``reference`` (built through :data:`repro.plan.operators.PLAN_OPERATORS`);
:meth:`~CorpusScenario.expected` applies it to the seeds, and the crash
sweep and chaos layer (:mod:`repro.faults.sweep`) to the committed state
a surviving log defines.  Every rig enumerates :data:`CORPUS`:
``python -m benchmarks.plan_corpus`` (clean run plus crash-resume of
every plan), ``python -m benchmarks.fault_sweep`` and
``tests/fault_matrix.py`` (a crash at every crossed site of every
workload-carrying scenario) and ``python -m benchmarks.chaos_soak``.

The scenarios come from the schema-evolution *Challenge Problems*
checklist (Edwards, Petricek & van der Storm, arXiv:2309.11406) -- the
recurring migrations every schema-evolution tool is asked to handle;
each scenario's ``challenge`` names its row (the table is in
``docs/paper_mapping.md``).  The seeds are dirty on purpose: dangling
references, NULL lists and join values, duplicate elements,
blank-padded casts.

Every registered plan operator has exactly one workload-carrying
scenario (:data:`WORKLOAD_SCENARIOS`).  The multi-step chain carries no
workload: its crash coverage is the plan-corpus crash-resume slice, and
the sweep starts and aborts its first step as a :data:`BYSTANDER`
beside the scenario under test.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.engine.database import Database
from repro.plan.operators import PLAN_OPERATORS
from repro.plan.spec import MigrationPlan, MigrationStep
from repro.relational.operators import rows_diff
from repro.storage.schema import TableSchema

Row = Dict[str, object]
Rows = List[Row]
#: One user operation: ``("i", table, values)``, ``("u", table, key,
#: changes)`` or ``("d", table, key)``.
Op = Tuple
#: One scripted transaction: its operations and whether it aborts.
Txn = Tuple[Tuple[Op, ...], bool]


def _ins(table: str, **values: object) -> Op:
    return "i", table, values


def _upd(table: str, key: object, **changes: object) -> Op:
    return "u", table, (key,), changes


def _del(table: str, key: object) -> Op:
    return "d", table, (key,)


def _txn(*ops: Op, abort: bool = False) -> Txn:
    return ops, abort


@dataclass(frozen=True)
class Workload:
    """The user activity a crash or chaos run interleaves with the plan.

    Plain data over the scenario's own tables; the driver
    (:class:`repro.faults.sweep.ScenarioRun`) decides *when* each piece
    runs relative to the transformation's phases.

    Attributes:
        script: Transactions run one per step while the transformation
            populates and propagates.
        long_op: First write of the long-lived transaction the
            synchronization strategies disagree about (drained, doomed,
            or carried across the swap).
        long_post_swap_op: Its second write, after the swap, when the
            strategy lets it live on (zombie namespace / pinned epoch).
        probes: Inserts into the published tables after the change.
        lazy_reads: ``(table, key)`` reads issued after the first tiny
            step of a ``:lazy`` run: they miss into unmigrated records.
        variants: Option suffixes the sweep runs beside the plain
            scenario: ``"@N"`` is ``shards=N``, ``":<mode>"`` is
            ``population_mode=<mode>``, ``":view"`` a published view,
            ``":rename"`` ``materialize_r=False``; they compose
            (``":lazy@3"``).
    """

    script: Tuple[Txn, ...]
    long_op: Op
    long_post_swap_op: Op
    probes: Tuple[Op, ...]
    lazy_reads: Tuple[Tuple[str, Tuple], ...] = ()
    variants: Tuple[str, ...] = ()

    def ops(self) -> List[Op]:
        """Every scripted operation, the long transaction's included."""
        return [op for ops, _ in self.script for op in ops] + \
            [self.long_op, self.long_post_swap_op, *self.probes]


def diff_tables(db: Database, expected: Dict[str, Rows]) -> List[str]:
    """Where ``db`` departs from ``expected`` (table name -> rows): one
    message per missing table and per table whose rows differ as
    multisets, printing both sides in canonical form."""
    problems: List[str] = []
    for name, want in sorted(expected.items()):
        if not db.catalog.exists(name):
            problems.append(f"table {name!r} missing")
            continue
        got = [dict(r.values) for r in db.catalog.get_any(name).scan()]
        problem = rows_diff(name, got, want)
        if problem:
            problems.append(problem)
    return problems


@dataclass(frozen=True)
class CorpusScenario:
    """One challenge-problem migration: seeds, plan, workload.

    Attributes:
        name: Corpus key (see the module docstring's table).
        challenge: The checklist row the scenario reproduces.
        seeds: Source schemas with their initial rows.
        plan: The declarative migration to run.
        workload: User activity for the crash sweep and the chaos layer;
            ``None`` for a scenario only the plan-corpus rig runs.
    """

    name: str
    challenge: str
    seeds: Tuple[Tuple[TableSchema, Tuple[Row, ...]], ...]
    plan: MigrationPlan
    workload: Optional[Workload] = None

    def build(self, db: Database) -> None:
        """Create and populate the scenario's source tables."""
        for schema, rows in self.seeds:
            db.create_table(schema)
            txn = db.begin()
            for values in rows:
                db.insert(txn, schema.name, dict(values))
            db.commit(txn)

    def fold(self, rows_by_table: Dict[str, Rows]) -> Dict[str, Rows]:
        """The tables the plan leaves behind, given its sources' rows.

        Folds the steps' specs' ``reference`` oracles in plan order
        (each spec built once), threading
        the simulated catalog exactly as the validator does (``- retired
        + published``) -- computed by the reference operators, never by
        the online machinery under test.
        """
        schemas = {schema.name: schema for schema, _ in self.seeds}
        tables = {name: list(rows_by_table.get(name, ()))
                  for name in schemas}
        for step in self.plan.steps:
            spec = PLAN_OPERATORS[step.operator].spec(schemas, step.params)
            produced = spec.reference(schemas, tables)
            published = spec.published(schemas)
            for name in spec.sources:
                del schemas[name], tables[name]
            schemas.update(published)
            tables.update(produced)
        return tables

    def expected(self) -> Dict[str, Rows]:
        """Offline oracle: final table name -> rows, from the seeds."""
        return self.fold({schema.name: [dict(r) for r in rows]
                          for schema, rows in self.seeds})

    def verify(self, db: Database) -> List[str]:
        """Compare the database against the oracle; returns mismatches."""
        return [f"{self.name}: {problem}"
                for problem in diff_tables(db, self.expected())]


# -- seeds -------------------------------------------------------------------

_BOOK = TableSchema("book", ["bid", "title", "pub_id"],
                    primary_key=("bid",))
_PUB = TableSchema("pub", ["pid", "pname", "city"], primary_key=("pid",))
_BOOK_ROWS = (
    {"bid": 1, "title": "WAL Design", "pub_id": "p1"},
    {"bid": 2, "title": "Fuzzy Scans", "pub_id": "p1"},
    {"bid": 3, "title": "Log Rules", "pub_id": "p2"},
    {"bid": 4, "title": "Latches", "pub_id": "p9"},   # dangling reference
    {"bid": 5, "title": "Snapshots", "pub_id": "p2"},
)
_PUB_ROWS = (
    {"pid": "p1", "pname": "Acme Press", "city": "Oslo"},
    {"pid": "p2", "pname": "EDBT House", "city": "Munich"},
    {"pid": "p3", "pname": "Idle Books", "city": "Bergen"},  # unmatched
)

_AUTHOR = TableSchema("author", ["aid", "aname", "topic"],
                      primary_key=("aid",))
_VENUE = TableSchema("venue", ["vid", "vname", "topic"],
                     primary_key=("vid",))
_AUTHOR_ROWS = (
    {"aid": 1, "aname": "ada", "topic": "wal"},
    {"aid": 2, "aname": "bob", "topic": "wal"},
    {"aid": 3, "aname": "cyn", "topic": "mvcc"},
    {"aid": 4, "aname": "dee", "topic": "gc"},      # no venue takes it
    {"aid": 5, "aname": "eli", "topic": None},      # NULL never joins
    {"aid": 6, "aname": "fay", "topic": "mvcc"},
)
_VENUE_ROWS = (
    {"vid": "v1", "vname": "EDBT", "topic": "wal"},
    {"vid": "v2", "vname": "VLDB", "topic": "wal"},  # wal: 2 x 2 pairs
    {"vid": "v3", "vname": "SIGMOD", "topic": "mvcc"},
    {"vid": "v4", "vname": "ICDE", "topic": "locks"},  # unmatched
)

_TRACK = TableSchema("track", ["tid", "title", "album", "artist"],
                     primary_key=("tid",))
_TRACK_ROWS = (
    {"tid": 1, "title": "Prepare", "album": "Phases", "artist": "The Scans"},
    {"tid": 2, "title": "Populate", "album": "Phases", "artist": "The Scans"},
    {"tid": 3, "title": "Propagate", "album": "Phases",
     "artist": "The Scans"},
    {"tid": 4, "title": "Sync", "album": "Locks", "artist": "Latch Choir"},
    {"tid": 5, "title": "Swap", "album": "Locks", "artist": "Latch Choir"},
)

_EMP = TableSchema("emp", ["eid", "ename", "dept_id"], primary_key=("eid",))
_DEPT = TableSchema("dept", ["did", "dname", "floor"], primary_key=("did",))
_EMP_ROWS = (
    {"eid": 1, "ename": "ada", "dept_id": "d1"},
    {"eid": 2, "ename": "bob", "dept_id": "d1"},
    {"eid": 3, "ename": "cyn", "dept_id": "d2"},
    {"eid": 4, "ename": "dee", "dept_id": "d9"},   # dangling department
    {"eid": 5, "ename": "eli", "dept_id": "d2"},
)
_DEPT_ROWS = (
    {"did": "d1", "dname": "storage", "floor": 2},
    {"did": "d2", "dname": "recovery", "floor": 3},
)

_DOC = TableSchema("doc", ["id", "title", "tags"], primary_key=("id",))
_DOC_ROWS = (
    {"id": 1, "title": "intro", "tags": "wal,log"},
    {"id": 2, "title": "design", "tags": "schema"},
    {"id": 3, "title": "eval", "tags": None},        # null-padded child
    {"id": 4, "title": "relwork", "tags": "wal,schema,log"},
    {"id": 5, "title": "appendix", "tags": "log,log"},  # deduplicated
)

_ORDERS = TableSchema("orders", ["oid", "region", "qty"],
                      primary_key=("oid",))
_ORDERS_ROWS = (
    {"oid": 1, "region": "eu", "qty": 3},
    {"oid": 2, "region": "us", "qty": 1},
    {"oid": 3, "region": "eu", "qty": 7},
    {"oid": 4, "region": "ap", "qty": 2},
    {"oid": 5, "region": None, "qty": 5},            # NULL compares false
    {"oid": 6, "region": "eu", "qty": 4},
)

_EVT_A = TableSchema("evt_a", ["eid", "payload"], primary_key=("eid",))
_EVT_B = TableSchema("evt_b", ["eid", "payload"], primary_key=("eid",))
_EVT_A_ROWS = tuple({"eid": i, "payload": f"a{i}"} for i in (2, 4, 6, 8))
_EVT_B_ROWS = tuple({"eid": i, "payload": f"b{i}"} for i in (1, 3, 5, 7))

_READING = TableSchema("reading", ["rid", "label", "value", "note"],
                       primary_key=("rid",))
_READING_ROWS = (
    {"rid": 1, "label": "t0", "value": "17", "note": "n0"},
    {"rid": 2, "label": "t1", "value": " 42 ", "note": None},  # blanks
    {"rid": 3, "label": "t2", "value": None, "note": "n2"},  # new default
    {"rid": 4, "label": "t3", "value": "0", "note": "n3"},
    {"rid": 5, "label": "t4", "value": "-3", "note": "n4"},
)



# -- the corpus ---------------------------------------------------------------

CORPUS: Tuple[CorpusScenario, ...] = (
    CorpusScenario(
        name="denormalize-foj",
        challenge="inline an association: denormalize two tables into one",
        seeds=((_BOOK, _BOOK_ROWS), (_PUB, _PUB_ROWS)),
        plan=MigrationPlan.single(
            "corpus.denormalize-foj", "foj",
            {"r_name": "book", "s_name": "pub", "target_name": "book_pub",
             "join_attr_r": "pub_id", "join_attr_s": "pid"},
            description="denormalize book/pub into one joined table"),
        workload=Workload(
            script=(
                # The S-side update first: it lands while log propagation
                # is still running, which under shards > 1 makes it an
                # unrouted record (S rows fan out across every shard's
                # carriers).
                _txn(_upd("pub", "p1", pname="Acme Intl")),
                _txn(_ins("book", bid=20, title="Epochs", pub_id="p2")),
                _txn(_del("book", 5)),
                _txn(_upd("book", 2, title="mX"), abort=True),
                # The dangling reference of book 4 gets its publisher.
                _txn(_ins("pub", pid="p9", pname="Nine", city="Turku")),
                _txn(_upd("book", 3, title="Log Rules 2e")),
                _txn(_ins("book", bid=21, title="Zombies", pub_id="p9")),
            ),
            long_op=_upd("book", 1, title="L0"),
            long_post_swap_op=_upd("book", 1, title="Lz"),
            lazy_reads=(("book", (3,)), ("book", (4,)), ("book", (5,)),
                        ("pub", ("p2",))),
            probes=(_ins("book_pub", bid=95001, title="probe",
                         pub_id="p-probe"),),
            variants=("@2", ":lazy", ":view", ":blocking", ":trigger"))),
    CorpusScenario(
        name="associate-m2m",
        challenge="inline a many-to-many association (join on an "
                  "attribute unique on neither side)",
        seeds=((_AUTHOR, _AUTHOR_ROWS), (_VENUE, _VENUE_ROWS)),
        plan=MigrationPlan.single(
            "corpus.associate-m2m", "foj_m2m",
            {"r_name": "author", "s_name": "venue",
             "target_name": "author_venue",
             "join_attr_r": "topic", "join_attr_s": "topic"},
            description="pair each author with every venue of their topic"),
        workload=Workload(
            script=(
                _txn(_upd("venue", "v1", vname="EDBT 2006")),
                _txn(_ins("author", aid=20, aname="gus", topic="mvcc")),
                _txn(_del("author", 2)),
                _txn(_upd("author", 3, aname="mX"), abort=True),
                # A first venue for topic gc: author 4's placeholder row
                # is replaced by a real pair.
                _txn(_ins("venue", vid="v9", vname="ISMM", topic="gc")),
                # Join-attribute change: author 6 leaves every mvcc pair
                # and joins both wal venues.
                _txn(_upd("author", 6, topic="wal")),
                _txn(_ins("author", aid=21, aname="hal", topic="gc")),
                _txn(_del("venue", "v3")),
            ),
            long_op=_upd("author", 1, aname="L0"),
            long_post_swap_op=_upd("author", 1, aname="Lz"),
            probes=(_ins("author_venue", aid=95001, aname="probe",
                         topic="probe", vid="v-probe", vname="probe"),),
            variants=(":blocking",))),
    CorpusScenario(
        name="normalize-split",
        challenge="normalize a denormalized table (extract a dependency)",
        seeds=((_TRACK, _TRACK_ROWS),),
        plan=MigrationPlan.single(
            "corpus.normalize-split", "split",
            {"source_name": "track", "r_name": "track_base",
             "s_name": "album", "split_attr": "album",
             "s_attrs": ["artist"],
             # The consistency checker of Section 5.3 runs, and waits
             # out a value whose contributors momentarily disagree.
             "check_consistency": True, "on_inconsistent": "wait"},
            description="extract album/artist out of the track table"),
        workload=Workload(
            script=(
                _txn(_ins("track", tid=20, title="Flip", album="Locks",
                          artist="Latch Choir")),
                # Touch every contributor of album Phases in one
                # transaction: each update U-flags the S record (counter
                # > 1), the consistency checker later finds the
                # contributors agreeing on the new artist.
                _txn(_upd("track", 1, artist="The Cursors"),
                     _upd("track", 2, artist="The Cursors"),
                     _upd("track", 3, artist="The Cursors")),
                _txn(_del("track", 5)),
                _txn(_upd("track", 2, title="mX"), abort=True),
                _txn(_upd("track", 3, title="Propagate!")),
                _txn(_ins("track", tid=21, title="Retire", album="Coda",
                          artist="Solo")),
            ),
            long_op=_upd("track", 4, title="Ln"),
            long_post_swap_op=_upd("track", 4, title="Lz"),
            lazy_reads=(("track", (2,)), ("track", (3,)),
                        ("track", (5,))),
            probes=(_ins("track_base", tid=95001, title="probe",
                         album="probe-lp"),
                    _ins("album", album="probe-lp2", artist="probe")),
            variants=("@3", ":lazy@3", ":blocking", ":trigger",
                      ":rename"))),
    CorpusScenario(
        name="chain-foj-split",
        challenge="a multi-step change: denormalize, then re-normalize "
                  "along a different functional dependency",
        seeds=((_EMP, _EMP_ROWS), (_DEPT, _DEPT_ROWS)),
        plan=MigrationPlan(
            plan_id="corpus.chain-foj-split",
            steps=(
                MigrationStep(
                    step_id="join", operator="foj",
                    params={"r_name": "emp", "s_name": "dept",
                            "target_name": "emp_dept",
                            "join_attr_r": "dept_id",
                            "join_attr_s": "did"}),
                MigrationStep(
                    step_id="split", operator="split",
                    params={"source_name": "emp_dept", "r_name": "staff",
                            "s_name": "dept_info",
                            "split_attr": "dept_id",
                            "s_attrs": ["dname", "floor"]}),
            ),
            description="join emp+dept, then split the result into "
                        "staff+dept_info")),
    CorpusScenario(
        name="tags-explode",
        challenge="turn a scalar field into a collection "
                  "(one row per element)",
        seeds=((_DOC, _DOC_ROWS),),
        plan=MigrationPlan.single(
            "corpus.tags-explode", "explode",
            {"source_name": "doc", "target_name": "doc_tag",
             "list_attr": "tags", "value_attr": "tag"},
            description="explode the comma-joined tags column"),
        workload=Workload(
            script=(
                # Sibling-group reconcile: one element survives (schema),
                # two vanish (wal, log), one appears (mvcc).
                _txn(_upd("doc", 4, tags="schema,mvcc")),
                _txn(_ins("doc", id=20, title="faq", tags="log,wal")),
                _txn(_del("doc", 2)),
                _txn(_upd("doc", 3, title="mX"), abort=True),
                # Kept-attribute change fanned out to all children.
                _txn(_upd("doc", 4, title="related")),
                # NULL list rewritten to elements, and vice versa.
                _txn(_upd("doc", 3, tags="n1,n2")),
                _txn(_upd("doc", 5, tags=None)),
            ),
            long_op=_upd("doc", 1, title="L0"),
            long_post_swap_op=_upd("doc", 1, title="Lz"),
            lazy_reads=(("doc", (2,)), ("doc", (4,)), ("doc", (5,))),
            probes=(_ins("doc_tag", id=95001, title="probe", tag="p"),),
            variants=(":lazy@2", ":blocking", ":trigger"))),
    CorpusScenario(
        name="archive-partition",
        challenge="partition rows by a predicate into hot/cold tables",
        seeds=((_ORDERS, _ORDERS_ROWS),),
        plan=MigrationPlan.single(
            "corpus.archive-partition", "partition",
            {"source_name": "orders", "a_name": "orders_eu",
             "b_name": "orders_intl",
             "predicate": {"attr": "region", "op": "==", "value": "eu"}},
            description="partition orders by region"),
        workload=Workload(
            script=(
                # Predicate verdict flips: the row moves between sides.
                _txn(_upd("orders", 2, region="eu")),
                _txn(_ins("orders", oid=20, region="eu", qty=20)),
                _txn(_del("orders", 4)),
                _txn(_upd("orders", 6, qty=66), abort=True),
                _txn(_upd("orders", 3, region="us")),
                _txn(_ins("orders", oid=21, region="ap", qty=21)),
            ),
            long_op=_upd("orders", 1, qty=100),
            long_post_swap_op=_upd("orders", 1, qty=101),
            probes=(_ins("orders_eu", oid=95001, region="eu", qty=1),
                    _ins("orders_intl", oid=95002, region="us", qty=2)),
            variants=(":blocking",))),
    CorpusScenario(
        name="reunify-merge",
        challenge="reunify a previously partitioned pair of tables",
        seeds=((_EVT_A, _EVT_A_ROWS), (_EVT_B, _EVT_B_ROWS)),
        plan=MigrationPlan.single(
            "corpus.reunify-merge", "merge",
            {"a_name": "evt_a", "b_name": "evt_b", "target_name": "evt"},
            description="merge the two event shards back into one table"),
        workload=Workload(
            script=(
                _txn(_upd("evt_b", 1, payload="bX")),
                _txn(_ins("evt_a", eid=20, payload="a20")),
                _txn(_del("evt_b", 3)),
                _txn(_upd("evt_a", 4, payload="mX"), abort=True),
                _txn(_ins("evt_b", eid=21, payload="b21")),
                _txn(_del("evt_a", 6)),
            ),
            long_op=_upd("evt_a", 2, payload="L0"),
            long_post_swap_op=_upd("evt_a", 2, payload="Lz"),
            probes=(_ins("evt", eid=95001, payload="probe"),),
            variants=(":blocking",))),
    CorpusScenario(
        name="retype-default",
        challenge="change a field's type and its NULL default; add, "
                  "rename and remove fields",
        seeds=((_READING, _READING_ROWS),),
        plan=MigrationPlan.single(
            "corpus.retype-default", "retype",
            {"source_name": "reading", "target_name": "reading",
             "attr": "value", "cast": "int", "default": 0,
             "rename": {"label": "name"}, "add": {"unit": "C"},
             "drop": ["note"]},
            description="retype reading.value from string to int (NULLs "
                        "become 0), rename label to name, add unit, drop "
                        "note -- in place"),
        workload=Workload(
            script=(
                # Retyped-column change: the rule must cast it in flight.
                _txn(_upd("reading", 2, value="41")),
                _txn(_ins("reading", rid=20, label="t20", value=" 99")),
                _txn(_del("reading", 4)),
                _txn(_upd("reading", 3, label="mX"), abort=True),
                _txn(_upd("reading", 5, value=None, note="n5")),
                _txn(_ins("reading", rid=21, label="t21", value=None)),
            ),
            # The long transaction writes the old shape through the
            # in-place zombie, dropped column included.
            long_op=_upd("reading", 1, label="L0"),
            long_post_swap_op=_upd("reading", 1, label="Lz", note="nz"),
            lazy_reads=(("reading", (2,)), ("reading", (4,)),
                        ("reading", (5,))),
            probes=(_ins("reading", rid=95001, name="probe",
                         value=95001, unit="K"),),
            variants=(":lazy", ":blocking", ":trigger"))),
)

CORPUS_BY_NAME: Dict[str, CorpusScenario] = {s.name: s for s in CORPUS}

#: The workload-carrying scenarios by the plan operator they exercise --
#: what the sweep's and the chaos layer's operator labels resolve to.
WORKLOAD_SCENARIOS: Dict[str, CorpusScenario] = {
    s.plan.steps[0].operator: s for s in CORPUS if s.workload is not None}

#: The scenario whose first step the crash sweep starts and aborts beside
#: the one under test (its tables collide with no other scenario's).
BYSTANDER: CorpusScenario = CORPUS_BY_NAME["chain-foj-split"]


def get_scenario(name: str) -> CorpusScenario:
    """Look up one corpus scenario, enumerating the corpus on a miss."""
    try:
        return CORPUS_BY_NAME[name]
    except KeyError:
        raise KeyError(f"unknown corpus scenario {name!r}; available: "
                       f"{sorted(CORPUS_BY_NAME)}") from None
