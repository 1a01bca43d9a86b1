"""Unified configuration for the transformation framework.

:class:`TransformOptions` is the single, immutable bag of knobs accepted
by :class:`~repro.transform.base.Transformation` (and hence the FOJ and
split transformations) and by the simulator's scenario builders.  It replaces the per-call kwargs that used
to be scattered across constructors (``sync_strategy=``, ``shards=``,
...), which have been removed from the API.  How much work one step does
is not an option: it is the ``step(budget)`` argument, the paper's
transformation priority.

Synchronization strategies are selectable by *registry string* as well as
by enum member -- ``TransformOptions(sync="nonblocking_commit")`` -- so
callers of the stable :mod:`repro.api` facade never need to import the
enum.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from typing import Optional, Union

from repro.obs import Metrics
from repro.transform.analysis import PropagationPolicy


class SyncStrategy(Enum):
    """The three synchronization strategies of Section 3.4, plus the
    MVCC version flip (VLDB 2023): the schema change is installed as a
    versioned catalog write with no latched window -- requires
    ``storage="mvcc"``."""

    BLOCKING_COMMIT = "blocking_commit"
    NONBLOCKING_ABORT = "nonblocking_abort"
    NONBLOCKING_COMMIT = "nonblocking_commit"
    VERSION_FLIP = "version_flip"


#: Registry of synchronization strategies addressable by string.  The
#: strings are the Section 3.4 names, identical to the enum values.
SYNC_STRATEGIES = {member.value: member for member in SyncStrategy}

#: Initial-population modes: ``"eager"`` is the paper's fuzzy snapshot
#: scan (Section 3.2); ``"lazy"`` starts the target empty and migrates
#: each record on first access (read/update miss) while a budgeted
#: background sweeper drains the remainder -- the SLSM-style
#: migrate-on-read variant (see docs/paper_mapping.md).  The paper's two
#: baselines: ``"blocking"``, Section 1's ``INSERT INTO ... SELECT``
#: (block and drain, then copy), and ``"trigger"``, Ronström's method of
#: Section 2.1 (triggers inside user transactions during the scan).
POPULATION_MODES = ("eager", "lazy", "blocking", "trigger")

#: The modes migrating row by row beside user access (``supports_lazy``).
PER_ROW_MODES = ("lazy", "trigger")

#: Storage backends: ``"latch"`` is the paper's design (dirty fuzzy
#: scans, latched synchronization windows); ``"mvcc"`` enables the
#: multi-version overlay (:mod:`repro.storage.mvcc`) -- snapshot
#: population pins a read LSN instead of reading dirty, and the
#: ``version_flip`` sync strategy becomes available.
STORAGE_BACKENDS = ("latch", "mvcc")


def resolve_sync_strategy(
        sync: Union[SyncStrategy, str]) -> SyncStrategy:
    """Map a registry string (or enum member) to a :class:`SyncStrategy`.

    Raises :class:`ValueError` naming the available strategies when the
    string is unknown.
    """
    if isinstance(sync, SyncStrategy):
        return sync
    try:
        return SYNC_STRATEGIES[str(sync)]
    except KeyError:
        raise ValueError(
            f"unknown sync strategy {sync!r}; available: "
            f"{sorted(SYNC_STRATEGIES)}") from None


def population_problem(mode: str, sync: Union[SyncStrategy, str],
                       supports_lazy: bool = True) -> Optional[str]:
    """Why ``mode`` cannot run under ``sync`` on an engine that does
    (not) ``supports_lazy``, or ``None``: the one legality rule of the
    population modes."""
    if mode not in POPULATION_MODES:
        return (f"unknown population_mode {mode!r}; "
                f"available: {list(POPULATION_MODES)}")
    if mode == "blocking" and \
            resolve_sync_strategy(sync) is not SyncStrategy.BLOCKING_COMMIT:
        return ('population_mode="blocking" requires sync="blocking_commit" '
                "(its block-and-drain opens the population)")
    if mode in PER_ROW_MODES and not supports_lazy:
        return (f"population_mode={mode!r} requires an engine with "
                "per-record migration (supports_lazy), not an eager-only "
                "one")
    return None


@dataclass(frozen=True)
class TransformOptions:
    """Immutable configuration of one transformation run.

    Attributes:
        sync: Synchronization strategy -- an enum member or its registry
            string: the three of Section 3.4 (``"blocking_commit"``,
            ``"nonblocking_abort"``, ``"nonblocking_commit"``) or
            ``"version_flip"`` (requires ``storage="mvcc"``).
        shards: Hash-partitioned key-space shard accounts
            (:mod:`repro.shard`): each row the population scan hands out
            and each routed propagation apply is charged to its key's
            account, so a step costs what the busiest of N cores would
            spend.  Cost accounting only: each source table is still
            scanned once, in table order, and the log read once, in LSN
            order, through one cursor; 1 is the paper's sequential
            pipeline and keeps no accounts.
        metrics: Observability registry attached to the database
            (``None`` leaves the current attachment untouched).
        policy: End-of-iteration analysis policy (Section 3.3 analyses);
            ``None`` selects the default remaining-records policy.
        transform_id: Stable identifier used in fuzzy marks, latches and
            the catalog's swaps, which refuse one already in effect;
            generated, unique among them, when ``None``.
        population_mode: ``"eager"`` (the paper's fuzzy snapshot scan),
            ``"lazy"`` (access-triggered migrate-on-read with a budgeted
            background sweeper; row-identical to eager, only the
            population *order* differs), or a baseline of
            :data:`POPULATION_MODES`, ``"blocking"`` or ``"trigger"``.
        storage: ``"latch"`` (the paper's design) or ``"mvcc"`` (the
            multi-version overlay: committed version chains + pinned
            snapshot reads for population; required by -- and implied
            behaviour of -- the ``version_flip`` sync strategy).
    """

    sync: Union[SyncStrategy, str] = SyncStrategy.NONBLOCKING_ABORT
    shards: int = 1
    metrics: Optional[Metrics] = None
    policy: Optional[PropagationPolicy] = None
    transform_id: Optional[str] = None
    population_mode: str = "eager"
    storage: str = "latch"

    def __post_init__(self) -> None:
        # Validate eagerly so a bad option surfaces at construction, not
        # mid-transformation.
        resolve_sync_strategy(self.sync)
        if int(self.shards) < 1:
            raise ValueError(f"shards must be >= 1, got {self.shards}")
        problem = population_problem(self.population_mode, self.sync)
        if problem is not None:
            raise ValueError(problem)
        if self.storage not in STORAGE_BACKENDS:
            raise ValueError(
                f"unknown storage backend {self.storage!r}; "
                f"available: {list(STORAGE_BACKENDS)}")
        if self.sync_strategy is SyncStrategy.VERSION_FLIP \
                and self.storage != "mvcc":
            raise ValueError(
                'sync="version_flip" requires storage="mvcc" (the flip '
                "relies on pinned snapshots and the versioned catalog)")

    @property
    def sync_strategy(self) -> SyncStrategy:
        """The resolved synchronization strategy enum member."""
        return resolve_sync_strategy(self.sync)

    def evolve(self, **changes: object) -> "TransformOptions":
        """Return a copy with the given fields replaced (re-validated)."""
        return replace(self, **changes)
