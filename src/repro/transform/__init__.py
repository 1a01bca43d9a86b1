"""The non-blocking schema transformation framework.

Importing this package defines every transformation kind (``"foj"``,
``"foj_m2m"``, ``"split"``, ``"partition"``, ``"merge"``, ``"explode"``,
``"retype"``, ``"mv_foj"``), and defining a kind registers its
:meth:`~repro.transform.base.Transformation.rebuild` with recovery, so
ARIES restart can recompute published tables at a completed swap point
(see :mod:`repro.engine.recovery`).
"""

from repro.transform.analysis import (
    Decision,
    EstimatedTimePolicy,
    FixedIterationsPolicy,
    PropagationPolicy,
    RemainingRecordsPolicy,
)
from repro.transform.base import (
    Phase,
    PropagatedLockTable,
    RuleEngine,
    StepReport,
    SyncStrategy,
    Transformation,
    proxy_owner,
)
from repro.transform.consistency import ConsistencyChecker
from repro.transform.lazy import LazyMigrator
from repro.transform.options import (
    POPULATION_MODES,
    STORAGE_BACKENDS,
    SYNC_STRATEGIES,
    TransformOptions,
    resolve_sync_strategy,
)
from repro.transform.foj import FojRuleEngine, FojTransformation
from repro.transform.foj_m2m import (
    Many2ManyFojRuleEngine,
    Many2ManyFojTransformation,
)
from repro.transform.explode import ExplodeRuleEngine, ExplodeTransformation
from repro.transform.keyed import KeyedRuleEngine
from repro.transform.retype import (
    RetypeTransformation,
    add_attribute,
    remove_attribute,
    rename_attribute,
)
from repro.transform.partition import (
    MergeTransformation,
    PartitionTransformation,
)
from repro.transform.split import SplitRuleEngine, SplitTransformation
from repro.transform.supervisor import TransformationSupervisor
from repro.transform.sync import (
    LockMirror,
    VersionFlipSync,
    build_sync_executor,
)
from repro.transform.view import MaterializedFojView


__all__ = [
    "ConsistencyChecker",
    "Decision",
    "EstimatedTimePolicy",
    "ExplodeRuleEngine",
    "ExplodeTransformation",
    "FixedIterationsPolicy",
    "FojRuleEngine",
    "FojTransformation",
    "KeyedRuleEngine",
    "LazyMigrator",
    "LockMirror",
    "Many2ManyFojRuleEngine",
    "Many2ManyFojTransformation",
    "MaterializedFojView",
    "MergeTransformation",
    "PartitionTransformation",
    "POPULATION_MODES",
    "Phase",
    "PropagatedLockTable",
    "PropagationPolicy",
    "RemainingRecordsPolicy",
    "RetypeTransformation",
    "RuleEngine",
    "STORAGE_BACKENDS",
    "SplitRuleEngine",
    "SplitTransformation",
    "SYNC_STRATEGIES",
    "StepReport",
    "SyncStrategy",
    "VersionFlipSync",
    "TransformOptions",
    "Transformation",
    "TransformationSupervisor",
    "add_attribute",
    "resolve_sync_strategy",
    "build_sync_executor",
    "proxy_owner",
    "remove_attribute",
    "rename_attribute",
]
