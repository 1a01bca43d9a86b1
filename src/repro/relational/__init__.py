"""Relational operator specifications and oracle evaluations."""

from repro.relational.operators import (
    explode,
    full_outer_join,
    merge_rows,
    normalize_rows,
    partition_rows,
    retype,
    rows_equal,
    split,
)
from repro.relational.spec import (
    PREDICATE_OPS,
    RETYPE_CASTS,
    AttrPredicate,
    ExplodeSpec,
    FojSpec,
    MergeSpec,
    PartitionSpec,
    RetypeSpec,
    SplitSpec,
)

__all__ = [
    "AttrPredicate",
    "ExplodeSpec",
    "FojSpec",
    "MergeSpec",
    "PREDICATE_OPS",
    "PartitionSpec",
    "RETYPE_CASTS",
    "RetypeSpec",
    "SplitSpec",
    "explode",
    "full_outer_join",
    "merge_rows",
    "normalize_rows",
    "partition_rows",
    "retype",
    "rows_equal",
    "split",
]
