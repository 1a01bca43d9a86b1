"""Reference (oracle) evaluation of the relational operators.

These functions compute the operators on *consistent snapshots* of plain
row dictionaries -- never through the online machinery.  Each spec's
``reference`` (:mod:`repro.relational.spec`) calls its operator here, and
that is the convergence oracle for Theorem 1: after final propagation,
the transformed tables must equal the operator applied to the final
source state.  The scenario corpus folds it over a plan's steps, the
crash sweep over the committed state a surviving log defines.

NULL join values follow SQL semantics: they never match, so a row with a
NULL join attribute is joined with the opposite NULL record.
"""

from __future__ import annotations

from typing import (TYPE_CHECKING, Callable, Dict, Iterable, List, Optional,
                    Tuple)

from repro.common.errors import InconsistentDataError

if TYPE_CHECKING:  # the specs call these operators from their ``reference``
    from repro.relational.spec import (ExplodeSpec, FojSpec, PartitionSpec,
                                       RetypeSpec, SplitSpec)

RowDict = Dict[str, object]


def full_outer_join(spec: FojSpec, r_rows: Iterable[RowDict],
                    s_rows: Iterable[RowDict]) -> List[RowDict]:
    """Full outer join of two row collections per ``spec``.

    Rows without a join match on the opposite side are joined with the
    R-/S- NULL record, exactly as in the paper's Figure 1.  Works for both
    one-to-many and many-to-many data (the operator itself is agnostic;
    only the propagation rules differ).
    """
    s_by_join: Dict[object, List[RowDict]] = {}
    for s in s_rows:
        value = s.get(spec.join_attr_s)
        s_by_join.setdefault(value, []).append(s)

    result: List[RowDict] = []
    matched_s: set = set()
    for r in r_rows:
        value = r.get(spec.join_attr_r)
        matches = s_by_join.get(value, []) if value is not None else []
        if matches:
            matched_s.add(value)
            for s in matches:
                row = spec.r_part(r)
                row.update(spec.s_part(s))
                result.append(row)
        else:
            row = spec.r_part(r)
            row.update(spec.null_s_part())
            result.append(row)

    for value, group in s_by_join.items():
        # NULL join values on the S side never match anything, so those
        # rows are always unmatched; non-NULL values are unmatched only if
        # no R row joined them.
        if value is not None and value in matched_s:
            continue
        for s in group:
            row = spec.null_r_part()
            row[spec.join_column] = value
            row.update(spec.s_part(s))
            result.append(row)
    return result


def split(spec: SplitSpec, t_rows: Iterable[RowDict],
          strict: bool = True) -> Tuple[List[RowDict], List[RowDict],
                                        Dict[Tuple, int], List[Tuple]]:
    """Vertical split of a row collection per ``spec``.

    Returns ``(r_rows, s_rows, counters, inconsistent)`` where ``counters``
    maps each split value to the number of contributing source rows (the
    paper's duplicate counter, after Gupta et al.) and ``inconsistent``
    lists split values whose contributors disagree on the dependent
    attributes (the paper's Example 1).

    Args:
        spec: The split specification.
        t_rows: Source rows.
        strict: If true, raise :class:`InconsistentDataError` when any
            split value is inconsistent (split of consistent data,
            Section 5.2); if false, return them for the consistency
            checker to deal with (Section 5.3) -- the S image of an
            inconsistent value is taken from its first contributor.
    """
    r_rows: List[RowDict] = []
    s_by_value: Dict[Tuple, RowDict] = {}
    counters: Dict[Tuple, int] = {}
    inconsistent: List[Tuple] = []

    for t in t_rows:
        r_rows.append(spec.r_part(t))
        value = spec.split_value(t)
        if value[0] is None:
            # The split attribute must identify an S record (candidate key
            # of S, Section 5): NULL can never do that.
            raise InconsistentDataError((value,))
        s_image = spec.s_part(t)
        existing = s_by_value.get(value)
        if existing is None:
            s_by_value[value] = s_image
            counters[value] = 1
        else:
            counters[value] += 1
            if existing != s_image and value not in inconsistent:
                inconsistent.append(value)

    if strict and inconsistent:
        raise InconsistentDataError(tuple(sorted(inconsistent)))
    return r_rows, list(s_by_value.values()), counters, inconsistent


def explode(spec: ExplodeSpec,
            source_rows: Iterable[RowDict]) -> List[RowDict]:
    """Explode a row collection per ``spec`` (one row per list element).

    A row with a NULL or element-free list yields one null-element child
    (the outer-explode analogue of the FOJ's null-padded records), so the
    result always carries every source row.
    """
    result: List[RowDict] = []
    for values in source_rows:
        for element in spec.elements(values):
            result.append(spec.child_values(values, element))
    return result


def retype(spec: RetypeSpec,
           source_rows: Iterable[RowDict]) -> List[RowDict]:
    """Map a row collection through ``spec``'s column map.

    A value the named cast cannot parse raises
    :class:`InconsistentDataError` carrying the offending row's retyped
    column value -- the retype analogue of the paper's Example 1.
    """
    result: List[RowDict] = []
    for values in source_rows:
        try:
            result.append(spec.map_row(values))
        except (TypeError, ValueError):
            raise InconsistentDataError((values.get(spec.attr),))
    return result


def partition_rows(spec: PartitionSpec, rows: Iterable[RowDict]
                   ) -> Tuple[List[RowDict], List[RowDict]]:
    """Partition row dicts by the predicate: (satisfying, the rest)."""
    a_rows: List[RowDict] = []
    b_rows: List[RowDict] = []
    for values in rows:
        (a_rows if spec.predicate(values) else b_rows).append(dict(values))
    return a_rows, b_rows


def merge_rows(a_rows: Iterable[RowDict], b_rows: Iterable[RowDict],
               key_of: Callable[[RowDict], Tuple]) -> List[RowDict]:
    """Disjoint union of row dicts.

    Raises :class:`InconsistentDataError` on key collisions (the
    horizontal analogue of the paper's Example 1).
    """
    seen = set()
    result: List[RowDict] = []
    for values in list(a_rows) + list(b_rows):
        key = key_of(values)
        if key in seen:
            raise InconsistentDataError((key,))
        seen.add(key)
        result.append(dict(values))
    return result


def normalize_rows(rows: Iterable[RowDict]) -> List[Tuple]:
    """Canonical multiset form of row dicts, for order-insensitive compare.

    Each row becomes a tuple of (attr, value) pairs sorted by attribute
    name; the list is sorted by string rendering so heterogeneous value
    types do not break comparison.
    """
    canon = [tuple(sorted(r.items(), key=lambda kv: kv[0])) for r in rows]
    return sorted(canon, key=repr)


def rows_equal(a: Iterable[RowDict], b: Iterable[RowDict]) -> bool:
    """Whether two row collections are equal as multisets."""
    return normalize_rows(a) == normalize_rows(b)


def rows_diff(name: str, actual: Iterable[RowDict],
              expected: Iterable[RowDict]) -> Optional[str]:
    """``None`` when equal as multisets, else a message naming table
    ``name`` and printing both sides in canonical form."""
    actual, expected = normalize_rows(actual), normalize_rows(expected)
    if actual == expected:
        return None
    return (f"table {name!r} diverged from its oracle: "
            f"actual={actual!r} expected={expected!r}")
