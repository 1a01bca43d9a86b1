"""Column map transformation: retype, default change, attribute DDL.

Rewrites one non-key column of a table through a named cast (see
:data:`~repro.relational.spec.RETYPE_CASTS`), replaces NULLs with a new
default, and renames, adds or drops columns, online: the target is a
same-keyed copy of the source under the spec's column map
(``map_row`` / ``map_changes``), so its rules are the one keyed engine's
(:mod:`repro.transform.keyed`), which also serves eager and lazy
(migrate-on-read) population alike.  A value the cast cannot parse is
the retype analogue of the paper's Example 1 dirty data and raises
:class:`~repro.common.errors.InconsistentDataError` -- with the row key
attached -- rather than silently guessing.

The Section 2.4 attribute DDL (:func:`add_attribute`, ...) is this
operator published in place: a full online copy, logged and redone at
restart like any other, not an O(1) edit of the table description
(which left nothing in the log to redo).
"""

from __future__ import annotations

from typing import Dict

from repro.engine.database import Database
from repro.relational.spec import RetypeSpec
from repro.storage.table import Table
from repro.transform.base import Transformation
from repro.transform.keyed import KeyedRuleEngine


class RetypeTransformation(Transformation):
    """Online, non-blocking column map (retype, default, attribute DDL).

    Example::

        spec = RetypeSpec.derive(db.table("reading").schema,
                                 target_name="reading_v2",
                                 attr="value", cast="float", default=0.0)
        RetypeTransformation(db, spec).run()

    Args:
        db: The database.
        spec: The retype specification.
        options: Forwarded to :class:`Transformation`.
    """

    kind = "retype"
    spec_class = RetypeSpec
    engine_class = KeyedRuleEngine
    supports_lazy = True

    @classmethod
    def target_tables(cls, db: Database, spec: RetypeSpec,
                      detached: bool = False) -> Dict[str, Table]:
        """A same-keyed copy of the source under the column map, with the
        source's secondary indexes re-declared through it (an index
        over a dropped column is not).  An in-place target is built
        under a working name; the swap publishes it under the source's.
        """
        source = db.catalog.get(spec.source_name)
        schema = cls.published_schemas(db, spec)[spec.target_name]
        if spec.target_name == spec.source_name:
            schema = schema.rename(f"{spec.source_name}#{cls.kind}")
        target = cls._new_table(db, schema, detached)
        renamed = dict(spec.rename)
        for name, index in source.indexes.items():
            if not name.startswith("__") \
                    and set(spec.drop).isdisjoint(index.attrs):
                target.create_index(
                    name, [renamed.get(a, a) for a in index.attrs],
                    unique=index.unique)
        return {spec.target_name: target}


def _in_place(db: Database, table_name: str, **column_map) -> None:
    RetypeTransformation(db, RetypeSpec.derive(
        db.catalog.get(table_name).schema, table_name, **column_map)).run()


def add_attribute(db: Database, table_name: str, attr_name: str,
                  default: object = None) -> None:
    """Add a nullable attribute, online; existing rows get ``default``."""
    _in_place(db, table_name, add={attr_name: default})


def remove_attribute(db: Database, table_name: str, attr_name: str) -> None:
    """Remove a non-key attribute (and any index over it), online."""
    _in_place(db, table_name, drop=(attr_name,))


def rename_attribute(db: Database, table_name: str, old_name: str,
                     new_name: str) -> None:
    """Rename an attribute, online; key and indexes follow the name."""
    _in_place(db, table_name, rename={old_name: new_name})
