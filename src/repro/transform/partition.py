"""Horizontal partition and merge transformations (paper Section 7).

The paper's further work: "Methods for other relational operators should,
however, also be developed."  The two most natural companions to the
vertical split/join pair are their *horizontal* analogues:

* **partition** -- one table T is split by a row predicate into A (rows
  satisfying it) and B (the rest), same schema on both sides;
* **merge** -- two union-compatible tables A and B with disjoint key sets
  become one table T.

Both reuse the framework unchanged (fuzzy population, log propagation,
the synchronization strategies).  The transformed rows are *whole*
source rows, so the row LSN is a valid state identifier (unlike the FOJ
case) and the rules are the one keyed engine's
(:mod:`repro.transform.keyed`): the spec's ``route`` picks the side, an
update that flips the predicate's verdict moves the row, and a key in
both of a merge's sources -- the horizontal analogue of Example 1's
inconsistency -- aborts the transformation.
"""

from repro.relational.spec import MergeSpec, PartitionSpec
from repro.transform.base import Transformation
from repro.transform.keyed import KeyedRuleEngine


class PartitionTransformation(Transformation):
    """Online horizontal partition of one table into two (Section 7).

    Example::

        spec = PartitionSpec("orders", "orders_eu", "orders_row",
                             predicate=AttrPredicate("region", "==", "eu"))
        PartitionTransformation(db, spec).run()
    """

    kind = "partition"
    spec_class = PartitionSpec
    engine_class = KeyedRuleEngine


class MergeTransformation(Transformation):
    """Online horizontal merge of two union-compatible tables (Section 7).

    The sources' key sets must be disjoint; a collision (observed during
    population or propagation) is the horizontal analogue of Example 1's
    inconsistency and raises :class:`InconsistentDataError`.
    """

    kind = "merge"
    spec_class = MergeSpec
    engine_class = KeyedRuleEngine
