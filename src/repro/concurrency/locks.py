"""Lock modes, lock origins, and compatibility rules.

Two compatibility regimes exist side by side:

* the **standard** shared/exclusive matrix used for ordinary record locks
  and table locks (S-S compatible, everything else conflicting);
* the paper's **Figure 2 matrix** for locks on a transformed table during
  non-blocking synchronization (Section 4.3).  Locks transferred from the
  source tables R and S carry their *origin*; because operations on R and S
  never modify the same attributes of a joined row, source-origin locks are
  mutually compatible in T even in write mode, while locks taken natively on
  T conflict with source-origin writes (and native writes conflict with
  everything).

The same regime serves split transformations (one source, two targets): all
mirrored locks carry a source origin and are mutually compatible, because
any real conflict would already have been resolved in the source table.
"""

from __future__ import annotations

from enum import Enum


class LockMode(Enum):
    """Lock modes, including multigranularity intention modes.

    Record locks use S/X; table-level locks add the classic intention
    modes (the extension Section 4.3 mentions: "the compatibility matrix
    can easily be extended to multigranularity locking"):

    * ``IS`` / ``IX`` -- intent to take S / X locks on contained records;
    * ``S`` / ``X`` -- whole-granule shared / exclusive;
    * ``SIX`` -- S on the granule plus intent to X individual records.

    Every member carries ``is_write`` -- whether the mode implies (intent
    to) write -- as a plain attribute.
    """

    IS = "IS"
    IX = "IX"
    S = "S"
    SIX = "SIX"
    X = "X"

    is_write: bool

    def covers(self, other: "LockMode") -> bool:
        """Whether holding this mode also satisfies a request for ``other``.

        Follows the standard mode lattice: IS < {IX, S} < SIX < X.
        """
        return other in self._covered

    def join(self, other: "LockMode") -> "LockMode":
        """Least mode covering both (the upgrade target)."""
        if other in self._covered:
            return self
        if self in other._covered:
            return other
        return LockMode.SIX  # IX vs S, the lattice's one incomparable pair


#: For each mode, the modes it covers (reflexive).
_COVERS = {
    LockMode.IS: (LockMode.IS,),
    LockMode.IX: (LockMode.IS, LockMode.IX),
    LockMode.S: (LockMode.IS, LockMode.S),
    LockMode.SIX: (LockMode.IS, LockMode.IX, LockMode.S, LockMode.SIX),
    LockMode.X: tuple(LockMode),
}

#: The classic multigranularity compatibility matrix.
_STANDARD_COMPAT = {
    LockMode.IS: {LockMode.IS, LockMode.IX, LockMode.S, LockMode.SIX},
    LockMode.IX: {LockMode.IS, LockMode.IX},
    LockMode.S: {LockMode.IS, LockMode.S},
    LockMode.SIX: {LockMode.IS},
    LockMode.X: set(),
}


class LockOrigin(Enum):
    """Which table's concurrency domain a lock was acquired in.

    ``NATIVE`` locks were requested directly on the resource's own table by
    an ordinary transaction.  ``SOURCE_A`` / ``SOURCE_B`` mark locks
    *transferred* by the transformation framework from the first / second
    source table (R / S for a full outer join; a split has only one source,
    ``SOURCE_A``).
    """

    NATIVE = "T"
    SOURCE_A = "R"
    SOURCE_B = "S"

    @property
    def is_source(self) -> bool:
        """Whether the lock was mirrored from a source table."""
        return self is not LockOrigin.NATIVE


def standard_compatible(held: LockMode, requested: LockMode) -> bool:
    """The classic multigranularity compatibility matrix.

    Restricted to {S, X} this is the usual shared/exclusive rule; the
    intention modes follow Gray's hierarchy (IS compatible with all but X,
    IX with the intentions, SIX with IS only).
    """
    return requested in _STANDARD_COMPAT[held]


def figure2_compatible(held_mode: LockMode, held_origin: LockOrigin,
                       req_mode: LockMode, req_origin: LockOrigin) -> bool:
    """The paper's Figure 2 matrix for locks on a transformed table.

    Rules (symmetric):

    * source-origin vs. source-origin: always compatible -- a genuine
      conflict would have surfaced in the source table already, and R- and
      S-side operations touch disjoint attributes of the joined row;
    * native write vs. anything: conflict;
    * native read vs. source read: compatible; native read vs. source
      write: conflict;
    * native vs. native: standard S/X.

    The multigranularity extension (Section 4.3's closing remark) treats
    any intent-to-write mode (IX, SIX) as a write -- conservative but
    safe, since the mirrored locks cannot tell which records the intent
    will reach.
    """
    if held_origin.is_source and req_origin.is_source:
        return True
    if held_origin is LockOrigin.NATIVE and req_origin is LockOrigin.NATIVE:
        return standard_compatible(held_mode, req_mode)
    # Exactly one side is native.
    native_mode = held_mode if held_origin is LockOrigin.NATIVE else req_mode
    source_mode = req_mode if held_origin is LockOrigin.NATIVE else held_mode
    if native_mode.is_write:
        return False
    return not source_mode.is_write


def _rule(held_mode: LockMode, held_origin: LockOrigin,
          req_mode: LockMode, req_origin: LockOrigin) -> bool:
    """Figure 2 when any origin is a source, else the standard matrix."""
    if held_origin.is_source or req_origin.is_source:
        return figure2_compatible(held_mode, held_origin,
                                  req_mode, req_origin)
    return standard_compatible(held_mode, req_mode)


# The rules above, tabulated once per member: the lock manager's hot path
# reads attributes and indexes tuples, and never hashes an ``Enum`` member
# (``Enum.__hash__`` is interpreted).
for _ordinal, _mode in enumerate(LockMode):
    _mode._covered = _COVERS[_mode]
    _mode.is_write = _mode in (LockMode.IX, LockMode.SIX, LockMode.X)
    _mode._row = _ordinal * len(LockOrigin)
for _ordinal, _origin in enumerate(LockOrigin):
    _origin._column = _ordinal

#: ``_COMPATIBLE[held][requested]``, each side a (mode, origin) ordinal.
_COMPATIBLE = tuple(
    tuple(_rule(held_mode, held_origin, req_mode, req_origin)
          for req_mode in LockMode for req_origin in LockOrigin)
    for held_mode in LockMode for held_origin in LockOrigin)


def compatible(held_mode: LockMode, held_origin: LockOrigin,
               req_mode: LockMode, req_origin: LockOrigin) -> bool:
    """Whether ``req`` may be granted beside ``held``: Figure 2 when any
    origin is a source, else the standard matrix (both tabulated above)."""
    return _COMPATIBLE[held_mode._row + held_origin._column][
        req_mode._row + req_origin._column]


def record_resource(table: str, key: tuple) -> tuple:
    """Lock-manager resource id for a record (``key`` as a plain tuple)."""
    return ("rec", table, key if type(key) is tuple else tuple(key))


def table_resource(table: str) -> tuple:
    """Lock-manager resource id for a whole table."""
    return ("tab", table)
