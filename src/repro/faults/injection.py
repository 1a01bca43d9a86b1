"""Deterministic fault injection for the transformation pipeline.

The library is salted with *named injection sites* -- WAL append/flush,
table writes and index maintenance, every phase boundary of
:meth:`repro.transform.base.Transformation.step`, the latched windows and
swap of the three synchronization strategies, and the consistency checker.
Each site is declared once with :func:`register_site` (so harnesses can
enumerate them) and crossed at runtime with ``faults.fire(site, ...)``.

Fault injection is **off by default** and zero-overhead when off: every
component holds a reference to :data:`NULL_FAULTS`, whose :meth:`fire`
is an empty one-liner -- the same pattern as
:data:`repro.obs.metrics.NULL_METRICS`.  To inject faults, build a seeded
:class:`FaultPlan`, arm faults on sites, wrap it in a
:class:`FaultInjector` and attach it with
:meth:`repro.engine.database.Database.attach_faults`.

Three fault species cover the paper's failure model:

* :class:`CrashFault` -- simulated process kill (Section 6): raises
  :class:`~repro.common.errors.SimulatedCrashError`; the harness drops all
  volatile state and reruns ARIES restart recovery on the surviving log.
* :class:`AbortFault` -- raises
  :class:`~repro.common.errors.TransformationAbortedError` into the
  transformation (the DBA- or policy-initiated abort of Section 3.4).
* :class:`DelayFault` -- does not raise; it *starves* the background
  process by squeezing the per-step budget, driving the Section 3.3
  end-of-iteration analysis into its starvation decision.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Optional, Tuple

from repro.common.errors import (
    SimulatedCrashError,
    TransformationAbortedError,
    TransformationStarvedError,
)

# ---------------------------------------------------------------------------
# Site registry
# ---------------------------------------------------------------------------

#: Every declared injection site: name -> (layer, description).
SITE_REGISTRY: Dict[str, Tuple[str, str]] = {}


def register_site(name: str, layer: str, description: str) -> str:
    """Declare an injection site; returns ``name`` for assignment.

    Sites are module-level constants next to the code that crosses them,
    so importing the library populates :data:`SITE_REGISTRY` and a sweep
    harness can enumerate every crashable point without running anything.
    Re-registration with identical metadata is idempotent (reload safety).
    """
    existing = SITE_REGISTRY.get(name)
    if existing is not None and existing != (layer, description):
        raise ValueError(f"injection site {name!r} already registered "
                         f"with different metadata")
    SITE_REGISTRY[name] = (layer, description)
    return name


def sites_by_layer(layer: str = None) -> List[str]:
    """Sorted site names, optionally restricted to one layer."""
    return sorted(name for name, (site_layer, _) in SITE_REGISTRY.items()
                  if layer is None or site_layer == layer)


# ---------------------------------------------------------------------------
# Fault species
# ---------------------------------------------------------------------------


class Fault:
    """A single armed failure.  Subclasses define what firing *does*."""

    kind = "fault"

    def trigger(self, site: str, ctx: Dict[str, object]) -> "Optional[Fault]":
        """Fire at ``site``.  Raise to fail the operation, or return
        ``self`` to hand the fault to the caller (delay faults)."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__}>"


class CrashFault(Fault):
    """Simulated process kill: raises :class:`SimulatedCrashError`.

    The exception is deliberately *not* a :class:`TransformationError`;
    nothing inside the library catches it, so it unwinds straight to the
    harness, which abandons the volatile state and runs restart recovery.
    """

    kind = "crash"

    def trigger(self, site: str, ctx: Dict[str, object]) -> None:
        raise SimulatedCrashError(site)


class AbortFault(Fault):
    """Raises :class:`TransformationAbortedError` into the caller.

    With ``starved=True`` it raises the
    :class:`~repro.common.errors.TransformationStarvedError` subclass
    instead -- the Section 3.3 starvation abort -- which retry drivers
    like :class:`~repro.transform.supervisor.TransformationSupervisor`
    answer with priority escalation rather than a plain retry.
    """

    kind = "abort"

    def __init__(self, reason: str = "injected abort",
                 starved: bool = False) -> None:
        self.reason = reason
        self.starved = starved

    def trigger(self, site: str, ctx: Dict[str, object]) -> None:
        exc = TransformationStarvedError if self.starved \
            else TransformationAbortedError
        raise exc(f"{self.reason} (at site {site!r})")


class DiskFault(Fault):
    """Base class of the disk-misbehaviour species.

    Disk faults never raise: firing returns the fault itself, and the
    only consumer is :class:`repro.wal.durable.SimulatedDisk`, which
    applies the corruption to its durable image (the same hand-off
    pattern as :class:`DelayFault`).  They model the three classic ways
    stable storage betrays a WAL: a crash cutting the last write
    mid-frame (torn write), an fsync that reports success without
    persisting (lost flush / lying fsync), and silent media corruption
    (a flipped bit inside a previously-synced frame).
    """

    kind = "disk"

    def trigger(self, site: str, ctx: Dict[str, object]) -> "DiskFault":
        return self


class TornWriteFault(DiskFault):
    """The crash cuts the final flushed write mid-frame.

    When armed on ``disk.sync`` and fired, the disk remembers a *pending
    tear*: the crash image (what survives the simulated kill) loses the
    last ``cut`` bytes of the final synced write -- by default half of
    it, always at least one byte -- leaving a partially-written frame
    for salvage to truncate.  ``cut`` may exceed the final write; the
    tear is clamped so the segment header always survives.
    """

    kind = "torn_write"

    def __init__(self, cut: Optional[int] = None) -> None:
        if cut is not None and cut < 1:
            raise ValueError("TornWriteFault cut must be >= 1")
        self.cut = cut


class LostFlushFault(DiskFault):
    """A lying fsync: sync reports success, durability does not advance.

    While the arming keeps firing (``times=N`` lies for N syncs), the
    durable horizon of the disk is frozen; the written bytes stay in the
    simulated page cache and a *later*, honest sync persists them.  A
    crash while the horizon is frozen therefore loses exactly the
    unflushed tail -- a clean, frame-aligned prefix survives.
    """

    kind = "lost_flush"


class BitFlipFault(DiskFault):
    """Silent media corruption: one bit flips inside a synced frame.

    Applied to the crash image: frame ``frame_index`` (clamped to the
    frames present; ``None`` picks a middle frame, preferring a
    non-final one so the corruption is unambiguously *mid-log*) has bit
    ``bit`` of its payload inverted.  Salvage must detect the mismatch
    via the frame CRC and quarantine the log -- a flipped bit must never
    be silently applied.
    """

    kind = "bit_flip"

    def __init__(self, frame_index: Optional[int] = None,
                 bit: int = 0) -> None:
        if frame_index is not None and frame_index < 0:
            raise ValueError("BitFlipFault frame_index must be >= 0")
        if bit < 0:
            raise ValueError("BitFlipFault bit must be >= 0")
        self.frame_index = frame_index
        self.bit = bit


class DelayFault(Fault):
    """Starves the background process instead of failing it.

    Firing returns the fault itself; the only site that *consumes* it is
    the per-step budget slice of ``Transformation.step``, which clamps the
    step budget to :attr:`budget` work units.  Repeated hits keep the
    propagator from catching up with the log producers, which is exactly
    the starvation scenario of Section 3.3.
    """

    kind = "delay"

    def __init__(self, budget: int = 1) -> None:
        if budget < 1:
            raise ValueError("DelayFault budget must be >= 1")
        self.budget = budget

    def trigger(self, site: str, ctx: Dict[str, object]) -> "DelayFault":
        return self


# ---------------------------------------------------------------------------
# Plans and the injector
# ---------------------------------------------------------------------------


class _Arming:
    """One armed fault: fire on crossing number ``hit``, up to ``times``."""

    __slots__ = ("fault", "hit", "times", "fired")

    def __init__(self, fault: Fault, hit: int, times: int) -> None:
        self.fault = fault
        self.hit = hit
        self.times = times
        self.fired = 0


class FaultPlan:
    """A reproducible schedule of faults, keyed by injection site.

    ``arm(site, fault, hit=3)`` fires ``fault`` on the third crossing of
    ``site``; ``times`` limits how often it fires after that (an
    ``AbortFault`` storm is ``times=3``).  ``arm_chance`` arms
    probabilistically from the plan's seeded RNG, so a fuzzing run is
    fully reproducible from ``FaultPlan(seed=n)``.
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self.rng = random.Random(seed)
        self.armed: Dict[str, List[_Arming]] = {}

    def arm(self, site: str, fault: Fault, hit: int = 1,
            times: int = 1) -> "FaultPlan":
        """Arm ``fault`` at ``site``; chainable."""
        if site not in SITE_REGISTRY:
            raise KeyError(f"unknown injection site {site!r}; "
                           f"known sites: {sites_by_layer()}")
        if hit < 1:
            raise ValueError("hit counts from 1 (first crossing)")
        if times < 1:
            raise ValueError("times must be >= 1")
        self.armed.setdefault(site, []).append(_Arming(fault, hit, times))
        return self

    def arm_chance(self, site: str, fault: Fault, probability: float,
                   horizon: int = 64) -> "FaultPlan":
        """Arm ``fault`` at a random crossing within ``horizon`` with the
        given probability, drawn from the plan's seeded RNG."""
        if self.rng.random() < probability:
            self.arm(site, fault, hit=self.rng.randint(1, horizon))
        return self


class FaultInjector:
    """Runtime side of a :class:`FaultPlan`: counts crossings, fires faults.

    Components call :meth:`fire` on every site crossing.  The injector
    counts the crossing, checks whether an arming matches, and either
    triggers the fault (which may raise) or returns ``None``.  ``hits``
    and ``fired`` expose what actually happened for assertions and for
    the sweep harness's site-discovery pass.  ``on_fire`` (when set) is
    called as ``on_fire(site, crossing, kind)`` the moment a fault
    triggers -- **before** the fault acts, since a crash fault never
    returns -- which is how an observed
    :class:`~repro.faults.sweep.ScenarioRun` traces firings into its
    registry even when the firing kills the run.
    """

    enabled = True

    def __init__(self, plan: Optional[FaultPlan] = None) -> None:
        self.plan = plan if plan is not None else FaultPlan()
        #: site -> number of crossings observed.
        self.hits: Dict[str, int] = {}
        #: chronological (site, crossing#, fault kind) firing log.
        self.fired: List[Tuple[str, int, str]] = []
        #: optional firing observer (see the class docstring).
        self.on_fire: Optional[Callable[[str, int, str], None]] = None

    def fire(self, site: str, **ctx: object) -> Optional[Fault]:
        """Record a crossing of ``site``; trigger any matching fault."""
        count = self.hits.get(site, 0) + 1
        self.hits[site] = count
        for arming in self.plan.armed.get(site, ()):
            if arming.fired >= arming.times:
                continue
            if count >= arming.hit:
                arming.fired += 1
                self.fired.append((site, count, arming.fault.kind))
                if self.on_fire is not None:
                    self.on_fire(site, count, arming.fault.kind)
                return arming.fault.trigger(site, ctx)
        return None


class _NullFaults(FaultInjector):
    """The shared disabled injector: :meth:`fire` is a no-op.

    Components default to this singleton so the non-injecting path costs
    one attribute lookup and an empty call, mirroring
    :class:`repro.obs.metrics._NullMetrics`.  It cannot be enabled --
    construct a :class:`FaultInjector` instead.
    """

    enabled = False

    def __init__(self) -> None:
        super().__init__(FaultPlan())

    def fire(self, site: str, **ctx: object) -> None:  # noqa: D102
        return None

    def __setattr__(self, name: str, value: object) -> None:
        if name == "enabled" and value:
            raise ValueError(
                "NULL_FAULTS cannot be enabled; construct FaultInjector()")
        super().__setattr__(name, value)


#: The shared disabled injector (see :class:`_NullFaults`).
NULL_FAULTS = _NullFaults()
