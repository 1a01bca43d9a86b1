"""Tracing from outside: timed wrappers around each layer's public calls.

The engine is not edited.  For the traced repetition the benchmark
replaces a fixed list of methods on the engine's classes with wrappers
that record a span per call -- name, layer, start, end, parent span --
and puts the originals back afterwards.  Spans stay in memory (flat
integer arrays) until the run ends and are then written under
``results/`` (one file per workload, overwritten by the next traced run).  A layer's *self time* is a span's duration minus the part
its child spans cover; :func:`self_times` is that arithmetic.
"""

from __future__ import annotations

import importlib
import json
import time
from array import array
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

#: Layers that are not the engine's: the benchmark's own loop.
DRIVER_LAYER = "driver"

#: (module, class or None for a module function, attribute, layer, weight).
#: ``weight(args, result)`` counts the units a call handled (records,
#: rows) where that is not one per call.
_TARGETS: List[Tuple[str, Optional[str], str, str, Optional[Callable]]] = [
    ("repro.wal.log", "LogManager", "append", "wal", None),
    ("repro.wal.log", "LogManager", "append_batch", "wal",
     lambda args, result: len(args[1])),
    ("repro.wal.log", "LogManager", "flush", "wal", None),
    ("repro.wal.log", "LogManager", "records_slice", "wal",
     lambda args, result: len(result)),
    ("repro.wal.log", "LogManager", "from_disk", "wal", None),
    ("repro.concurrency.lock_manager", "LockManager", "acquire",
     "concurrency", None),
    ("repro.concurrency.lock_manager", "LockManager", "release_all",
     "concurrency", None),
    ("repro.storage.index", "HashIndex", "insert", "storage", None),
    ("repro.storage.index", "HashIndex", "lookup", "storage", None),
    ("repro.storage.table", "Table", "insert_row", "storage", None),
    ("repro.storage.table", "Table", "update_rowid", "storage", None),
    ("repro.engine.database", "Database", "begin", "engine", None),
    ("repro.engine.database", "Database", "insert", "engine", None),
    ("repro.engine.database", "Database", "update", "engine", None),
    ("repro.engine.database", "Database", "read", "engine", None),
    ("repro.engine.database", "Database", "commit", "engine", None),
    ("repro.engine.database", "Database", "abort", "engine", None),
    ("repro.engine.fuzzy", "FuzzyScan", "next_chunk", "engine",
     lambda args, result: len(result)),
    ("repro.engine.recovery", None, "restart", "engine", None),
    ("repro.transform.foj", "FojRuleEngine", "apply", "transform", None),
    ("repro.transform.foj", "FojRuleEngine", "apply_run", "transform",
     lambda args, result: len(args[3])),
    ("repro.transform.foj", "FojRuleEngine", "migrate_row", "transform",
     None),
    ("repro.transform.split", "SplitRuleEngine", "apply", "transform", None),
    ("repro.transform.split", "SplitRuleEngine", "apply_run", "transform",
     lambda args, result: len(args[3])),
    ("repro.transform.split", "SplitRuleEngine", "migrate_row", "transform",
     None),
]

#: Phases in which a step populates; every other phase propagates.
POPULATE_PHASES = ("created", "prepared", "populating")


class Tracer:
    """Span store plus the install/remove of the wrappers."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.layers: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("q")
        self.ends = array("q")
        #: Units handled per span name (records, rows), for weighted calls.
        self.units: Dict[int, int] = {}
        self._current = -1
        self._patched: List[Tuple[object, str, object]] = []

    def __len__(self) -> int:
        return len(self.name_ids)

    def name_id(self, name: str, layer: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.layers.append(layer)
        return nid

    # -- recording ------------------------------------------------------------

    def _open(self, nid: int) -> int:
        index = len(self.name_ids)
        self.name_ids.append(nid)
        self.parents.append(self._current)
        self.ends.append(0)
        self._current = index
        self.starts.append(time.perf_counter_ns())
        return index

    def _close(self, index: int) -> None:
        self.ends[index] = time.perf_counter_ns()
        self._current = self.parents[index]

    @contextmanager
    def span(self, name: str, layer: str = DRIVER_LAYER) -> Iterator[None]:
        """A span around a block of the benchmark's own code."""
        index = self._open(self.name_id(name, layer))
        try:
            yield
        finally:
            self._close(index)

    def _wrap(self, fn: Callable, name: str, layer: str,
              weight: Optional[Callable]) -> Callable:
        nid = self.name_id(name, layer)
        open_, close = self._open, self._close
        if weight is None:
            def wrapper(*args, **kwargs):
                index = open_(nid)
                try:
                    return fn(*args, **kwargs)
                finally:
                    close(index)
        else:
            units = self.units
            units.setdefault(nid, 0)

            def wrapper(*args, **kwargs):
                index = open_(nid)
                try:
                    result = fn(*args, **kwargs)
                    units[nid] += weight(args, result)
                    return result
                finally:
                    close(index)
        return wrapper

    def _wrap_step(self, fn: Callable) -> Callable:
        """``Transformation.step``, named by the phase it was entered in."""
        by_phase: Dict[str, int] = {}
        open_, close = self._open, self._close

        def wrapper(tf, *args, **kwargs):
            phase = tf.phase.value
            nid = by_phase.get(phase)
            if nid is None:
                nid = by_phase[phase] = self.name_id(
                    f"Transformation.step[{phase}]", "transform")
            index = open_(nid)
            try:
                return fn(tf, *args, **kwargs)
            finally:
                close(index)
        return wrapper

    # -- install / remove -----------------------------------------------------

    def install(self) -> None:
        """Replace the traced methods with recording wrappers."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        for module_name, cls_name, attr, layer, weight in _TARGETS:
            module = importlib.import_module(module_name)
            owner = module if cls_name is None else getattr(module, cls_name)
            original = getattr(owner, attr)
            label = attr if cls_name is None else f"{cls_name}.{attr}"
            self._patch(owner, attr, self._wrap(original, label, layer,
                                                weight))
        transformation = importlib.import_module(
            "repro.transform.base").Transformation
        self._patch(transformation, "step",
                    self._wrap_step(transformation.step))

    def _patch(self, owner: object, attr: str, wrapper: Callable) -> None:
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def remove(self) -> None:
        """Put every original back."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        self.install()
        try:
            yield self
        finally:
            self.remove()

    # -- analysis ---------------------------------------------------------------

    def by_name(self) -> Dict[str, Dict[str, float]]:
        """Per span name: count, total and self seconds, max seconds,
        units handled, and its layer."""
        raw = self_times(self.name_ids, self.starts, self.ends, self.parents)
        out: Dict[str, Dict[str, float]] = {}
        for nid, (count, total, own, longest) in raw.items():
            out[self.names[nid]] = {
                "layer": self.layers[nid], "count": count,
                "total_s": total / 1e9, "self_s": own / 1e9,
                "max_s": longest / 1e9,
                "units": self.units.get(nid, count)}
        return out

    def dump(self, path: str, run_id: str) -> None:
        """Write every span: one JSON header line (run id, names, layers,
        span count), then the four arrays back to back in native byte
        order.  Millions of spans make JSON lists too large to be useful;
        :func:`load` reads the file back."""
        header = {"run_id": run_id, "clock": "perf_counter_ns",
                  "names": self.names, "layers": self.layers,
                  "spans": len(self),
                  "arrays": [["name_id", "i"], ["parent", "i"],
                             ["start_ns", "q"], ["end_ns", "q"]]}
        with open(path, "wb") as handle:
            handle.write(json.dumps(header).encode() + b"\n")
            for column in (self.name_ids, self.parents, self.starts,
                           self.ends):
                column.tofile(handle)


def load(path: str) -> Dict[str, object]:
    """Read a span dump back: the header plus one array per column."""
    with open(path, "rb") as handle:
        out = json.loads(handle.readline())
        for column, typecode in out.pop("arrays"):
            out[column] = array(typecode)
            out[column].fromfile(handle, out["spans"])
    return out


def self_times(name_ids: Sequence[int], starts: Sequence[int],
               ends: Sequence[int], parents: Sequence[int]
               ) -> Dict[int, Tuple[int, int, int, int]]:
    """Per name id: ``(count, total, self, max)`` durations.

    A span's self time is its duration minus the durations of its direct
    children (children nest strictly inside their parent and never
    overlap each other: one thread, one call stack).  ``parents[i]`` is
    the index of span ``i``'s parent, ``-1`` for a root.
    """
    n = len(name_ids)
    covered = [0] * n
    for i in range(n):
        parent = parents[i]
        if parent >= 0:
            covered[parent] += ends[i] - starts[i]
    out: Dict[int, List[int]] = {}
    for i in range(n):
        duration = ends[i] - starts[i]
        entry = out.get(name_ids[i])
        if entry is None:
            entry = out[name_ids[i]] = [0, 0, 0, 0]
        entry[0] += 1
        entry[1] += duration
        entry[2] += duration - covered[i]
        if duration > entry[3]:
            entry[3] = duration
    return {nid: tuple(entry) for nid, entry in out.items()}
