"""Persistent content-addressed cache for tuning measurements.

The tuning engine's unit of work -- one ``measure_collective`` point or
one ``TaskBench`` axis point -- is a pure function of its declared
inputs: the simulator is deterministic given (machine spec, collective,
message size, configuration, fault-plan realization, iteration counts,
p2p profile).  That purity is what makes the cache sound: the key is a
stable content digest of exactly those inputs, and the value is the full
measurement record, including the *simulated* benchmark seconds it
consumed.

Key contract (also documented in DESIGN.md):

- keys are SHA-256 hex digests of a canonical JSON rendering of the
  inputs plus a schema version (``CACHE_VERSION``) and a ``kind`` tag
  (``"measure"`` / ``"taskbench"``);
- the canonical form recurses through dataclasses *by field*, records
  the class name (two injector types with identical fields never
  collide), sorts dict keys, normalizes tuples to lists and non-finite
  floats to strings -- no ``id()``/``hash()``/address leaks anywhere, so
  the same inputs digest identically in any process on any platform;
- a configuration contributes its *tuning identity* (``HanConfig.key()``
  -- the seed is excluded; it only matters through the already-resolved
  fault plan, which is digested separately);
- the fault-plan realization (resolved seed, injector set, trial
  window) is part of the key only when a plan with injectors is present,
  so noise-free sweeps share entries across experiments that merely
  disagree on trial bookkeeping.

Cache *hits return the recorded measurement verbatim* -- crucially the
recorded ``sim_cost`` -- so ``tuning_cost`` accounting (Fig 8's
currency, simulated benchmark seconds) is bit-identical with or without
the cache; wall-clock time is what the cache eliminates.

Storage is one JSON file per entry under ``<root>/<digest[:2]>/``,
written atomically (tmp + rename) so concurrent tuning runs can share a
cache directory.  A path-less cache is memory-only (useful for sharing
work within one process, e.g. across the four Fig 8 methods).
"""

from __future__ import annotations

import copy
import dataclasses
import hashlib
import json
import math
import os
from pathlib import Path
from typing import Iterator, Optional

from repro.hardware.spec import MachineSpec
from repro.segstore import read_object, write_atomic

__all__ = ["CACHE_VERSION", "MeasurementCache", "canonical", "digest"]

CACHE_VERSION = 1


def canonical(obj):
    """A JSON-safe, process-stable rendering of ``obj`` for digesting.

    Dataclasses are rendered field-by-field with their class name (so
    structurally identical but semantically different types cannot
    collide), mappings get sorted string keys, sequences become lists,
    and non-finite floats become strings (JSON has no ``inf``).
    """
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        doc = {"__class__": type(obj).__qualname__}
        for f in dataclasses.fields(obj):
            doc[f.name] = canonical(getattr(obj, f.name))
        return doc
    if isinstance(obj, dict):
        return {str(k): canonical(v) for k, v in sorted(obj.items(), key=lambda kv: str(kv[0]))}
    if isinstance(obj, (list, tuple)):
        return [canonical(x) for x in obj]
    if isinstance(obj, bool) or obj is None or isinstance(obj, (int, str)):
        return obj
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else repr(obj)
    if hasattr(obj, "item"):  # numpy scalars
        return canonical(obj.item())
    raise TypeError(
        f"cannot canonicalize {type(obj).__name__!r} for a cache key; "
        "pass plain data or dataclasses"
    )


_MACHINE_MEMO_MAX = 64


def machine_memo(memo: dict, machine: MachineSpec, make):
    """``make(machine)``, memoized in ``memo`` by object identity.

    A tuning sweep or a serving loop passes the one machine object it
    holds at every point.  Each entry keeps the spec alive, so no other
    object can take its id while the entry exists, and a copy of the
    spec's one mutable field, ``topo_params``, which must still compare
    equal for the entry to be used.
    """
    hit = memo.get(id(machine))
    if hit is not None and hit[1] == machine.topo_params:
        return hit[2]
    value = make(machine)
    if len(memo) >= _MACHINE_MEMO_MAX:
        memo.clear()
    memo[id(machine)] = (machine, copy.deepcopy(machine.topo_params), value)
    return value


#: digest()'s canonical renderings of machine specs
_MACHINE_DOCS: dict[int, tuple] = {}


def digest(kind: str, **parts) -> str:
    """Stable content digest of one cache entry's inputs."""
    doc = {"__cache_version__": CACHE_VERSION, "__kind__": kind}
    for name, value in parts.items():
        if type(value) is MachineSpec:
            doc[name] = machine_memo(_MACHINE_DOCS, value, canonical)
        else:
            doc[name] = canonical(value)
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class MeasurementCache:
    """Content-addressed (digest -> measurement doc) store with stats.

    ``path=None`` keeps entries in memory only; with a path every entry
    is additionally persisted, and lookups fall through to disk, so a
    warm directory survives across processes, experiments and CI runs.
    """

    def __init__(self, path: Optional[os.PathLike] = None):
        self.path = Path(path) if path is not None else None
        if self.path is not None:
            self.path.mkdir(parents=True, exist_ok=True)
        self._mem: dict[str, dict] = {}
        self.hits = 0
        self.misses = 0
        self.stores = 0

    # -- core mapping ------------------------------------------------------------

    def _file_for(self, key: str) -> Path:
        return self.path / key[:2] / f"{key}.json"

    def get(self, key: str) -> Optional[dict]:
        """The stored doc for ``key``, or None (counted as hit/miss).

        An unusable file (torn by a dead writer, not UTF-8, not a JSON
        object) is a miss, never an error out of a tuning run.
        """
        doc = self._mem.get(key)
        if doc is None and self.path is not None:
            doc = read_object(self._file_for(key))
            if doc is not None:
                self._mem[key] = doc
        if doc is None:
            self.misses += 1
            return None
        self.hits += 1
        return doc

    def put(self, key: str, doc: dict) -> None:
        """Store ``doc`` under ``key`` (atomic on-disk when persistent)."""
        self._mem[key] = doc
        self.stores += 1
        if self.path is None:
            return
        f = self._file_for(key)
        f.parent.mkdir(parents=True, exist_ok=True)
        write_atomic(f, json.dumps(doc))  # racing writers agree on content

    # -- introspection ------------------------------------------------------------

    def entries(self) -> Iterator[tuple[str, dict]]:
        """Every (key, doc) pair -- on-disk entries included."""
        seen = set()
        if self.path is not None:
            for f in sorted(self.path.glob("*/*.json")):
                doc = read_object(f)
                if doc is not None:
                    seen.add(f.stem)
                    yield f.stem, doc
        for key, doc in self._mem.items():
            if key not in seen:
                yield key, doc

    def __len__(self) -> int:
        return sum(1 for _ in self.entries())

    def stats(self) -> dict:
        """Hit/miss/store counters for this cache handle."""
        total = self.hits + self.misses
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "hit_rate": self.hits / total if total else 0.0,
            "persistent": self.path is not None,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        where = str(self.path) if self.path is not None else "memory"
        return f"<MeasurementCache {where} hits={self.hits} misses={self.misses}>"
