"""The autotuning lookup table and its runtime decision function.

Step 2 of autotuning (paper III-C): the offline search stores the best
configuration per sampled input (t, n, p, m) "to a lookup table in a
file"; at runtime, inputs that fall between samples are resolved to the
nearest sampled point (log-scale nearest for the message size -- the
simple, robust variant of the quadtree/decision-tree encodings the paper
cites [35, 36]).

``decide`` is a hot path (one call per collective invocation), so the
table keeps a per-collective key index maintained on ``put`` -- the
candidate set for a decision is O(samples of that collective), never a
scan of every entry of every collective.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from repro.core.config import HanConfig
from repro.core.han import HanModule
from repro.segstore import write_atomic

__all__ = ["LookupTable"]


def _table_digest(rows: list[dict]) -> str:
    """Content digest of the serialized rows (integrity stamp)."""
    from repro.tuning.cache import digest

    return digest("lookup-table", rows=rows)


@dataclass
class LookupTable:
    """(t, n, p, m) -> HanConfig with nearest-sample decisions."""

    entries: dict = field(default_factory=dict)  # (t, n, p, m) -> HanConfig
    #: t -> [keys]; maintained on put, rebuilt if entries were mutated
    #: behind the table's back (len mismatch is the staleness signal)
    _by_coll: dict = field(default_factory=dict, repr=False, compare=False)

    def put(self, t: str, n: int, p: int, m: float, cfg: HanConfig) -> None:
        key = (t, int(n), int(p), float(m))
        if key not in self.entries:
            self._by_coll.setdefault(t, []).append(key)
        self.entries[key] = cfg

    def get(self, t: str, n: int, p: int, m: float) -> Optional[HanConfig]:
        return self.entries.get((t, int(n), int(p), float(m)))

    def _candidates(self, t: str) -> list:
        if sum(len(keys) for keys in self._by_coll.values()) != len(self.entries):
            # entries dict was written to directly: rebuild the index
            self._by_coll = {}
            for key in self.entries:
                self._by_coll.setdefault(key[0], []).append(key)
        return self._by_coll.get(t, [])

    # -- runtime decision ---------------------------------------------------------

    def decide(self, n: int, p: int, m: float, t: str) -> HanConfig:
        """Nearest-sample decision; signature matches HanModule hooks."""
        candidates = self._candidates(t)
        if not candidates:
            return HanModule.default_config(m)

        def key_distance(k):
            _t, kn, kp, km = k
            dn = abs(math.log2(max(kn, 1)) - math.log2(max(n, 1)))
            dp = abs(math.log2(max(kp, 1)) - math.log2(max(p, 1)))
            dm = abs(math.log2(max(km, 1.0)) - math.log2(max(m, 1.0)))
            # message size is the fastest-varying axis; geometry dominates.
            # Equidistant keys tie-break on the canonical (n, p, m) sort
            # order — never on dict insertion order, which differs
            # between a freshly built table and its save/load round-trip.
            return (dn + dp, dm, kn, kp, km)

        best = min(candidates, key=key_distance)
        return self.entries[best]

    def as_decision_fn(self):
        """Plug into :class:`~repro.core.HanModule`(decision_fn=...)."""
        return self.decide

    # -- persistence ----------------------------------------------------------------

    def save(self, path) -> None:
        # lazy import: experiments.common imports repro.tuning at module
        # load, so the shared header constant is fetched at call time
        from repro.experiments.common import RESULT_SCHEMA_VERSION
        from repro.obs.store import config_digest

        rows = [
            {"t": t, "n": n, "p": p, "m": m, "config": cfg.to_dict()}
            for (t, n, p, m), cfg in sorted(self.entries.items())
        ]
        # atomic publish: a reader never finds a torn table (the
        # table_digest stamp could only detect one after the fact)
        write_atomic(Path(path), json.dumps({
            "version": 1,
            "schema_version": RESULT_SCHEMA_VERSION,
            "config_digest": config_digest(None),
            "table_digest": _table_digest(rows),
            "rows": rows,
        }, indent=1))

    @classmethod
    def load(cls, path) -> "LookupTable":
        doc = json.loads(Path(path).read_text())
        # unknown extra keys (the provenance header) are deliberately
        # tolerated; only the table layout version gates
        if doc.get("version") != 1:
            raise ValueError(f"unsupported lookup table version: {doc.get('version')}")
        # the content stamp is verified when present (a table that was
        # hand-edited or torn mid-write must not serve silently wrong
        # decisions) but its absence is tolerated: pre-stamp files load
        stamped = doc.get("table_digest")
        if stamped is not None and stamped != _table_digest(doc["rows"]):
            raise ValueError(
                f"lookup table {path} rows do not match their "
                "table_digest stamp (torn write or hand edit)"
            )
        table = cls()
        for row in doc["rows"]:
            table.put(
                row["t"], row["n"], row["p"], row["m"], HanConfig(**row["config"])
            )
        return table

    def __len__(self) -> int:
        return len(self.entries)
