"""Compact decision encodings for the runtime lookup (paper III-C step 2).

The paper notes that step 2 -- turning the sampled lookup table into a
decision procedure for arbitrary inputs -- has been studied through
quadtree encodings [35] and decision trees [36].  This module implements
an interval decision list: per (collective, n, p), adjacent message-size
samples that chose the same configuration are merged into half-open
intervals, typically compressing the table severalfold while answering
queries in O(log |intervals|) with zero accuracy loss on the samples.
"""

from __future__ import annotations

import bisect
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from repro.core.config import HanConfig
from repro.tuning.lookup import LookupTable

__all__ = ["DecisionRules", "compile_rules"]


@dataclass(frozen=True)
class _Band:
    """One (t, n, p) leaf: message intervals -> configs."""

    #: ascending interval upper bounds (bytes); the last is +inf
    uppers: tuple[float, ...]
    configs: tuple[HanConfig, ...]

    def decide(self, m: float) -> HanConfig:
        i = bisect.bisect_left(self.uppers, m)
        i = min(i, len(self.configs) - 1)
        return self.configs[i]


@dataclass
class DecisionRules:
    """A compiled lookup table: geometry leaves of message intervals."""

    bands: dict = field(default_factory=dict)  # (t, n, p) -> _Band
    source_entries: int = 0

    # -- queries -------------------------------------------------------------

    def decide(self, n: int, p: int, m: float, t: str) -> HanConfig:
        """Same signature as :meth:`LookupTable.decide`."""
        keys = [k for k in self.bands if k[0] == t]
        if not keys:
            from repro.core.han import HanModule

            return HanModule.default_config(m)
        best = min(
            keys,
            key=lambda k: abs(math.log2(max(k[1], 1)) - math.log2(max(n, 1)))
            + abs(math.log2(max(k[2], 1)) - math.log2(max(p, 1))),
        )
        return self.bands[best].decide(m)

    def as_decision_fn(self):
        return self.decide

    @property
    def num_rules(self) -> int:
        return sum(len(b.configs) for b in self.bands.values())

    @property
    def compression(self) -> float:
        """Sampled entries per emitted rule (>= 1)."""
        return self.source_entries / max(self.num_rules, 1)

    # -- persistence -------------------------------------------------------------

    def save(self, path) -> None:
        doc = {
            "version": 1,
            "source_entries": self.source_entries,
            "bands": [
                {
                    "t": t,
                    "n": n,
                    "p": p,
                    "uppers": list(band.uppers),
                    "configs": [c.to_dict() for c in band.configs],
                }
                for (t, n, p), band in sorted(self.bands.items())
            ],
        }
        Path(path).write_text(json.dumps(doc, indent=1))

    @classmethod
    def load(cls, path) -> "DecisionRules":
        doc = json.loads(Path(path).read_text())
        if doc.get("version") != 1:
            raise ValueError("unsupported decision-rules version")
        rules = cls(source_entries=doc.get("source_entries", 0))
        for b in doc["bands"]:
            rules.bands[(b["t"], b["n"], b["p"])] = _Band(
                uppers=tuple(b["uppers"]),
                configs=tuple(HanConfig(**c) for c in b["configs"]),
            )
        return rules


def compile_rules(table: LookupTable) -> DecisionRules:
    """Merge a sampled :class:`LookupTable` into interval decision rules.

    For each (t, n, p) the message samples are sorted; runs of identical
    configurations collapse into one interval whose upper bound is the
    geometric mean of the boundary samples (the standard split point for
    log-sampled sizes).
    """
    by_geom: dict[tuple, list[tuple[float, HanConfig]]] = {}
    for (t, n, p, m), cfg in table.entries.items():
        by_geom.setdefault((t, n, p), []).append((m, cfg))

    rules = DecisionRules(source_entries=len(table.entries))
    for key, rows in by_geom.items():
        rows.sort()
        uppers: list[float] = []
        configs: list[HanConfig] = []
        for (m, cfg), nxt in zip(rows, rows[1:] + [(math.inf, None)]):
            if configs and cfg == configs[-1]:
                # extend the current interval
                uppers[-1] = (
                    math.inf
                    if nxt[0] is None or math.isinf(nxt[0])
                    else math.sqrt(m * nxt[0])
                )
                continue
            upper = (
                math.inf
                if nxt[0] is None or math.isinf(nxt[0])
                else math.sqrt(m * nxt[0])
            )
            uppers.append(upper)
            configs.append(cfg)
        rules.bands[key] = _Band(uppers=tuple(uppers), configs=tuple(configs))
    return rules
