"""Sharded, mergeable, content-addressed store of tuned decisions.

One *decision* is the winner of an autotuning search for one point
``(machine band, collective, nodes, ppn, nbytes)``: the chosen
:class:`~repro.core.config.HanConfig` plus its expected time and
provenance.  The store keeps millions of them queryable at memory speed:

- **band digest** -- the hardware identity of a machine with the job
  geometry erased (:func:`repro.obs.store.band_digest`, the identity
  run summaries are stamped with too).  Two jobs of different sizes on
  the same hardware share a band, so one tuning sweep serves every job
  shape on that fleet.
- **point key** -- content digest of (band, coll, n, p, nbytes): the
  dedup identity of a decision.  Same point tuned twice resolves to one
  record (newest ``wall_time`` wins; ties break on the smaller
  ``config_digest``, so resolution is deterministic in any merge order).
- **shard** -- one directory per (band, coll):
  ``<root>/<band[:16]>/<coll>/``, speaking the shard protocol of
  :mod:`repro.segstore` (lock-free ``O_APPEND`` writers, torn and
  foreign lines skipped on read).  :meth:`compact` folds every file of
  a shard into one immutable, content-named ``seg-<digest>.jsonl``
  holding each point's winner in canonical point order; no sidecar --
  a shard is always loaded whole.
- **merge** -- :meth:`merge_from` folds another store in record by
  record through the same resolution rule, so post-merge query results
  equal the pre-merge union.

``root=None`` keeps every shard in memory -- the serving bench and unit
tests use this mode.
"""

from __future__ import annotations

import json
import os
import time
from functools import partial
from pathlib import Path
from typing import TYPE_CHECKING, Optional

from repro import segstore
from repro.obs.store import band_digest, config_digest, traffic_digest
from repro.tuning.cache import digest

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.config import HanConfig
    from repro.hardware.spec import MachineSpec
    from repro.tuning.autotuner import TuningReport

__all__ = [
    "SERVE_SCHEMA_VERSION",
    "DecisionStore",
    "band_digest",
    "decision_record",
    "point_key",
]

#: bump when the decision-record layout changes incompatibly
SERVE_SCHEMA_VERSION = 1

#: keys every reader must tolerate/strip when comparing record content
RECORD_HEADER_KEYS = frozenset({"schema_version", "wall_time", "source"})

_BAND_DIR_CHARS = 16

#: change-feed entries kept for readers that have not caught up
_FEED_MAX = 1 << 16


def point_key(band: str, coll: str, n: int, p: int, nbytes: float) -> str:
    """Content-addressed dedup identity of one decision point."""
    return digest(
        "serve-point",
        schema=SERVE_SCHEMA_VERSION,
        band=band,
        coll=coll,
        n=int(n),
        p=int(p),
        nbytes=float(nbytes),
    )


def decision_record(
    machine: "MachineSpec",
    coll: str,
    nbytes: float,
    config: "HanConfig",
    expected_time: Optional[float] = None,
    source: str = "manual",
    n: Optional[int] = None,
    p: Optional[int] = None,
    wall_time: Optional[float] = None,
    traffic=None,
) -> dict:
    """One store line for a tuned decision.

    ``n``/``p`` default to the machine's geometry (a decision is tuned
    *for* a job shape even though the band digest erases it).

    ``traffic`` is the resolved background :class:`~repro.tenancy.TrafficPlan`
    the tuning measurements ran under, if any: decisions tuned under
    load carry its digest so a consumer can tell a quiet-machine winner
    from an interference-aware one.
    """
    band = band_digest(machine)
    n = machine.num_nodes if n is None else int(n)
    p = machine.ppn if p is None else int(p)
    return {
        "schema_version": SERVE_SCHEMA_VERSION,
        "key": point_key(band, coll, n, p, nbytes),
        "band": band,
        "machine": f"{machine.name} {n}x{p}",
        "coll": coll,
        "n": n,
        "p": p,
        "commsize": n * p,
        "nbytes": float(nbytes),
        "config": config.to_dict(),
        "config_digest": config_digest(config),
        "expected_time": None if expected_time is None else float(expected_time),
        "traffic_digest": None if traffic is None else traffic_digest(traffic),
        "source": source,
        "wall_time": time.time() if wall_time is None else float(wall_time),
    }


def _wins(a: dict, b: dict) -> bool:
    """True when record ``a`` beats ``b`` for the same point key."""
    wa, wb = a.get("wall_time", 0.0), b.get("wall_time", 0.0)
    if wa != wb:
        return wa > wb
    return a.get("config_digest", "") < b.get("config_digest", "")


def _point_order(rec: dict) -> tuple:
    """Canonical point order of a shard's records."""
    return (rec["n"], rec["p"], rec["nbytes"], rec["key"])


def _absorb(view: dict, band: str, docs) -> None:
    """Fold ``band``'s records among ``docs`` into a resolved view."""
    for rec in docs:
        # a band-prefix collision lands foreign records in one shard
        # directory; the full digest in each line keeps them apart
        if rec.get("band") != band:
            continue
        cur = view.get(rec["key"])
        if cur is None or _wins(rec, cur):
            view[rec["key"]] = rec


def _resolve(band: str, docs: list) -> list[tuple[str, str]]:
    """Fold policy: each point's winner, in canonical point order."""
    view: dict[str, dict] = {}
    _absorb(view, band, docs)
    return [(rec["key"], segstore.canonical_line(rec))
            for rec in sorted(view.values(), key=_point_order)]


class DecisionStore:
    """Sharded (band, coll) decision store with O(1) point resolution.

    A policy over :mod:`repro.segstore`: records shard by
    ``<band[:16]>/<coll>``, a fold keeps each point's winner (newest
    ``wall_time``, then smaller ``config_digest``) in canonical point
    order, and segments carry no sidecar.

    ``version`` counts changes of the resolved view, and the change
    feed (:meth:`changes`) says which points they were, so an index
    layer (:class:`~repro.serve.service.DecisionService`) updates the
    points that moved instead of rebuilding.  An append feeds its
    ``(band, coll, key)`` only when its record wins the point (a losing,
    older record changes nothing); a merge feeds each absorbed record.
    :meth:`refresh` and :meth:`compact` reload views from disk, where
    other writers' lines may be waiting, so they end the feed: a reader
    that has not caught up must drop everything it derived.
    """

    def __init__(self, root: Optional[os.PathLike] = None):
        self.root = Path(root) if root is not None else None
        if self.root is not None:
            self.root.mkdir(parents=True, exist_ok=True)
        #: (band, coll) -> {point key -> resolved record}
        self._shards: dict[tuple[str, str], dict[str, dict]] = {}
        self.appends = 0
        self.version = 0
        #: (band, coll, key) of the changes after version ``_feed_base``
        self._feed: list[tuple[str, str, str]] = []
        self._feed_base = 0

    # -- layout ------------------------------------------------------------------

    def _band_dir(self, band: str) -> Path:
        return self.root / band[:_BAND_DIR_CHARS]

    def _shard_dir(self, band: str, coll: str) -> Path:
        return self._band_dir(band) / coll

    def _write_band_marker(self, band: str, machine_label: str) -> None:
        marker = self._band_dir(band) / "BAND.json"
        if marker.exists():
            return
        marker.parent.mkdir(parents=True, exist_ok=True)
        # racing warmers agree on content
        segstore.write_atomic(marker, json.dumps({
            "schema_version": SERVE_SCHEMA_VERSION,
            "band": band,
            "machine": machine_label,
        }))

    # -- shard loading ------------------------------------------------------------

    def _shard(self, band: str, coll: str) -> dict[str, dict]:
        view = self._shards.get((band, coll))
        if view is not None:
            return view
        view = {}
        if self.root is not None:
            for f in sorted(self._shard_dir(band, coll).glob("*.jsonl")):
                _absorb(view, band, segstore.read_docs(f)[0])
        self._shards[(band, coll)] = view
        return view

    def refresh(self) -> None:
        """Drop cached shard views (pick up other processes' appends)."""
        self._shards.clear()
        self._reset_feed()

    # -- change feed ---------------------------------------------------------------

    def _reset_feed(self) -> None:
        self.version += 1
        self._feed.clear()
        self._feed_base = self.version

    def changes(self, since: int) -> Optional[list[tuple[str, str, str]]]:
        """The ``(band, coll, key)`` points changed after version ``since``,
        oldest first, or None when views were reloaded since (or the
        feed no longer reaches back that far): anything derived from
        the store before then may be stale.
        """
        if since < self._feed_base:
            return None
        return self._feed[since - self._feed_base:]

    # -- writing -----------------------------------------------------------------

    def append(self, rec: dict) -> str:
        """Append one decision record; returns its point key."""
        for field in ("key", "band", "coll", "n", "p", "nbytes", "config"):
            if field not in rec:
                raise ValueError(f"decision record must carry {field!r}")
        rec.setdefault("schema_version", SERVE_SCHEMA_VERSION)
        band, coll = rec["band"], rec["coll"]
        # the view as it was before this line: loaded after the write,
        # it would already hold the record and see no change
        view = self._shard(band, coll)
        if self.root is not None:
            self._write_band_marker(band, rec.get("machine", "?"))
            segstore.append_line(self._shard_dir(band, coll) / segstore.OPEN,
                                 segstore.canonical_line(rec))
        cur = view.get(rec["key"])
        if cur is None or _wins(rec, cur):
            view[rec["key"]] = rec
            self.version += 1
            if len(self._feed) >= _FEED_MAX:
                # readers this far behind rebuild instead
                del self._feed[:_FEED_MAX // 2]
                self._feed_base += _FEED_MAX // 2
            self._feed.append((band, coll, rec["key"]))
        self.appends += 1
        return rec["key"]

    def put_decision(
        self,
        machine: "MachineSpec",
        coll: str,
        nbytes: float,
        config: "HanConfig",
        expected_time: Optional[float] = None,
        source: str = "manual",
        n: Optional[int] = None,
        p: Optional[int] = None,
        wall_time: Optional[float] = None,
        traffic=None,
    ) -> str:
        return self.append(decision_record(
            machine, coll, nbytes, config,
            expected_time=expected_time, source=source, n=n, p=p,
            wall_time=wall_time, traffic=traffic,
        ))

    def put_report(
        self,
        machine: "MachineSpec",
        report: "TuningReport",
        source: Optional[str] = None,
        traffic=None,
    ) -> int:
        """Store every lookup-table winner of a tuning report.

        ``traffic`` stamps each decision with the background-traffic
        plan the tuning ran under (see :func:`decision_record`).
        """
        src = source or f"autotuner.{report.method}"
        count = 0
        for coll, n, p, m, cfg, best_time in report.winners():
            self.put_decision(
                machine, coll, m, cfg,
                expected_time=best_time, source=src, n=n, p=p,
                traffic=traffic,
            )
            count += 1
        return count

    # -- reading -----------------------------------------------------------------

    def get(self, band: str, coll: str, n: int, p: int,
            nbytes: float) -> Optional[dict]:
        """Exact point hit (resolved record), or None."""
        return self._shard(band, coll).get(
            point_key(band, coll, n, p, nbytes)
        )

    def resolved(self, band: str, coll: str, key: str) -> Optional[dict]:
        """The resolved record of one point key, or None."""
        return self._shard(band, coll).get(key)

    def records(self, band: str, coll: str) -> list[dict]:
        """Resolved records of one shard, in canonical point order."""
        return sorted(self._shard(band, coll).values(), key=_point_order)

    def bands(self) -> list[str]:
        """Every band digest with at least one shard."""
        out = {band for (band, _coll), view in self._shards.items() if view}
        if self.root is not None:
            for marker in self.root.glob("*/BAND.json"):
                band = (segstore.read_object(marker) or {}).get("band")
                if isinstance(band, str):
                    out.add(band)
        return sorted(out)

    def colls(self, band: str) -> list[str]:
        out = {coll for (b, coll), view in self._shards.items()
               if b == band and view}
        if self.root is not None:
            band_dir = self._band_dir(band)
            if band_dir.is_dir():
                out.update(d.name for d in band_dir.iterdir() if d.is_dir())
        return sorted(out)

    def __len__(self) -> int:
        """Total resolved decisions across every shard."""
        return sum(
            len(self._shard(band, coll))
            for band in self.bands() for coll in self.colls(band)
        )

    def stats(self) -> dict:
        bands = self.bands()
        return {
            "persistent": self.root is not None,
            "bands": len(bands),
            "shards": sum(len(self.colls(b)) for b in bands),
            "records": len(self),
            "appends": self.appends,
        }

    # -- merge / compaction --------------------------------------------------------

    def merge_from(self, other: "DecisionStore") -> int:
        """Fold every record of ``other`` in; returns records absorbed.

        Records that lose to an already-stored record for the same point
        (older ``wall_time``, or equal-time larger ``config_digest``) are
        skipped, so merging is idempotent and order-independent: any
        merge order of the same stores resolves to the same view.
        """
        absorbed = 0
        for band in other.bands():
            for coll in other.colls(band):
                mine = self._shard(band, coll)
                for rec in other.records(band, coll):
                    cur = mine.get(rec["key"])
                    if cur is None or _wins(rec, cur):
                        self.append(dict(rec))
                        absorbed += 1
        return absorbed

    def compact(self, band: Optional[str] = None,
                coll: Optional[str] = None) -> dict:
        """Fold each shard's files into one immutable, deduped segment.

        The surviving segment is content-named (``seg-<digest>.jsonl``
        over its canonical, sorted lines) and written atomically, so a
        reader never sees a half-compacted shard and re-compacting an
        already-compact shard is a no-op that reproduces the same file.
        Safe under concurrent warmers, and raises rather than lose a
        record when the segment cannot be written
        (:func:`repro.segstore.fold`).
        """
        stats = {"shards": 0, "records": 0, "removed_segments": 0}
        if self.root is None:
            return stats
        for b in ([band] if band else self.bands()):
            for c in ([coll] if coll else self.colls(b)):
                count, gone = segstore.fold(self._shard_dir(b, c),
                                            partial(_resolve, b))
                # reload lazily: the view must match what is on disk,
                # late lines of concurrent writers included
                self._shards.pop((b, c), None)
                if count:
                    stats["shards"] += 1
                    stats["records"] += count
                    stats["removed_segments"] += len(gone)
        self._reset_feed()
        return stats

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        where = str(self.root) if self.root is not None else "memory"
        return f"<DecisionStore {where} records={len(self)}>"
