"""Cross-run observatory: a sharded, content-addressed store of run records.

Every experiment in the repo used to emit a one-off JSON under
``results/`` — impossible to compare across runs.  :class:`RunStore` is
the metrics plane's persistence layer: an append-only JSON-lines store
under ``results/store/`` where every measured collective appends one
*run summary* (headline time, per-rank profile, metrics registry
document, provenance), grouped by a content-addressed key so "the same
point, measured again" lands in the same group.

Key contract — deliberately the :class:`~repro.tuning.cache.MeasurementCache`
contract (same :func:`~repro.tuning.cache.canonical` /
:func:`~repro.tuning.cache.digest` machinery, same ``HanConfig.key()``
tuning identity):

- key = SHA-256 of (machine spec, collective, nbytes, config identity,
  library, store schema version) — everything that defines *what* was
  measured, nothing about *when* or *how well* it went;
- values (the JSONL lines) carry the measured outcome plus provenance
  (``source`` experiment, wall-clock timestamp, schema version);
- appends are a single ``O_APPEND`` write of one line, so concurrent
  experiments can share a store directory without locks.

Fleet-scale layout — the shard protocol of :mod:`repro.segstore`
(append, torn-tolerant read, fold, sidecar), with this store's policy:

- **shard** — one directory per key prefix: ``<root>/<key[:2]>/``.
- **segment** — :meth:`RunStore.compact` keeps every distinct canonical
  line, sorted by ``(key, wall_time, line)``, so the surviving segment
  bytes are a pure function of the record *set* — any append
  interleaving compacts to byte-identical segments.  Segments carry the
  ``.idx.json`` sidecar, so :meth:`latest` seeks straight to a group's
  newest record and :meth:`keys` never parses segment lines.
- **history order** — :meth:`runs` returns a group sorted by
  ``(wall_time, canonical line)``: a deterministic total order that is
  identical before and after compaction and in any merge order.
- **legacy files** — the pre-sharding layout (one
  ``<key[:2]>/<key>.jsonl`` per group) is read transparently and folded
  into segments by the first :meth:`compact`.
- **tail** — :meth:`tail` is a cursor-based change feed over the
  shards' open files; the incremental insight engine
  (:class:`~repro.obs.insights.InsightEngine`) follows it so insights
  update per appended record instead of per sweep.
- **pairs** — every read yields a record with its canonical line (the
  dedup identity and the order tiebreak): segment lines as read,
  records of the open tail, ``pend-*`` snapshots and legacy files
  canonicalized once (:func:`repro.segstore.read_pairs`).
  :meth:`tail_pairs` and :meth:`group_pairs` hand those lines on, so
  the insight engine never re-serializes a stored record.

The insight engine (:mod:`repro.obs.insights`) consumes these groups
for guideline checks and MAD-band regression detection.
"""

from __future__ import annotations

import os
import time
from pathlib import Path
from typing import TYPE_CHECKING, Iterator, Optional

from repro import segstore
from repro.tuning.cache import digest, machine_memo

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.config import HanConfig
    from repro.hardware.spec import MachineSpec
    from repro.tuning.measure import CollectiveMeasurement

__all__ = [
    "STORE_SCHEMA_VERSION",
    "RunStore",
    "band_digest",
    "config_digest",
    "run_key",
    "summarize_measurement",
    "summarize_point",
    "traffic_digest",
]

#: bump when the summary-line layout changes incompatibly
STORE_SCHEMA_VERSION = 1

#: key-prefix characters that name a shard directory
_SHARD_CHARS = 2


def config_digest(config: Optional["HanConfig"]) -> str:
    """Stable digest of a configuration's tuning identity (seed excluded)."""
    key = list(config.key()) if config is not None else None
    return digest("hanconfig", config=key)


def band_digest(machine: "MachineSpec") -> str:
    """Stable digest of the machine's hardware band (geometry erased).

    The one fleet identity: run summaries are stamped with it, the fleet
    rollup (:mod:`repro.obs.fleet`) groups findings by it, and the
    decision store (:mod:`repro.serve.store`) shards by it — so a
    finding joins to the serve shard it indicts.  Two jobs of different
    sizes on the same hardware share a band.
    """
    return machine_memo(_BAND_DIGESTS, machine, _band_digest)


#: band_digest() per machine object: ``band()`` builds a fresh spec, so
#: without it every stored decision re-canonicalizes the whole machine
_BAND_DIGESTS: dict[int, tuple] = {}


def _band_digest(machine: "MachineSpec") -> str:
    # kind and schema are frozen: they name every decision store's band
    # directories on disk
    return digest("machine-band", schema=1, machine=machine.band())


def traffic_digest(traffic) -> str:
    """Stable digest of a resolved :class:`~repro.tenancy.TrafficPlan`.

    Identifies one background-traffic realization (tenants + seed +
    trial) so loaded measurements can be grouped, compared and served
    without shipping the whole plan around.
    """
    return digest("trafficplan", traffic=traffic)


def run_key(
    machine: "MachineSpec",
    coll: str,
    nbytes: float,
    config: Optional["HanConfig"] = None,
    library: str = "han",
    extra=None,
) -> str:
    """Content-addressed group key: *what* was measured, never when.

    ``extra`` folds additional platform identity into the key (e.g. the
    resolved fault plan) so perturbed runs never share a group — and
    hence a regression band — with clean ones.
    """
    return digest(
        "runstore",
        schema=STORE_SCHEMA_VERSION,
        machine=machine,
        coll=coll,
        nbytes=float(nbytes),
        config=list(config.key()) if config is not None else None,
        library=library,
        extra=extra,
    )


def summarize_measurement(
    machine: "MachineSpec",
    meas: "CollectiveMeasurement",
    source: str = "measure_collective",
    library: str = "han",
    metrics: Optional[dict] = None,
    plan=None,
    traffic=None,
) -> dict:
    """One store line for a :class:`CollectiveMeasurement`.

    ``plan`` is the resolved fault plan and ``traffic`` the resolved
    background :class:`~repro.tenancy.TrafficPlan` the measurement ran
    under (or ``None``); both are part of the group key, keeping noisy,
    loaded and clean runs in separate comparison groups.  ``traffic_digest``
    lets consumers (serve store, dashboards) group loaded runs by the
    exact traffic plan without re-canonicalizing it.
    """
    extra = {}
    if plan is not None:
        extra["plan"] = plan
    if traffic is not None:
        extra["traffic"] = traffic
    return {
        "schema_version": STORE_SCHEMA_VERSION,
        "key": run_key(machine, meas.coll, meas.nbytes, meas.config,
                       library=library, extra=extra or None),
        "faulted": plan is not None,
        "loaded": traffic is not None,
        "traffic_digest": traffic_digest(traffic) if traffic is not None else None,
        "machine": f"{machine.name} {machine.num_nodes}x{machine.ppn}",
        "band": band_digest(machine),
        "coll": meas.coll,
        "nbytes": float(meas.nbytes),
        "library": library,
        "config": meas.config.describe() if meas.config is not None else "",
        "config_digest": config_digest(meas.config),
        "time": meas.time,
        "per_rank": list(meas.per_rank),
        "trials": len(meas.trial_times) or 1,
        "spread": meas.spread,
        "sim_cost": meas.sim_cost,
        "metrics": dict(metrics) if metrics else {},
        "source": source,
        "wall_time": time.time(),
    }


def summarize_point(
    machine: "MachineSpec",
    coll: str,
    nbytes: float,
    time_s: float,
    config: Optional["HanConfig"] = None,
    library: str = "han",
    source: str = "bench",
    per_rank=(),
    sim_cost: float = 0.0,
) -> dict:
    """One store line for a bare (collective, size, time) data point.

    For callers that hold only a headline number.  Measured runs, HAN's
    and every rival library's, log through
    :meth:`~repro.tuning.parallel.MeasurePoint.log`; a rival's line there
    has the key this function gives it (``config=None``).
    """
    return {
        "schema_version": STORE_SCHEMA_VERSION,
        "key": run_key(machine, coll, nbytes, config, library=library),
        "faulted": False,
        "machine": f"{machine.name} {machine.num_nodes}x{machine.ppn}",
        "band": band_digest(machine),
        "coll": coll,
        "nbytes": float(nbytes),
        "library": library,
        "config": config.describe() if config is not None else "",
        "config_digest": config_digest(config),
        "time": float(time_s),
        "per_rank": list(per_rank),
        "trials": 1,
        "spread": 0.0,
        "sim_cost": float(sim_cost),
        "metrics": {},
        "source": source,
        "wall_time": time.time(),
    }


def _resolve(docs: list) -> list[tuple[str, str]]:
    """Fold policy: dedup by canonical line, order by
    ``(key, wall_time, line)`` — a pure function of the record set."""
    by_line = {segstore.canonical_line(doc): doc for doc in docs}
    return sorted(
        ((doc["key"], line) for line, doc in by_line.items()),
        key=lambda pair: (pair[0],
                          segstore.order_key(by_line[pair[1]], pair[1])),
    )


def _history(by_line: dict) -> list[tuple[dict, str]]:
    """Deduped records ``{canonical line: doc}`` as ``(doc, line)``
    pairs in history order."""
    return [(by_line[line], line) for line in sorted(
        by_line, key=lambda line: segstore.order_key(by_line[line], line))]


def _listing(shard: str) -> list[os.DirEntry]:
    """The ``*.jsonl`` entries of a shard directory, by name.

    A shard that vanished, or was replaced by a file, after the root was
    listed reads as empty, as it would have a moment later.
    """
    try:
        with os.scandir(shard) as it:
            return sorted((e for e in it if e.name.endswith(".jsonl")),
                          key=lambda e: e.name)
    except OSError:
        return []


def _size(entry: os.DirEntry) -> int:
    """Size of a listed file; -1 once it is gone."""
    try:
        return entry.stat().st_size
    except OSError:
        return -1


class RunStore:
    """Sharded append-only JSON-lines store of run summaries.

    A policy over :mod:`repro.segstore`: records shard by key prefix
    (``<root>/<key[:2]>/``), a fold keeps every distinct canonical line
    sorted by ``(key, wall_time, line)``, and segments carry the
    ``.idx.json`` sidecar that :meth:`latest` and :meth:`keys` seek by.
    The pre-sharding per-group layout (``<key[:2]>/<key>.jsonl``) is
    read transparently.
    """

    def __init__(self, root: os.PathLike):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.appends = 0
        #: segment path -> {key: [line offsets]}; segments are immutable
        #: and content-named, so a path's index never goes stale
        self._idx_cache: dict[str, dict] = {}
        #: shard name -> path of its open tail
        self._open: dict[str, str] = {}

    # -- layout ----------------------------------------------------------------

    def _shard_dir(self, key: str) -> str:
        return os.path.join(self.root, key[:_SHARD_CHARS])

    def _shards(self) -> list[os.DirEntry]:
        """The shard directories under the root, by name."""
        with os.scandir(self.root) as it:
            return sorted((e for e in it if e.is_dir()), key=lambda e: e.name)

    @staticmethod
    def _shard_files(shard: str) -> tuple[list[str], list[str]]:
        """One listing of a shard: its segments, and the files that must
        be parsed line by line (the open tail, mid-compaction ``pend-*``
        snapshots and legacy per-group files)."""
        segs: list[str] = []
        mutable: list[str] = []
        for e in _listing(shard):
            (segs if segstore.is_segment(e.name) else mutable).append(e.path)
        return segs, mutable

    # -- writing ---------------------------------------------------------------

    def append(self, doc: dict) -> str:
        """Append one run summary; returns its group key."""
        key = doc.get("key")
        if not key:
            raise ValueError("run summary must carry a 'key' (see run_key)")
        doc.setdefault("schema_version", STORE_SCHEMA_VERSION)
        shard = key[:_SHARD_CHARS]
        path = self._open.get(shard)
        if path is None:
            path = self._open[shard] = os.path.join(self.root, shard,
                                                    segstore.OPEN)
        segstore.append_line(path, segstore.canonical_line(doc))
        self.appends += 1
        return key

    def merge_from(self, other: "RunStore") -> int:
        """Append every record of ``other``; returns records copied.

        Records already present collapse on read (dedup by canonical
        line) and fold away at the next :meth:`compact`, so merging is
        idempotent and order-independent at the record-set level.
        """
        copied = 0
        for _key, runs in other.groups():
            for doc in runs:
                self.append(dict(doc))
                copied += 1
        return copied

    # -- reading ---------------------------------------------------------------
    #
    # A reader that needs identity or order gets (doc, canonical line)
    # pairs: segment lines as read, other files' records canonicalized
    # once by segstore.read_pairs.

    def _seg_index(self, seg: str) -> dict:
        keys = self._idx_cache.get(seg)
        if keys is None:
            keys = self._idx_cache[seg] = \
                segstore.load_index(Path(seg))["keys"]
        return keys

    @staticmethod
    def _seg_records_at(seg: str, offsets) -> Iterator[tuple[dict, str]]:
        try:
            with open(seg, "rb") as fh:
                for off in offsets:
                    fh.seek(off)
                    raw = fh.readline()
                    line = raw.decode("utf-8", errors="replace").strip()
                    doc = segstore.parse_line(line)
                    if doc is not None:
                        yield doc, line
        except OSError:
            return

    def _shard_groups(self, shard: str, only: Optional[str] = None,
                      ) -> dict[str, dict[str, dict]]:
        """A shard's deduped records (or just group ``only``'s), as
        ``{key: {canonical line: doc}}``."""
        by_key: dict[str, dict[str, dict]] = {}
        segs, mutable = self._shard_files(shard)
        for seg in segs:
            idx = self._seg_index(seg)
            for key in (idx if only is None else {only} & idx.keys()):
                bucket = by_key.setdefault(key, {})
                for doc, line in self._seg_records_at(seg, idx[key]):
                    bucket[line] = doc
        for f in mutable:
            for doc, line in segstore.read_pairs(f, key=only)[0]:
                by_key.setdefault(doc["key"], {})[line] = doc
        return by_key

    def keys(self) -> list[str]:
        """Every group key — from segment indexes plus the open tails."""
        out: set[str] = set()
        for shard in self._shards():
            segs, mutable = self._shard_files(shard.path)
            for seg in segs:
                out.update(self._seg_index(seg))
            for f in mutable:
                out.update(doc["key"] for doc in segstore.read_docs(f)[0])
        return sorted(out)

    def runs(self, key: str) -> list[dict]:
        """Every stored run for a group, in deterministic history order
        (``wall_time``, then canonical line)."""
        groups = self._shard_groups(self._shard_dir(key), only=key)
        return [doc for doc, _line in _history(groups.get(key, {}))]

    def latest(self, key: str) -> Optional[dict]:
        """Newest run of a group.

        Fast path: each segment contributes only its index-addressed
        newest record for the key; only the shard's small mutable tail
        (``open.jsonl`` and friends) is parsed in full.
        """
        segs, mutable = self._shard_files(self._shard_dir(key))
        newest: list[tuple[dict, str]] = []
        for seg in segs:
            # segment lines are sorted by (key, wall_time, line): the
            # key's last offset is its newest record in this segment
            offs = self._seg_index(seg).get(key, ())[-1:]
            newest.extend(self._seg_records_at(seg, offs))
        for f in mutable:
            newest.extend(segstore.read_pairs(f, key=key)[0])
        best = max(newest, key=lambda pair: segstore.order_key(*pair),
                   default=None)
        return best[0] if best is not None else None

    def group_pairs(self) -> Iterator[tuple[str, list[tuple[dict, str]]]]:
        """Stream ``(key, [(run, canonical line), ...])`` in history
        order, one shard in memory at a time."""
        for shard in self._shards():
            by_key = self._shard_groups(shard.path)
            for key in sorted(by_key):
                yield key, _history(by_key[key])

    def groups(self) -> Iterator[tuple[str, list[dict]]]:
        """Stream ``(key, runs)`` pairs, one shard in memory at a time:
        :meth:`group_pairs` without the lines."""
        for key, pairs in self.group_pairs():
            yield key, [doc for doc, _line in pairs]

    def __len__(self) -> int:
        """Total stored runs (not groups); streams shard by shard."""
        return sum(len(pairs) for _, pairs in self.group_pairs())

    # -- compaction ------------------------------------------------------------

    def compact(self, prefix: Optional[str] = None) -> dict:
        """Fold each shard's files into one immutable, deduped segment.

        Records are re-canonicalized, deduped by canonical line and
        sorted by ``(key, wall_time, line)``, so the surviving segment
        is a pure function of the record *set*: any append interleaving
        of the same records compacts to byte-identical segments, and
        re-compacting an already-compact shard is a no-op.  Safe under
        concurrent writers, and raises rather than lose a record when
        the segment cannot be written (:func:`repro.segstore.fold`).
        """
        stats = {"shards": 0, "records": 0, "removed_files": 0}
        for shard in self._shards():
            if prefix is not None and shard.name != prefix[:_SHARD_CHARS]:
                continue
            count, gone = segstore.fold(Path(shard.path), _resolve,
                                        sidecar=True)
            for f in gone:
                self._idx_cache.pop(str(f), None)
            if count:
                stats["shards"] += 1
                stats["records"] += count
                stats["removed_files"] += len(gone)
        return stats

    # -- streaming ingest ------------------------------------------------------

    def tail(self, cursor: Optional[dict] = None,
             ) -> tuple[list[dict], dict]:
        """Change feed: records appended since ``cursor``.

        Returns ``(records, cursor)``; pass the cursor back to get only
        newer records.  :meth:`tail_pairs` is the same feed with each
        record's canonical line.
        """
        pairs, cursor = self.tail_pairs(cursor)
        return [doc for doc, _line in pairs], cursor

    def tail_pairs(self, cursor: Optional[dict] = None,
                   ) -> tuple[list[tuple[dict, str]], dict]:
        """Change feed as ``(record, canonical line)`` pairs.

        Returns ``(pairs, cursor)``; pass the cursor back to get only
        newer records.  The cursor is a plain JSON-serializable dict, so
        a follower can persist it across processes.  Steady state lists
        each shard once and reads only the bytes appended to its files
        since the cursor; a file whose size still equals its offset is
        not opened.  Each new record of ``open.jsonl`` is canonicalized
        once, here, and the line travels with it, so a follower
        (:meth:`~repro.obs.insights.InsightEngine.follow`) need not
        re-serialize it.  When a shard's file set changed underneath
        the cursor (a compaction), the shard is re-read (its segment
        lines are already canonical) and already-delivered records are
        filtered out by the cursor's high-water mark (max delivered
        ``(wall_time, line)``), so followers see no duplicates.  Records
        back-dated below the mark that land *during* a compaction window
        may be skipped — followers needing them should re-ingest from
        scratch.
        """
        state = {} if cursor is None else dict(cursor.get("shards", {}))
        batch: list[tuple[tuple[float, str], dict]] = []
        new_state: dict[str, dict] = {}
        for shard in self._shards():
            files = _listing(shard.path)
            st = state.get(shard.name)
            mark = None
            offsets: dict[str, int] = {}
            if st is not None:
                mark = tuple(st["mark"]) if st.get("mark") else None
                offsets = dict(st.get("files", {}))
            sizes = None
            if st is not None and set(offsets) == {f.name for f in files}:
                sizes = {f.name: _size(f) for f in files}
            # a file that shrank was truncated or replaced
            same_files = sizes is not None and all(
                sizes[name] >= offsets[name] for name in sizes)
            got: list[tuple[tuple[float, str], dict]] = []
            new_offsets: dict[str, int] = {}
            seen: set[str] = set()
            for f in files:
                start = offsets[f.name] if same_files else 0
                if same_files and sizes[f.name] == start:
                    new_offsets[f.name] = start  # nothing appended
                    continue
                pairs, new_offsets[f.name] = segstore.read_pairs(f.path, start)
                for doc, line in pairs:
                    ok = segstore.order_key(doc, line)
                    # first sight of this shard, or its files changed
                    # underneath us (compaction): everything was re-read,
                    # so dedup by line and by the high-water mark
                    if not same_files:
                        if line in seen or mark is not None and ok <= mark:
                            continue
                        seen.add(line)
                    got.append((ok, doc))
            got.sort(key=lambda pair: pair[0])
            if got:
                top = got[-1][0]
                mark = top if mark is None or top > mark else mark
            batch.extend(got)
            new_state[shard.name] = {
                "files": new_offsets,
                "mark": list(mark) if mark is not None else None,
            }
        batch.sort(key=lambda pair: pair[0])
        # an order key is (wall_time, canonical line)
        return ([(doc, ok[1]) for ok, doc in batch],
                {"schema": STORE_SCHEMA_VERSION, "shards": new_state})

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<RunStore {self.root} groups={len(self.keys())}>"
