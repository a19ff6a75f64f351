"""The high-traffic query API over a :class:`~repro.serve.store.DecisionStore`.

:class:`DecisionService` answers batches of
``(machine | band, collective, nbytes, commsize)`` queries at memory
speed.  Resolution mirrors the runtime decision contract of
:meth:`repro.tuning.lookup.LookupTable.decide` — geometry dominates,
message size is the fastest-varying axis, equidistant candidates break
ties on the canonical ``(n, p, nbytes)`` order — and every answer is
stamped with provenance:

=============  ==================================================
``exact``      the point was tuned: geometry and nbytes both hit
``nearest``    resolved to the log-scale nearest sampled point
``interpolated``  nbytes falls strictly between two samples of the
               matching geometry; the nearer sample's config is
               served and ``expected_time`` is log-log interpolated
``default``    no shard for (band, coll): the untuned
               :meth:`~repro.core.han.HanModule.default_config`
=============  ==================================================

Before an answer leaves the service it gets a guideline verdict
(:func:`validate_decision`): the record's own integrity, then the
guideline catalog of :mod:`repro.obs.insights` over its shard
neighborhood.  Violations are counted, and under ``strict=True`` the
config is *refused* (the answer carries the verdict and the rejected
config, but no servable config).  Verdicts and parsed configs are
cached per underlying record, so validation costs nothing on the hot
repeated-hit path.

Everything that depends only on the store is derived once per shard
index (:class:`_ShardIndex`), never per query: besides those verdicts
and configs, the ``log2`` of every stored commsize (the nearest
geometries are a bisection plus a scan over ties) and, while the shard
is empty, its one default verdict; the default config is one of the
shared frozen constants of :meth:`~repro.core.han.HanModule.default_config`.
No cache is keyed by the query.  The store's change feed keeps all of
it exact: a changed point is re-indexed in place (a new geometry
inserts its ``log2``), and only the verdicts that read it are dropped
(see :meth:`DecisionService._apply`); a default verdict needs no drop,
as the first record makes its index non-empty for good.  A query with
no valid answer raises :class:`QueryError` (see
:meth:`DecisionService._resolve`).

The service keeps a metrics registry
(:class:`~repro.obs.metrics.MetricsRegistry`) — decision counters per
(provenance, collective), violation/refusal counters, a batch-latency
histogram — and bounded wall-clock :class:`~repro.obs.core.Span` records
on the batch query path, so a serving process exports through the same
observability plane as the simulator.
"""

from __future__ import annotations

import time
from bisect import bisect_left, insort
from dataclasses import dataclass
from math import inf, log2
from typing import Optional, Sequence

from repro.core.config import HanConfig
from repro.core.han import HanModule
from repro.obs.core import Span
from repro.obs.insights import (
    COMPOSITIONS,
    Insight,
    composition_check,
    is_valid_time,
    make_insight,
    monotone_check,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.severity import GRADE_RANK, Severity
from repro.obs.store import config_digest
from repro.serve.store import DecisionStore, band_digest

__all__ = [
    "Decision",
    "DecisionService",
    "Query",
    "QueryError",
    "Verdict",
    "validate_decision",
]

_EPS = 1e-12

#: empty shard indexes (unknown bands, unstored collectives) a service
#: keeps before it drops them all: a stream of queries for ever new
#: unknown bands cannot grow a long-lived service without bound
_EMPTY_INDEXES_MAX = 1024

#: grade of a record that fails its own integrity: an error with no
#: seconds to cost
_CORRUPT = Severity(grade="error", cost_seconds=0.0, cost_bytes=0.0,
                    rel_excess=inf)


@dataclass(frozen=True)
class Verdict:
    """Aggregate validation outcome stamped onto every served answer."""

    ok: bool
    severity: str  # worst check grade: "ok" | "warn" | "error"
    checks: tuple[Insight, ...]
    cost_seconds: float  # summed seconds cost of every violation

    def to_doc(self) -> dict:
        return {
            "ok": self.ok, "severity": self.severity,
            "cost_seconds": self.cost_seconds,
            "checks": [{"name": c.name, "passed": c.passed,
                        "severity": c.grade, "detail": c.detail,
                        "cost_seconds": c.cost_seconds}
                       for c in self.checks],
        }


def verdict_from(checks: Sequence[Insight]) -> Verdict:
    return Verdict(
        ok=all(c.passed for c in checks),
        severity=max((c.grade for c in checks), key=GRADE_RANK.__getitem__,
                     default="ok"),
        checks=tuple(checks),
        cost_seconds=sum(c.cost_seconds for c in checks if not c.passed),
    )


def _corrupt(name: str, detail: str) -> Insight:
    return make_insight(name, "record", False, detail, sev=_CORRUPT)


#: the passing integrity check, the same for every sound record
_INTEGRITY_OK = make_insight("config integrity", "record", True,
                             "config_digest matches payload")


def validate_decision(
    answer: dict,
    neighbors: Sequence[dict] = (),
    composition_times: Optional[dict] = None,
) -> Verdict:
    """Validate one decision record against its shard neighborhood.

    ``answer`` is a decision record (see
    :func:`~repro.serve.store.decision_record`); ``neighbors`` are the
    records of the same (band, coll, n, p) -- the monotonicity axis;
    ``composition_times`` maps operand collective names to their stored
    expected times at the answer's point, when the shard has them.

    The record must carry a ``config_digest`` that matches its config (a
    tampered or torn entry fails closed) and, if it has an
    ``expected_time``, a positive finite one.  That time is then judged
    by the guideline catalog: monotone against every neighbor whose
    time is positive and finite, and its composition bound when every
    operand time is.  Violations are graded and costed in seconds.
    """
    checks: list[Insight] = []
    cfg = answer.get("config")
    stamped = answer.get("config_digest")
    if cfg is not None and stamped:
        try:
            actual = config_digest(HanConfig(**cfg))
        except (TypeError, ValueError) as exc:
            checks.append(_corrupt(
                "config decodes", f"stored config does not decode: {exc}"))
        else:
            if actual == stamped:
                checks.append(_INTEGRITY_OK)
            else:
                checks.append(_corrupt(
                    "config integrity",
                    f"config_digest {stamped[:12]} does not match payload "
                    f"digest {actual[:12]} (tampered or torn record)"))

    t = answer.get("expected_time")
    if t is None:
        # nothing further to validate without a time estimate
        return verdict_from(checks)
    if not is_valid_time(t):
        checks.append(_corrupt(
            "finite expected_time",
            f"expected_time {t!r} is not a positive finite number"))
        return verdict_from(checks)
    checks.append(make_insight("finite expected_time", "record", True,
                               f"{t:.3e}s"))

    m = float(answer.get("nbytes", 0.0))
    judged, unjudged = 0, len(checks)
    for nb in neighbors:
        tn = nb.get("expected_time")
        if not is_valid_time(tn):
            continue
        judged += 1
        mn = float(nb.get("nbytes", 0.0))
        if mn == m:
            continue
        sev = (monotone_check(tn, t, nbytes=mn) if mn < m
               else monotone_check(t, tn, nbytes=m))
        if sev is None:
            continue
        checks.append(make_insight(
            f"monotone nbytes (vs {mn:g}B)", "guideline", False,
            f"served {m:g}B at {t:.3e}s dips below the stored "
            f"{mn:g}B point at {tn:.3e}s" if mn < m else
            f"served {m:g}B at {t:.3e}s exceeds the stored larger "
            f"{mn:g}B point at {tn:.3e}s (stale or mis-keyed entry)",
            sev=sev))
    if judged and len(checks) == unjudged:
        checks.append(make_insight(
            "monotone nbytes", "guideline", True,
            f"consistent with {judged} shard neighbor(s)"))

    coll = answer.get("coll")
    if composition_times and coll in COMPOSITIONS:
        check = composition_check(
            coll, t, composition_times,
            f"{coll} <= {'+'.join(COMPOSITIONS[coll])}", nbytes=m,
            terse=True)
        if check is not None:
            checks.append(check)
    return verdict_from(checks)


@dataclass(frozen=True)
class Query:
    """One runtime decision request.

    Identify the platform either by ``machine`` (a
    :class:`~repro.hardware.spec.MachineSpec`; its band digest and
    ``num_ranks`` are derived) or directly by ``band`` digest plus
    ``commsize``.
    """

    coll: str
    nbytes: float
    commsize: int = 0  # 0 = derive from machine.num_ranks
    machine: Optional[object] = None
    band: Optional[str] = None


class QueryError(ValueError):
    """A query with no valid answer.

    ``index`` is its place in the batch when
    :meth:`DecisionService.decide_batch` raised it, else ``None``.
    """

    index: Optional[int] = None


@dataclass(frozen=True)
class Decision:
    """One served answer: config + provenance + guideline verdict."""

    query: Query
    config: Optional[HanConfig]
    provenance: str  # "exact" | "nearest" | "interpolated" | "default"
    expected_time: Optional[float]
    verdict: Verdict
    refused: bool = False
    #: point key of the underlying store record ("" for default answers)
    source_key: str = ""
    #: config withheld by strict mode (None unless refused)
    rejected_config: Optional[HanConfig] = None

    def to_doc(self) -> dict:
        q = self.query
        return {
            "coll": q.coll,
            "nbytes": float(q.nbytes),
            "commsize": int(q.commsize),
            "band": q.band or "",
            "provenance": self.provenance,
            "config": (self.config.to_dict()
                       if self.config is not None else None),
            "rejected_config": (self.rejected_config.to_dict()
                                if self.rejected_config is not None else None),
            "expected_time": self.expected_time,
            "refused": self.refused,
            "verdict": self.verdict.to_doc(),
            "source_key": self.source_key,
        }


class _ShardIndex:
    """Point/geometry/size indexes over one shard's resolved records."""

    __slots__ = ("points", "geoms", "log_commsizes", "sizes", "comm_geom",
                 "default_verdict")

    def __init__(self, records: Sequence[dict]):
        #: (n, p, nbytes) -> record  (the O(1) exact-hit path)
        self.points: dict[tuple[int, int, float], dict] = {}
        #: sorted [(commsize, n, p)] for geometry-distance scans
        self.geoms: list[tuple[int, int, int]] = []
        #: log2(commsize) of each entry of ``geoms``, in the same order
        self.log_commsizes: list[float] = []
        #: (n, p) -> sorted sampled nbytes
        self.sizes: dict[tuple[int, int], list[float]] = {}
        #: commsize -> canonical (n, p) when exactly one geometry has it
        self.comm_geom: dict[int, Optional[tuple[int, int]]] = {}
        #: the verdict of every default answer while the shard is empty
        self.default_verdict: Optional[Verdict] = None
        for rec in records:
            self.add(rec)

    def add(self, rec: dict) -> tuple[int, int, float]:
        """Insert or replace one record; returns its ``(n, p, nbytes)``."""
        n, p, m = int(rec["n"]), int(rec["p"]), float(rec["nbytes"])
        fresh = (n, p, m) not in self.points
        self.points[(n, p, m)] = rec
        sizes = self.sizes.get((n, p))
        if sizes is None:  # a new geometry
            self.sizes[(n, p)] = [m]
            i = bisect_left(self.geoms, (n * p, n, p))
            self.geoms.insert(i, (n * p, n, p))
            self.log_commsizes.insert(i, log2(n * p))
            # a second geometry of one commsize makes it ambiguous
            self.comm_geom[n * p] = (
                (n, p) if n * p not in self.comm_geom else None)
        elif fresh:
            insort(sizes, m)
        return n, p, m

    def nearest_geoms(self, commsize: int) -> tuple[list[tuple[int, int]],
                                                     float]:
        """The ``(n, p)`` of smallest log2 distance to ``commsize``, in
        ``geoms`` order with every tie within ``_EPS`` kept, and that
        distance.

        Float subtraction is monotone, so on either side of
        ``log2(commsize)`` the distance grows outward: the nearest
        geometry borders the bisection point and the ties are one
        contiguous run around it -- the same set a scan of every
        geometry keeps.
        """
        lc = log2(commsize)
        logs = self.log_commsizes
        i = bisect_left(logs, lc)
        best = min(lc - logs[i - 1] if i else inf,
                   logs[i] - lc if i < len(logs) else inf)
        lo = hi = i
        while lo and lc - logs[lo - 1] <= best + _EPS:
            lo -= 1
        while hi < len(logs) and logs[hi] - lc <= best + _EPS:
            hi += 1
        return [(n, p) for _c, n, p in self.geoms[lo:hi]], best

    def __bool__(self) -> bool:
        return bool(self.points)


#: operand collective -> the collectives whose composition bound reads it
_COMPOSITES = {
    op: tuple(c for c, ops in COMPOSITIONS.items() if op in ops)
    for ops in COMPOSITIONS.values() for op in ops
}


def _default_verdict(reason: str) -> Verdict:
    return verdict_from([make_insight("default config", "record", True,
                                      reason)])


class DecisionService:
    """Batched tuned-decision serving over a sharded store."""

    def __init__(
        self,
        store: DecisionStore,
        strict: bool = False,
        max_spans: int = 256,
    ):
        self.store = store
        self.strict = strict
        self.metrics = MetricsRegistry()
        #: bounded wall-clock spans over decide_batch calls
        self.spans: list[Span] = []
        self.max_spans = max_spans
        self._next_sid = 0
        # everything derived from the store, as of store version _seen:
        # shard indexes, and per record key its verdict and parsed config
        self._seen = store.version
        self._indexes: dict[tuple[str, str], _ShardIndex] = {}
        # the empty ones (each keeps its default verdict), bounded by
        # _EMPTY_INDEXES_MAX
        self._empty: dict[tuple[str, str], _ShardIndex] = {}
        self._verdicts: dict[str, Verdict] = {}
        self._configs: dict[str, HanConfig] = {}
        # decision counter handle per (provenance, coll)
        self._decided: dict[tuple[str, str], object] = {}

    # -- plumbing ----------------------------------------------------------------

    def _index(self, band: str, coll: str) -> _ShardIndex:
        key = (band, coll)
        idx = self._indexes.get(key)
        if idx is not None:
            return idx
        idx = self._empty.get(key)
        if idx is None:
            idx = _ShardIndex(self.store.records(band, coll))
            if idx:
                self._indexes[key] = idx
                return idx
            if len(self._empty) >= _EMPTY_INDEXES_MAX:
                # a composite's cached verdict may have read an operand
                # through one of them: the verdicts go too
                self._empty.clear()
                self._verdicts.clear()
            self._empty[key] = idx
        return idx

    def _sync(self) -> None:
        """Catch up with the store's change feed."""
        changes = self.store.changes(self._seen)
        self._seen = self.store.version
        if changes is None:  # views reloaded: nothing derived survives
            self._indexes.clear()
            self._empty.clear()
            self._verdicts.clear()
            self._configs.clear()
            return
        for band, coll, key in changes:
            self._apply(band, coll, key)

    def _apply(self, band: str, coll: str, key: str) -> None:
        """Re-index one changed point and drop what was derived from it.

        A verdict reads its own record, the records of the same
        ``(band, coll, n, p)`` (the monotone neighbors) and, for a
        composite collective, its operands at the same point; nothing
        else.  So a change drops its own config and verdict, its
        neighbors' verdicts and the verdict of each composite it is an
        operand of.  A shard with no index yet has nothing derived from
        it: computing any of those verdicts indexes it first (and
        dropping the empty indexes drops every verdict).
        """
        idx = self._indexes.get((band, coll))
        if idx is None:
            idx = self._empty.pop((band, coll), None)
            if idx is None:
                return
            self._indexes[(band, coll)] = idx
        n, p, m = idx.add(self.store.resolved(band, coll, key))
        self._configs.pop(key, None)
        stale = [idx.points[(n, p, ms)] for ms in idx.sizes[(n, p)]]
        for composite in _COMPOSITES.get(coll, ()):
            parent = self._indexes.get((band, composite))
            if parent is not None and (n, p, m) in parent.points:
                stale.append(parent.points[(n, p, m)])
        for rec in stale:
            self._verdicts.pop(rec["key"], None)

    def _resolve(self, q: Query) -> Query:
        """The query as it is answered: band and commsize resolved,
        nbytes a float, no machine -- the caller's own query when it
        already is one.

        The one place a query is judged: a :class:`QueryError` naming
        the field and its value for a query with no valid answer (NaN,
        infinite or negative nbytes; a commsize that is not a positive
        integer).
        """
        band = q.band
        if not band and q.machine is not None:
            try:
                band = band_digest(q.machine)
            except ValueError as exc:
                raise QueryError(f"query machine {q.machine.name!r} has no "
                                 f"hardware band: {exc}") from None
        if not band:
            raise QueryError("query needs a machine or a band digest")
        commsize = q.commsize
        if not commsize:  # 0: derive from the machine
            if q.machine is None:
                raise QueryError(
                    "query needs a positive commsize or a machine")
            commsize = q.machine.num_ranks
        elif type(commsize) is not int:
            try:
                integral = commsize == int(commsize)
            except (TypeError, ValueError, OverflowError):
                integral = False
            if not integral:
                raise QueryError(f"query commsize must be a positive "
                                 f"integer, got {commsize!r}")
            commsize = int(commsize)
        if commsize <= 0:
            raise QueryError(f"query commsize must be a positive integer, "
                             f"got {q.commsize!r}")
        try:
            m = float(q.nbytes)
        except (TypeError, ValueError):
            m = None
        if m is None or not 0.0 <= m < inf:
            raise QueryError(f"query nbytes must be a finite number >= 0, "
                             f"got {q.nbytes!r}")
        if (q.machine is None and type(q.commsize) is int
                and type(q.nbytes) is float):
            return q
        return Query(q.coll, m, commsize, None, band)

    # -- validation --------------------------------------------------------------

    def _verdict_for(self, band: str, rec: dict) -> Verdict:
        cached = self._verdicts.get(rec["key"])
        if cached is not None:
            return cached
        n, p, m = int(rec["n"]), int(rec["p"]), float(rec["nbytes"])
        coll = rec["coll"]
        idx = self._index(band, coll)
        neighbors = [
            idx.points[(n, p, ms)]
            for ms in idx.sizes.get((n, p), ()) if ms != m
        ]
        comp_times = None
        operands = COMPOSITIONS.get(coll, ())
        if operands:
            comp_times = {}
            for op in operands:
                op_rec = self._index(band, op).points.get((n, p, m))
                comp_times[op] = (op_rec or {}).get("expected_time")
        verdict = validate_decision(rec, neighbors=neighbors,
                                    composition_times=comp_times)
        self._verdicts[rec["key"]] = verdict
        return verdict

    # -- the decision path -------------------------------------------------------

    def decide(self, q: Query) -> Decision:
        if self._seen != self.store.version:
            self._sync()
        asked = self._resolve(q)
        band, commsize, m = asked.band, asked.commsize, asked.nbytes
        idx = self._index(band, q.coll)

        if not idx:
            verdict = idx.default_verdict
            if verdict is None:
                verdict = idx.default_verdict = _default_verdict(
                    f"no decisions stored for band {band[:12]}/{q.coll}")
            decision = Decision(
                query=asked,
                config=HanModule.default_config(m),
                provenance="default",
                expected_time=None,
                verdict=verdict,
            )
            self._count(decision)
            return decision

        # O(1) exact-hit fast path: known geometry, sampled nbytes
        rec = None
        if q.machine is not None:
            rec = idx.points.get((q.machine.num_nodes, q.machine.ppn, m))
        if rec is None:
            geom = idx.comm_geom.get(commsize)
            if geom:
                rec = idx.points.get((geom[0], geom[1], m))
        if rec is not None:
            return self._finish(asked, rec, "exact", rec.get("expected_time"))

        # geometry: smallest log-distance on commsize, all ties kept;
        # when the querying machine's own (n, p) is among the ties it
        # wins outright (same commsize, different split)
        geo, best_gd = idx.nearest_geoms(commsize)
        if q.machine is not None:
            own = (q.machine.num_nodes, q.machine.ppn)
            if own in geo:
                geo = [own]
        geometry_exact = best_gd <= _EPS

        # nbytes: nearest sampled size among the tied geometries;
        # equidistant candidates fall back to the canonical (dm, n, p, m)
        # order — the PR 2 decide() tie-break, never insertion order
        lm = log2(max(m, 1.0))
        cands: list[tuple[float, int, int, float]] = []
        for n, p in geo:
            sizes = idx.sizes[(n, p)]
            i = bisect_left(sizes, m)
            for j in (i - 1, i):
                if 0 <= j < len(sizes):
                    ms = sizes[j]
                    cands.append(
                        (abs(log2(max(ms, 1.0)) - lm), n, p, ms))
        dm, n, p, ms = min(cands)
        rec = idx.points[(n, p, ms)]
        served_time = rec.get("expected_time")

        if geometry_exact and dm <= _EPS:
            provenance = "exact"
        elif geometry_exact:
            # interior query: interpolate between the bracketing samples
            sizes = idx.sizes[(n, p)]
            i = bisect_left(sizes, m)
            if 0 < i < len(sizes):
                lo, hi = sizes[i - 1], sizes[i]
                t_lo = idx.points[(n, p, lo)].get("expected_time")
                t_hi = idx.points[(n, p, hi)].get("expected_time")
                provenance = "interpolated"
                if t_lo is not None and t_hi is not None:
                    span = log2(hi) - log2(lo)
                    w = (lm - log2(lo)) / span if span > 0 else 0.0
                    served_time = t_lo + w * (t_hi - t_lo)
            else:
                provenance = "nearest"  # outside the sampled range
        else:
            provenance = "nearest"

        return self._finish(asked, rec, provenance, served_time)

    def _finish(self, asked: Query, rec: dict, provenance: str,
                served_time) -> Decision:
        verdict = self._verdict_for(asked.band, rec)
        config = self._configs.get(rec["key"])
        if config is None:
            config = HanConfig(**rec["config"])
            self._configs[rec["key"]] = config
        refused = self.strict and not verdict.ok
        decision = Decision(
            query=asked,
            config=None if refused else config,
            provenance=provenance,
            expected_time=served_time,
            verdict=verdict,
            refused=refused,
            source_key=rec["key"],
            rejected_config=config if refused else None,
        )
        self._count(decision)
        return decision

    def decide_batch(self, queries: Sequence[Query]) -> list[Decision]:
        t0 = time.perf_counter()
        out: list[Decision] = []
        try:
            for q in queries:
                out.append(self.decide(q))
        except QueryError as exc:
            exc.index = len(out)
            raise
        dt = time.perf_counter() - t0
        self.metrics.histogram("serve.batch_seconds").observe(dt)
        if dt > 0:
            self.metrics.gauge("serve.last_batch_qps").set(len(out) / dt)
        if len(self.spans) < self.max_spans:
            self.spans.append(Span(
                sid=self._next_sid, track="serve",
                name=f"decide_batch[{len(queries)}]", cat="serve",
                t0=t0, t1=t0 + dt,
                args={"queries": len(queries),
                      "refused": sum(1 for d in out if d.refused)},
            ))
            self._next_sid += 1
        return out

    def _count(self, decision: Decision) -> None:
        key = (decision.provenance, decision.query.coll)
        c = self._decided.get(key)
        if c is None:
            c = self._decided[key] = self.metrics.counter(
                "serve.decisions", provenance=key[0], coll=key[1])
        c.inc()
        if not decision.verdict.ok:
            self.metrics.counter("serve.violations", coll=key[1]).inc()
        if decision.refused:
            self.metrics.counter("serve.refused", coll=key[1]).inc()

    # -- adapters ----------------------------------------------------------------

    def as_decision_fn(self, machine):
        """A ``(n, p, nbytes, coll) -> HanConfig`` hook for HanModule.

        Refused (strict-mode) answers fall back to the untuned default
        config — the runtime must always get *some* decision.
        """
        band = band_digest(machine)

        def decide(n: int, p: int, nbytes: float, coll: str) -> HanConfig:
            d = self.decide(Query(coll=coll, nbytes=nbytes,
                                  commsize=int(n) * int(p), band=band))
            if d.config is None:
                return HanModule.default_config(nbytes)
            return d.config

        return decide

    def stats(self) -> dict:
        """Counter snapshot (hit/fallback/violation totals)."""
        out = {"decisions": {}, "violations": 0, "refused": 0}
        for c in self.metrics.counters:
            labels = dict(c.labels)
            if c.name == "serve.decisions":
                prov = labels.get("provenance", "?")
                out["decisions"][prov] = (
                    out["decisions"].get(prov, 0) + int(c.value))
            elif c.name == "serve.violations":
                out["violations"] += int(c.value)
            elif c.name == "serve.refused":
                out["refused"] += int(c.value)
        out["queries"] = sum(out["decisions"].values())
        return out
