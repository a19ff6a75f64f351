"""Automated performance-insight checks (guidelines, stragglers, regressions).

The HAN paper's evaluation leans on structural relations that a correct
collective stack must satisfy regardless of the platform — the kind of
sanity conditions the MPI tuning folklore states as guidelines:

- ``allreduce <= reduce + bcast`` (allreduce can always be implemented
  as the composition, so the dedicated algorithm must not lose to it by
  more than a tolerance);
- ``bcast <= scatter + allgather`` (ditto, the van-de-Geijn identity);
- collective time is monotone non-decreasing in message size;
- HAN must not lose to its flat rivals where the paper says it wins
  (bcast at these geometries; allreduce only at scale, so that relation
  is reported informationally, never enforced).

On top of the structural checks sit two data-driven ones:

- **straggler skew** — the per-rank ``cpu.busy_seconds`` counters from
  the metrics registry give a robust ``max/median`` skew factor; a
  perturbed rank (e.g. :class:`~repro.faults.injectors.RankSlowdown`)
  shows up as a factor-level outlier while a clean symmetric collective
  sits near 1.0.  Per-rank *durations* cannot detect this: a slow rank
  in a synchronized collective inflates everyone's finish time together.
- **cross-run regression** — for every group in a
  :class:`~repro.obs.store.RunStore`, the latest run is compared against
  a MAD tolerance band of all prior runs of the same content-addressed
  point (``median + max(k*MAD, rel_floor*median)``), the same robust
  statistics :func:`~repro.tuning.measure.measure_collective` uses for
  its trial aggregation.
"""

from __future__ import annotations

import bisect
import statistics
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

from repro.obs.severity import OK, Severity, grade_excess, severity
from repro.segstore import canonical_line, order_key

__all__ = [
    "Insight",
    "InsightEngine",
    "check_regressions",
    "format_insights",
    "guideline_insights",
    "interference_insight",
    "margin_insights",
    "quick_workload",
    "run_insights",
    "straggler_insight",
]

#: tolerance for the composition guidelines (allreduce vs reduce+bcast
#: sits at ratio ~1.00 on the reference geometry; 5% absorbs simulator
#: scheduling jitter across machine shapes without masking real breaks)
GUIDELINE_TOL = 0.05

#: a larger message may not be *faster* than a smaller one by more than this
MONOTONE_TOL = 0.02

#: HAN bcast must be within this factor of the best flat rival
MARGIN = 1.10

#: per-rank cpu busy-seconds max/median above this flags a straggler
STRAGGLER_THRESHOLD = 2.0

#: loaded/solo slowdown above this flags pathological interference: some
#: contention is the point of a multi-tenant measurement, but a tuned
#: decision whose foreground runs this much slower under the declared
#: background traffic deserves a second look (wrong tenant sizing, a
#: saturated link, or a schedule that deadlocks into serialization)
INTERFERENCE_THRESHOLD = 5.0

#: MAD multiplier / relative floor for regression bands
REGRESS_K = 5.0
REGRESS_REL_FLOOR = 0.02


@dataclass(frozen=True)
class Insight:
    """One checked performance relation.

    ``severity`` is ``"pass"`` / ``"fail"`` for enforced checks and
    ``"info"`` for relations that are reported but never gate (e.g. the
    HAN-vs-rival allreduce margin, which the paper only claims at
    scale).  ``passed`` is ``True`` for info insights so callers can
    gate on ``all(i.passed ...)``.

    ``grade`` / ``cost_seconds`` / ``cost_bytes`` are the PICO-style
    quantification (:mod:`repro.obs.severity`): how much the violated
    relation costs per occurrence and how it ranks on the shared
    ``warn``/``error`` damage scale.  Violations of *info* relations are
    quantified too — they just never gate.
    """

    name: str
    kind: str  # "guideline" | "straggler" | "margin" | "regression" | ...
    passed: bool
    severity: str  # "pass" | "fail" | "info"
    detail: str
    grade: str = "ok"  # "ok" | "warn" | "error"
    cost_seconds: float = 0.0
    cost_bytes: float = 0.0
    data: dict = field(default_factory=dict)

    def to_doc(self) -> dict:
        return {
            "name": self.name, "kind": self.kind, "passed": self.passed,
            "severity": self.severity, "detail": self.detail,
            "grade": self.grade, "cost_seconds": self.cost_seconds,
            "cost_bytes": self.cost_bytes,
            "data": dict(self.data),
        }


def _insight(name, kind, ok, detail, enforce=True, sev: Severity = OK,
             **data) -> Insight:
    severity = ("pass" if ok else "fail") if enforce else "info"
    return Insight(name=name, kind=kind, passed=ok or not enforce,
                   severity=severity, detail=detail,
                   grade="ok" if ok else sev.grade,
                   cost_seconds=0.0 if ok else sev.cost_seconds,
                   cost_bytes=0.0 if ok else sev.cost_bytes,
                   data=data)


# -- structural guidelines ----------------------------------------------------------


def guideline_insights(
    times: dict, tol: float = GUIDELINE_TOL,
    mono_tol: float = MONOTONE_TOL,
) -> list[Insight]:
    """Check the composition and monotonicity guidelines.

    ``times`` maps ``(coll, nbytes)`` to measured seconds; only the
    relations whose operands are all present are checked.
    """
    out: list[Insight] = []
    sizes = sorted({nb for _, nb in times})
    colls = sorted({c for c, _ in times})

    compositions = (
        ("allreduce", ("reduce", "bcast")),
        ("bcast", ("scatter", "allgather")),
    )
    for lhs, rhs in compositions:
        for nb in sizes:
            if (lhs, nb) not in times or any((r, nb) not in times for r in rhs):
                continue
            t = times[(lhs, nb)]
            bound = sum(times[(r, nb)] for r in rhs)
            ratio = t / bound if bound > 0 else float("inf")
            ok = ratio <= 1.0 + tol
            out.append(_insight(
                f"{lhs}<= {'+'.join(rhs)} @{_fmt_bytes(nb)}",
                "guideline", ok,
                f"{lhs}={t:.3e}s vs {'+'.join(rhs)}={bound:.3e}s "
                f"(ratio {ratio:.3f}, tol {1 + tol:.2f})",
                sev=severity(t, bound, nbytes=nb, tol=tol),
                ratio=ratio, lhs=t, rhs=bound,
            ))

    for coll in colls:
        pts = [(nb, times[(coll, nb)]) for nb in sizes if (coll, nb) in times]
        if len(pts) < 2:
            continue
        dips = [
            (na, a, nb_, b) for (na, a), (nb_, b) in zip(pts, pts[1:])
            if b < a * (1.0 - mono_tol)
        ]
        ok = not dips
        # each dip costs the smaller point's excess over the larger
        # point's (faster!) time; dips aggregate by summed cost and
        # worst relative excess
        dip_sevs = [severity(a, b, nbytes=na, tol=mono_tol)
                    for na, a, _nb, b in dips]
        sev = OK if ok else Severity(
            grade=grade_excess(max(s.rel_excess for s in dip_sevs)),
            cost_seconds=sum(s.cost_seconds for s in dip_sevs),
            cost_bytes=sum(s.cost_bytes for s in dip_sevs),
            rel_excess=max(s.rel_excess for s in dip_sevs),
        )
        out.append(_insight(
            f"{coll} monotone in nbytes", "guideline", ok,
            "non-decreasing across "
            f"{', '.join(_fmt_bytes(nb) for nb, _ in pts)}"
            + ("" if ok else f" ({len(dips)} dip(s))"),
            sev=sev,
            points=[[nb, t] for nb, t in pts],
        ))
    return out


def margin_insights(
    han_times: dict, rival_times: dict, margin: float = MARGIN,
) -> list[Insight]:
    """HAN vs the best flat rival, per collective and size.

    Enforced for ``bcast`` (the paper's headline win at every scale);
    informational for everything else — HAN allreduce only overtakes the
    flat libraries at node counts far beyond the quick workload.  The
    default rival set is just ``openmpi`` (flat ``tuned``): it shares
    HAN's software stack, so the comparison is a true same-platform
    guideline; hardware-assisted libraries (craympi, intelmpi) model a
    *different* P2P stack and would turn the check into a hardware
    comparison.
    """
    out: list[Insight] = []
    points = sorted({k for k in han_times if k in rival_times})
    for coll, nb in points:
        t = han_times[(coll, nb)]
        best_name, best = min(
            rival_times[(coll, nb)].items(), key=lambda kv: kv[1]
        )
        ratio = t / best if best > 0 else float("inf")
        ok = ratio <= margin
        out.append(_insight(
            f"han {coll} vs rivals @{_fmt_bytes(nb)}", "margin", ok,
            f"han={t:.3e}s best rival {best_name}={best:.3e}s "
            f"(ratio {ratio:.3f}, margin {margin:.2f})",
            enforce=(coll == "bcast"),
            sev=severity(t, best, nbytes=nb, tol=margin - 1.0),
            ratio=ratio, best_rival=best_name,
        ))
    return out


# -- straggler detection ------------------------------------------------------------


def _gauge(metrics_doc: dict, name: str) -> Optional[float]:
    for g in metrics_doc.get("gauges", ()):
        if g["name"] == name and not g["labels"]:
            return g["value"]
    return None


def straggler_insight(
    metrics_doc: dict, threshold: float = STRAGGLER_THRESHOLD,
    label: str = "",
) -> Insight:
    """Flag rank-level skew from a run's metrics registry document.

    The primary signal is ``straggler.cpu_skew`` (max/median of per-rank
    ``cpu.busy_seconds``), derived by the recorder at snapshot time; the
    secondary ``straggler.finish_skew`` (rank finish times) is carried in
    ``data`` for context but not gated on — synchronized collectives
    equalize finish times even under heavy per-rank perturbation.
    """
    cpu = _gauge(metrics_doc, "straggler.cpu_skew")
    finish = _gauge(metrics_doc, "straggler.finish_skew")
    suffix = f" @{label}" if label else ""
    if cpu is None:
        return Insight(
            name=f"straggler skew{suffix}", kind="straggler", passed=True,
            severity="info", detail="no per-rank cpu metrics recorded",
            data={},
        )
    ok = cpu <= threshold
    # skew is a ratio, not seconds; grade from the relative excess over
    # the threshold, with no seconds/bytes estimate (the skewed rank's
    # cpu seconds are not attributable to one collective here)
    sev = OK if ok else Severity(
        grade=grade_excess(cpu / threshold - 1.0),
        cost_seconds=0.0, cost_bytes=0.0,
        rel_excess=cpu / threshold - 1.0,
    )
    return _insight(
        f"straggler skew{suffix}", "straggler", ok,
        f"cpu busy-seconds max/median {cpu:.2f} "
        f"(threshold {threshold:.2f}"
        + (f", finish skew {finish:.2f}" if finish is not None else "")
        + ")",
        sev=sev,
        cpu_skew=cpu, finish_skew=finish, threshold=threshold,
    )


def interference_insight(
    report: dict, threshold: float = INTERFERENCE_THRESHOLD,
) -> Insight:
    """Judge one :func:`repro.tenancy.measure_interference` report.

    Two checks fold into one insight: the slowdown must be physical
    (``>= 1`` up to float fuzz — background tenants can only *add*
    contention, so a speedup means the measurement is broken) and below
    ``threshold`` (pathological interference worth investigating).
    """
    slow = float(report["slowdown"])
    label = report.get("coll", "?")
    physical = slow >= 1.0 - 1e-9
    ok = physical and slow <= threshold
    if not physical:
        detail = (
            f"{label} speeds up under load (x{slow:.3f}) — "
            "the interference measurement is broken"
        )
    else:
        detail = (
            f"{label} slows x{slow:.3f} under {report.get('traffic', 'load')} "
            f"(threshold x{threshold:.1f})"
        )
    solo = report.get("solo_time")
    loaded = report.get("loaded_time")
    if not physical:
        sev = Severity(grade="error", cost_seconds=0.0, cost_bytes=0.0,
                       rel_excess=float("inf"))
    elif ok:
        sev = OK
    else:
        # the damage is real seconds: loaded minus solo wall time
        cost = (float(loaded) - float(solo)
                if loaded is not None and solo is not None else 0.0)
        sev = Severity(grade=grade_excess(slow / threshold - 1.0),
                       cost_seconds=max(cost, 0.0), cost_bytes=0.0,
                       rel_excess=slow / threshold - 1.0)
    return _insight(
        f"interference {label}", "interference", ok, detail,
        sev=sev,
        slowdown=slow, threshold=threshold,
        solo_time=solo,
        loaded_time=loaded,
    )


# -- cross-run regression -----------------------------------------------------------


def mad_band(values: Sequence[float], k: float = REGRESS_K,
             rel_floor: float = REGRESS_REL_FLOOR) -> tuple[float, float]:
    """Robust (center, tolerance) band for a history of run times."""
    med = statistics.median(values)
    mad = (statistics.median(abs(v - med) for v in values)
           if len(values) > 1 else 0.0)
    return med, max(k * mad, rel_floor * abs(med))


def check_regressions(
    store, k: float = REGRESS_K, rel_floor: float = REGRESS_REL_FLOOR,
    min_runs: int = 2,
) -> list[Insight]:
    """Compare each group's latest run against the band of its history.

    Groups with fewer than ``min_runs`` runs are skipped (one run has no
    history to regress against).  A clean store where every point was
    simply measured twice — the CI self-vs-self check — yields all-pass:
    the deterministic simulator reproduces the time exactly, well inside
    the relative floor.

    This is the batch spelling of the incremental path: it folds the
    whole store into an :class:`InsightEngine` and reads the engine's
    regression checks, so batch sweeps and streaming followers are one
    code path (and bit-identical on the same records by construction).
    """
    engine = InsightEngine(k=k, rel_floor=rel_floor, min_runs=min_runs)
    engine.ingest_store(store)
    return engine.regressions()


# -- the incremental engine ---------------------------------------------------------


class InsightEngine:
    """Incremental insight state over a stream of run-store records.

    Feed it records one at a time (:meth:`ingest`), all at once from a
    store (:meth:`ingest_store`), or by following a store's change feed
    (:meth:`follow`, which drives :meth:`~repro.obs.store.RunStore.tail`).
    The resulting insights are a pure function of the ingested record
    *set*: per-group history is kept sorted by the store's deterministic
    ``(wall_time, canonical line)`` order and exact-duplicate records
    fold away, so ingest order never matters and the streaming path is
    bit-identical to the batch sweep over the same records.

    Unlike :func:`quick_workload` (which *measures* a fixed workload),
    the engine judges whatever the store holds: MAD-band regressions per
    group, composition/monotonicity guidelines per measurement context
    (machine, library, fault/traffic state), straggler skew from stored
    metrics gauges, and loaded-vs-quiet interference for points measured
    both ways.
    """

    def __init__(
        self,
        k: float = REGRESS_K,
        rel_floor: float = REGRESS_REL_FLOOR,
        min_runs: int = 2,
        tol: float = GUIDELINE_TOL,
    ):
        self.k = k
        self.rel_floor = rel_floor
        self.min_runs = min_runs
        self.tol = tol
        self.records = 0
        self.duplicates = 0
        #: key -> sorted [(order, time)] history
        self._hist: dict[str, list[tuple[tuple[float, str], float]]] = {}
        #: key -> {canonical line} (dedup identity)
        self._seen: dict[str, set[str]] = {}
        #: key -> (order, slim doc) of the newest record
        self._latest: dict[str, tuple[tuple[float, str], dict]] = {}
        #: (machine, library, faulted, traffic) -> {(coll, nb): (order, t)}
        self._ctx: dict[tuple, dict[tuple[str, float],
                                    tuple[tuple[float, str], float]]] = {}
        #: context -> ((cpu_skew, order), gauges-doc, label) worst straggler
        self._strag: dict[tuple, tuple] = {}
        #: (machine, library, coll, nb, config) -> (order, t) quiet latest
        self._quiet: dict[tuple, tuple[tuple[float, str], float]] = {}
        #: same point key -> {traffic_digest: (order, t)} loaded latest
        self._loaded: dict[tuple, dict[str,
                                       tuple[tuple[float, str], float]]] = {}

    # -- ingest ----------------------------------------------------------------

    def ingest(self, doc: dict) -> bool:
        """Fold one run summary in; False for duplicates/unusable docs."""
        key = doc.get("key")
        if not key or doc.get("time") is None:
            return False
        line = canonical_line(doc)
        seen = self._seen.setdefault(key, set())
        if line in seen:
            self.duplicates += 1
            return False
        seen.add(line)
        self.records += 1
        order = order_key(doc, line)
        t = float(doc["time"])
        bisect.insort(self._hist.setdefault(key, []), (order, t))

        slim = {f: doc.get(f) for f in (
            "coll", "nbytes", "library", "machine", "band", "loaded",
            "faulted", "traffic_digest", "config_digest", "source",
        )}
        slim["time"] = t
        cur = self._latest.get(key)
        if cur is None or order > cur[0]:
            self._latest[key] = (order, slim)

        machine = str(doc.get("machine", "?"))
        library = str(doc.get("library", "?"))
        coll = str(doc.get("coll", "?"))
        nbytes = float(doc.get("nbytes", 0.0) or 0.0)
        traffic = doc.get("traffic_digest") or None
        ctx = (machine, library, bool(doc.get("faulted")), traffic)
        bucket = self._ctx.setdefault(ctx, {})
        pt = (coll, nbytes)
        old = bucket.get(pt)
        if old is None or order > old[0]:
            bucket[pt] = (order, t)

        # judge skew only on bcast: its cpu work is rank-symmetric, so
        # skew means a straggler; reduction trees concentrate work on
        # interior ranks by design and would false-positive here
        metrics = doc.get("metrics") or {}
        cpu = _gauge(metrics, "straggler.cpu_skew") \
            if coll == "bcast" else None
        if cpu is not None:
            finish = _gauge(metrics, "straggler.finish_skew")
            gauges = [{"name": "straggler.cpu_skew", "labels": [],
                       "value": cpu}]
            if finish is not None:
                gauges.append({"name": "straggler.finish_skew",
                               "labels": [], "value": finish})
            cand = ((cpu, order), {"gauges": gauges},
                    f"{coll} {_fmt_bytes(nbytes)} on {machine}")
            worst = self._strag.get(ctx)
            if worst is None or cand[0] > worst[0]:
                self._strag[ctx] = cand

        pair = (machine, library, coll, nbytes,
                str(doc.get("config_digest", "")))
        if doc.get("loaded") and traffic:
            loads = self._loaded.setdefault(pair, {})
            old = loads.get(traffic)
            if old is None or order > old[0]:
                loads[traffic] = (order, t)
        elif not doc.get("loaded"):
            old = self._quiet.get(pair)
            if old is None or order > old[0]:
                self._quiet[pair] = (order, t)
        return True

    def ingest_store(self, store) -> int:
        """Batch sweep: fold every record of a RunStore; returns count."""
        n = 0
        for _key, runs in store.groups():
            for doc in runs:
                if self.ingest(doc):
                    n += 1
        return n

    def follow(self, store, cursor: Optional[dict] = None) -> dict:
        """Ingest records appended since ``cursor``; returns the new one.

        The streaming spelling of :meth:`ingest_store`: call it after
        (or while) writers append and the engine state advances per
        record instead of per sweep.
        """
        records, cursor = store.tail(cursor)
        for doc in records:
            self.ingest(doc)
        return cursor

    # -- checks ----------------------------------------------------------------

    def regressions(self) -> list[Insight]:
        """MAD-band check of each group's newest run vs its history."""
        out: list[Insight] = []
        for key in sorted(self._hist):
            entries = self._hist[key]
            if len(entries) < self.min_runs:
                continue
            times = [t for _order, t in entries]
            prior, latest = times[:-1], times[-1]
            center, tol = mad_band(prior, k=self.k,
                                   rel_floor=self.rel_floor)
            ok = latest <= center + tol
            slim = self._latest[key][1]
            label = (f"{slim.get('coll', '?')} "
                     f"{_fmt_bytes(slim.get('nbytes') or 0)} "
                     f"[{slim.get('library', '?')}] "
                     f"on {slim.get('machine', '?')}")
            out.append(_insight(
                label, "regression", ok,
                f"latest {latest:.3e}s vs band {center:.3e}s +/- {tol:.3e}s "
                f"({len(prior)} prior run(s))",
                sev=severity(latest, center + tol,
                             nbytes=float(slim.get("nbytes") or 0.0)),
                key=key, latest=latest, center=center, tol=tol,
                runs=len(times), machine=slim.get("machine"),
                band=slim.get("band"),
            ))
        return out

    def _ctx_suffix(self, ctx: tuple) -> str:
        machine, library, faulted, traffic = ctx
        extras = ("+faults" if faulted else "") + ("+load" if traffic else "")
        return f" [{library}{' ' + extras if extras else ''} on {machine}]"

    def guidelines(self) -> list[Insight]:
        """Composition/monotonicity guidelines per measurement context."""
        out: list[Insight] = []
        for ctx in sorted(self._ctx, key=str):
            times = {pt: t for pt, (_order, t) in self._ctx[ctx].items()}
            suffix = self._ctx_suffix(ctx)
            machine, library, faulted, traffic = ctx
            for check in guideline_insights(times, tol=self.tol):
                out.append(replace(
                    check, name=check.name + suffix,
                    data={**check.data, "machine": machine,
                          "library": library, "faulted": faulted,
                          "traffic_digest": traffic},
                ))
        return out

    def stragglers(self) -> list[Insight]:
        """Worst recorded per-rank cpu skew per measurement context."""
        out: list[Insight] = []
        for ctx in sorted(self._strag, key=str):
            (_rank, metrics_doc, label) = self._strag[ctx]
            out.append(straggler_insight(metrics_doc, label=label))
        return out

    def interference(self) -> list[Insight]:
        """Loaded-vs-quiet slowdown for points measured both ways."""
        out: list[Insight] = []
        for pair in sorted(self._loaded, key=str):
            quiet = self._quiet.get(pair)
            if quiet is None or quiet[1] <= 0:
                continue
            machine, _library, coll, _nbytes, _cfg = pair
            for traffic in sorted(self._loaded[pair]):
                _order, loaded_t = self._loaded[pair][traffic]
                out.append(interference_insight({
                    "coll": f"{coll} on {machine}",
                    "slowdown": loaded_t / quiet[1],
                    "solo_time": quiet[1],
                    "loaded_time": loaded_t,
                    "traffic": f"traffic {traffic[:12]}",
                }))
        return out

    def insights(self) -> list[Insight]:
        """Every check, in deterministic order."""
        return (self.guidelines() + self.stragglers()
                + self.interference() + self.regressions())

    def machines(self) -> list[dict]:
        """Per-machine rollup of the ingested fleet, label-sorted."""
        agg: dict[str, dict] = {}
        for key, entries in self._hist.items():
            slim = self._latest[key][1]
            label = str(slim.get("machine") or "?")
            a = agg.setdefault(label, {
                "machine": label, "groups": 0, "runs": 0,
                "bands": set(), "libraries": set(), "colls": set(),
            })
            a["groups"] += 1
            a["runs"] += len(entries)
            for field_, val in (("bands", slim.get("band")),
                                ("libraries", slim.get("library")),
                                ("colls", slim.get("coll"))):
                if val:
                    a[field_].add(str(val))
        return [
            {**agg[label],
             "bands": sorted(agg[label]["bands"]),
             "libraries": sorted(agg[label]["libraries"]),
             "colls": sorted(agg[label]["colls"])}
            for label in sorted(agg)
        ]

    def stats(self) -> dict:
        return {
            "records": self.records,
            "duplicates": self.duplicates,
            "groups": len(self._hist),
            "contexts": len(self._ctx),
            "machines": len({slim.get("machine")
                             for _o, slim in self._latest.values()}),
        }


# -- the quick workload -------------------------------------------------------------

QUICK_COLLS = ("bcast", "reduce", "allreduce", "scatter", "gather",
               "allgather")
QUICK_SIZES = (64 * 1024, 1024 * 1024, 4 * 1024 * 1024)
QUICK_RIVALS = ("openmpi",)


def quick_workload(
    machine=None,
    colls: Sequence[str] = QUICK_COLLS,
    sizes: Sequence[float] = QUICK_SIZES,
    config=None,
    rivals: Sequence[str] = QUICK_RIVALS,
    store=None,
    fault_plan=None,
) -> dict:
    """Measure the insight workload; returns times + per-point metrics.

    Each HAN point runs once with a metrics-mode recorder attached (the
    cheap path: aggregates only, no span retention), so the result
    carries both the headline time and the straggler gauges.  Rival
    libraries are timed by the same measured run, through the IMB-style
    size loop; rivals that do not implement a collective are skipped.

    ``store`` (a :class:`~repro.obs.store.RunStore`) receives one
    summary line per HAN point — this is how repeated ``insights`` runs
    build the history that ``regress`` checks.  ``fault_plan`` wraps the
    machine in a perturbed twin (realization 0) before measuring; the
    store lines are then keyed separately from clean runs.
    """
    from repro.core.config import HanConfig
    from repro.faults.machine import FaultyMachineSpec
    from repro.obs.store import summarize_measurement
    from repro.tuning.measure import (
        CollectiveMeasurement,
        resolve_plan,
        run_once,
    )

    if machine is None:
        from repro.hardware.machines import shaheen2

        machine = shaheen2(num_nodes=4, ppn=8)
    if config is None:
        config = HanConfig(fs=512 * 1024)

    target = machine
    plan = resolve_plan(fault_plan, config)
    if plan is not None:
        target = FaultyMachineSpec.wrap(machine, plan.for_trial(0))

    han_times: dict = {}
    metrics: dict = {}
    for coll in colls:
        for nb in sizes:
            per_rank, sim_cost, rec = run_once(target, coll, nb, config,
                                               record="metrics")
            meas = CollectiveMeasurement(
                coll=coll, nbytes=nb, config=config, time=max(per_rank),
                per_rank=per_rank, sim_cost=sim_cost,
            )
            han_times[(coll, nb)] = meas.time
            metrics[(coll, nb)] = rec.metrics
            if store is not None:
                store.append(summarize_measurement(
                    machine, meas, source="obs.insights",
                    metrics=rec.metrics, plan=plan,
                ))

    rival_times: dict = {}
    if rivals:
        from repro.bench.imb import imb_run
        from repro.comparators import library_by_name

        for name in rivals:
            lib = library_by_name(name)
            for coll in colls:
                if getattr(lib, coll, None) is None:
                    continue  # library lacks this collective
                res = imb_run(target, lib, coll, list(sizes))
                for nb, t in zip(res.sizes, res.times):
                    rival_times.setdefault((coll, nb), {})[name] = t
    return {
        "machine": f"{machine.name} {machine.num_nodes}x{machine.ppn}",
        "config": config.describe(),
        "faulted": plan is not None,
        "han_times": han_times,
        "rival_times": rival_times,
        "metrics": metrics,
    }


def run_insights(workload: dict) -> list[Insight]:
    """All insight checks over a :func:`quick_workload` result."""
    out = guideline_insights(workload["han_times"])
    out += margin_insights(workload["han_times"], workload["rival_times"])
    # straggler check over the largest *bcast* point: bcast has no
    # reduction compute, so its per-rank cpu busy-seconds are near-equal
    # on a clean run (skew ~1.0) and a RankSlowdown shows up as exactly
    # its factor.  Rooted/reduction collectives carry structural leader
    # skew (leaders do the arithmetic) that would swamp the signal.
    metrics = workload["metrics"]
    if metrics:
        pick = max(metrics, key=lambda k: (k[0] == "bcast", k[1]))
        out.append(straggler_insight(
            metrics[pick], label=f"{pick[0]} {_fmt_bytes(pick[1])}"
        ))
    return out


# -- rendering ----------------------------------------------------------------------


def _fmt_bytes(nb: float) -> str:
    nb = float(nb)
    for unit, div in (("G", 1 << 30), ("M", 1 << 20), ("K", 1 << 10)):
        if nb >= div:
            v = nb / div
            return f"{v:g}{unit}"
    return f"{nb:g}B"


def format_insights(insights: Sequence[Insight]) -> str:
    """Human-readable check table (one line per insight)."""
    if not insights:
        return "no insights (empty workload or store)"
    width = max(len(i.name) for i in insights)
    mark = {"pass": "PASS", "fail": "FAIL", "info": "info"}
    lines = [
        f"{mark[i.severity]:4s}  {i.name:{width}s}  {i.detail}"
        for i in insights
    ]
    fails = [i for i in insights if not i.passed]
    lines.append(
        f"{len(insights)} check(s): "
        f"{len(insights) - len(fails)} ok, {len(fails)} failing"
    )
    return "\n".join(lines)
