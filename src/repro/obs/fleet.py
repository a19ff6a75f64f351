"""Fleet rollup: one cross-machine report over any number of run stores.

A single run store answers "did *this* machine regress?"; a fleet of
machines writing stores (or one merged store carrying several
``band_digest`` values) needs the inverse view: which *bands* of
hardware are regressing, which findings cost the most, where are the
stragglers.  :func:`fleet_report` folds every store through one
:class:`~repro.obs.insights.InsightEngine` — so the rollup is a pure
function of the union of records, independent of how they were sharded
across stores — and emits:

- per-machine and per-band regression **status**: ``"ok"``,
  ``"regressions"``, or ``"insufficient history"`` (no group has enough
  runs to regress against);
- **findings**: every non-``ok``-graded insight, ranked worst first by
  (grade, cost_seconds) so the most damaging violation leads;
- **straggler** and **interference** summaries (worst skew / slowdown
  across the fleet).

``python -m repro.obs.cli fleet <store> [<store> ...]`` renders the
report (``--json`` for the raw document) and exits 0/1/2 like the
``regress`` subcommand.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.obs.insights import (
    REGRESS_K,
    REGRESS_REL_FLOOR,
    Insight,
    InsightEngine,
)
from repro.obs.severity import GRADE_RANK

__all__ = [
    "STATUS_INSUFFICIENT",
    "STATUS_OK",
    "STATUS_REGRESSIONS",
    "fleet_report",
    "format_fleet",
    "status_exit_code",
]

STATUS_OK = "ok"
STATUS_REGRESSIONS = "regressions"
STATUS_INSUFFICIENT = "insufficient history"

#: process exit code per rollup status (shared with ``cli regress``)
_EXIT_CODES = {STATUS_OK: 0, STATUS_REGRESSIONS: 1, STATUS_INSUFFICIENT: 2}


def status_exit_code(status: str) -> int:
    """0 for ``ok``, 1 for ``regressions``, 2 for insufficient history."""
    return _EXIT_CODES.get(status, 1)


def _status(checked: int, failed: int) -> str:
    if checked == 0:
        return STATUS_INSUFFICIENT
    return STATUS_REGRESSIONS if failed else STATUS_OK


def _rank(insight: Insight) -> tuple:
    return (-GRADE_RANK[insight.grade], -insight.cost_seconds,
            insight.name)


def fleet_report(
    stores: Iterable,
    k: float = REGRESS_K,
    rel_floor: float = REGRESS_REL_FLOOR,
    min_runs: int = 2,
    engine: Optional[InsightEngine] = None,
) -> dict:
    """Roll one or several run stores into a cross-machine report.

    ``stores`` is any iterable of :class:`~repro.obs.store.RunStore`;
    pass a pre-loaded ``engine`` instead to report on records already
    ingested (the streaming path).  The report is deterministic for a
    given union of records.
    """
    stores = list(stores)
    if engine is None:
        engine = InsightEngine(k=k, rel_floor=rel_floor, min_runs=min_runs)
    for store in stores:
        engine.ingest_store(store)

    regressions = engine.regressions()
    others = (engine.guidelines() + engine.stragglers()
              + engine.interference())
    failed_regs = [i for i in regressions if not i.passed]

    # per-machine and per-band regression status
    machines = engine.machines()
    by_machine: dict[str, list[Insight]] = {}
    by_band: dict[str, list[Insight]] = {}
    for reg in regressions:
        by_machine.setdefault(str(reg.data.get("machine") or "?"),
                              []).append(reg)
        by_band.setdefault(str(reg.data.get("band") or "?"), []).append(reg)
    for m in machines:
        regs = by_machine.get(m["machine"], [])
        bad = sum(1 for r in regs if not r.passed)
        m.update(checked=len(regs), regressed=bad,
                 status=_status(len(regs), bad))
    bands = []
    for band in sorted(by_band):
        regs = by_band[band]
        bad = sum(1 for r in regs if not r.passed)
        bands.append({
            "band": band,
            "machines": sorted({str(r.data.get("machine") or "?")
                                for r in regs}),
            "checked": len(regs), "regressed": bad,
            "status": _status(len(regs), bad),
        })

    findings = sorted(
        (i for i in regressions + others if i.grade != "ok"), key=_rank
    )

    strag = [i for i in others if i.kind == "straggler"]
    inter = [i for i in others if i.kind == "interference"]
    report = {
        "schema": 1,
        "stores": [str(getattr(s, "root", s)) for s in stores],
        "status": _status(len(regressions), len(failed_regs)),
        "counts": engine.stats(),
        "machines": machines,
        "bands": bands,
        "regressions": {"checked": len(regressions),
                        "regressed": len(failed_regs)},
        "findings": [i.to_doc() for i in findings],
        "stragglers": {
            "checked": len(strag),
            "flagged": sum(1 for i in strag if not i.passed),
            "worst_cpu_skew": max(
                (i.data.get("cpu_skew", 0.0) for i in strag), default=0.0),
        },
        "interference": {
            "checked": len(inter),
            "flagged": sum(1 for i in inter
                           if not i.passed or i.grade != "ok"),
            "worst_slowdown": max(
                (i.data.get("slowdown", 0.0) for i in inter), default=0.0),
        },
    }
    report["exit_code"] = status_exit_code(report["status"])
    return report


def format_fleet(report: dict, limit: int = 20) -> str:
    """Human-readable rendering of a :func:`fleet_report` document."""
    out = []
    counts = report["counts"]
    out.append(
        f"fleet: {counts['records']} record(s) in {counts['groups']} "
        f"group(s) across {counts['machines']} machine(s) "
        f"[{len(report['stores'])} store(s)] -- status: {report['status']}"
    )
    for m in report["machines"]:
        out.append(
            f"  {m['machine']:24s} {m['runs']:5d} run(s) "
            f"{m['groups']:4d} group(s)  colls={len(m['colls'])} "
            f"libs={','.join(m['libraries']) or '-'}  {m['status']}"
        )
    if report["bands"]:
        out.append("bands:")
        for b in report["bands"]:
            out.append(
                f"  {b['band'][:16]:16s} {','.join(b['machines']):32s} "
                f"{b['regressed']}/{b['checked']} regressed  {b['status']}"
            )
    sg, it = report["stragglers"], report["interference"]
    out.append(
        f"stragglers: {sg['flagged']}/{sg['checked']} flagged "
        f"(worst cpu skew {sg['worst_cpu_skew']:.2f}); "
        f"interference: {it['flagged']}/{it['checked']} flagged "
        f"(worst slowdown {it['worst_slowdown']:.2f}x)"
    )
    findings = report["findings"]
    if not findings:
        out.append("findings: none")
    else:
        out.append(f"findings (worst first, {min(len(findings), limit)} "
                   f"of {len(findings)}):")
        for f in findings[:limit]:
            cost = f" cost={f['cost_seconds']:.3e}s" \
                if f.get("cost_seconds") else ""
            out.append(f"  [{f['grade']:5s}] {f['name']}:{cost} "
                       f"{f['detail']}")
    return "\n".join(out)
