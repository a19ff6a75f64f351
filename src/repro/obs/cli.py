"""Observability command line: ``python -m repro.obs.cli <cmd>``.

Subcommands:

- ``record``   -- simulate one HAN collective with the recorder attached;
  write a JSONL run record and/or a Perfetto-loadable Chrome trace.
- ``report``   -- summarize a run record (spans, messages, resources).
- ``critpath`` -- extract and print the critical path of a run record.
- ``diff``     -- compare two run records (phases, resources, path).
- ``export``   -- convert a JSONL run record to a Chrome trace.
- ``metrics``  -- print the aggregate metrics registry of a run record
  (or of a freshly simulated collective).
- ``insights`` -- run the quick insight workload: guideline checks,
  HAN-vs-rival margins, straggler skew; optionally append every point
  to a run store.
- ``regress``  -- MAD-band cross-run regression check over a run store
  (exit 0 clean, 1 regressed, 2 insufficient history).
- ``compact``  -- fold a run store's mutable shard tails into immutable
  deduplicated segments.
- ``fleet``    -- roll one or several run stores into a cross-machine
  report: per-band regression status, severity-ranked findings,
  straggler and interference summaries.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.obs import critpath as cp
from repro.obs import export as ex
from repro.tuning.measure import run_once

_SUFFIX = {"": 1, "k": 1 << 10, "m": 1 << 20, "g": 1 << 30}


def parse_nbytes(text: str) -> float:
    """``"64"``, ``"64K"``, ``"1M"``, ``"2G"`` -> bytes."""
    t = text.strip().lower().rstrip("b")
    for suf, mult in _SUFFIX.items():
        if suf and t.endswith(suf):
            return float(t[: -len(suf)]) * mult
    return float(t)


def _machine(name: str, nodes: int, ppn: int):
    from repro.hardware import machines

    try:
        factory = getattr(machines, name)
    except AttributeError:
        raise SystemExit(
            f"unknown machine {name!r}; see repro.hardware.machines"
        )
    return factory(num_nodes=nodes, ppn=ppn)


def _load(path: str):
    return ex.load_jsonl(path)


# -- subcommands -------------------------------------------------------------


def cmd_record(ns: argparse.Namespace) -> int:
    machine = _machine(ns.machine, ns.nodes, ns.ppn)
    _, _, record = run_once(
        machine, ns.coll, parse_nbytes(ns.nbytes), root=ns.root,
        record="full",
    )
    if ns.out:
        ex.write_jsonl(record, ns.out)
    if ns.trace_out:
        ex.write_chrome_trace(record, ns.trace_out)
    meta = record.meta
    print(
        f"{meta['coll']} {int(meta['nbytes'])}B on {meta['machine']}: "
        f"time={meta['time']:.6e}s sim_time={record.sim_time:.6e}s "
        f"spans={len(record.spans)} msgs={len(record.messages)}"
    )
    for dst, what in ((ns.out, "run record"), (ns.trace_out, "chrome trace")):
        if dst:
            print(f"wrote {what}: {dst}")
    return 0


def cmd_report(ns: argparse.Namespace) -> int:
    record = _load(getattr(ns, "in"))
    print("meta:")
    for k, v in sorted(record.meta.items()):
        print(f"  {k}: {v}")
    by_cat: dict[str, int] = {}
    for s in record.spans:
        by_cat[s.cat] = by_cat.get(s.cat, 0) + 1
    print("spans:")
    for cat in sorted(by_cat):
        print(f"  {cat:8s} {by_cat[cat]}")
    print(f"messages: {len(record.messages)}")
    phases = cp.phase_totals(record)
    if phases:
        print("phases (count / total / union seconds):")
        for name in sorted(phases):
            d = phases[name]
            print(
                f"  {name:4s} {d['count']:4d}  {d['total']:.6e}"
                f"  {d['union']:.6e}"
            )
    timeline = ex.resource_timeline(record)
    busy = [r for r in timeline if r["busy_time"] > 0]
    if busy:
        print("resources (busy seconds / mean utilization):")
        for r in sorted(busy, key=lambda r: -r["busy_time"])[: ns.top]:
            print(
                f"  {r['name']:14s} {r['busy_time']:.6e}"
                f"  {r['mean_utilization']:.3f}"
            )
    return 0


def cmd_critpath(ns: argparse.Namespace) -> int:
    record = _load(getattr(ns, "in"))
    path = cp.critical_path(record)
    att = path.attribution
    if ns.segments:
        print(f"{'t0':>13s} {'t1':>13s} {'dur':>12s} kind  what")
        for seg in path.segments:
            where = f" @ {seg.track}" if seg.track else ""
            print(
                f"{seg.t0:13.6e} {seg.t1:13.6e} {seg.dur:12.4e}"
                f" {seg.kind:4s}  {seg.label}{where}"
            )
    end = att["end"] or 1.0
    print(f"end of path: {att['end']:.6e}s (coverage {att['coverage']:.1%})")
    for kind in ("cpu", "net", "wait"):
        print(f"  {kind:4s} {att[kind]:.6e}s  ({att[kind] / end:.1%})")
    return 0


def cmd_diff(ns: argparse.Namespace) -> int:
    d = cp.diff_runs(_load(ns.a), _load(ns.b))
    if ns.json:
        print(json.dumps(d, indent=2))
        return 0

    def row(name, e):
        print(f"  {name:14s} {e['a']:.6e} -> {e['b']:.6e}  ({e['delta']:+.3e})")

    print("totals:")
    for key in ("sim_time", "messages", "spans"):
        row(key, d[key])
    if d["phases"]:
        print("phase totals:")
        for name, e in d["phases"].items():
            row(name, e)
    if d["resources"]:
        print("resource busy time:")
        for name, e in d["resources"].items():
            row(name, e)
    print("critical path:")
    for kind, e in d["critical_path"].items():
        row(kind, e)
    return 0


def cmd_export(ns: argparse.Namespace) -> int:
    record = _load(getattr(ns, "in"))
    doc = ex.chrome_trace(record)
    err = ex.validate_chrome_trace(doc)
    if err is not None:
        print(f"internal error: invalid trace: {err}", file=sys.stderr)
        return 1
    with open(ns.trace_out, "w") as fh:
        json.dump(doc, fh)
    print(
        f"wrote {ns.trace_out}: {len(doc['traceEvents'])} events "
        "(open at https://ui.perfetto.dev)"
    )
    return 0


def cmd_metrics(ns: argparse.Namespace) -> int:
    src = getattr(ns, "in")
    if src:
        doc = _load(src).metrics
        if not doc:
            print(f"{src}: no metrics recorded", file=sys.stderr)
            return 1
    else:
        machine = _machine(ns.machine, ns.nodes, ns.ppn)
        _, _, record = run_once(
            machine, ns.coll, parse_nbytes(ns.nbytes), root=ns.root,
            record="metrics",
        )
        doc = record.metrics
    if ns.json:
        print(json.dumps(doc, indent=2, sort_keys=True))
        return 0

    def label(entry):
        suffix = ",".join(f"{k}={v}" for k, v in entry["labels"])
        return entry["name"] + (f"{{{suffix}}}" if suffix else "")

    if doc.get("counters"):
        print("counters:")
        for c in doc["counters"]:
            print(f"  {label(c):42s} {c['value']:.6g}")
    if doc.get("gauges"):
        print("gauges:")
        for g in doc["gauges"]:
            print(f"  {label(g):42s} {g['value']:.6g}")
    if doc.get("histograms"):
        from repro.obs.metrics import MetricsRegistry

        print("histograms (count / sum / ~p50 / ~p99):")
        for h in MetricsRegistry.from_doc(doc).histograms:
            print(
                f"  {label({'name': h.name, 'labels': h.labels}):42s}"
                f" {h.count:8d}  {h.sum:.6g}"
                f"  {h.quantile(0.5):.3g}  {h.quantile(0.99):.3g}"
            )
    return 0


def cmd_insights(ns: argparse.Namespace) -> int:
    from repro.obs import insights as ins

    machine = _machine(ns.machine, ns.nodes, ns.ppn)
    store = None
    if ns.store_dir:
        from repro.obs.store import RunStore

        store = RunStore(ns.store_dir)
    colls = tuple(c.strip() for c in ns.colls.split(",") if c.strip())
    sizes = tuple(parse_nbytes(s) for s in ns.sizes.split(",") if s.strip())
    rivals = () if ns.no_rivals else tuple(
        r.strip() for r in ns.rivals.split(",") if r.strip()
    )
    workload = ins.quick_workload(
        machine=machine, colls=colls, sizes=sizes, rivals=rivals,
        store=store,
    )
    checks = ins.run_insights(workload)
    if ns.json:
        print(json.dumps({
            "machine": workload["machine"],
            "config": workload["config"],
            "insights": [i.to_doc() for i in checks],
        }, indent=2))
    else:
        print(f"insight workload on {workload['machine']} "
              f"[{workload['config']}]")
        print(ins.format_insights(checks))
        if store is not None:
            print(f"appended {store.appends} run(s) to {store.root}")
    return 0 if all(i.passed for i in checks) else 1


def cmd_regress(ns: argparse.Namespace) -> int:
    from repro.obs import fleet as fl
    from repro.obs import insights as ins
    from repro.obs.store import RunStore

    store = RunStore(ns.store_dir)
    checks = ins.check_regressions(
        store, k=ns.k, rel_floor=ns.rel_floor, min_runs=ns.min_runs
    )
    failed = [i for i in checks if not i.passed]
    status = (fl.STATUS_INSUFFICIENT if not checks
              else fl.STATUS_REGRESSIONS if failed else fl.STATUS_OK)
    code = fl.status_exit_code(status)
    if ns.json:
        print(json.dumps({
            "status": status, "exit_code": code,
            "checked": len(checks), "regressed": len(failed),
            "checks": [i.to_doc() for i in checks],
        }, indent=2))
    else:
        print(f"store {store.root}: {len(store.keys())} group(s), "
              f"status: {status}")
        print(ins.format_insights(checks))
    return code


def cmd_compact(ns: argparse.Namespace) -> int:
    from repro.obs.store import RunStore

    store = RunStore(ns.store_dir)
    res = store.compact(prefix=ns.prefix or None)
    print(f"compacted {store.root}: {res['records']} record(s) in "
          f"{res['shards']} shard(s), {res['removed_files']} mutable "
          f"file(s) folded into segments")
    return 0


def cmd_fleet(ns: argparse.Namespace) -> int:
    from repro.obs import fleet as fl
    from repro.obs.store import RunStore

    report = fl.fleet_report(
        [RunStore(d) for d in ns.store_dirs],
        k=ns.k, rel_floor=ns.rel_floor, min_runs=ns.min_runs,
    )
    if ns.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(fl.format_fleet(report, limit=ns.limit))
    return report["exit_code"]


# -- argument plumbing -------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="python -m repro.obs.cli",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = p.add_subparsers(dest="cmd", required=True)

    rec = sub.add_parser("record", help="simulate + record one collective")
    rec.add_argument("--coll", default="bcast")
    rec.add_argument("--nbytes", default="1M",
                     help="message size (suffixes K/M/G)")
    rec.add_argument("--machine", default="small_cluster",
                     help="factory name in repro.hardware.machines")
    rec.add_argument("--nodes", type=int, default=2)
    rec.add_argument("--ppn", type=int, default=4)
    rec.add_argument("--root", type=int, default=0)
    rec.add_argument("--out", default="", help="JSONL run record path")
    rec.add_argument("--trace-out", default="", help="Chrome trace path")
    rec.set_defaults(fn=cmd_record)

    rep = sub.add_parser("report", help="summarize a run record")
    rep.add_argument("in", help="JSONL run record")
    rep.add_argument("--top", type=int, default=12,
                     help="resources to list")
    rep.set_defaults(fn=cmd_report)

    cri = sub.add_parser("critpath", help="critical path of a run record")
    cri.add_argument("in", help="JSONL run record")
    cri.add_argument("--segments", action="store_true",
                     help="print every path segment")
    cri.set_defaults(fn=cmd_critpath)

    dif = sub.add_parser("diff", help="compare two run records")
    dif.add_argument("a")
    dif.add_argument("b")
    dif.add_argument("--json", action="store_true")
    dif.set_defaults(fn=cmd_diff)

    exp = sub.add_parser("export", help="JSONL record -> Chrome trace")
    exp.add_argument("in", help="JSONL run record")
    exp.add_argument("trace_out", help="output Chrome trace path")
    exp.set_defaults(fn=cmd_export)

    met = sub.add_parser("metrics", help="print a run's metrics registry")
    met.add_argument("in", nargs="?", default="",
                     help="JSONL run record (omit to simulate fresh)")
    met.add_argument("--coll", default="bcast")
    met.add_argument("--nbytes", default="1M")
    met.add_argument("--machine", default="small_cluster")
    met.add_argument("--nodes", type=int, default=2)
    met.add_argument("--ppn", type=int, default=4)
    met.add_argument("--root", type=int, default=0)
    met.add_argument("--json", action="store_true")
    met.set_defaults(fn=cmd_metrics)

    insp = sub.add_parser(
        "insights",
        help="guideline + straggler + margin checks on a quick workload",
    )
    insp.add_argument("--machine", default="shaheen2")
    insp.add_argument("--nodes", type=int, default=4)
    insp.add_argument("--ppn", type=int, default=8)
    insp.add_argument("--colls",
                      default="bcast,reduce,allreduce,scatter,gather,"
                              "allgather")
    insp.add_argument("--sizes", default="64K,1M,4M",
                      help="comma-separated (suffixes K/M/G)")
    insp.add_argument("--rivals", default="openmpi",
                      help="comma-separated comparator library names")
    insp.add_argument("--no-rivals", action="store_true",
                      help="skip the HAN-vs-rival margin checks")
    insp.add_argument("--store-dir", default="",
                      help="append every measured point to this run store")
    insp.add_argument("--json", action="store_true")
    insp.set_defaults(fn=cmd_insights)

    reg = sub.add_parser(
        "regress", help="cross-run regression check over a run store",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=(
            "exit codes:\n"
            "  0  every group with history is inside its MAD band\n"
            "  1  at least one group regressed beyond its band\n"
            "  2  insufficient history (no group has >= --min-runs runs;\n"
            "     nothing was actually checked)\n"
        ),
    )
    reg.add_argument("store_dir", help="run store directory")
    reg.add_argument("--k", type=float, default=5.0,
                     help="MAD multiplier of the tolerance band")
    reg.add_argument("--rel-floor", type=float, default=0.02,
                     help="relative tolerance floor")
    reg.add_argument("--min-runs", type=int, default=2,
                     help="skip groups with fewer runs than this")
    reg.add_argument("--json", action="store_true")
    reg.set_defaults(fn=cmd_regress)

    cmp_ = sub.add_parser(
        "compact",
        help="fold a run store's mutable tails into immutable segments",
    )
    cmp_.add_argument("store_dir", help="run store directory")
    cmp_.add_argument("--prefix", default="",
                      help="compact only this shard prefix")
    cmp_.set_defaults(fn=cmd_compact)

    flt = sub.add_parser(
        "fleet",
        help="cross-machine rollup report over one or more run stores",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=(
            "exit codes (same convention as regress):\n"
            "  0  ok  1  regressions  2  insufficient history\n"
        ),
    )
    flt.add_argument("store_dirs", nargs="+", help="run store directories")
    flt.add_argument("--k", type=float, default=5.0,
                     help="MAD multiplier of the tolerance band")
    flt.add_argument("--rel-floor", type=float, default=0.02,
                     help="relative tolerance floor")
    flt.add_argument("--min-runs", type=int, default=2,
                     help="skip groups with fewer runs than this")
    flt.add_argument("--limit", type=int, default=20,
                     help="findings to print (text mode)")
    flt.add_argument("--json", action="store_true")
    flt.set_defaults(fn=cmd_fleet)
    return p


def main(argv=None) -> int:
    ns = build_parser().parse_args(argv)
    return ns.fn(ns)


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    raise SystemExit(main())
