"""Command-line front end for the tuning engine.

Run and inspect HAN autotuning without writing a driver::

    # tune, fanning measurements over 4 worker processes, with a
    # persistent measurement cache (re-runs become near-instant)
    python -m repro.tuning.cli run --machine shaheen2 --nodes 6 --ppn 6 \
        --colls bcast,allreduce --method exhaustive --workers 4 \
        --cache .tuning-cache --out table.json

    # what is in the cache?
    python -m repro.tuning.cli inspect --cache .tuning-cache

    # tune under background tenant load, with successive-halving trials
    python -m repro.tuning.cli run --machine tiny --trials 5 \
        --allocation bandit --traffic-plan allreduce_sweep --traffic-seed 11

    # fixed vs bandit trial budgets on the sensitivity fault plan
    # (emits BENCH_bandit_trials.json; exit 1 if the gates fail)
    python -m repro.tuning.cli bandit --trials 5 --min-savings 0.30

``--no-cache`` disables the cache even when ``--cache`` points at an
existing directory (cold-run comparisons); ``--workers 0`` is the plain
serial path.  Tuning *results* never depend on either knob — only the
wall-clock does.
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path
from typing import Optional

from repro.faults import FaultPlan, OsNoise
from repro.hardware import MACHINE_PRESETS, small_cluster, tiny_cluster
from repro.tenancy import TRAFFIC_PRESETS, TrafficPlan, load_traffic
from repro.tuning.autotuner import ALLOCATIONS, METHODS, Autotuner
from repro.tuning.cache import MeasurementCache
from repro.tuning.space import SearchSpace

__all__ = ["main"]

KiB, MiB = 1024, 1024 * 1024

# the shared preset registry plus this CLI's historical short names
MACHINES = dict(MACHINE_PRESETS)
MACHINES.update(small=small_cluster, tiny=tiny_cluster)


def _machine(args):
    preset = MACHINES[args.machine]
    mach = preset()
    return mach.scaled(num_nodes=args.nodes or mach.num_nodes,
                       ppn=args.ppn or mach.ppn)


def _space(name: str) -> SearchSpace:
    if name == "small":
        return SearchSpace.small()
    if name == "full":
        return SearchSpace()
    if name == "gpu":  # accelerator nodes: gpu joins the smod axis
        return SearchSpace.gpu()
    if name == "sens":  # the sensitivity-experiment sweep (see cmd_bandit)
        return SearchSpace(
            seg_sizes=(128 * KiB, 512 * KiB),
            messages=(256 * KiB, 1 * MiB),
            adapt_algorithms=("chain", "binary"),
            inner_segs=(None,),
        )
    raise ValueError(f"unknown space {name!r}")


def _cache(args) -> Optional[MeasurementCache]:
    if getattr(args, "no_cache", False) or not getattr(args, "cache", None):
        return None
    return MeasurementCache(args.cache)


def _traffic(args) -> Optional[TrafficPlan]:
    """``--traffic-plan``: a preset name or a TrafficPlan JSON document."""
    name = getattr(args, "traffic_plan", None)
    if not name:
        return None
    try:
        return load_traffic(name, getattr(args, "traffic_seed", None))
    except ValueError as exc:
        raise SystemExit(f"--traffic-plan: {exc}") from None


# -- run ---------------------------------------------------------------------------


def cmd_run(args) -> int:
    machine = _machine(args)
    cache = _cache(args)
    traffic = _traffic(args)
    tuner = Autotuner(
        machine,
        space=_space(args.space),
        workers=args.workers,
        cache=cache,
        trials=args.trials,
        allocation=args.allocation,
        traffic_plan=traffic,
    )
    colls = tuple(c.strip() for c in args.colls.split(",") if c.strip())
    t0 = time.perf_counter()
    report = tuner.tune(colls=colls, method=args.method)
    wall = time.perf_counter() - t0
    loaded = f"  traffic={args.traffic_plan}" if traffic is not None else ""
    print(
        f"tuned {machine.name} {machine.num_nodes}x{machine.ppn} "
        f"[{args.method}/{args.allocation}] colls={','.join(colls)}{loaded}"
    )
    print(
        f"  searches={report.searches}  trials_spent={report.trials_spent}  "
        f"tuning_cost={report.tuning_cost:.4f} "
        f"simulated-s  wall={wall:.2f}s  workers={args.workers}"
    )
    if cache is not None:
        s = cache.stats()
        print(
            f"  cache: {s['hits']} hits / {s['misses']} misses "
            f"({100 * s['hit_rate']:.0f}% hit rate) at {args.cache}"
        )
    for (t, n, p, m), cfg in sorted(report.table.entries.items()):
        print(f"  {t:>10} n={n} p={p} m={m:>12g}B -> {cfg.describe()}")
    if args.out:
        report.table.save(args.out)
        print(f"  lookup table saved to {args.out}")
    return 0


# -- inspect -----------------------------------------------------------------------


def cmd_inspect(args) -> int:
    path = Path(args.cache)
    if not path.exists():
        print(f"no cache at {path}")
        return 1
    cache = MeasurementCache(path)
    kinds: dict[str, int] = {}
    colls: dict[str, int] = {}
    total = 0
    for key, doc in cache.entries():
        total += 1
        kinds[doc.get("__kind__", "?")] = kinds.get(doc.get("__kind__", "?"), 0) + 1
        c = doc.get("coll") or doc.get("config", {}).get("imod", "?")
        colls[c] = colls.get(c, 0) + 1
        if args.verbose:
            print(f"  {key[:16]}  {doc.get('__kind__'):>9}  "
                  f"coll={doc.get('coll', '-')}  nbytes={doc.get('nbytes', '-')}")
    print(f"cache {path}: {total} entries")
    for kind, count in sorted(kinds.items()):
        print(f"  {kind}: {count}")
    return 0


# -- bandit ------------------------------------------------------------------------


def cmd_bandit(args) -> int:
    """Fixed vs successive-halving trial budgets on the sensitivity scenario.

    Regenerates ``BENCH_bandit_trials.json``: the same noisy exhaustive
    search run with ``allocation="fixed"`` and ``allocation="bandit"``,
    each pick scored against the noise-free ground-truth winner.  Exit
    code gates (for CI): the bandit must save at least ``--min-savings``
    of the fixed trial budget *and* agree with the truth winner at least
    as often as the fixed path does.
    """
    machine = _machine(args)
    space = _space(args.space)
    colls = tuple(c.strip() for c in args.colls.split(",") if c.strip())
    plan = FaultPlan(seed=args.seed).add(
        OsNoise(amplitude=args.amplitude, prob=args.straggler_prob)
    )
    traffic = _traffic(args)
    print(
        f"bandit study: {machine.name} {machine.num_nodes}x{machine.ppn} "
        f"colls={','.join(colls)} trials={args.trials} "
        f"noise=OsNoise(amplitude={args.amplitude}, prob={args.straggler_prob}) "
        f"seed={args.seed}"
    )

    truth = Autotuner(machine, space=space).tune(colls=colls, method="exhaustive")

    def tune(allocation: str):
        tuner = Autotuner(
            machine, space=space, trials=args.trials, fault_plan=plan,
            traffic_plan=traffic, selection="confident", allocation=allocation,
        )
        t0 = time.perf_counter()
        report = tuner.tune(colls=colls, method="exhaustive")
        return report, time.perf_counter() - t0

    fixed, t_fixed = tune("fixed")
    bandit, t_bandit = tune("bandit")

    keys = sorted(truth.table.entries)
    agree = {"fixed": 0, "bandit": 0}
    for key in keys:
        best = truth.table.entries[key]
        agree["fixed"] += fixed.table.entries[key] == best
        agree["bandit"] += bandit.table.entries[key] == best
    savings = 1.0 - bandit.trials_spent / fixed.trials_spent
    savings_ok = savings >= args.min_savings
    agreement_ok = agree["bandit"] >= agree["fixed"]
    ok = savings_ok and agreement_ok

    print(f"  fixed:  {fixed.trials_spent:4d} trials  "
          f"truth-agreement {agree['fixed']}/{len(keys)}  "
          f"wall={t_fixed:.2f}s")
    print(f"  bandit: {bandit.trials_spent:4d} trials  "
          f"truth-agreement {agree['bandit']}/{len(keys)}  "
          f"wall={t_bandit:.2f}s")
    print(f"  savings: {100 * savings:.1f}% "
          f"(gate >= {100 * args.min_savings:.0f}%)  "
          f"agreement no worse: {agreement_ok}")

    out = {
        "machine": f"{machine.name} {machine.num_nodes}x{machine.ppn}",
        "scenario": {
            "seed": args.seed,
            "amplitude": args.amplitude,
            "straggler_prob": args.straggler_prob,
            "trials": args.trials,
            "selection": "confident",
            "space": args.space,
            "colls": list(colls),
            "traffic_plan": args.traffic_plan,
        },
        "entries": len(keys),
        "trials_spent": {
            "fixed": fixed.trials_spent,
            "bandit": bandit.trials_spent,
        },
        "savings_pct": 100.0 * savings,
        "truth_agreement": dict(agree),
        "winners_match_fixed": bandit.table.entries == fixed.table.entries,
        "tuning_cost_simulated_s": {
            "fixed": fixed.tuning_cost,
            "bandit": bandit.tuning_cost,
        },
        "wallclock_s": {"fixed": t_fixed, "bandit": t_bandit},
        "gates": {
            "min_savings_pct": 100.0 * args.min_savings,
            "savings_ok": savings_ok,
            "agreement_ok": agreement_ok,
        },
        "passed": ok,
    }
    Path(args.out).write_text(json.dumps(out, indent=1))
    print(f"written to {args.out}")
    return 0 if ok else 1


# -- entry point -------------------------------------------------------------------


def _add_machine_args(p: argparse.ArgumentParser, nodes=6, ppn=6) -> None:
    p.add_argument("--machine", choices=sorted(MACHINES), default="shaheen2",
                   help="machine preset; gpu_cluster = flat-NVLink GPU "
                        "nodes, gpu_pod = split-NVLink GPU pods (two "
                        "fabric islands per node bridged over PCIe/host)")
    p.add_argument("--nodes", type=int, default=nodes,
                   help="node count (default: preset geometry)")
    p.add_argument("--ppn", type=int, default=ppn,
                   help="processes per node (default: preset geometry)")


def _add_allocation_args(p: argparse.ArgumentParser, trials=1) -> None:
    p.add_argument("--trials", type=int, default=trials,
                   help="measurement repetitions per configuration")
    p.add_argument("--allocation", choices=ALLOCATIONS, default="fixed",
                   help="trial budget strategy (bandit = successive halving)")
    p.add_argument("--traffic-plan", default=None,
                   help="background tenants while measuring: a preset name "
                        f"({', '.join(sorted(TRAFFIC_PRESETS))}) or a "
                        "TrafficPlan JSON file")
    p.add_argument("--traffic-seed", type=int, default=None,
                   help="override the traffic plan's seed")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.tuning.cli", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one autotuning search")
    _add_machine_args(p_run, nodes=None, ppn=None)
    p_run.add_argument("--colls", default="bcast,allreduce",
                       help="comma-separated collectives")
    p_run.add_argument("--method", choices=METHODS, default="task")
    p_run.add_argument("--space",
                       choices=("small", "full", "gpu", "sens"),
                       default="small",
                       help="configuration space: small (fast subset), "
                            "full (paper Tables I-II), gpu (adds the gpu "
                            "intra module for accelerator presets such as "
                            "gpu_cluster/gpu_pod; on gpu_pod's split-NVLink "
                            "nodes smod=gpu engages the fabric tier), "
                            "sens (the sensitivity-experiment sweep)")
    p_run.add_argument("--workers", type=int, default=0,
                       help="measurement worker processes (0 = serial)")
    _add_allocation_args(p_run)
    p_run.add_argument("--cache", default=None,
                       help="persistent measurement cache directory")
    p_run.add_argument("--no-cache", action="store_true",
                       help="force a cold run even if --cache exists")
    p_run.add_argument("--out", default=None,
                       help="save the lookup table to this JSON file")
    p_run.set_defaults(fn=cmd_run)

    p_ins = sub.add_parser("inspect", help="show cache contents and stats")
    p_ins.add_argument("--cache", required=True)
    p_ins.add_argument("-v", "--verbose", action="store_true")
    p_ins.set_defaults(fn=cmd_inspect)

    p_ban = sub.add_parser(
        "bandit", help="fixed vs successive-halving trial budgets "
                       "(emits BENCH_bandit_trials.json, gated exit code)"
    )
    _add_machine_args(p_ban, nodes=4, ppn=4)
    p_ban.add_argument("--colls", default="bcast,allreduce",
                       help="comma-separated collectives")
    p_ban.add_argument("--space",
                       choices=("small", "full", "gpu", "sens"),
                       default="sens")
    p_ban.add_argument("--seed", type=int, default=2026,
                       help="fault-plan seed (the sensitivity experiment's)")
    p_ban.add_argument("--amplitude", type=float, default=0.5,
                       help="OsNoise amplitude")
    p_ban.add_argument("--straggler-prob", type=float, default=0.02,
                       help="per-rank straggler probability")
    p_ban.add_argument("--trials", type=int, default=5,
                       help="fixed-path trials per configuration (bandit "
                            "budget ceiling)")
    p_ban.add_argument("--traffic-plan", default=None,
                       help="background tenants while measuring (preset name "
                            "or TrafficPlan JSON file)")
    p_ban.add_argument("--traffic-seed", type=int, default=None,
                       help="override the traffic plan's seed")
    p_ban.add_argument("--min-savings", type=float, default=0.30,
                       help="gate: bandit must save this fraction of the "
                            "fixed trial budget")
    p_ban.add_argument("--out", default="BENCH_bandit_trials.json")
    p_ban.set_defaults(fn=cmd_bandit)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    raise SystemExit(main())
