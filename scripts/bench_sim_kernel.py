#!/usr/bin/env python
"""Benchmark the simulation kernel on the Fig-8 autotuning path.

Times the same tuning workload under two end-to-end configurations:

- **before** — the ``reference`` fluid solver with the progressive-fill
  memo disabled, driven by the ``scalar`` one-event-at-a-time engine
  kernel: the pre-optimization implementation (both pieces are retained
  as correctness oracles);
- **after** — the default configuration: the ``incremental`` solver
  (component-local re-solves, lazy completion heap) with the
  process-wide solve memo enabled, driven by the ``batched`` engine
  kernel (same-instant retirement in one numpy pass).

Repetitions are interleaved (before/after/before/after …) and the
minimum per configuration is reported, which suppresses machine noise
far better than back-to-back timing.  Events/sec uses the engine's
process-wide event counter, so it covers every runtime the tuner
creates internally.

The script also runs the paper-scale 4096-process (256 nodes x 16 ppn)
broadcast + allreduce from ``repro.experiments.scaling4096`` in both
solver modes and bit-compares every measured time; the combined
verdict lands in the ``results_bit_identical`` flag.

Usage::

    python scripts/bench_sim_kernel.py                  # full bench
    python scripts/bench_sim_kernel.py --quick          # CI-sized
    python scripts/bench_sim_kernel.py --quick \
        --check-baseline BENCH_sim_kernel.json \
        --gate-scaling 4.0                              # perf smoke
    python scripts/bench_sim_kernel.py -o BENCH_sim_kernel.json

``--check-baseline`` compares the *after* wall against the named
committed baseline **at an equal event count** and exits non-zero when
events/sec fell more than 20% (wall above baseline / 0.8).  A run that
retires a different number of events than the baseline did is a changed
harness, not a faster or slower kernel -- a change that removes events
while the wall holds *lowers* events/sec -- so it gets "harness changed:
re-record the baseline" instead of a throughput verdict (and still
exits non-zero: the committed baseline no longer describes the run).
``--gate-scaling S`` additionally runs the paper-scale 4096-process
scaling experiment in the after configuration and fails if its wall
clock exceeds ``S`` seconds or its simulated times diverge from the
committed baseline — the routine-`--scale paper` guarantee.

Every timed run -- each tuning sweep and each paper-scale run -- starts
cold (``clear_fill_memo()`` first): the number reported is what one CLI
invocation costs, not what a later run in a process that already holds
the fill memo and the start gate's barrier schedules would, and every
repetition of a configuration retires the same number of events.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

KiB, MiB = 1024, 1024 * 1024

#: regression tolerance for --check-baseline (fraction of baseline)
TOLERANCE = 0.20


CONFIGS = {
    # (REPRO_FLUID_SOLVER, REPRO_FLUID_FILL_MEMO, REPRO_ENGINE_KERNEL)
    "before": ("reference", "0", "scalar"),
    "after": ("incremental", "1", "batched"),
}


def _solver_env(mode: str, memo: str, kernel: str) -> None:
    os.environ["REPRO_FLUID_SOLVER"] = mode
    os.environ["REPRO_FLUID_FILL_MEMO"] = memo
    os.environ["REPRO_ENGINE_KERNEL"] = kernel


def tuning_workload(quick: bool):
    """One Fig-8-style task-method tuning sweep; returns its report."""
    from repro.hardware import shaheen2
    from repro.tuning import Autotuner, SearchSpace

    if quick:
        machine = shaheen2(num_nodes=4, ppn=4)
        space = SearchSpace(
            seg_sizes=(512 * KiB,),
            messages=[2.0 ** k for k in range(14, 23, 4)],
            adapt_algorithms=("chain", "binomial"),
        )
    else:
        # fig08's "medium" geometry: 16 nodes x 12 ppn.  The incremental
        # solver's advantage grows with scale (the reference mode
        # re-solves every in-flight flow globally), so the bench geometry
        # should match what the experiments actually run.
        machine = shaheen2(num_nodes=16, ppn=12)
        space = SearchSpace(
            seg_sizes=(512 * KiB, 1 * MiB),
            messages=[2.0 ** k for k in range(14, 25, 2)],
            adapt_algorithms=("chain", "binomial"),
        )
    tuner = Autotuner(machine, space=space, warm_iters=6)
    return tuner.tune(colls=("bcast",), method="task")


def candidate_times(report) -> list[float]:
    """Flatten every measured candidate time, in deterministic order."""
    out = []
    for key in sorted(report.candidates, key=repr):
        out.extend(t for _cfg, t in report.candidates[key])
    return out


def timed_tuning(config: str, quick: bool) -> dict:
    from repro.sim.engine import Engine
    from repro.sim.fluid import clear_fill_memo

    _solver_env(*CONFIGS[config])
    clear_fill_memo()
    ev0 = Engine.events_total
    t0 = time.perf_counter()
    report = tuning_workload(quick)
    wall = time.perf_counter() - t0
    events = Engine.events_total - ev0
    return {
        "wallclock_s": wall,
        "events": events,
        "events_per_sec": events / wall if wall > 0 else 0.0,
        "tuning_cost_s": report.tuning_cost,
        "candidate_times": candidate_times(report),
    }


def rate_section(run: dict) -> dict:
    """What a timed tuning sweep keeps in the result document."""
    return {
        **{k: run[k] for k in ("wallclock_s", "events", "events_per_sec")},
        "box": box_stamp(),
    }


def check_baseline(current: dict, baseline: dict, source: str) -> bool:
    """The perf-smoke verdict: wall vs baseline at an equal event count."""
    if current["events"] != baseline["events"]:
        print(
            f"perf smoke: {current['events']:,} events vs baseline "
            f"{baseline['events']:,}\n"
            f"FAIL: harness changed: re-record the baseline ({source}); "
            "events/sec across different event counts says nothing about "
            "the kernel"
        )
        return False
    ceiling = baseline["wallclock_s"] / (1.0 - TOLERANCE)
    print(
        f"perf smoke: {current['wallclock_s']:.3f}s vs baseline "
        f"{baseline['wallclock_s']:.3f}s (ceiling {ceiling:.3f}s) at "
        f"{current['events']:,} events"
    )
    if current["wallclock_s"] > ceiling:
        print(f"FAIL: events/sec regressed more than {TOLERANCE:.0%} "
              f"vs {source}")
        return False
    print("OK")
    return True


def box_stamp() -> dict:
    """The box a wall time was recorded on (walls mean nothing without it)."""
    import platform

    import numpy

    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def scaling_runs(quick: bool) -> dict:
    """Paper-scale collectives in both modes, bit-compared, each cold."""
    from repro.experiments import scaling4096
    from repro.sim.fluid import clear_fill_memo

    out: dict = {}
    for config, env in CONFIGS.items():
        _solver_env(*env)
        clear_fill_memo()
        t0 = time.perf_counter()
        out[config] = scaling4096.run(
            scale="quick" if quick else "paper", save=False
        )
        out[config]["wallclock_s"] = time.perf_counter() - t0
    out["identical"] = (
        out["before"]["times"] == out["after"]["times"]
    )
    return out


def scaling_gate(budget: float, baseline: dict | None, repeat: int) -> dict:
    """Paper-scale after-config run: wall budget + baseline bit-compare.

    Takes the minimum wall over ``repeat`` runs (same noise-suppression
    discipline as the tuning phases), each started cold so the minimum
    is over like runs; every run's simulated times and event counts must
    agree with each other and — when a baseline document carries a
    ``scaling4096`` section — the times with the committed ones, so the
    gate checks cross-process bit-identity, not just speed.
    """
    from repro.experiments import scaling4096
    from repro.sim.fluid import clear_fill_memo

    _solver_env(*CONFIGS["after"])
    walls: list[float] = []
    times = events = None
    ok = True
    for _ in range(max(1, repeat)):
        clear_fill_memo()
        t0 = time.perf_counter()
        res = scaling4096.run(scale="paper", save=False)
        walls.append(time.perf_counter() - t0)
        if times is None:
            times, events = res["times"], res["events"]
        elif (res["times"], res["events"]) != (times, events):
            print("FAIL: repeated paper-scale runs disagree with each other")
            ok = False
    expect = (baseline or {}).get("scaling4096", {}).get("times")
    if expect is not None:
        if expect != times:
            print("FAIL: paper-scale simulated times diverge from the "
                  "committed baseline")
            ok = False
        else:
            print("scaling gate: times bit-identical to the committed baseline")
    wall = min(walls)
    print(f"scaling gate: paper wall {wall:.2f}s "
          f"(budget {budget:.1f}s, {len(walls)} run(s))")
    if wall > budget:
        print(f"FAIL: paper-scale wall exceeds the {budget:.1f}s budget")
        ok = False
    return {
        "budget_s": budget,
        "wallclock_s": wall,
        "walls_s": walls,
        "times": times,
        "events": events,
        "box": box_stamp(),
        "ok": ok,
    }


def critpath_profile() -> dict:
    """Dogfood the repo's own observability on the bench workload.

    Records one medium-geometry allreduce through :mod:`repro.obs` and
    attributes its simulated critical path (cpu / net / wait) via
    :mod:`repro.obs.critpath` — the breakdown that says *where* the
    events the kernel retires actually come from.
    """
    from repro.hardware import shaheen2
    from repro.obs.critpath import critical_path
    from repro.obs.record import record_collective

    _solver_env(*CONFIGS["after"])
    machine = shaheen2(num_nodes=8, ppn=8)
    record = record_collective(machine, "allreduce", float(MiB))
    att = critical_path(record).attribution
    return {
        "workload": "allreduce 1MiB on shaheen2 8x8 (recorded run)",
        "spans": len(record.spans),
        "messages": len(record.messages),
        "cpu_s": att["cpu"],
        "net_s": att["net"],
        "wait_s": att["wait"],
        "end_s": att["end"],
        "coverage": att["coverage"],
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true",
                    help="CI-sized workload (seconds, not minutes)")
    ap.add_argument("--repeat", type=int, default=3,
                    help="interleaved repetitions per configuration")
    ap.add_argument("--check-baseline", metavar="JSON",
                    help="compare the wall against a committed baseline at "
                         f"an equal event count; exit 1 on a >{TOLERANCE:.0%} "
                         "events/sec regression or a changed event count")
    ap.add_argument("--gate-scaling", type=float, metavar="SECONDS",
                    help="run the paper-scale scaling4096 experiment in the "
                         "after configuration; exit 3 if its wall clock "
                         "exceeds this budget or its simulated times "
                         "diverge from --check-baseline's")
    ap.add_argument("--gate-repeat", type=int, default=2,
                    help="runs for the scaling gate (minimum wall counts)")
    ap.add_argument("--gate-only", action="store_true",
                    help="skip the tuning/scaling phases: load the existing "
                         "--output document, re-run just the paper-scale "
                         "gate against its committed times, and rewrite its "
                         "scaling_gate section (exit 3 on failure)")
    ap.add_argument("-o", "--output", metavar="JSON",
                    help="write the result document here")
    args = ap.parse_args(argv)

    if args.gate_only:
        if not (args.output and Path(args.output).exists()):
            ap.error("--gate-only needs an existing --output document")
        doc = json.loads(Path(args.output).read_text())
        gate = scaling_gate(
            args.gate_scaling if args.gate_scaling is not None else 4.0,
            doc, args.gate_repeat,
        )
        doc["scaling_gate"] = gate
        Path(args.output).write_text(json.dumps(doc, indent=2) + "\n")
        return 0 if gate["ok"] else 3

    phases: dict[str, list[dict]] = {c: [] for c in CONFIGS}
    for rep in range(args.repeat):
        for config in CONFIGS:
            r = timed_tuning(config, args.quick)
            phases[config].append(r)
            print(
                f"[{rep + 1}/{args.repeat}] {config:>6}: "
                f"{r['wallclock_s']:.2f}s  "
                f"{r['events_per_sec']:,.0f} events/s",
                flush=True,
            )

    best = {
        c: min(runs, key=lambda r: r["wallclock_s"])
        for c, runs in phases.items()
    }
    identical_tuning = all(
        runs_c["candidate_times"] == best["before"]["candidate_times"]
        and runs_c["tuning_cost_s"] == best["before"]["tuning_cost_s"]
        for runs in phases.values()
        for runs_c in runs
    )

    print("scaling run (256x16 bcast + allreduce)..." if not args.quick
          else "scaling run (quick geometry)...", flush=True)
    scaling = scaling_runs(args.quick)

    speedup = (
        best["before"]["wallclock_s"] / best["after"]["wallclock_s"]
        if best["after"]["wallclock_s"] > 0 else 0.0
    )
    doc = {
        "workload": "fig08 bcast task-method tuning sweep "
                    + ("(quick geometry 4x4)" if args.quick
                       else "(medium geometry 16x12)"),
        "quick": args.quick,
        "repeat": args.repeat,
        "configs": {
            c: dict(zip(("fluid_solver", "fill_memo", "engine_kernel"), env))
            for c, env in CONFIGS.items()
        },
        "before": rate_section(best["before"]),
        "after": rate_section(best["after"]),
        "speedup": speedup,
        "scaling4096": {
            "geometry": scaling["after"]["geometry"],
            "times": scaling["after"]["times"],
            "events": scaling["after"].get("events"),
            "wallclock_after_s": scaling["after"]["wallclock_s"],
            "wallclock_before_s": scaling["before"]["wallclock_s"],
            "box": box_stamp(),
        },
        "results_bit_identical": identical_tuning and scaling["identical"],
    }

    gate = None
    if args.gate_scaling is not None:
        baseline = (
            json.loads(Path(args.check_baseline).read_text())
            if args.check_baseline else None
        )
        gate = scaling_gate(args.gate_scaling, baseline, args.gate_repeat)
        doc["scaling_gate"] = gate

    if not args.quick:
        print("critical-path profile (obs dogfood)...", flush=True)
        doc["critpath"] = critpath_profile()
        end = doc["critpath"]["end_s"] or 1.0
        print("  " + "  ".join(
            f"{k}: {doc['critpath'][f'{k}_s']:.3e}s"
            f" ({doc['critpath'][f'{k}_s'] / end:.0%})"
            for k in ("cpu", "net", "wait")
        ))

    print(
        f"\nbefore: {doc['before']['wallclock_s']:.2f}s  "
        f"after: {doc['after']['wallclock_s']:.2f}s  "
        f"speedup: {speedup:.2f}x  "
        f"bit-identical: {doc['results_bit_identical']}"
    )

    if args.output and not args.quick:
        # CI's perf smoke runs --quick, so the committed baseline needs a
        # quick-workload events/sec to compare against (the full-workload
        # rate has a different event mix).
        smoke = min(
            (timed_tuning("after", quick=True) for _ in range(args.repeat)),
            key=lambda r: r["wallclock_s"],
        )
        doc["perf_smoke_baseline"] = rate_section(smoke)
        print(
            f"perf-smoke baseline (quick): "
            f"{smoke['events_per_sec']:,.0f} events/s"
        )

    if args.output:
        Path(args.output).write_text(json.dumps(doc, indent=2) + "\n")
        print(f"wrote {args.output}")

    if args.check_baseline:
        base = json.loads(Path(args.check_baseline).read_text())
        key = "perf_smoke_baseline" if args.quick else "after"
        if not check_baseline(
            doc["after"], base.get(key, base["after"]),
            f"{args.check_baseline}:{key}",
        ):
            return 1
    if not doc["results_bit_identical"]:
        print("FAIL: kernel configurations disagree — investigate before "
              "trusting any benchmark above")
        return 2
    if gate is not None and not gate["ok"]:
        return 3
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
