#!/usr/bin/env python3
"""The repo's perf benchmark: four workloads, host time per layer.

    python benchmarks/perf/run.py                      # all four, both runs
    python benchmarks/perf/run.py --workload W --trace 0|1 [--seed S]
                                  [--seconds T] [--out F]
    python benchmarks/perf/run.py --quick              # smoke, not for claims
    python benchmarks/perf/run.py --compare A.json B.json
    python benchmarks/perf/run.py --ablate [--quick]

With ``--workload`` one workload runs in this process (so its peak RSS is
its own) and the last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics`` -- the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Without it every workload runs as two child processes, untraced then
traced.  See README.md beside this file for what each number means.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent.parent
#: scratch stores, traces and child results; everything the benchmark
#: writes lands here (inside the checkout, ignored by git)
OUT = HERE / "out"
sys.path[:0] = [str(HERE), str(REPO / "src")]

#: fresh-process set-ups timed per run besides this process's own
SETUP_PROBES = 4
#: fewest timed repetitions of an untraced run
MIN_REPS = 3
#: share of ``--seconds`` a traced run spends on its untraced repetitions
UNTRACED_SHARE = 0.25

TOGGLES = {
    "baseline": {},
    "engine_scalar": {"REPRO_ENGINE_KERNEL": "scalar"},
    "fluid_reference": {"REPRO_FLUID_SOLVER": "reference"},
    "no_fill_memo": {"REPRO_FLUID_FILL_MEMO": "0"},
}
ABLATE_REPS = 5


def spec() -> dict:
    return json.loads((REPO / "BENCHMARK.json").read_text())


def env_stamp(loadavg_start: float) -> dict:
    import numpy
    import scipy

    commit = None
    if (REPO / ".git").exists():
        done = subprocess.run(["git", "-C", str(REPO), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = done.stdout.strip() or None
    return {
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "platform": platform.platform(), "git_commit": commit,
        "loadavg_start": loadavg_start,
    }


# -- set-up and repetitions ---------------------------------------------------------


@contextlib.contextmanager
def open_workload(name: str, seed: int, quick: bool):
    """Set one workload up; yields ``(workload, setup)`` where ``setup``
    holds the host seconds of imports, input generation and warm-up."""
    OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=OUT, prefix=f"{name}-"))
    try:
        loadavg = os.getloadavg()[0]
        t0 = time.perf_counter()
        importlib.import_module("repro")
        cls = importlib.import_module("workloads").WORKLOADS[name]
        for module in cls.modules:
            importlib.import_module(module)
        t1 = time.perf_counter()
        workload = cls(seed, quick, scratch)
        t2 = time.perf_counter()
        workload.warm_up()
        t3 = time.perf_counter()
        yield workload, {
            "import_s": t1 - t0, "generate_s": t2 - t1, "warm_up_s": t3 - t2,
            "setup_s": t3 - t0, "loadavg_start": loadavg,
            **getattr(workload, "setup_times", {}),
        }
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def child_command(args, workload: str, *extra: str) -> list[str]:
    """This script again, for one workload, with the caller's seed."""
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", workload, "--seed", str(args.seed), *extra]
    if args.quick:
        cmd.append("--quick")
    return cmd


def setup_probe_times(args) -> list[float]:
    """Set the workload up in fresh processes; their ``setup_s`` each."""
    cmd = child_command(args, args.workload, "--setup-probe")
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=170)
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            raise SystemExit(f"set-up probe failed ({done.returncode})")
        times.append(float(done.stdout.split()[-1]))
    return times


def run_rep(workload):
    # the engine pauses the collector while it runs; settle it first so
    # one repetition's garbage is not collected inside the next one
    gc.collect()
    return workload.repetition()


def measure(workload, seconds: float, min_reps: int) -> list:
    reps = []
    t0 = time.perf_counter()
    while len(reps) < min_reps or time.perf_counter() - t0 < seconds:
        reps.append(run_rep(workload))
    return reps


# -- one workload, one process ------------------------------------------------------


def sim_digest(reps) -> str | None:
    """sha256 over the reprs of every simulated number of repetition 1."""
    if not reps[0].sim:
        return None
    blob = json.dumps(reps[0].sim, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def fold_checks(reps, doc: dict) -> None:
    doc["attempted"] = sum(r.checks.attempted for r in reps)
    doc["failed"] = sum(r.checks.failed for r in reps)
    doc["failures"] = [m for r in reps for m in r.checks.messages][:20]
    for key in ("sim", "counts"):
        first = getattr(reps[0], key)
        if any(getattr(r, key) != first for r in reps):
            doc["failed"] += 1
            doc["failures"].append(f"{key} differ between repetitions")
        doc["attempted"] += 1
        doc[key] = first
    doc["sim_digest"] = sim_digest(reps)


def untraced_run(args) -> dict:
    """End-to-end metrics: tracing off, set-up timed in fresh processes."""
    from stats import summarize

    setups = setup_probe_times(args)
    with open_workload(args.workload, args.seed, args.quick) as (wl, setup):
        setups.append(setup["setup_s"])
        reps = measure(wl, args.seconds, args.min_reps)
        doc = new_doc(args, wl, setup)
    fold_checks(reps, doc)
    samples = {
        "setup_s": (setups, "s"),
        "wall_s": ([r.wall_s for r in reps], "s"),
        "peak_rss_mb": (
            [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024],
            "MiB"),
        "phase_a_ms": ([s * 1e3 for r in reps for s in r.phase_a], "ms"),
        "phase_b_ms": ([s * 1e3 for r in reps for s in r.phase_b], "ms"),
    }
    doc["metrics"] = {name: {**summarize(values), "unit": unit,
                             "samples": values}
                      for name, (values, unit) in samples.items()}
    return doc


def traced_run(args) -> dict:
    """Per-layer metrics: a few untraced repetitions for the overhead
    ratio, then a warm-up and the measured repetitions under the tracer."""
    import layers
    from tracing import ROOT, Tracer

    with open_workload(args.workload, args.seed, args.quick) as (wl, setup):
        untraced = measure(wl, args.seconds * UNTRACED_SHARE, 1)
        regret, regret_pinned = 0.0, None
        if hasattr(wl, "ground_truth") and not args.quick:
            regret = wl.ground_truth()  # needs the repetition above
            regret_pinned = wl.pinned["tuned_regret"]
        tracer = Tracer()
        traced, solver_stats = [], []
        with tracer:
            solvers = layers.install(tracer)
            t0 = time.perf_counter()
            rid = 0  # repetition 0 warms the wrappers up and is dropped
            while rid < 3 or time.perf_counter() - t0 < args.seconds:
                gc.collect()
                tracer.begin_rep(rid)
                rep = wl.repetition()
                tracer.end_rep()
                stats = layers.solver_totals(solvers)
                if rid > 0:
                    traced.append((rid, rep))
                    solver_stats.append(stats)
                rid += 1
        doc = new_doc(args, wl, setup)
    ids = [rid for rid, _rep in traced]
    fold_checks(untraced + [rep for _rid, rep in traced], doc)

    def check(ok: bool, message: str) -> None:
        doc["attempted"] += 1
        if not ok:
            doc["failed"] += 1
            doc["failures"].append(message)

    for rid in ids:  # self times must account for the whole repetition
        root = tracer.total_s(rid, ROOT)
        parts = sum(t[2] for t in tracer.totals[rid].values())
        check(abs(parts - root) <= 0.02 * root,
              f"repetition {rid}: self times sum to {parts!r}, wall {root!r}")
    breaches = layers.isolation_breaches(args.workload, tracer, ids)
    check(not breaches, f"spans from foreign layers: {breaches}")
    for key in ("recomputes", "kernel_flows_solved", "fill_cache_hits"):
        check(len({s[key] for s in solver_stats}) == 1,
              f"solver counter {key} differs between repetitions")
    if regret_pinned is not None:
        check(regret == regret_pinned,
              f"tuned_regret {regret!r} != pinned {regret_pinned!r}")
    doc["metrics"] = {
        name: {"value": value, "unit": unit}
        for name, (value, unit) in layers.layer_metrics(
            tracer, traced, untraced, solver_stats, setup, regret).items()
    }
    doc["self_times"] = {
        str(rid): {name: t[2] for name, t in sorted(tracer.totals[rid].items())}
        for rid in ids
    }
    trace_path = OUT / f"{args.workload}.trace.json"
    trace_path.write_text(json.dumps(
        {"workload": args.workload, "seed": args.seed,
         **tracer.to_doc(ids)}))
    doc["trace_file"] = str(trace_path.relative_to(REPO))
    return doc


def new_doc(args, workload, setup: dict) -> dict:
    return {
        "schema": 1, "workload": args.workload, "trace": args.trace,
        "seed": args.seed, "seconds": args.seconds, "quick": args.quick,
        "not_for_claims": args.quick,
        "seed_independent": workload.seed_independent,
        "phases": list(workload.phases),
        "env": env_stamp(setup["loadavg_start"]), "setup": setup,
    }


def emit(doc: dict, args) -> None:
    """Print every metric by name with its unit, then the result line."""
    doc["correct"] = doc["failed"] == 0
    head = f"{doc['workload']} (seed {doc['seed']}"
    if doc["seed_independent"]:
        head += ", inputs do not depend on the seed"
    if doc["quick"]:
        head += ", --quick: NOT FOR CLAIMS"
    print(head + f"), {'traced' if doc['trace'] else 'untraced'} run; "
          f"phase a = {doc['phases'][0]}, phase b = {doc['phases'][1]}")
    for name, m in doc["metrics"].items():
        line = f"  {name:<36} {m['value']:>16.9g} {m['unit']}"
        if "n" in m:
            line += f"   q1 {m['q1']:.6g}  q3 {m['q3']:.6g}  n={m['n']}"
        print(line)
    print(f"  checks: {doc['attempted']} attempted, {doc['failed']} failed; "
          f"sim_digest {doc['sim_digest']}")
    for message in doc["failures"]:
        print(f"  FAILED: {message}")
    if args.out:
        Path(args.out).write_text(json.dumps(doc, indent=1))
    print(json.dumps({
        "correct": doc["correct"], "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in doc["metrics"].items()},
    }))


# -- all workloads, child processes -------------------------------------------------


def full_run(args) -> int:
    """Every workload as two child processes: untraced, then traced."""
    import workloads

    OUT.mkdir(exist_ok=True)
    merged = {"schema": 1, "seed": args.seed, "seconds": args.seconds,
              "quick": args.quick, "not_for_claims": args.quick,
              "workloads": {}}
    failed = 0
    for name in workloads.WORKLOADS:
        runs = {}
        for trace in (0, 1):
            out = OUT / f"{name}.trace{trace}.json"
            cmd = child_command(args, name, "--seconds", str(args.seconds),
                                "--trace", str(trace), "--out", str(out))
            done = subprocess.run(cmd, check=True, stdout=subprocess.PIPE,
                                  text=True)
            # everything but the machine-readable result line
            print("\n".join(done.stdout.splitlines()[:-1]), flush=True)
            runs["traced" if trace else "untraced"] = \
                json.loads(out.read_text())
        merged["workloads"][name] = runs
        merged.setdefault("env", runs["untraced"]["env"])
        failed += sum(r["failed"] for r in runs.values())
    if args.out:
        Path(args.out).write_text(json.dumps(merged, indent=1))
        print(f"written to {args.out}")
    print(f"failed_share: {failed} failed checks over all workloads")
    return 1 if failed else 0


# -- comparing two result files -----------------------------------------------------


#: units of per-layer metrics that must not differ between two runs
EXACT_UNITS = ("count", "bytes", "sim_s")


def result_docs(path: str) -> dict:
    """``{workload: {"untraced": doc, "traced": doc}}`` of a result file
    (of a full run, or of one workload run with ``--out``)."""
    doc = json.loads(Path(path).read_text())
    if "workloads" in doc:
        return doc["workloads"]
    return {doc["workload"]: {"traced" if doc["trace"] else "untraced": doc}}


def exact_values(runs: dict) -> dict:
    """What must be identical between two runs of one workload."""
    out = {}
    if "untraced" in runs:
        out["sim_digest"] = runs["untraced"]["sim_digest"]
        out["counts"] = runs["untraced"]["counts"]
    if "traced" in runs:
        out["layer_counts"] = {
            name: m["value"] for name, m in runs["traced"]["metrics"].items()
            if m["unit"] in EXACT_UNITS or name.endswith("tuned_regret")}
    return out


def compare(path_a: str, path_b: str) -> int:
    """Per workload and end-to-end metric: both medians, how much worse
    B is, the spread, the bound and a verdict; simulated results and
    counters must be identical.  Non-zero on any ``regressed``."""
    from stats import compare_metric

    metrics = spec()["end_to_end"]
    docs_a, docs_b = result_docs(path_a), result_docs(path_b)
    regressed = 0
    print(f"{'workload':<12} {'metric':<14} {'A':>14} {'B':>14} "
          f"{'worse by':>9} {'spread':>8} {'bound':>6}  verdict")
    for name in docs_a:
        if name not in docs_b:
            continue
        a, b = docs_a[name], docs_b[name]
        if "untraced" in a and "untraced" in b:
            for m in metrics:
                row = compare_metric(a["untraced"]["metrics"][m["name"]],
                                     b["untraced"]["metrics"][m["name"]],
                                     m["better"], m["bound"])
                regressed += row["verdict"] == "regressed"
                print(f"{name:<12} {m['name']:<14} {row['a']:>14.6g} "
                      f"{row['b']:>14.6g} {row['rel']:>+9.1%} "
                      f"{row['spread']:>8.1%} {row['bound']:>6.0%}  "
                      f"{row['verdict']}")
        exact_a, exact_b = exact_values(a), exact_values(b)
        for key in exact_a:
            if key in exact_b:
                same = exact_a[key] == exact_b[key]
                regressed += not same
                print(f"{name:<12} {key:<14} {'':>47} {'exact':>6}  "
                      f"{'ok' if same else 'regressed'}")
    return 1 if regressed else 0


# -- single-toggle ablation ---------------------------------------------------------


def ablate(args) -> int:
    """Flip one existing switch at a time on the two sim workloads,
    repetitions interleaved; simulated results must not move."""
    from unittest import mock  # here only: it would weigh on peak_rss_mb

    result = {"schema": 1, "quick": args.quick, "not_for_claims": args.quick,
              "repetitions": ABLATE_REPS, "workloads": {}}
    bad = 0
    for name in ("scale4096", "tune_sweep"):
        with open_workload(name, args.seed, args.quick) as (wl, setup):
            walls = {toggle: [] for toggle in TOGGLES}
            sims = {}
            for _ in range(ABLATE_REPS):
                for toggle, env in TOGGLES.items():
                    with mock.patch.dict(os.environ, env):
                        rep = run_rep(wl)
                    walls[toggle].append(rep.wall_s)
                    sims.setdefault(toggle, rep.sim)
                    bad += rep.checks.failed + (rep.sim != sims["baseline"])
            result["env"] = env_stamp(setup["loadavg_start"])
        base = statistics.median(walls["baseline"])
        rows = {}
        print(f"{name}: median wall_s over {ABLATE_REPS} interleaved "
              f"repetitions per toggle")
        for toggle, values in walls.items():
            med = statistics.median(values)
            rows[toggle] = {"wall_s": med, "samples": values,
                            "delta_vs_baseline": med / base - 1.0,
                            "sim_unchanged": sims[toggle] == sims["baseline"]}
            print(f"  {toggle:<16} {med:>10.4f} s  {med / base - 1:>+8.1%}  "
                  f"sim {'unchanged' if rows[toggle]['sim_unchanged'] else 'CHANGED'}")
        result["workloads"][name] = rows
    if args.out:
        Path(args.out).write_text(json.dumps(result, indent=1))
    return 1 if bad else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", help="run this workload in-process")
    parser.add_argument("--seed", type=int, default=2026)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measure for this long (default: run_seconds "
                             "of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write the full result document here")
    parser.add_argument("--quick", action="store_true",
                        help="small inputs, two repetitions; not for claims")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    parser.add_argument("--ablate", action="store_true")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if not (REPO / "src" / "repro").is_dir():
        raise SystemExit(f"{REPO / 'src' / 'repro'} not found: the benchmark "
                         "measures the program in this checkout's src/")
    if args.setup_probe:
        with open_workload(args.workload, args.seed, args.quick) as (_w, setup):
            print(repr(setup["setup_s"]))
        return 0
    args.min_reps = 2 if args.quick else MIN_REPS
    if args.quick:
        args.seconds = 0.0
    elif args.seconds is None:
        args.seconds = float(spec()["run_seconds"])
    if args.ablate:
        return ablate(args)
    if args.workload is None:
        return full_run(args)
    emit(traced_run(args) if args.trace else untraced_run(args), args)
    return 0  # failed checks are reported as "correct": false


if __name__ == "__main__":
    raise SystemExit(main())
