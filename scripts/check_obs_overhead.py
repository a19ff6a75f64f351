"""CI guard: observability overhead bounds, checked analytically.

Every observability hook sits behind a single ``engine.obs is not None``
attribute test, so the only cost a tracing-disabled run can pay over the
pre-instrumentation simulator is that test.  This script makes the bound
checkable on any machine, without a pre-instrumentation checkout:

1. run the Fig 8 benchmark unit (``measure_collective`` on the tuning
   machine) with tracing disabled and time it;
2. count the hook crossings of the identical workload by attaching a
   recorder and counting every emission;
3. microbenchmark the per-crossing guard (`x.obs is not None`) and bound
   the disabled-path overhead as ``crossings * guard_cost / wallclock``;
4. independently verify the recorder never perturbs simulated time
   (bit-identical measurement with and without it).

The metrics plane (``mode="metrics"``) gets the same analytic
treatment: run the workload once metrics-only, recover the exact number
of counter / gauge / histogram updates, microbenchmark the three inlined
update forms (each including the metric-cache dict probe the hook pays),
and bound the metrics-plane cost as ``sum(updates_i * cost_i) /
wallclock``.  Wall-clock ratios are deliberately NOT the enforced
quantity for either bound — on a pure-Python simulator they are
dominated by span/object bookkeeping and timer noise, while the analytic
product isolates exactly the code the budget is about.

Exit status is nonzero if either bound exceeds its budget or determinism
breaks (disabled, full, and metrics-mode runs must all produce
bit-identical simulated results).  Writes a JSON report for the CI
artifact.  The report also carries, as information only, the measured
traced/quiet wall ratios of one cold HAN bcast and allreduce (1 MiB,
shaheen2 32x32) per recorder mode, medians of ``RATIO_RUNS`` runs.
"""

from __future__ import annotations

import argparse
import json
import sys
import statistics
import time

from repro.core.config import HanConfig
from repro.hardware import shaheen2
from repro.obs import ObsRecorder
from repro.sim.fluid import clear_fill_memo
from repro.tuning.measure import run_once

BUDGET = 0.02  # disabled path: 2% of wall-clock
METRICS_BUDGET = 0.05  # metrics-enabled path: 5% of wall-clock
RATIO_RUNS = 3  # runs per mode of the information-only wall-ratio table

KiB, MiB = 1024, 1024 * 1024


def workload_points():
    """A slice of the Fig 8 exhaustive sweep: (machine, coll, m, cfg)."""
    machine = shaheen2(num_nodes=4, ppn=8)
    cfgs = [
        HanConfig(fs=128 * KiB),
        HanConfig(fs=512 * KiB, imod="adapt", ibalg="binary"),
        HanConfig(fs=1 * MiB, imod="adapt", ibalg="binomial"),
    ]
    for coll in ("bcast", "allreduce"):
        for m in (64.0 * KiB, 1.0 * MiB, 4.0 * MiB):
            for cfg in cfgs:
                yield machine, coll, m, cfg


def run_disabled() -> tuple[float, list]:
    t0 = time.perf_counter()
    results = [
        run_once(machine, coll, m, cfg)[:2]
        for machine, coll, m, cfg in workload_points()
    ]
    return time.perf_counter() - t0, results


class CountingRecorder(ObsRecorder):
    """Counts every hook emission; each is one guarded crossing."""

    def __init__(self, engine):
        super().__init__(engine)
        self.crossings = 0

    def begin(self, *a, **kw):
        self.crossings += 1
        return super().begin(*a, **kw)

    def end(self, *a, **kw):
        self.crossings += 1
        return super().end(*a, **kw)

    def complete(self, *a, **kw):
        self.crossings += 1
        return super().complete(*a, **kw)

    def counter(self, *a, **kw):
        self.crossings += 1
        return super().counter(*a, **kw)

    def msg_begin(self, *a, **kw):
        self.crossings += 1
        return super().msg_begin(*a, **kw)

    def msg_send_done(self, *a, **kw):
        self.crossings += 1
        return super().msg_send_done(*a, **kw)

    def msg_arrived(self, *a, **kw):
        self.crossings += 1
        return super().msg_arrived(*a, **kw)

    def msg_recv_done(self, *a, **kw):
        self.crossings += 1
        return super().msg_recv_done(*a, **kw)


class MetricsModeRecorder(ObsRecorder):
    """Metrics-only recorder that counts gauge samples — the one update
    stream not recoverable from the registry afterwards (dedup discards
    repeated values before they reach a gauge)."""

    def __init__(self, engine):
        super().__init__(engine, mode="metrics")
        self.gauge_samples = 0

    def counter(self, *a, **kw):
        self.gauge_samples += 1
        return super().counter(*a, **kw)


def run_attached(make_recorder) -> tuple[list, list, float]:
    """Run the workload with a recorder per point; return the recorders,
    the simulated results, and the wall-clock."""
    from repro.core.han import HanModule
    from repro.mpi.runtime import MPIRuntime

    recorders = []
    results = []
    t0 = time.perf_counter()
    for machine, coll, m, cfg in workload_points():
        runtime = MPIRuntime(machine)
        han = HanModule(config=cfg)
        durations = {}

        def prog(comm, op=coll, nbytes=m):
            fn = getattr(han, op)
            yield from comm.barrier()
            start = comm.now
            if op in ("bcast", "reduce"):
                yield from fn(comm, nbytes, root=0)
            else:
                yield from fn(comm, nbytes)
            durations[comm.rank] = comm.now - start

        rec = make_recorder(runtime.engine)
        with rec:
            runtime.run(prog)
        recorders.append(rec)
        results.append(
            (tuple(durations[r] for r in sorted(durations)),
             runtime.engine.now)
        )
    return recorders, results, time.perf_counter() - t0


def count_metric_updates(rec: MetricsModeRecorder) -> dict:
    """Exact update counts per primitive, recovered from the registry.

    Histogram observes are literally the bucket totals.  Counter incs
    follow from the hook arithmetic: ``msg_begin`` does 2, ``cpu_job``
    does 2, ``flow_done`` does 1 — and each hook's call count is itself
    a metric (``mpi.message_bytes`` count, ``cpu.jobs`` total,
    ``net.flows`` total).
    """
    reg = rec.metrics
    hist = sum(h.count for h in reg.histograms)
    msg_calls = sum(
        h.count for h in reg.histograms if h.name == "mpi.message_bytes"
    )
    cpu_calls = sum(c.value for c in reg.counters if c.name == "cpu.jobs")
    flow_calls = sum(c.value for c in reg.counters if c.name == "net.flows")
    return {
        "histogram": hist,
        "counter": int(2 * msg_calls + 2 * cpu_calls + flow_calls),
        "gauge": rec.gauge_samples + len(reg.gauges),  # samples + derived
    }


def guard_cost() -> float:
    """Seconds per `obj.obs is not None` check (the whole disabled path)."""

    class Obj:
        obs = None

    obj = Obj()
    n = 2_000_000
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        hits = 0
        for _i in range(n):
            if obj.obs is not None:  # pragma: no cover - never taken
                hits += 1
        best = min(best, time.perf_counter() - t0)
    return best / n


def metric_update_costs() -> dict:
    """Seconds per inlined metric update, by primitive.

    Mirrors the recorder hot paths exactly: one dict probe to reach the
    cached metric object, then the inlined body (``value +=`` for a
    counter, set-plus-max for a gauge, bisect/bucket/exemplar/sum for a
    histogram).  Attribute loads are deliberately not hoisted out of the
    loops — the hooks reload them per event too.
    """
    from bisect import bisect_left

    from repro.obs.metrics import Counter, Gauge, Histogram

    c, g, h = Counter("x"), Gauge("x"), Histogram("x")
    cache = {("k", 0): c}
    key = ("k", 0)
    n = 300_000

    def best(body) -> float:
        b = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            body()
            b = min(b, time.perf_counter() - t0)
        return b / n

    def counter_body():
        for _ in range(n):
            cache.get(key)
            c.value += 1.0

    def gauge_body():
        for _ in range(n):
            cache.get(key)
            g.value = 0.5
            if 0.5 > g.max_value:
                g.max_value = 0.5

    def histogram_body():
        for _ in range(n):
            cache.get(key)
            i = bisect_left(h.bounds, 1e-3)
            h.counts[i] += 1
            h.exemplars[i] = 5
            h.sum += 1e-3

    return {
        "counter": best(counter_body),
        "gauge": best(gauge_body),
        "histogram": best(histogram_body),
    }


def wall_ratios() -> dict:
    """Median traced/quiet wall ratio per collective and recorder mode
    (HAN 1 MiB on shaheen2 32x32).  Every run is cold: the fill memo
    and the start gate's schedules are dropped first, so each simulates
    its start barrier.  Runs alternate modes, so drift hits all alike."""
    machine = shaheen2(num_nodes=32, ppn=32)
    out = {}
    for coll in ("bcast", "allreduce"):
        walls: dict = {"quiet": [], "metrics": [], "full": []}
        for _ in range(RATIO_RUNS):
            for mode in walls:
                clear_fill_memo()
                t0 = time.perf_counter()
                run_once(machine, coll, 1.0 * MiB,
                         record=None if mode == "quiet" else mode)
                walls[mode].append(time.perf_counter() - t0)
        quiet = statistics.median(walls["quiet"])
        out[coll] = {
            "quiet_s": quiet,
            **{f"{mode}_ratio": statistics.median(w) / quiet
               for mode, w in walls.items() if mode != "quiet"},
        }
    clear_fill_memo()
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="", help="JSON report path")
    args = parser.parse_args(argv)

    wall_disabled, res_disabled = run_disabled()
    # second disabled run to warm caches fairly; keep the faster
    wall2, _ = run_disabled()
    wall_disabled = min(wall_disabled, wall2)
    full_recs, res_attached, wall_attached = run_attached(CountingRecorder)
    crossings = sum(r.crossings for r in full_recs)
    per_check = guard_cost()

    metric_recs, res_metrics, wall_metrics = run_attached(MetricsModeRecorder)
    updates = {"histogram": 0, "counter": 0, "gauge": 0}
    for rec in metric_recs:
        for kind, n in count_metric_updates(rec).items():
            updates[kind] += n
    costs = metric_update_costs()
    metrics_cost = sum(updates[k] * costs[k] for k in updates)

    bound = crossings * per_check / wall_disabled
    metrics_bound = metrics_cost / wall_disabled
    deterministic = res_disabled == res_attached == res_metrics
    report = {
        "workload": "fig08 bench unit (measure sweep, 4x8 shaheen2)",
        "wallclock_disabled_s": wall_disabled,
        "wallclock_attached_s": wall_attached,
        "wallclock_metrics_s": wall_metrics,
        "hook_crossings": crossings,
        "guard_cost_ns": per_check * 1e9,
        "disabled_overhead_bound": bound,
        "budget": BUDGET,
        "metric_updates": updates,
        "metric_update_cost_ns": {k: v * 1e9 for k, v in costs.items()},
        "metrics_overhead_bound": metrics_bound,
        "metrics_budget": METRICS_BUDGET,
        "attached_overhead": wall_attached / wall_disabled - 1.0,
        "deterministic": deterministic,
        "han_1mib_32x32_wall_ratios": wall_ratios(),
    }
    print(json.dumps(report, indent=2))
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=2)

    ok = True
    if not deterministic:
        print("FAIL: recorder perturbed simulated results", file=sys.stderr)
        ok = False
    if bound > BUDGET:
        print(
            f"FAIL: disabled-path overhead bound {bound:.4%} exceeds "
            f"{BUDGET:.0%}",
            file=sys.stderr,
        )
        ok = False
    if metrics_bound > METRICS_BUDGET:
        print(
            f"FAIL: metrics-plane overhead bound {metrics_bound:.4%} "
            f"exceeds {METRICS_BUDGET:.0%}",
            file=sys.stderr,
        )
        ok = False
    if ok:
        print(
            f"OK: disabled-path bound {bound:.4%} (budget "
            f"{BUDGET:.0%}); metrics-plane bound {metrics_bound:.4%} "
            f"(budget {METRICS_BUDGET:.0%}); recorder attach is "
            f"deterministic in both modes"
        )
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
