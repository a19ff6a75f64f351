"""Which public callables the traced run wraps, and the per-layer metrics.

One row of :data:`TARGETS` per wrapped callable: the module, the class
in it (or None for a module-level function), the attribute, the span
name and whether the span is timed or only counted.  Span names start
with the layer (``sim.``, ``mpi.``, ``netsim.``, ``tuning.``, ``serve.``,
``obs.``), which is what the cross-workload isolation check reads.

:func:`layer_metrics` turns one traced run into the flat
``<module>.<metric>`` table of BENCHMARK.json.  Every metric is reported
on every workload; a layer a workload never enters reads 0, which is the
"predicted flat" column of the README made checkable.

Host time per layer is reported as a *share*: the percentage of the
repetition's traced wall (its root span) spent in the named callable.
Unless the name says otherwise (``run_share``, ``total_share``,
``tune_share``: inclusive of callees) it is the callable's *self* time,
so the shares of one workload plus ``bench.unattributed_share`` add up
to 100.  Shares are ratios within one run, so the box's speed cancels;
seconds are ``share x bench.traced_wall_s``, and the result document
and ``trace.json`` hold them per repetition.
"""

from __future__ import annotations

import importlib
import statistics

from stats import tail_percentile
from tracing import ROOT, Tracer

__all__ = ["TARGETS", "install", "isolation_breaches", "layer_metrics",
           "solver_totals"]

TIMED, COUNTED = "timed", "counted"

TARGETS = (
    ("repro.sim.engine", "Engine", "run", "sim.engine.run", TIMED),
    ("repro.sim.engine", "Engine", "schedule", "sim.engine.schedule", TIMED),
    ("repro.sim.engine", "Engine", "schedule_at", "sim.engine.schedule_at",
     TIMED),
    ("repro.sim.fluid", "FluidSolver", "__init__", "sim.fluid.init", TIMED),
    ("repro.sim.fluid", "FluidSolver", "start_flow", "sim.fluid.start_flow",
     TIMED),
    ("repro.mpi.runtime", "MPIRuntime", "__init__", "mpi.runtime.init", TIMED),
    ("repro.mpi.runtime", "MPIRuntime", "run", "mpi.runtime.run", TIMED),
    ("repro.mpi.communicator", "Communicator", "isend",
     "mpi.communicator.isend", TIMED),
    ("repro.mpi.communicator", "Communicator", "irecv",
     "mpi.communicator.irecv", TIMED),
    # generator functions: the call returns before the body runs
    ("repro.mpi.communicator", "Communicator", "barrier",
     "mpi.communicator.barrier", COUNTED),
    ("repro.mpi.communicator", "Communicator", "split",
     "mpi.communicator.split", COUNTED),
    ("repro.netsim.progress", "ProgressServer", "request",
     "netsim.progress.request", TIMED),
    ("repro.netsim.progress", "ProgressServer", "request_call",
     "netsim.progress.request_call", TIMED),
    ("repro.netsim.progress", "ProgressServer", "request_burst",
     "netsim.progress.request_burst", TIMED),
    ("repro.netsim.fabric", "Fabric", "start_transfer",
     "netsim.fabric.start_transfer", TIMED),
    # measure_collective is imported by name into each caller's module
    ("repro.tuning.measure", None, "measure_collective",
     "tuning.measure.measure_collective", TIMED),
    ("repro.tuning.parallel", None, "measure_collective",
     "tuning.measure.measure_collective", TIMED),
    ("repro.tuning.autotuner", None, "measure_collective",
     "tuning.measure.measure_collective", TIMED),
    ("repro.experiments.scaling4096", None, "measure_collective",
     "tuning.measure.measure_collective", TIMED),
    ("repro.tuning.autotuner", "Autotuner", "tune", "tuning.autotuner.tune",
     TIMED),
    ("repro.tuning.taskbench", "TaskBench", "bench_bcast_tasks",
     "tuning.taskbench.bench", TIMED),
    ("repro.tuning.taskbench", "TaskBench", "bench_allreduce_tasks",
     "tuning.taskbench.bench", TIMED),
    ("repro.tuning.taskbench", "TaskBench", "bench_reduce_tasks",
     "tuning.taskbench.bench", TIMED),
    ("repro.tuning.cache", "MeasurementCache", "get", "tuning.cache.get",
     TIMED),
    ("repro.tuning.cache", "MeasurementCache", "put", "tuning.cache.put",
     TIMED),
    ("repro.serve.store", "DecisionStore", "__init__", "serve.store.open",
     TIMED),
    ("repro.serve.store", "DecisionStore", "append", "serve.store.append",
     TIMED),
    ("repro.serve.store", "DecisionStore", "records", "serve.store.records",
     TIMED),
    ("repro.serve.service", "DecisionService", "decide_batch",
     "serve.service.decide_batch", TIMED),
    ("repro.serve.service", "DecisionService", "decide",
     "serve.service.decide", TIMED),
    ("repro.obs.store", "RunStore", "append", "obs.store.append", TIMED),
    ("repro.obs.store", "RunStore", "tail", "obs.store.tail", TIMED),
    ("repro.obs.store", "RunStore", "compact", "obs.store.compact", TIMED),
    ("repro.obs.store", "RunStore", "keys", "obs.store.keys", TIMED),
    ("repro.obs.store", "RunStore", "latest", "obs.store.latest", TIMED),
    ("repro.obs.insights", "InsightEngine", "follow", "obs.insights.follow",
     TIMED),
    ("repro.obs.fleet", None, "fleet_report", "obs.fleet.report", TIMED),
)

#: span-name prefixes that must not appear on a workload
FORBIDDEN = {
    "scale4096": ("serve.", "obs."),
    "tune_sweep": ("serve.", "obs."),
    "serve_mixed": ("sim.", "mpi.", "netsim.", "tuning.", "obs."),
    "store_cycle": ("sim.", "mpi.", "netsim.", "tuning.", "serve."),
}


def install(tracer: Tracer) -> list:
    """Wrap every target; returns the list that collects the fluid
    solvers constructed from now on (emptied by :func:`solver_totals`)."""
    for module_name, cls_name, attr, span, kind in TARGETS:
        owner = importlib.import_module(module_name)
        if cls_name is not None:
            owner = getattr(owner, cls_name)
        (tracer.wrap if kind == TIMED else tracer.count)(owner, attr, span)
    solvers: list = []
    fluid = importlib.import_module("repro.sim.fluid")
    init = fluid.FluidSolver.__init__  # the timed wrapper

    def registering(self, *args, **kwargs):
        solvers.append(self)
        init(self, *args, **kwargs)

    tracer.patch(fluid.FluidSolver, "__init__", registering)
    return solvers


def solver_totals(solvers: list) -> dict:
    """Sum ``kernel_stats()`` over the registered solvers and forget them."""
    out = {"recomputes": 0, "kernel_flows_solved": 0, "fill_cache_hits": 0}
    for solver in solvers:
        stats = solver.kernel_stats()
        for key in out:
            out[key] += stats[key]
    solvers.clear()
    return out


def isolation_breaches(workload: str, tracer: Tracer, reps) -> list[str]:
    """Span names seen on ``workload`` from layers it must not enter."""
    seen = set()
    for rep in reps:
        seen.update(tracer.totals[rep])
        seen.update(tracer.counts[rep])
    return sorted(name for name in seen
                  if name.startswith(FORBIDDEN[workload]))


def layer_metrics(tracer: Tracer, traced: list, untraced: list,
                  solver_stats: list, setup: dict, regret: float) -> dict:
    """``{name: (value, unit)}`` for one traced run.

    ``traced`` is ``[(repetition id, Rep)]`` of the measured traced
    repetitions, ``untraced`` the Reps run before the tracer went in,
    ``solver_stats`` one :func:`solver_totals` per traced repetition.
    Shares and counts are medians over the traced repetitions.
    """
    ids = [rid for rid, _rep in traced]
    first = traced[0][1]
    med = statistics.median

    def calls(*names) -> float:
        return med([sum(tracer.calls(r, n) for n in names) for r in ids])

    def share(*names) -> float:
        return med([100.0 * sum(tracer.self_s(r, n) for n in names)
                    / tracer.total_s(r, ROOT) for r in ids])

    def total_share(name) -> float:
        return med([100.0 * tracer.total_s(r, name) / tracer.total_s(r, ROOT)
                    for r in ids])

    def count(key) -> float:
        return med([rep.counts.get(key, 0) for _rid, rep in traced])

    untraced_wall = med([rep.wall_s for rep in untraced])
    traced_wall = med([rep.wall_s for _rid, rep in traced])
    requests = ("netsim.progress.request", "netsim.progress.request_call",
                "netsim.progress.request_burst")
    cold_ratio = tail_pct = tail_ratio = 0.0
    if "cold_batch_s" in first.extra:  # a serving workload
        cold_ratio = med([rep.extra["cold_batch_s"] / med(rep.phase_a)
                          for _rid, rep in traced])
        # the tail comes from the untraced repetitions of this run
        batches = [s for rep in untraced for s in rep.phase_a]
        tail = tail_percentile(batches)
        if tail is not None:
            tail_pct, tail_ratio = tail[0], tail[1] / med(batches)
    return {
        "sim.engine.events": (count("events"), "count"),
        "sim.engine.events_per_s": (count("events") / untraced_wall, "1/s"),
        "sim.engine.run_share": (total_share("sim.engine.run"), "%"),
        "sim.engine.self_share": (share("sim.engine.run"), "%"),
        "sim.engine.schedule_calls": (
            calls("sim.engine.schedule", "sim.engine.schedule_at"), "count"),
        "sim.engine.schedule_share": (
            share("sim.engine.schedule", "sim.engine.schedule_at"), "%"),
        "mpi.runtime.init_calls": (calls("mpi.runtime.init"), "count"),
        "mpi.runtime.init_share": (share("mpi.runtime.init"), "%"),
        "mpi.runtime.run_calls": (calls("mpi.runtime.run"), "count"),
        "mpi.runtime.run_self_share": (share("mpi.runtime.run"), "%"),
        "mpi.communicator.isend_calls": (
            calls("mpi.communicator.isend"), "count"),
        "mpi.communicator.isend_share": (share("mpi.communicator.isend"), "%"),
        "mpi.communicator.irecv_calls": (
            calls("mpi.communicator.irecv"), "count"),
        "mpi.communicator.irecv_share": (share("mpi.communicator.irecv"), "%"),
        "mpi.communicator.barrier_calls": (
            calls("mpi.communicator.barrier"), "count"),
        "mpi.communicator.split_calls": (
            calls("mpi.communicator.split"), "count"),
        "netsim.progress.request_calls": (calls(*requests), "count"),
        "netsim.progress.request_share": (share(*requests), "%"),
        "netsim.fabric.start_transfer_calls": (
            calls("netsim.fabric.start_transfer"), "count"),
        "netsim.fabric.start_transfer_share": (
            share("netsim.fabric.start_transfer"), "%"),
        "sim.fluid.init_share": (share("sim.fluid.init"), "%"),
        "sim.fluid.start_flow_calls": (calls("sim.fluid.start_flow"), "count"),
        "sim.fluid.start_flow_share": (share("sim.fluid.start_flow"), "%"),
        "sim.fluid.recomputes": (
            med([s["recomputes"] for s in solver_stats]), "count"),
        "sim.fluid.flows_solved": (
            med([s["kernel_flows_solved"] for s in solver_stats]), "count"),
        "sim.fluid.fill_memo_hits": (
            med([s["fill_cache_hits"] for s in solver_stats]), "count"),
        "sim.fluid.fill_memo_entries": (count("fill_memo_entries"), "count"),
        "core.han.bcast_sim_s": (first.sim.get("bcast_sim_s", 0.0), "sim_s"),
        "core.han.allreduce_sim_s": (
            first.sim.get("allreduce_sim_s", 0.0), "sim_s"),
        "tuning.measure.calls": (
            calls("tuning.measure.measure_collective"), "count"),
        "tuning.measure.total_share": (
            total_share("tuning.measure.measure_collective"), "%"),
        "tuning.measure.harness_self_share": (
            share("tuning.measure.measure_collective"), "%"),
        "tuning.autotuner.tune_share": (
            total_share("tuning.autotuner.tune"), "%"),
        "tuning.autotuner.self_share": (share("tuning.autotuner.tune"), "%"),
        "tuning.autotuner.searches": (count("searches"), "count"),
        "tuning.autotuner.sim_tuning_cost_s": (
            first.sim.get("sim_tuning_cost_s", 0.0), "sim_s"),
        "tuning.autotuner.tuned_regret": (regret, "ratio"),
        "tuning.taskbench.calls": (calls("tuning.taskbench.bench"), "count"),
        "tuning.taskbench.total_share": (
            total_share("tuning.taskbench.bench"), "%"),
        "tuning.taskbench.self_share": (share("tuning.taskbench.bench"), "%"),
        "tuning.cache.puts": (count("cache_puts"), "count"),
        "tuning.cache.hits": (count("cache_hits"), "count"),
        "tuning.cache.misses": (count("cache_misses"), "count"),
        "tuning.cache.io_share": (
            share("tuning.cache.get", "tuning.cache.put"), "%"),
        "serve.store.open_share": (share("serve.store.open"), "%"),
        "serve.store.append_share": (share("serve.store.append"), "%"),
        "serve.store.records_share": (share("serve.store.records"), "%"),
        "serve.store.setup_append_share": (
            100.0 * setup.get("append_s", 0.0) / setup["setup_s"], "%"),
        "serve.store.setup_compact_share": (
            100.0 * setup.get("compact_s", 0.0) / setup["setup_s"], "%"),
        "serve.store.records": (count("store_records"), "count"),
        "serve.store.presets_skipped": (count("presets_skipped"), "count"),
        "serve.service.cold_batch_ratio": (cold_ratio, "ratio"),
        "serve.service.batch_tail_ratio": (tail_ratio, "ratio"),
        "serve.service.batch_tail_pct": (tail_pct, "%"),
        "serve.service.batch_self_share": (
            share("serve.service.decide_batch"), "%"),
        "serve.service.decide_share": (share("serve.service.decide"), "%"),
        "serve.service.queries": (count("queries"), "count"),
        "serve.service.exact": (count("exact"), "count"),
        "serve.service.nearest": (count("nearest"), "count"),
        "serve.service.interpolated": (count("interpolated"), "count"),
        "serve.service.default": (count("default"), "count"),
        "serve.guidelines.violations": (count("violations"), "count"),
        "obs.store.append_share": (share("obs.store.append"), "%"),
        "obs.store.appends": (count("appends"), "count"),
        "obs.store.tail_share": (share("obs.store.tail"), "%"),
        "obs.store.compact_share": (share("obs.store.compact"), "%"),
        "obs.store.open_read_share": (
            share("obs.store.keys", "obs.store.latest"), "%"),
        "obs.store.segment_bytes": (count("segment_bytes"), "bytes"),
        "obs.insights.follow_share": (share("obs.insights.follow"), "%"),
        "obs.insights.records": (count("insight_records"), "count"),
        "obs.insights.duplicates": (count("duplicates"), "count"),
        "obs.fleet.report_share": (share("obs.fleet.report"), "%"),
        "obs.fleet.findings": (count("findings"), "count"),
        "bench.unattributed_share": (share(ROOT), "%"),
        "bench.traced_wall_s": (traced_wall, "s"),
        "bench.trace_overhead": (traced_wall / untraced_wall, "ratio"),
        "bench.import_s": (setup["import_s"], "s"),
        "bench.loadavg_start": (setup["loadavg_start"], "load"),
    }
