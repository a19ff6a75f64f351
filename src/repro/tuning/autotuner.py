"""The autotuning orchestrator: four search methods, one lookup table.

Methods (Fig 8/9 legend):

===============  ====================================================
``exhaustive``   time every (m, config) full collective; guaranteed
                 optimum, cost ~ M x S x A
``exhaustive+h`` exhaustive over the heuristic-pruned space
``task``         benchmark tasks per (segment size, algorithm) once,
                 estimate all message sizes with eqs. (3)/(4);
                 cost ~ T x S x A (M collapses)
``task+h``       task method over the pruned space
===============  ====================================================

The tuning cost is accounted in *simulated seconds of benchmark time*,
the same currency the paper's Fig 8 reports (wall time of the tuning
job), times the benchmark iteration count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.core.config import HanConfig
from repro.faults.plan import FaultPlan
from repro.hardware.spec import MachineSpec
from repro.netsim.profiles import P2PProfile
from repro.tenancy.plan import TrafficPlan
from repro.tuning.bandit import BanditAllocator
from repro.tuning.cache import MeasurementCache
from repro.tuning.costmodel import (
    estimate_allreduce,
    estimate_bcast,
    estimate_reduce,
    segments_for,
)
from repro.tuning.heuristics import prune_configs
from repro.tuning.lookup import LookupTable
from repro.tuning.measure import measure_collective
from repro.tuning.parallel import MeasurePoint, TaskPoint, run_cached
from repro.tuning.space import SearchSpace
from repro.tuning.taskbench import TaskBench

__all__ = ["Autotuner", "TuningReport"]

METHODS = ("exhaustive", "exhaustive+h", "task", "task+h")
ALLOCATIONS = ("fixed", "bandit")
#: iterations a real benchmark loop would run per measurement; scales
#: the tuning-cost accounting without changing the (deterministic)
#: simulated measurement itself
BENCH_ITERS = 10


@dataclass
class TuningReport:
    """Everything one tuning run produced."""

    method: str
    machine: str
    table: LookupTable
    tuning_cost: float = 0.0  # simulated benchmark seconds (Fig 8)
    searches: int = 0  # number of benchmark runs
    #: noise/traffic realizations actually consumed by exhaustive
    #: measurements — the budget the bandit allocator economizes
    #: (``fixed`` spends exactly ``len(points) * trials``)
    trials_spent: int = 0
    #: (coll, m) -> list of (config, measured-or-estimated time)
    candidates: dict = field(default_factory=dict)

    def best(self, coll: str, m: float) -> tuple[HanConfig, float]:
        cands = self.candidates[(coll, m)]
        return min(cands, key=lambda cv: cv[1])

    def winners(self) -> list[tuple]:
        """``(coll, n, p, m, config, time)`` per lookup-table entry.

        ``time`` is the chosen configuration's own measured/estimated
        seconds (not the candidate minimum -- under
        ``selection="confident"`` the chosen config need not be the raw
        argmin), or ``None`` when no candidate record exists.  This is
        the export adapter the decision store
        (:meth:`repro.serve.store.DecisionStore.put_report`) consumes.
        """
        out = []
        for (coll, n, p, m), cfg in sorted(self.table.entries.items()):
            time = next(
                (t for c, t in self.candidates.get((coll, m), ()) if c == cfg),
                None,
            )
            out.append((coll, n, p, m, cfg, time))
        return out


@dataclass
class Autotuner:
    machine: MachineSpec
    space: SearchSpace = field(default_factory=SearchSpace.small)
    profile: Optional[P2PProfile] = None
    warm_iters: int = 8
    #: perturb exhaustive measurements with this fault plan (see
    #: :mod:`repro.faults`); every measurement consumes ``trials`` fresh
    #: noise realizations (a running trial counter keeps realizations
    #: distinct across configs, deterministically)
    fault_plan: Optional[FaultPlan] = None
    #: replay this background-traffic plan (:mod:`repro.tenancy`) during
    #: every exhaustive measurement — tuning under load.  Follows the
    #: fault-plan contract: per-measurement trial windows select traffic
    #: realizations, and the plan enters the measurement digests
    traffic_plan: Optional[TrafficPlan] = None
    trials: int = 1
    #: ``"best"`` = argmin of the aggregated time (classic); ``"confident"``
    #: = argmin of aggregated time + spread, penalizing configurations
    #: whose advantage is not robust across noise realizations
    selection: str = "best"
    #: ``"fixed"`` spends ``trials`` realizations on every candidate;
    #: ``"bandit"`` races them with successive halving
    #: (:class:`~repro.tuning.bandit.BanditAllocator`, at its default
    #: rate and first rung), spending the budget on contenders and
    #: eliminating losers early.  Noise-free, both pick the same winner
    #: bit-for-bit
    allocation: str = "fixed"
    #: fan independent measurements across this many worker processes;
    #: <= 1 keeps everything in-process.  Results are reassembled in
    #: submission order, so reports are bit-identical to a serial run.
    workers: int = 0
    #: persistent content-addressed measurement cache; hits replay the
    #: recorded measurement (including its ``sim_cost``), collapsing the
    #: wall-clock of repeated sweeps without touching ``tuning_cost``
    cache: Optional[MeasurementCache] = None
    #: directory for per-winner Chrome traces: after tuning, each table
    #: entry's chosen configuration is re-run once with the observability
    #: recorder attached and exported as ``<coll>_<bytes>B.json``
    #: (Perfetto-loadable).  Tuning results are unaffected — tracing
    #: never perturbs simulated time.  Empty string disables.
    trace_out: str = ""
    #: cross-run observatory (:class:`~repro.obs.store.RunStore`): every
    #: exhaustive candidate measurement and every traced winner appends a
    #: run summary, so tuning sweeps feed the same regression-checked
    #: history as the experiment drivers (``repro.obs.cli regress``)
    store: Optional[object] = None

    def tune(
        self,
        colls: Sequence[str] = ("bcast", "allreduce"),
        method: str = "task",
    ) -> TuningReport:
        if method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}, got {method!r}")
        report = TuningReport(
            method=method, machine=self.machine.name, table=LookupTable()
        )
        use_heuristics = method.endswith("+h")
        for coll in colls:
            if method.startswith("exhaustive"):
                self._tune_exhaustive(coll, report, use_heuristics)
            else:
                self._tune_task_based(coll, report, use_heuristics)
        if self.trace_out:
            self._trace_winners(report)
        return report

    def _trace_winners(self, report: TuningReport) -> None:
        """Record one observed run per lookup-table entry."""
        import os

        os.makedirs(self.trace_out, exist_ok=True)
        for (coll, n, p, m), cfg in sorted(report.table.entries.items()):
            path = os.path.join(self.trace_out, f"{coll}_{int(m)}B.json")
            measure_collective(
                self.machine, coll, m, cfg, profile=self.profile,
                trace_out=path,
                store=self.store, store_source="autotuner.winner",
            )

    # -- exhaustive -----------------------------------------------------------------

    def _tune_exhaustive(
        self, coll: str, report: TuningReport, heuristics: bool
    ) -> None:
        if self.selection not in ("best", "confident"):
            raise ValueError(
                f"selection must be 'best' or 'confident', got {self.selection!r}"
            )
        if self.allocation not in ALLOCATIONS:
            raise ValueError(
                f"allocation must be one of {ALLOCATIONS}, got {self.allocation!r}"
            )
        n = self.machine.num_nodes
        all_configs = self.space.configs()
        # Enumerate every (message, config) point up front, in the same
        # nested order a serial loop would visit, with a running
        # realization counter: every candidate owns a private window of
        # `trials` noise/traffic realizations, so no two configurations
        # are (un)lucky in the same way — and a re-run of tune() replays
        # the exact same sequence.  Both allocators draw from these same
        # windows; the bandit just stops early inside them.
        trial_offset = 0
        per_message: list[tuple[float, list[HanConfig], list[int]]] = []
        for m in self.space.messages:
            configs = (
                prune_configs(all_configs, nbytes=m, num_nodes=n)
                if heuristics
                else all_configs
            )
            if not configs:
                # heuristics can empty the space for tiny messages (every
                # fs >= m); fall back to the message-independent prune
                configs = prune_configs(all_configs) or all_configs
            bases = list(range(trial_offset, trial_offset + len(configs) * self.trials,
                               self.trials))
            trial_offset += len(configs) * self.trials
            per_message.append((m, configs, bases))
        if self.allocation == "bandit":
            self._allocate_bandit(coll, report, per_message)
        else:
            self._allocate_fixed(coll, report, per_message)

    def _point(self, coll, m, cfg, trials, trial_offset) -> MeasurePoint:
        return MeasurePoint(
            machine=self.machine,
            coll=coll,
            nbytes=m,
            config=cfg,
            profile=self.profile,
            fault_plan=self.fault_plan,
            traffic_plan=self.traffic_plan,
            trials=trials,
            trial_offset=trial_offset,
        )

    def _fold(self, report: TuningReport, meas, point: MeasurePoint) -> None:
        report.tuning_cost += meas.sim_cost * BENCH_ITERS
        report.searches += 1
        report.trials_spent += len(meas.trial_times) or 1
        if self.store is not None:
            point.log(self.store, meas, "autotuner.exhaustive")

    def _allocate_fixed(self, coll, report, per_message) -> None:
        """Classic path: every candidate gets the full ``trials`` budget."""
        n, p = self.machine.num_nodes, self.machine.ppn
        points = [
            self._point(coll, m, cfg, self.trials, base)
            for m, configs, bases in per_message
            for cfg, base in zip(configs, bases)
        ]
        measured = zip(points, run_cached(points, workers=self.workers,
                                          cache=self.cache))
        for m, configs, _bases in per_message:
            cands = []
            scores = []
            for cfg in configs:
                point, meas = next(measured)
                self._fold(report, meas, point)
                cands.append((cfg, meas.time))
                score = meas.time
                if self.selection == "confident":
                    score += meas.spread
                scores.append((score, meas.time, cfg))
            report.candidates[(coll, m)] = cands
            _, _, best_cfg = min(scores, key=lambda sv: (sv[0], sv[1]))
            report.table.put(coll, n, p, m, best_cfg)

    def _allocate_bandit(self, coll, report, per_message) -> None:
        """Successive halving per message size (candidates = arms).

        Each rung's sample requests become one ``run_cached`` batch, so
        the bandit keeps the fixed path's parallel fan-out and cache
        reuse; requests index into the same per-candidate trial windows,
        so the realizations a sample sees match the fixed path's.
        """
        n, p = self.machine.num_nodes, self.machine.ppn
        allocator = BanditAllocator(trials=self.trials, selection=self.selection)
        for m, configs, bases in per_message:

            def sample(requests):
                pts = [
                    self._point(coll, m, configs[i], count, bases[i] + start)
                    for i, start, count in requests
                ]
                measured = run_cached(pts, workers=self.workers, cache=self.cache)
                for point, meas in zip(pts, measured):
                    self._fold(report, meas, point)
                return [meas.trial_times for meas in measured]

            result = allocator.run(len(configs), sample)
            report.candidates[(coll, m)] = [
                (cfg, result.center(i)) for i, cfg in enumerate(configs)
            ]
            report.table.put(coll, n, p, m, configs[result.winner])

    # -- task-based (the paper's method) ---------------------------------------------

    def _axis_points(self, heuristics: bool) -> list[tuple[float, dict, str]]:
        """(seg_bytes, algorithm axis point, smod) to benchmark."""
        segs = [s for s in self.space.seg_sizes if s is not None]
        if not segs:
            raise ValueError("task-based tuning needs at least one segment size")
        points = []
        for s in segs:
            for algo in self.space.algorithm_axis():
                for smod in self.space.smods:
                    cfg = HanConfig(fs=s, smod=smod, **algo)
                    if heuristics and not prune_configs([cfg]):
                        continue
                    points.append((s, algo, smod))
        return points

    def _tune_task_based(
        self, coll: str, report: TuningReport, heuristics: bool
    ) -> None:
        n, p = self.machine.num_nodes, self.machine.ppn
        if coll not in ("bcast", "allreduce", "reduce"):
            raise ValueError(f"task-based tuning not defined for {coll!r}")
        # 1) benchmark tasks once per (segment, algorithm, smod); each
        # point runs on a fresh simulated machine, so they fan out
        # across workers / resolve from the cache independently
        axis = self._axis_points(heuristics)
        points = [
            TaskPoint(
                machine=self.machine,
                coll=coll,
                config=HanConfig(fs=s, smod=smod, **algo),
                seg_bytes=s,
                warm_iters=self.warm_iters,
                profile=self.profile,
            )
            for s, algo, smod in axis
        ]
        results = run_cached(points, workers=self.workers, cache=self.cache)
        costs: dict[tuple, object] = {}
        for (s, algo, smod), task_costs in zip(axis, results):
            costs[(s, tuple(sorted(algo.items())), smod)] = task_costs
            report.searches += 1
            report.tuning_cost += task_costs.sim_cost * BENCH_ITERS

        estimator = {
            "bcast": estimate_bcast,
            "allreduce": estimate_allreduce,
            "reduce": estimate_reduce,
        }[coll]

        # 2) estimate every message size from the cached task costs
        for m in self.space.messages:
            cands = []
            for (s, algo_key, smod), task_costs in costs.items():
                cfg = HanConfig(fs=s, smod=smod, **dict(algo_key))
                if heuristics:
                    if not prune_configs([cfg], nbytes=m, num_nodes=n):
                        continue
                if segments_for(m, s) == 1:
                    # unsegmented: reuse the bench whose segment is
                    # closest to the whole message
                    s_star = self._closest_seg(costs, algo_key, smod, m)
                    if s_star != s:
                        continue  # only the closest representative counts
                est = estimator(task_costs, m)
                cands.append((cfg, est))
            if not cands:
                # heuristics pruned everything (tiny message): fall back
                # to the unpruned estimates
                for (s, algo_key, smod), task_costs in costs.items():
                    cfg = HanConfig(fs=s, smod=smod, **dict(algo_key))
                    cands.append((cfg, estimator(task_costs, m)))
            report.candidates[(coll, m)] = cands
            best_cfg, _ = min(cands, key=lambda cv: cv[1])
            report.table.put(coll, n, p, m, best_cfg)

    @staticmethod
    def _closest_seg(costs, algo_key, smod, m) -> float:
        segs = [s for (s, a, sm) in costs if a == algo_key and sm == smod]
        return min(segs, key=lambda s: abs(math.log2(s) - math.log2(max(m, 1))))

    # -- model validation (Figs 4 and 7) ----------------------------------------------

    def validate_model(
        self, coll: str, m: float, heuristics: bool = False
    ) -> list[tuple[HanConfig, float, float]]:
        """(config, estimated, measured) for every config at one message.

        This regenerates the data behind Fig 4 (bcast) / Fig 7
        (allreduce): the estimated-vs-actual bars across submodule,
        algorithm and segment-size combinations.
        """
        n = self.machine.num_nodes
        bench = TaskBench(
            self.machine, profile=self.profile, warm_iters=self.warm_iters
        )
        estimator = {
            "bcast": estimate_bcast,
            "allreduce": estimate_allreduce,
            "reduce": estimate_reduce,
        }[coll]
        rows = []
        for s, algo, smod in self._axis_points(heuristics):
            cfg = HanConfig(fs=s, smod=smod, **algo)
            if heuristics and not prune_configs([cfg], nbytes=m, num_nodes=n):
                continue
            bench_fn = {
                "bcast": bench.bench_bcast_tasks,
                "allreduce": bench.bench_allreduce_tasks,
                "reduce": bench.bench_reduce_tasks,
            }[coll]
            task_costs = bench_fn(cfg, s)
            est = estimator(task_costs, m)
            meas = measure_collective(
                self.machine, coll, m, cfg, profile=self.profile
            )
            rows.append((cfg, est, meas.time))
        return rows
