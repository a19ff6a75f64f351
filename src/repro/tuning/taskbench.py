"""Task benchmarking: the paper's replacement for whole-collective timing.

The key ideas from section III-A2 / III-B2:

- tasks are benchmarked *in context*: to time ``sbib(1)`` accurately the
  benchmark executes ``ib(0)`` first, so each node leader starts with the
  realistic stagger (Fig 2's red vs green bars);
- after the pipeline warms up, the per-iteration ``sbib`` cost
  *stabilizes* (Fig 3), so one stabilized value replaces ``u-1``
  per-segment measurements;
- costs are per-(segment size, algorithm) and *reused across message
  sizes* -- the M axis of the search space collapses to the constant T
  task types (section III-C).

One :class:`TaskBench` run executes the actual HAN task pipeline for a
handful of segments and extracts every per-leader task cost the cost
model (eqs. 3/4) needs, while accounting the simulated time consumed
(the tuning-cost currency of Fig 8).

Every program starts its ranks from a barrier (part of "in context":
all leaders enter ``ib(0)`` together).  That barrier goes through the
start gate shared with ``measure_collective``
(:class:`repro.tuning.measure.StartGate`): it is simulated once per
(machine, profile, scope) per process and its exit schedule replayed
bit-identically after that -- costs and ``sim_cost`` are the same
either way, only the work done differs, and
``repro.sim.fluid.clear_fill_memo()`` is the cold start.  Nothing on
:class:`TaskBench` selects it; a noisy machine, an overhead hook or an
attached recorder simulate the barrier every time.  Only
``bench_ib_ir_overlap``'s leaders-only inter-node barrier is outside
the gate.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Optional

import numpy as np

from repro.core.config import HanConfig
from repro.core.subcomms import build_hierarchy
from repro.hardware.spec import MachineSpec
from repro.modules import make_module
from repro.mpi.runtime import MPIRuntime
from repro.netsim.profiles import P2PProfile
from repro.tuning.measure import StartGate

__all__ = [
    "AllreduceTaskCosts",
    "BcastTaskCosts",
    "ReduceTaskCosts",
    "TaskBench",
    "costs_from_doc",
    "costs_to_doc",
]


@dataclass
class BcastTaskCosts:
    """Per-leader task costs for one (config, segment size)."""

    config: HanConfig
    seg_bytes: float
    ib0: np.ndarray  # cost of task ib(0) on each node leader
    sb0: np.ndarray  # cost of a standalone sb(0) on each intra rank
    concurrent: np.ndarray  # ib(0)+sb(0) issued together (Fig 2 green)
    sbib_series: np.ndarray  # [leader, iteration] delayed-start sbib costs
    sbib_stable: np.ndarray  # stabilized sbib cost per leader (Fig 3)
    sim_cost: float

    @property
    def sb_final(self) -> float:
        """Cost of the trailing sb(u-1) (same as a standalone sb)."""
        return float(self.sb0.max())


@dataclass
class AllreduceTaskCosts:
    """Per-leader task costs for the 4-stage allreduce pipeline."""

    config: HanConfig
    seg_bytes: float
    sr0: np.ndarray
    irsr: np.ndarray
    ibirsr: np.ndarray
    sbibirsr_series: np.ndarray  # [leader, iteration]
    sbibirsr_stable: np.ndarray
    drain: np.ndarray  # [leader, 3]: sbibir, sbib, sb drain steps
    sim_cost: float


def _stabilized(series: np.ndarray, tail: int = 3) -> np.ndarray:
    """Stabilized per-leader cost: mean of the last ``tail`` iterations."""
    if series.shape[1] == 0:
        return np.zeros(series.shape[0])
    t = min(tail, series.shape[1])
    return series[:, -t:].mean(axis=1)


@dataclass
class ReduceTaskCosts:
    """Per-leader task costs for the 2-stage reduce pipeline (sr + ir)."""

    config: HanConfig
    seg_bytes: float
    sr0: np.ndarray
    irsr_series: np.ndarray  # [leader, iteration]
    irsr_stable: np.ndarray
    drain: np.ndarray  # final ir wait per leader
    sim_cost: float


# -- cache (de)serialization --------------------------------------------------------

_COSTS_CLASSES = {}  # populated below, after the dataclasses exist


def costs_to_doc(costs) -> dict:
    """JSON-safe cache record of one task-cost bundle (arrays -> lists)."""
    kind = type(costs).__name__
    if kind not in _COSTS_CLASSES:
        raise TypeError(f"not a task-cost bundle: {kind}")
    cfg = costs.config
    doc = {
        "__kind__": "taskbench",
        "__costs__": kind,
        "config": {**cfg.to_dict(), "seed": cfg.seed},
    }
    for f in fields(costs):
        if f.name == "config":
            continue
        v = getattr(costs, f.name)
        doc[f.name] = v.tolist() if isinstance(v, np.ndarray) else v
    return doc


def costs_from_doc(doc: dict):
    """Inverse of :func:`costs_to_doc`."""
    cls = _COSTS_CLASSES[doc["__costs__"]]
    kw = {"config": HanConfig(**doc["config"])}
    for f in fields(cls):
        if f.name == "config":
            continue
        v = doc[f.name]
        kw[f.name] = np.asarray(v, dtype=float) if isinstance(v, list) else v
    return cls(**kw)


_COSTS_CLASSES.update(
    {c.__name__: c for c in (BcastTaskCosts, AllreduceTaskCosts, ReduceTaskCosts)}
)


@dataclass
class TaskBench:
    """Benchmarks HAN tasks on a simulated machine."""

    machine: MachineSpec
    profile: Optional[P2PProfile] = None
    #: pipeline iterations used to observe stabilization (K in Fig 3)
    warm_iters: int = 8
    #: accumulated simulated benchmark time (Fig 8 accounting)
    total_cost: float = field(default=0.0)

    def _runtime(self) -> MPIRuntime:
        return MPIRuntime(self.machine, profile=self.profile)

    # -- MPI_Bcast tasks ------------------------------------------------------

    def bench_bcast_tasks(
        self, config: HanConfig, seg_bytes: float
    ) -> BcastTaskCosts:
        """One in-context pipeline run + two satellite benches."""
        ib0, sbib_series, cost_pipeline = self._bcast_pipeline(config, seg_bytes)
        sb0, cost_sb = self._sb_alone(config, seg_bytes)
        conc, cost_conc = self._concurrent_ib_sb(config, seg_bytes)
        self.total_cost += cost_pipeline + cost_sb + cost_conc
        return BcastTaskCosts(
            config=config,
            seg_bytes=seg_bytes,
            ib0=ib0,
            sb0=sb0,
            concurrent=conc,
            sbib_series=sbib_series,
            sbib_stable=_stabilized(sbib_series),
            sim_cost=cost_pipeline + cost_sb + cost_conc,
        )

    def _bcast_pipeline(self, config: HanConfig, seg_bytes: float):
        """Run ib(0), sbib(1..K) exactly as HAN's leaders do; time each."""
        K = self.warm_iters
        runtime = self._runtime()
        gate = StartGate(runtime, "low", lockstep=True)
        n = self.machine.num_nodes
        ib0 = np.zeros(n)
        series = np.zeros((n, K))

        def prog(comm):
            hier = yield from build_hierarchy(comm)
            imod, smod = make_module(config.imod), make_module(config.smod)
            low, up = hier.low, hier.up
            if hier.local_rank == 0:
                me = hier.up_rank_of(comm.rank)
                yield from gate.wait(low)
                t0 = comm.now
                req = imod.ibcast(
                    up, seg_bytes, root=0,
                    algorithm=config.ibalg, segsize=config.ibs,
                )
                prev = yield from up.wait(req)  # ib(0)
                ib0[me] = comm.now - t0
                for k in range(K):
                    t0 = comm.now
                    req = imod.ibcast(
                        up, seg_bytes, root=0,
                        algorithm=config.ibalg, segsize=config.ibs,
                    )
                    if low.size > 1:
                        yield from smod.bcast(
                            low, seg_bytes, root=0, payload=prev
                        )
                    prev = yield from up.wait(req)
                    series[me, k] = comm.now - t0
            else:
                yield from gate.wait(low)
                for _ in range(K):
                    yield from smod.bcast(low, seg_bytes, root=0)

        runtime.run(prog)
        return ib0, series, runtime.engine.now

    def _sb_alone(self, config: HanConfig, seg_bytes: float):
        """Standalone intra-node broadcast cost (Fig 2 orange)."""
        if self.machine.ppn == 1:
            return np.zeros(1), 0.0
        one_node = self.machine.scaled(num_nodes=1)
        runtime = MPIRuntime(one_node, profile=self.profile)
        gate = StartGate(runtime, "world", lockstep=True)
        times = np.zeros(one_node.ppn)
        smod_name = config.smod

        def prog(comm):
            smod = make_module(smod_name)
            yield from gate.wait(comm)
            t0 = comm.now
            yield from smod.bcast(comm, seg_bytes, root=0)
            times[comm.rank] = comm.now - t0

        runtime.run(prog)
        return times, runtime.engine.now

    def _concurrent_ib_sb(self, config: HanConfig, seg_bytes: float):
        """ib(0) and sb(0) issued simultaneously (Fig 2 green bars)."""
        runtime = self._runtime()
        gate = StartGate(runtime, "low", lockstep=True)
        n = self.machine.num_nodes
        times = np.zeros(n)

        def prog(comm):
            hier = yield from build_hierarchy(comm)
            imod, smod = make_module(config.imod), make_module(config.smod)
            low, up = hier.low, hier.up
            if hier.local_rank == 0:
                me = hier.up_rank_of(comm.rank)
                yield from gate.wait(low)
                t0 = comm.now
                req = imod.ibcast(
                    up, seg_bytes, root=0,
                    algorithm=config.ibalg, segsize=config.ibs,
                )
                if low.size > 1:
                    yield from smod.bcast(low, seg_bytes, root=0)
                yield from up.wait(req)
                times[me] = comm.now - t0
            else:
                yield from gate.wait(low)
                yield from smod.bcast(low, seg_bytes, root=0)

        runtime.run(prog)
        return times, runtime.engine.now

    # -- MPI_Allreduce tasks ------------------------------------------------------

    def bench_allreduce_tasks(
        self, config: HanConfig, seg_bytes: float
    ) -> AllreduceTaskCosts:
        """Run the 4-stage pipeline for K segments; time each iteration."""
        K = self.warm_iters
        u = K + 3  # enough segments to fill, run and drain the pipeline
        runtime = self._runtime()
        gate = StartGate(runtime, "low", lockstep=True)
        n = self.machine.num_nodes
        sr0 = np.zeros(n)
        irsr = np.zeros(n)
        ibirsr = np.zeros(n)
        series = np.zeros((n, max(0, u - 3)))
        drain = np.zeros((n, 3))

        def prog(comm):
            hier = yield from build_hierarchy(comm)
            imod, smod = make_module(config.imod), make_module(config.smod)
            low, up = hier.low, hier.up
            layer0 = hier.local_rank == 0
            intra = low.size > 1

            def sr(_i):
                if intra:
                    res = yield from smod.reduce(low, seg_bytes, root=0)
                    return res
                return None

            def sb(_i):
                if intra:
                    res = yield from smod.bcast(low, seg_bytes, root=0)
                    return res
                return None

            if layer0:
                me = hier.up_rank_of(comm.rank)
                yield from gate.wait(low)
                irreq: dict[int, object] = {}
                ibreq: dict[int, object] = {}
                for i in range(u + 3):
                    t0 = comm.now
                    if 0 <= i - 1 < u:
                        irreq[i - 1] = imod.ireduce(
                            up, seg_bytes, root=0,
                            algorithm=config.iralg, segsize=config.irs,
                        )
                    if 0 <= i - 2 < u:
                        yield from up.wait(irreq.pop(i - 2))
                        ibreq[i - 2] = imod.ibcast(
                            up, seg_bytes, root=0,
                            algorithm=config.ibalg, segsize=config.ibs,
                        )
                    if 0 <= i - 3 < u:
                        yield from up.wait(ibreq.pop(i - 3))
                        yield from sb(i - 3)
                    if i < u:
                        yield from sr(i)
                    dt = comm.now - t0
                    if i == 0:
                        sr0[me] = dt
                    elif i == 1:
                        irsr[me] = dt
                    elif i == 2:
                        ibirsr[me] = dt
                    elif i < u:
                        series[me, i - 3] = dt
                    else:
                        drain[me, i - u] = dt
            else:
                yield from gate.wait(low)
                for i in range(u + 3):
                    if 0 <= i - 3 < u:
                        yield from sb(i - 3)
                    if i < u:
                        yield from sr(i)

        runtime.run(prog)
        self.total_cost += runtime.engine.now
        return AllreduceTaskCosts(
            config=config,
            seg_bytes=seg_bytes,
            sr0=sr0,
            irsr=irsr,
            ibirsr=ibirsr,
            sbibirsr_series=series,
            sbibirsr_stable=_stabilized(series),
            drain=drain,
            sim_cost=runtime.engine.now,
        )

    # -- MPI_Reduce tasks (the irsr stream, paper section III extensions) ---------

    def bench_reduce_tasks(
        self, config: HanConfig, seg_bytes: float
    ) -> ReduceTaskCosts:
        """Run sr(0), irsr(1..K) and the drain ir; time each on leaders."""
        K = self.warm_iters
        u = K + 1
        runtime = self._runtime()
        gate = StartGate(runtime, "low", lockstep=True)
        n = self.machine.num_nodes
        sr0 = np.zeros(n)
        series = np.zeros((n, K))
        drain = np.zeros(n)

        def prog(comm):
            hier = yield from build_hierarchy(comm)
            imod, smod = make_module(config.imod), make_module(config.smod)
            low, up = hier.low, hier.up
            intra = low.size > 1

            def sr():
                if intra:
                    res = yield from smod.reduce(low, seg_bytes, root=0)
                    return res
                return None

            if hier.local_rank == 0:
                me = hier.up_rank_of(comm.rank)
                yield from gate.wait(low)
                irreq = None
                for i in range(u + 1):
                    t0 = comm.now
                    if 0 <= i - 1 < u:
                        irreq = imod.ireduce(
                            up, seg_bytes, root=0,
                            algorithm=config.iralg, segsize=config.irs,
                        )
                    if i < u:
                        yield from sr()
                    if 0 <= i - 1 < u:
                        yield from up.wait(irreq)
                    dt = comm.now - t0
                    if i == 0:
                        sr0[me] = dt
                    elif i < u:
                        series[me, i - 1] = dt
                    else:
                        drain[me] = dt
            else:
                yield from gate.wait(low)
                for _ in range(u):
                    yield from sr()

        runtime.run(prog)
        self.total_cost += runtime.engine.now
        return ReduceTaskCosts(
            config=config,
            seg_bytes=seg_bytes,
            sr0=sr0,
            irsr_series=series,
            irsr_stable=_stabilized(series),
            drain=drain,
            sim_cost=runtime.engine.now,
        )

    # -- Fig 6: ib / ir overlap ------------------------------------------------------

    def bench_ib_ir_overlap(self, config: HanConfig, seg_bytes: float):
        """Costs of ib alone, ir alone, and concurrent ib+ir (Fig 6)."""
        out = {}
        for mode in ("ib", "ir", "both"):
            runtime = self._runtime()
            n = self.machine.num_nodes
            times = np.zeros(n)

            def prog(comm, mode=mode, times=times):
                hier = yield from build_hierarchy(comm)
                imod = make_module(config.imod)
                up = hier.up
                if hier.local_rank != 0:
                    return
                me = hier.up_rank_of(comm.rank)
                yield from up.barrier()
                t0 = comm.now
                reqs = []
                if mode in ("ib", "both"):
                    reqs.append(
                        imod.ibcast(
                            up, seg_bytes, root=0,
                            algorithm=config.ibalg, segsize=config.ibs,
                        )
                    )
                if mode in ("ir", "both"):
                    reqs.append(
                        imod.ireduce(
                            up, seg_bytes, root=0,
                            algorithm=config.iralg, segsize=config.irs,
                        )
                    )
                yield from up.waitall(reqs)
                times[me] = comm.now - t0

            runtime.run(prog)
            self.total_cost += runtime.engine.now
            out[mode] = times
        return out
