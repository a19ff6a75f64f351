"""Process-pool fan-out for independent tuning work.

Every point of the tuning search — one full-collective measurement or
one TaskBench axis point — simulates a *fresh* machine, so points are
embarrassingly parallel.  This module fans them out across worker
processes while keeping the results **deterministic**: results are
reassembled by submission index, never by completion order, so a
parallel run is bit-identical to a serial run of the same point list.

Two point types implement a tiny protocol (``run`` / ``cache_key`` /
``to_doc`` / ``from_doc``); :func:`run_cached` composes them with the
:class:`~repro.tuning.cache.MeasurementCache`: cache hits are resolved
in the parent (no file races between workers), only misses are shipped
to the pool, and fresh results are written back before returning.

``workers <= 1`` degrades to the plain in-process loop — the zero-
dependency fallback path used by tests and by environments where
``ProcessPoolExecutor`` is unavailable or unwanted.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.core.config import HanConfig
from repro.faults.plan import FaultPlan
from repro.hardware.spec import MachineSpec
from repro.netsim.profiles import P2PProfile
from repro.tenancy.plan import TrafficPlan
from repro.tuning.cache import MeasurementCache, digest
from repro.tuning.measure import (
    CollectiveMeasurement,
    measure_collective,
    measurement_from_doc,
    measurement_to_doc,
    resolve_plan,
    resolve_traffic,
)
from repro.tuning.taskbench import TaskBench, costs_from_doc, costs_to_doc

__all__ = [
    "MeasurePoint",
    "TaskPoint",
    "effective_workers",
    "parallel_map",
    "run_cached",
]


@dataclass(frozen=True)
class MeasurePoint:
    """One ``measure_collective`` invocation, picklable for the pool."""

    machine: MachineSpec
    coll: str
    nbytes: float
    config: HanConfig
    root: int = 0
    iterations: int = 1
    profile: Optional[P2PProfile] = None
    fault_plan: Optional[FaultPlan] = None
    traffic_plan: Optional[TrafficPlan] = None
    trials: int = 1
    trial_offset: int = 0
    aggregate: str = "median"

    def run(self) -> CollectiveMeasurement:
        return measure_collective(
            self.machine,
            self.coll,
            self.nbytes,
            self.config,
            root=self.root,
            iterations=self.iterations,
            profile=self.profile,
            fault_plan=self.fault_plan,
            traffic_plan=self.traffic_plan,
            trials=self.trials,
            trial_offset=self.trial_offset,
            aggregate=self.aggregate,
        )

    def cache_key(self) -> str:
        """Content digest identifying this measurement point.

        The fault and traffic plans enter resolved (see
        :func:`~repro.tuning.measure.resolve_plan` /
        :func:`~repro.tuning.measure.resolve_traffic`).  The trial window
        enters the key only under an active plan -- without noise or
        background traffic every trial is identical, so sweeps that
        differ merely in trial bookkeeping share cache entries.  An
        active traffic plan enters the digest whole (tenants, seed, trial
        window), so a loaded measurement can never alias a quiet one.
        """
        plan = resolve_plan(self.fault_plan, self.config)
        traffic = resolve_traffic(self.traffic_plan, self.config)
        offset = int(self.trial_offset)
        return digest(
            "measure",
            machine=self.machine,
            coll=self.coll,
            nbytes=float(self.nbytes),
            config=list(self.config.key()),
            root=int(self.root),
            iterations=int(self.iterations),
            profile=self.profile,
            realization=None if plan is None
            else {"plan": plan, "trial_offset": offset},
            background=None if traffic is None
            else {"traffic": traffic, "trial_offset": offset},
            trials=int(self.trials),
            aggregate=self.aggregate,
        )

    def log(self, store, meas: CollectiveMeasurement, source: str) -> None:
        """Append ``meas`` to a :class:`~repro.obs.store.RunStore`, keyed
        by this point's machine, config and resolved plans."""
        from repro.obs.store import summarize_measurement

        store.append(summarize_measurement(
            self.machine, meas, source=source,
            plan=resolve_plan(self.fault_plan, self.config),
            traffic=resolve_traffic(self.traffic_plan, self.config),
        ))

    to_doc = staticmethod(measurement_to_doc)
    from_doc = staticmethod(measurement_from_doc)


@dataclass(frozen=True)
class TaskPoint:
    """One TaskBench axis point (segment size x algorithm x smod)."""

    machine: MachineSpec
    coll: str
    config: HanConfig
    seg_bytes: float
    warm_iters: int = 8
    profile: Optional[P2PProfile] = None

    def run(self):
        bench = TaskBench(
            self.machine, profile=self.profile, warm_iters=self.warm_iters
        )
        fn = {
            "bcast": bench.bench_bcast_tasks,
            "allreduce": bench.bench_allreduce_tasks,
            "reduce": bench.bench_reduce_tasks,
        }.get(self.coll)
        if fn is None:
            raise ValueError(f"task-based tuning not defined for {self.coll!r}")
        return fn(self.config, self.seg_bytes)

    def cache_key(self) -> str:
        return digest(
            "taskbench",
            machine=self.machine,
            coll=self.coll,
            config=list(self.config.key()),
            seg_bytes=float(self.seg_bytes),
            warm_iters=int(self.warm_iters),
            profile=self.profile,
        )

    to_doc = staticmethod(costs_to_doc)
    from_doc = staticmethod(costs_from_doc)


def _run_point(point):
    """Module-level trampoline so points pickle cleanly into the pool."""
    return point.run()


def effective_workers(workers: int, npoints: int, cap_to_cores: bool = True) -> int:
    """Pool size actually used for ``workers`` requested over ``npoints``.

    Points are CPU-bound simulations, so oversubscribing the machine
    only adds context-switch and IPC overhead; the request is capped at
    the visible core count (``cap_to_cores=False`` lifts that, for tests
    that must exercise the pool regardless of the host).
    """
    w = min(workers, npoints)
    if cap_to_cores:
        w = min(w, os.cpu_count() or 1)
    return max(w, 0)


def parallel_map(
    points: Sequence, workers: int = 0, cap_to_cores: bool = True
) -> list:
    """``[p.run() for p in points]``, fanned out over ``workers`` processes.

    Results come back in submission order regardless of completion
    order.  An effective pool of <= 1 (requested serial, a single
    point, or a single-core host) runs serially in process — the
    zero-dependency fallback path, bit-identical by construction.
    """
    points = list(points)
    w = effective_workers(workers, len(points), cap_to_cores)
    if w <= 1:
        return [p.run() for p in points]
    # chunked dispatch amortizes pickling/IPC; ~4 chunks per worker
    # keeps the tail balanced even when point costs vary with nbytes
    chunk = max(1, math.ceil(len(points) / (w * 4)))
    with ProcessPoolExecutor(max_workers=w) as pool:
        return list(pool.map(_run_point, points, chunksize=chunk))


def run_cached(
    points: Sequence,
    workers: int = 0,
    cache: Optional[MeasurementCache] = None,
    cap_to_cores: bool = True,
) -> list:
    """Resolve every point, via the cache where possible, misses in parallel.

    The returned list is index-aligned with ``points``; mixing hits and
    misses cannot reorder anything, so downstream fold order (candidate
    lists, tuning-cost sums) is identical to a cache-less serial run.
    """
    points = list(points)
    results: list = [None] * len(points)
    miss_idx: list[int] = []
    keys: list[Optional[str]] = [None] * len(points)
    if cache is not None:
        for i, p in enumerate(points):
            keys[i] = p.cache_key()
            doc = cache.get(keys[i])
            if doc is not None:
                results[i] = p.from_doc(doc)
            else:
                miss_idx.append(i)
    else:
        miss_idx = list(range(len(points)))
    fresh = parallel_map(
        [points[i] for i in miss_idx], workers=workers, cap_to_cores=cap_to_cores
    )
    for i, result in zip(miss_idx, fresh):
        results[i] = result
        if cache is not None:
            cache.put(keys[i], points[i].to_doc(result))
    return results
