"""Full-collective measurement (the exhaustive search's unit of work).

The timing definition follows the paper (III-A2): "the cost of a
collective operation [is] the longest time among all the processes" --
the max-across-ranks value that IMB and the OSU benchmarks report.

Under performance variability (:mod:`repro.faults`) one run is one
*sample*; ``trials`` repeats the measurement under independent noise
realizations and aggregates them, the classic defense against tuning on
an outlier (median-of-k, Hoefler & Belli's "benchmarking 101" advice).
"""

from __future__ import annotations

import statistics
from contextlib import nullcontext
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.core.config import HanConfig
from repro.core.han import HanModule
from repro.faults.machine import FaultyMachineSpec
from repro.faults.plan import FaultPlan
from repro.hardware.spec import MachineSpec
from repro.mpi.runtime import MPIRuntime
from repro.netsim.profiles import P2PProfile
from repro.sim.fluid import process_memo
from repro.tenancy.plan import TrafficPlan
from repro.tenancy.scheduler import TenantScheduler
from repro.tuning.cache import MeasurementCache, digest

if TYPE_CHECKING:
    from repro.obs.core import RunRecord

__all__ = [
    "CollectiveMeasurement",
    "StartGate",
    "measure_collective",
    "measurement_from_doc",
    "measurement_to_doc",
    "resolve_plan",
    "resolve_traffic",
    "run_once",
]

AGGREGATES = ("median", "min", "mean")

#: start-barrier exit schedules this process has simulated, by (machine,
#: profile, scope) digest: ``((rank, exit instant), ...)`` in exit
#: order.  See :class:`StartGate`; dropped by
#: ``repro.sim.fluid.clear_fill_memo()``, and wholesale at
#: _BARRIER_EXITS_MAX entries (a schedule is ~0.5 MB at 4096 ranks and
#: costs one barrier to get back), which bounds a long-lived process
#: that measures ever new machines.
_BARRIER_EXITS = process_memo()
_BARRIER_EXITS_MAX = 32


class StartGate:
    """The synchronised start of one benchmark run, simulated once.

    Every measurement in this package -- a whole collective
    (:func:`measure_collective`) or the tasks of one
    (:class:`~repro.tuning.taskbench.TaskBench`) -- sends its ranks
    through a barrier before the clock starts.  That barrier runs from
    t = 0 on a fresh runtime, so on a quiet machine its outcome is a
    function of (machine, resolved profile, ``scope``) alone, where
    ``scope`` names the communicators it runs on and what was done to
    get them: ``"world"`` (the world communicator, first thing) or
    ``"low"`` (the node-level communicators of ``build_hierarchy(world)``,
    entered straight after the instantaneous splits).  The first quiet
    run of a key in this process simulates the barrier and records, in
    exit order, the instant each rank leaves; later quiet runs release
    the ranks with one ``schedule_at`` each, issued in that order,
    through :meth:`Communicator.barrier_replay`.

    Build the gate after the runtime and before ``run``; each rank then
    does ``yield from gate.wait(comm)`` where it would have called
    ``comm.barrier()``.

    **Why replay is exact.**  A rank leaves once its own last send/recv
    overheads are done (progress server idle), zero-byte traffic never
    reaches the fluid solver or its memo, and no other traffic exists
    yet, so all a run inherits from the barrier is the exit instants
    and the same-instant resume order.  What makes *that* enough
    differs by caller:

    - ``measure_collective`` of HAN or of a leader-based rival follows
      the barrier with ``build_hierarchy``'s blocking splits on every
      rank, so a schedule with several exit instants replays exactly:
      nothing a rank does between its exit and the split touches another
      rank.  A flat rival starts sending at once, yet nothing it sends
      reaches a rank still in the barrier: an envelope that meets no
      posted receive waits at no cost to its receiver, and payloads never
      meet the barrier's zero-byte messages in the fluid solver.
    - ``TaskBench`` builds the hierarchy *before* the barrier and its
      leaders start ``ibcast``/``ireduce`` the moment they leave it, so
      an early leaver's traffic could meet a late leaver's last barrier
      message.  It therefore asks for ``lockstep``: only a schedule
      with a **single** exit instant T is stored or replayed (what an
      intra-node dissemination barrier on a homogeneous machine gives).
      Every exit is then the retirement of an event scheduled before T,
      nothing post-barrier exists before T, and so in both runs all
      exits retire at T ahead of anything created at T -- leaving only
      their order, which the recorded order reproduces.  A schedule
      that is not lockstep keeps simulating.

    "Quiet" is read off the run itself -- no fault plan on the machine,
    no overhead hook on the engine, no obs recorder attached, and the
    caller's ``quiet`` (``run_once`` passes False under tenant
    traffic) -- never a flag; anything else simulates the barrier,
    recording nothing.  A barrier on one-rank communicators exchanges
    nothing and is never recorded.  The schedules go with
    ``repro.sim.fluid.clear_fill_memo()``.
    """

    def __init__(
        self,
        runtime: MPIRuntime,
        scope: str,
        *,
        quiet: bool = True,
        lockstep: bool = False,
    ):
        engine = runtime.engine
        self._lockstep = lockstep
        self._ranks = runtime.machine.num_ranks
        self._key: Optional[str] = None  # set: this run records
        self._left: list[tuple[int, float]] = []
        self._released: Optional[dict] = None  # set: this run replays
        if not (
            quiet
            and getattr(runtime.machine, "fault_plan", None) is None
            and engine.overhead_hook is None
            and engine.obs is None
        ):
            return
        key = digest(
            "barrier", machine=runtime.machine, profile=runtime.profile,
            scope=scope,
        )
        exits = _BARRIER_EXITS.get(key)
        if exits is None:
            self._key = key
        elif not lockstep or exits[0][1] == exits[-1][1]:
            self._released = released = {}
            for rank, when in exits:
                released[rank] = engine.event("barrier-exit")
                engine.schedule_at(when, released[rank].succeed)

    def wait(self, comm):
        """``comm.barrier()``, simulated or replayed (a generator)."""
        rank = comm.world_rank
        if self._released is not None:
            yield from comm.barrier_replay(self._released[rank])
            return
        yield from comm.barrier()
        if self._key is None or comm.size == 1:
            return
        left = self._left
        left.append((rank, comm.now))
        if len(left) < self._ranks:
            return
        # the last rank is out: exits are in time order, so first == last
        # instant is the lockstep test
        if self._lockstep and left[0][1] != left[-1][1]:
            return
        if len(_BARRIER_EXITS) >= _BARRIER_EXITS_MAX:
            _BARRIER_EXITS.clear()
        _BARRIER_EXITS[self._key] = tuple(left)


@dataclass(frozen=True)
class CollectiveMeasurement:
    """One timed collective: per-rank durations and the IMB-style max.

    With ``trials > 1`` the headline ``time`` is the aggregate across
    noise realizations, ``trial_times`` keeps every sample, and
    ``spread`` is the median absolute deviation — the robust dispersion
    the confidence-aware autotuner penalizes.
    """

    coll: str
    nbytes: float
    config: Optional[HanConfig]  # None: a rival library's own collective
    time: float  # aggregated max across ranks (the reported cost)
    per_rank: tuple[float, ...]
    sim_cost: float  # simulated seconds the benchmark consumed (tuning cost)
    trial_times: tuple[float, ...] = ()
    spread: float = 0.0  # median absolute deviation of trial_times


#: collectives that take a root
_ROOTED = ("bcast", "reduce", "gather", "scatter")


def run_once(
    machine: MachineSpec,
    coll: str,
    nbytes: float,
    config: Optional[HanConfig] = None,
    *,
    library: str = "han",
    root: int = 0,
    iterations: int = 1,
    profile: Optional[P2PProfile] = None,
    traffic: Optional[TrafficPlan] = None,
    record: Optional[str] = None,
) -> tuple[tuple[float, ...], float, Optional["RunRecord"]]:
    """One fresh simulated benchmark: ``(per-rank durations, sim cost,
    run record)``.

    This is the one program that runs a collective for measurement:
    every rank passes the start barrier, then calls ``coll``
    ``iterations`` times back to back; its duration is the mean per
    call.  ``library="han"`` runs HAN under ``config`` (``None`` lets
    HAN pick); any other registry name runs that library's collective
    over its own P2P profile, unless ``profile`` is given.

    ``record`` (``"full"`` or ``"metrics"``, see
    :class:`~repro.obs.core.ObsRecorder`) attaches an observability
    recorder for the whole run and returns its
    :class:`~repro.obs.core.RunRecord`, whose meta carries the
    collective, the machine shape, ``root``, the headline ``time`` and
    the ``per_rank`` profile; without it the record is ``None``.  The
    recorder never touches timing, so recorded and plain runs are
    bit-identical.

    ``traffic`` (a realized :class:`TrafficPlan` with tenants) replays
    background jobs while the benchmark runs: the foreground program
    becomes one job among many on the machine, and its measured
    durations include the contention.  ``sim_cost`` still reads the
    engine clock at drain time, so loaded measurements bill their true
    (longer) simulated span.

    **The start barrier.**  Every rank passes a barrier before the clock
    starts, and its exit skew is part of what is measured; at paper
    scale its 12 rounds of zero-byte messages are most of the
    simulation.  It goes through the shared :class:`StartGate`
    (``"world"`` scope): simulated by the first quiet run of a (machine,
    profile) in this process, replayed bit-identically after that.
    Tenant traffic and a recorder make the run loud.
    """
    if library == "han":
        target = HanModule(config=config)
    else:
        from repro.comparators import library_by_name

        target = library_by_name(library)
        profile = profile or target.profile
    op = getattr(target, coll, None)
    if op is None:
        raise ValueError(f"{library} does not implement {coll!r}")
    runtime = MPIRuntime(machine, profile=profile)
    args = () if coll == "barrier" else (nbytes,)
    kwargs = {"root": root} if coll in _ROOTED else {}
    durations: dict[int, float] = {}

    def prog(comm):
        yield from gate.wait(comm)
        start = comm.now
        for _ in range(iterations):
            yield from op(comm, *args, **kwargs)
        durations[comm.rank] = (comm.now - start) / iterations

    recorder = nullcontext()
    if record is not None:
        from repro.obs.core import ObsRecorder

        recorder = ObsRecorder(runtime.engine, mode=record)
    with recorder as rec:
        # built with the recorder attached, so the gate sees a loud run
        gate = StartGate(runtime, "world", quiet=traffic is None)
        if traffic is not None:
            TenantScheduler(runtime, traffic).run(prog, name="measure")
        else:
            runtime.run(prog)
        if rec is not None:
            rec.snapshot_resources(runtime.fabric.solver)
    per_rank = tuple(durations[r] for r in sorted(durations))
    sim_cost = runtime.engine.now
    if rec is None:
        return per_rank, sim_cost, None
    meta = {
        "coll": coll,
        "nbytes": float(nbytes),
        "machine": f"{machine.num_nodes}x{machine.ppn}",
        "root": root,
        "time": max(per_rank),
        "per_rank": list(per_rank),
    }
    if config is not None:
        meta["config"] = repr(config)
    if library != "han":
        meta["library"] = library
    return per_rank, sim_cost, rec.run_record(meta=meta)


def measure_collective(
    machine: MachineSpec,
    coll: str,
    nbytes: float,
    config: Optional[HanConfig],
    root: int = 0,
    iterations: int = 1,
    profile: Optional[P2PProfile] = None,
    fault_plan: Optional[FaultPlan] = None,
    traffic_plan: Optional[TrafficPlan] = None,
    trials: int = 1,
    trial_offset: int = 0,
    aggregate: str = "median",
    cache: Optional[MeasurementCache] = None,
    trace_out: str = "",
    store=None,
    store_source: str = "measure_collective",
    library: str = "han",
) -> CollectiveMeasurement:
    """Time one HAN collective configuration on a fresh simulated machine
    (``library`` names a registry rival instead, with ``config=None``).

    ``iterations`` repeats the operation back-to-back (pipelining state
    does not persist across calls, so the simulator is deterministic; the
    knob exists to mirror real benchmarking loops in the tuning-cost
    accounting of Fig 8).

    ``fault_plan`` perturbs the platform: each of the ``trials`` runs
    re-installs the plan under realization ``trial_offset + t`` (an
    unset plan seed is resolved from ``config.seed``), so different
    trials see independent — but reproducible — noise.  ``aggregate``
    picks the headline statistic over the per-trial maxima; ``sim_cost``
    sums over all trials, because repeated measurement is exactly what
    inflates the tuning bill.

    ``traffic_plan`` (:class:`repro.tenancy.TrafficPlan`) replays
    background tenant jobs during each trial — the interference-aware
    path.  It follows the fault-plan contract exactly: an unset seed
    resolves from ``config.seed``, trial ``trial_offset + t`` selects
    the traffic realization, an empty plan is bit-identical to no plan,
    and an active plan enters the measurement digest so loaded and
    quiet measurements never alias in the cache or the run store.

    ``cache`` (a :class:`~repro.tuning.cache.MeasurementCache`) short-
    circuits the simulation when this exact point — same machine,
    collective, size, config, fault realization, iteration counts and
    profile — was measured before; a hit replays the recorded result,
    including its ``sim_cost``, so tuning-cost accounting is unaffected.

    ``trace_out`` writes a Chrome trace of the *first* trial's run (the
    recorder does not perturb timing; cache hits skip the simulation and
    therefore produce no trace).

    ``store`` (a :class:`~repro.obs.store.RunStore`) appends a run
    summary — headline time, per-rank profile, provenance tagged
    ``store_source`` — to the cross-run observatory, making this
    measurement comparable against every past run of the same point
    (``python -m repro.obs.cli regress``).  Cache hits are appended too:
    a replayed measurement is still a run of the experiment.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if aggregate not in AGGREGATES:
        raise ValueError(f"aggregate must be one of {AGGREGATES}, got {aggregate!r}")
    from repro.tuning.parallel import MeasurePoint

    point = MeasurePoint(
        machine, coll, nbytes, config, root, iterations, profile,
        fault_plan, traffic_plan, trials, trial_offset, aggregate, library,
    )
    key = doc = None
    if cache is not None:
        key = point.cache_key()
        doc = cache.get(key)
    if doc is not None:
        meas = measurement_from_doc(doc)
    else:
        meas = _measure(point, trace_out)
        if cache is not None:
            cache.put(key, measurement_to_doc(meas))
    if store is not None:
        point.log(store, meas, store_source)
    return meas


def _measure(point, trace_out: str) -> CollectiveMeasurement:
    """Simulate every trial of ``point`` and aggregate them."""
    plan = resolve_plan(point.fault_plan, point.config)
    traffic = resolve_traffic(point.traffic_plan, point.config)
    times: list[float] = []
    per_rank_by_trial: list[tuple[float, ...]] = []
    sim_cost = 0.0
    for trial in range(point.trials):
        realization = point.trial_offset + trial
        m = point.machine
        if plan is not None:
            m = FaultyMachineSpec.wrap(m, plan.for_trial(realization))
        per_rank, cost, rec = run_once(
            m, point.coll, point.nbytes, point.config, library=point.library,
            root=point.root, iterations=point.iterations, profile=point.profile,
            traffic=None if traffic is None else traffic.for_trial(realization),
            record="full" if trace_out and trial == 0 else None,
        )
        if rec is not None:
            from repro.obs.export import write_chrome_trace

            write_chrome_trace(rec, trace_out)
        per_rank_by_trial.append(per_rank)
        times.append(max(per_rank))
        sim_cost += cost

    aggregate = point.aggregate
    if aggregate == "median":
        time = statistics.median(times)
    elif aggregate == "mean":
        time = statistics.fmean(times)
    else:
        time = min(times)
    # MAD around the *median* of the samples, not around the headline
    # aggregate: with aggregate="min"/"mean" centering on `time` would
    # inflate the dispersion and unfairly penalize those configs under
    # selection="confident".
    if len(times) > 1:
        center = statistics.median(times)
        spread = statistics.median(abs(x - center) for x in times)
    else:
        spread = 0.0
    # report the per-rank profile of the trial closest to the aggregate
    rep = min(range(len(times)), key=lambda i: (abs(times[i] - time), i))
    return CollectiveMeasurement(
        coll=point.coll,
        nbytes=point.nbytes,
        config=point.config,
        time=time,
        per_rank=per_rank_by_trial[rep],
        sim_cost=sim_cost,
        trial_times=tuple(times),
        spread=spread,
    )


# -- cache plumbing -----------------------------------------------------------------


def resolve_plan(
    fault_plan: Optional[FaultPlan], config: Optional[HanConfig]
) -> Optional[FaultPlan]:
    """The effective (seed-resolved) plan a measurement will install."""
    if fault_plan is not None and fault_plan.injectors:
        return fault_plan.resolve_seed(None if config is None else config.seed)
    return None


def resolve_traffic(
    traffic_plan: Optional[TrafficPlan], config: Optional[HanConfig]
) -> Optional[TrafficPlan]:
    """The effective (seed-resolved) traffic plan a measurement replays.

    Mirrors :func:`resolve_plan`: a ``None`` or tenant-less plan is no
    plan at all (bit-identical to a quiet machine, absent from the
    digest), and an unset seed resolves from ``config.seed``.
    """
    if traffic_plan is not None and traffic_plan.tenants:
        return traffic_plan.resolve_seed(None if config is None else config.seed)
    return None


def measurement_to_doc(meas: CollectiveMeasurement) -> dict:
    """JSON-safe cache record of one measurement."""
    cfg = meas.config
    return {
        "__kind__": "measure",
        "coll": meas.coll,
        "nbytes": meas.nbytes,
        "config": None if cfg is None else {**cfg.to_dict(), "seed": cfg.seed},
        "time": meas.time,
        "per_rank": list(meas.per_rank),
        "sim_cost": meas.sim_cost,
        "trial_times": list(meas.trial_times),
        "spread": meas.spread,
    }


def measurement_from_doc(doc: dict) -> CollectiveMeasurement:
    """Inverse of :func:`measurement_to_doc`."""
    return CollectiveMeasurement(
        coll=doc["coll"],
        nbytes=doc["nbytes"],
        config=None if doc["config"] is None else HanConfig(**doc["config"]),
        time=doc["time"],
        per_rank=tuple(doc["per_rank"]),
        sim_cost=doc["sim_cost"],
        trial_times=tuple(doc["trial_times"]),
        spread=doc["spread"],
    )
