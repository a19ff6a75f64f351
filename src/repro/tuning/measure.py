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
from typing import Optional

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

__all__ = [
    "CollectiveMeasurement",
    "StartGate",
    "measure_collective",
    "measurement_from_doc",
    "measurement_key",
    "measurement_to_doc",
    "resolve_plan",
    "resolve_traffic",
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

    - ``measure_collective`` follows the barrier with
      ``build_hierarchy``'s blocking splits on every rank, so a schedule
      with several exit instants replays exactly: nothing a rank does
      between its exit and the split touches another rank.
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
    caller's ``quiet`` (``_run_once`` passes False under tenant
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
    config: HanConfig
    time: float  # aggregated max across ranks (the reported cost)
    per_rank: tuple[float, ...]
    sim_cost: float  # simulated seconds the benchmark consumed (tuning cost)
    trial_times: tuple[float, ...] = ()
    spread: float = 0.0  # median absolute deviation of trial_times


def _run_once(
    machine: MachineSpec,
    coll: str,
    nbytes: float,
    config: HanConfig,
    root: int,
    iterations: int,
    profile: Optional[P2PProfile],
    trace_out: str = "",
    traffic: Optional[TrafficPlan] = None,
) -> tuple[tuple[float, ...], float]:
    """One fresh simulated benchmark; (per-rank durations, sim cost).

    ``trace_out`` attaches an observability recorder and writes a
    Perfetto-loadable Chrome trace of the run; the recorder never touches
    timing, so traced and untraced runs are bit-identical.

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
    Tenant traffic and a trace recorder make the run loud.
    """
    runtime = MPIRuntime(machine, profile=profile)
    han = HanModule(config=config)
    durations: dict[int, float] = {}

    def prog(comm):
        op = getattr(han, coll)
        yield from gate.wait(comm)
        start = comm.now
        for _ in range(iterations):
            if coll == "barrier":
                yield from op(comm)
            elif coll in ("bcast", "reduce"):
                yield from op(comm, nbytes, root=root)
            else:
                yield from op(comm, nbytes)
        durations[comm.rank] = (comm.now - start) / iterations

    recorder = nullcontext()
    if trace_out:
        from repro.obs import ObsRecorder, write_chrome_trace

        recorder = ObsRecorder(runtime.engine)
    with recorder as rec:
        # built with the recorder attached, so the gate sees a traced run
        gate = StartGate(runtime, "world", quiet=traffic is None)
        if traffic is not None:
            TenantScheduler(runtime, traffic).run(prog, name="measure")
        else:
            runtime.run(prog)
        if rec is not None:
            rec.snapshot_resources(runtime.fabric.solver)
    if rec is not None:
        write_chrome_trace(
            rec.run_record(meta={
                "coll": coll, "nbytes": float(nbytes),
                "config": repr(config),
            }),
            trace_out,
        )
    per_rank = tuple(durations[r] for r in sorted(durations))
    return per_rank, runtime.engine.now


def measure_collective(
    machine: MachineSpec,
    coll: str,
    nbytes: float,
    config: HanConfig,
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
) -> CollectiveMeasurement:
    """Time one HAN collective configuration on a fresh simulated machine.

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
    plan = resolve_plan(fault_plan, config)
    traffic = resolve_traffic(traffic_plan, config)

    key = None
    if cache is not None:
        key = measurement_key(
            machine, coll, nbytes, config, root, iterations, profile,
            plan, trials, trial_offset, aggregate, traffic=traffic,
        )
        doc = cache.get(key)
        if doc is not None:
            meas = measurement_from_doc(doc)
            if store is not None:
                from repro.obs.store import summarize_measurement

                store.append(summarize_measurement(
                    machine, meas, source=store_source, plan=plan,
                    traffic=traffic,
                ))
            return meas

    times: list[float] = []
    per_rank_by_trial: list[tuple[float, ...]] = []
    sim_cost = 0.0
    for trial in range(trials):
        m = machine
        if plan is not None:
            m = FaultyMachineSpec.wrap(machine, plan.for_trial(trial_offset + trial))
        tr = None
        if traffic is not None:
            tr = traffic.for_trial(trial_offset + trial)
        per_rank, cost = _run_once(
            m, coll, nbytes, config, root, iterations, profile,
            trace_out=trace_out if trial == 0 else "",
            traffic=tr,
        )
        per_rank_by_trial.append(per_rank)
        times.append(max(per_rank))
        sim_cost += cost

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
    meas = CollectiveMeasurement(
        coll=coll,
        nbytes=nbytes,
        config=config,
        time=time,
        per_rank=per_rank_by_trial[rep],
        sim_cost=sim_cost,
        trial_times=tuple(times),
        spread=spread,
    )
    if cache is not None:
        cache.put(key, measurement_to_doc(meas))
    if store is not None:
        from repro.obs.store import summarize_measurement

        store.append(summarize_measurement(
            machine, meas, source=store_source, plan=plan, traffic=traffic,
        ))
    return meas


# -- cache plumbing -----------------------------------------------------------------


def resolve_plan(
    fault_plan: Optional[FaultPlan], config: HanConfig
) -> Optional[FaultPlan]:
    """The effective (seed-resolved) plan a measurement will install."""
    if fault_plan is not None and fault_plan.injectors:
        return fault_plan.resolve_seed(config.seed)
    return None


def resolve_traffic(
    traffic_plan: Optional[TrafficPlan], config: HanConfig
) -> Optional[TrafficPlan]:
    """The effective (seed-resolved) traffic plan a measurement replays.

    Mirrors :func:`resolve_plan`: a ``None`` or tenant-less plan is no
    plan at all (bit-identical to a quiet machine, absent from the
    digest), and an unset seed resolves from ``config.seed``.
    """
    if traffic_plan is not None and traffic_plan.tenants:
        return traffic_plan.resolve_seed(config.seed)
    return None


def measurement_key(
    machine: MachineSpec,
    coll: str,
    nbytes: float,
    config: HanConfig,
    root: int,
    iterations: int,
    profile: Optional[P2PProfile],
    plan: Optional[FaultPlan],
    trials: int,
    trial_offset: int,
    aggregate: str,
    traffic: Optional[TrafficPlan] = None,
) -> str:
    """Content digest identifying one measurement point.

    ``plan`` and ``traffic`` must already be resolved (see
    :func:`resolve_plan` / :func:`resolve_traffic`).  The trial window
    enters the key only under an active plan — without noise or
    background traffic every trial is identical, so sweeps that differ
    merely in trial bookkeeping share cache entries.  An active traffic
    plan enters the digest whole (tenants, seed, trial window), so a
    loaded measurement can never alias a quiet one.
    """
    realization = None
    if plan is not None:
        realization = {"plan": plan, "trial_offset": int(trial_offset)}
    background = None
    if traffic is not None:
        background = {"traffic": traffic, "trial_offset": int(trial_offset)}
    return digest(
        "measure",
        machine=machine,
        coll=coll,
        nbytes=float(nbytes),
        config=list(config.key()),
        root=int(root),
        iterations=int(iterations),
        profile=profile,
        realization=realization,
        background=background,
        trials=int(trials),
        aggregate=aggregate,
    )


def measurement_to_doc(meas: CollectiveMeasurement) -> dict:
    """JSON-safe cache record of one measurement."""
    cfg = meas.config
    return {
        "__kind__": "measure",
        "coll": meas.coll,
        "nbytes": meas.nbytes,
        "config": {
            "fs": cfg.fs, "imod": cfg.imod, "smod": cfg.smod,
            "ibalg": cfg.ibalg, "iralg": cfg.iralg,
            "ibs": cfg.ibs, "irs": cfg.irs, "seed": cfg.seed,
        },
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
        config=HanConfig(**doc["config"]),
        time=doc["time"],
        per_rank=tuple(doc["per_rank"]),
        sim_cost=doc["sim_cost"],
        trial_times=tuple(doc["trial_times"]),
        spread=doc["spread"],
    )
