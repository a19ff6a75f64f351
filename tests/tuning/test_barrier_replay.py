"""The measurement harness's start barrier: replay == simulate, bit for bit.

``_run_once`` simulates the barrier the first time a (machine, profile)
is measured in a process and replays its recorded exit schedule after
that.  These tests pin that the two paths cannot be told apart from a
measurement's numbers, that only quiet runs take part, and that
``clear_fill_memo()`` is the cold start for it.
"""

import itertools

import pytest

from repro.core.config import HanConfig
from repro.experiments import scaling4096
from repro.faults import FaultPlan, OsNoise
from repro.hardware import (
    gpu_pod,
    shaheen2,
    small_cluster,
    stampede2,
    tiny_cluster,
)
from repro.mpi.runtime import MPIRuntime
from repro.netsim.profiles import craympi_profile
from repro.sim.engine import Engine
from repro.sim.fluid import clear_fill_memo
from repro.tenancy import traffic_preset
from repro.tuning import Autotuner, SearchSpace, measure_collective
from repro.tuning import measure as measure_mod

KiB = 1024

MACHINES = {
    "multi_node": shaheen2(num_nodes=4, ppn=4),
    "single_node": small_cluster(num_nodes=1, ppn=8),
    "ppn1": tiny_cluster(num_nodes=4, ppn=1),
    "non_pow2": stampede2(num_nodes=3, ppn=3),
    "fabric_islands": gpu_pod(num_nodes=2, ppn=4),
}
COLLS = ("bcast", "reduce", "allreduce", "allgather", "gather", "alltoall")
SIZES = (8, 4 * KiB, 96 * KiB, 1024 * KiB)  # eager, eager, rndv, segmented
CONFIGS = (
    HanConfig(fs=64 * KiB),
    HanConfig(fs=None, imod="adapt", smod="solo", ibalg="binary", ibs=32 * KiB),
)


def cases(name):
    configs = CONFIGS
    if name == "fabric_islands":  # the third hierarchy level: two more splits
        configs += (HanConfig(fs=64 * KiB, smod="gpu"),)
    # HAN's own barrier takes no size, and ADAPT does not provide one
    return list(itertools.product(COLLS, SIZES, configs, (1, 3))) + [
        ("barrier", 0, CONFIGS[0], 1), ("barrier", 0, CONFIGS[0], 3),
    ]


@pytest.fixture(autouse=True)
def cold_start():
    clear_fill_memo()
    yield
    clear_fill_memo()


def measured(machine, coll="allreduce", nbytes=64 * KiB, config=CONFIGS[0], **kw):
    """(measurement numbers, engine events the measurement executed)."""
    ev0 = Engine.events_total
    m = measure_collective(machine, coll, nbytes, config, **kw)
    return (m.time, m.per_rank, m.sim_cost), Engine.events_total - ev0


# -- replay == real barrier ------------------------------------------------------


@pytest.mark.parametrize("name", MACHINES)
def test_replay_is_bit_identical_to_the_simulated_barrier(name):
    machine, todo = MACHINES[name], cases(name)
    # one schedule, recorded by an unrelated measurement, serves them all
    measured(machine, "bcast", 2 * KiB)
    assert len(measure_mod._BARRIER_EXITS) == 1
    replayed = [
        measured(machine, coll, nbytes, cfg, iterations=it)
        for coll, nbytes, cfg, it in todo
    ]
    for (coll, nbytes, cfg, it), (got, got_events) in zip(todo, replayed):
        clear_fill_memo()
        want, want_events = measured(machine, coll, nbytes, cfg, iterations=it)
        assert got == want, (name, coll, nbytes, cfg, it)
        # ...and the replay really was one: the barrier's messages are gone
        assert got_events < want_events, (name, coll, nbytes, cfg, it)


RIVAL_COLLS = ("bcast", "reduce", "gather", "scatter", "allreduce",
               "allgather", "barrier")


@pytest.mark.parametrize("name", ("multi_node", "ppn1", "non_pow2"))
@pytest.mark.parametrize("library", ("openmpi", "mvapich2", "craympi"))
def test_rival_replay_is_bit_identical_to_the_simulated_barrier(name, library):
    """Flat rivals start sending the moment a rank leaves the barrier;
    that traffic still cannot tell a replayed barrier from a real one."""
    from repro.comparators import library_by_name

    machine = MACHINES[name]
    colls = [c for c in RIVAL_COLLS
             if getattr(library_by_name(library), c, None) is not None]
    todo = [(c, nb, root) for c in colls for nb in (8, 96 * KiB)
            for root in ((0, 3) if c in measure_mod._ROOTED else (0,))]
    for coll, nbytes, root in todo:
        clear_fill_memo()
        want = measured(machine, coll, nbytes, None, root=root,
                        library=library)
        got = measured(machine, coll, nbytes, None, root=root,
                       library=library)
        assert got[0] == want[0], (name, library, coll, nbytes, root)
        assert got[1] < want[1], (name, library, coll, nbytes, root)


def test_schedule_is_keyed_by_machine_and_profile():
    a, b = MACHINES["multi_node"], MACHINES["non_pow2"]
    measured(a)
    measured(a, profile=craympi_profile())
    measured(b)
    assert len(measure_mod._BARRIER_EXITS) == 3
    for machine, profile in ((a, None), (a, craympi_profile()), (b, None)):
        got, _ = measured(machine, profile=profile)
        clear_fill_memo()
        want, _ = measured(machine, profile=profile)
        assert got == want


def test_schedule_memo_is_bounded(monkeypatch):
    monkeypatch.setattr(measure_mod, "_BARRIER_EXITS_MAX", 2)
    for name in ("multi_node", "ppn1", "non_pow2"):
        measured(MACHINES[name])
    assert len(measure_mod._BARRIER_EXITS) == 1  # dropped wholesale at the cap
    got, _ = measured(MACHINES["multi_node"])
    clear_fill_memo()
    assert got == measured(MACHINES["multi_node"])[0]


def test_barrier_replay_releases_on_schedule_and_consumes_an_epoch():
    runtime = MPIRuntime(tiny_cluster(num_nodes=2, ppn=2))
    exits = ((2, 1e-6), (0, 3e-6), (3, 3e-6), (1, 5e-6))
    released = {}
    for rank, when in exits:
        released[rank] = runtime.engine.event()
        runtime.engine.schedule_at(when, released[rank].succeed)
    order = []

    def prog(comm):
        yield from comm.barrier_replay(released[comm.rank])
        order.append((comm.rank, comm.now))
        yield from comm.barrier()  # a real one still works afterwards
        return comm._barrier_epoch

    assert runtime.run(prog) == [2, 2, 2, 2]
    assert tuple(order) == exits


def test_paper_scale_pinned_times():
    # phase a records the 4096-rank schedule, phase b replays it
    out = scaling4096.run(scale="paper", save=False)
    assert out["times"] == {
        "bcast": 0.0016129824012490232,
        "allreduce": 0.019263458791621075,
    }
    # fused message lifecycle (DESIGN.md 4o): the cold barrier's 49,152
    # zero-byte messages cost two events each plus one per arrival instant
    assert out["events"] == {"bcast": 139_922, "allreduce": 105_084}


def test_exhaustive_sweep_serial_equals_pool_with_replay_active():
    space = SearchSpace(
        seg_sizes=(None, 64 * KiB),
        messages=(64 * KiB, 256 * KiB),
        adapt_algorithms=("chain",),
        inner_segs=(None,),
    )

    def tune(**kw):
        return Autotuner(tiny_cluster(num_nodes=2, ppn=2), space=space, **kw).tune(
            colls=("bcast", "allreduce"), method="exhaustive"
        )

    cold = tune()  # first point records, the rest replay
    warm = tune()  # every point replays
    pooled = tune(workers=2)  # forked workers inherit and replay
    clear_fill_memo()
    pooled_cold = tune(workers=2)  # each worker records its own first
    for other in (warm, pooled, pooled_cold):
        assert other.candidates == cold.candidates
        assert other.table.entries == cold.table.entries
        assert other.tuning_cost == cold.tuning_cost
        assert other.searches == cold.searches


# -- eligibility ------------------------------------------------------------------


class _HookedRuntime(MPIRuntime):
    """A runtime that comes up with an (identity) overhead hook installed."""

    def __init__(self, machine, profile=None):
        super().__init__(machine, profile=profile)
        self.engine.overhead_hook = lambda kind, who, duration: duration


class _ReplayingGate(measure_mod.StartGate):
    """A start gate that replays the quiet schedule of the machine under
    whatever plan or hook the run carries."""

    def __init__(self, runtime, scope, **kw):
        engine, machine = runtime.engine, runtime.machine
        hook, engine.overhead_hook = engine.overhead_hook, None
        runtime.machine = machine.pristine()
        try:
            super().__init__(runtime, scope, **kw)
        finally:
            engine.overhead_hook, runtime.machine = hook, machine


def _loud_kwargs(tmp_path):
    return {
        "fault_plan": {"fault_plan": FaultPlan(seed=3).add(OsNoise(amplitude=0.4))},
        "traffic_plan": {"traffic_plan": traffic_preset("bcast_periodic")},
        "trace_out": {"trace_out": str(tmp_path / "trace.json")},
        "overhead_hook": {},
    }


@pytest.mark.parametrize(
    "how", ("fault_plan", "traffic_plan", "trace_out", "overhead_hook")
)
def test_loud_measurements_neither_record_nor_replay(how, tmp_path, monkeypatch):
    machine = MACHINES["multi_node"]
    kw = _loud_kwargs(tmp_path)[how]

    def loud():
        with monkeypatch.context() as mp:
            if how == "overhead_hook":
                mp.setattr(measure_mod, "MPIRuntime", _HookedRuntime)
            return measured(machine, **kw)

    want, want_events = loud()
    assert not measure_mod._BARRIER_EXITS  # did not record
    _, quiet_cold_events = measured(machine)
    assert len(measure_mod._BARRIER_EXITS) == 1
    got, got_events = loud()
    assert (got, got_events) == (want, want_events)  # did not replay
    assert len(measure_mod._BARRIER_EXITS) == 1
    if how == "overhead_hook":
        # an identity hook changes no number, so the whole measurement
        # must be the quiet one with its barrier simulated, event for
        # event
        quiet, _ = measured(machine)
        assert want == quiet and want_events == quiet_cold_events
    if how == "fault_plan":
        # why a noisy run must not replay: forced to, it reads other
        # times.  The noisy barrier's CPU grants are draws from the
        # plan's per-op stream, so a replay skips them and shifts every
        # later draw (and the ranks leave at the quiet instants)
        noisy = {"fault_plan": FaultPlan(seed=3).add(
            OsNoise(amplitude=0.4, per_op=0.3))}
        simulated, simulated_events = measured(machine, **noisy)
        with monkeypatch.context() as mp:
            mp.setattr(measure_mod, "StartGate", _ReplayingGate)
            forced, forced_events = measured(machine, **noisy)
        assert forced_events < simulated_events  # it did replay
        assert forced[1] != simulated[1]


def test_faulty_machine_passed_directly_is_not_eligible():
    from repro.faults import FaultyMachineSpec

    plan = FaultPlan(seed=1).add(OsNoise(amplitude=0.4)).for_trial(0)
    faulty = FaultyMachineSpec.wrap(MACHINES["multi_node"], plan)
    first = measured(faulty)
    assert not measure_mod._BARRIER_EXITS
    assert measured(faulty) == first


# -- cold start -------------------------------------------------------------------


def test_clear_fill_memo_is_the_cold_start():
    machine = MACHINES["multi_node"]
    cold, cold_events = measured(machine)
    warm, warm_events = measured(machine)
    assert warm == cold and warm_events < cold_events
    clear_fill_memo()
    assert not measure_mod._BARRIER_EXITS
    again, again_events = measured(machine)
    assert (again, again_events) == (cold, cold_events)


def test_scaling_driver_repeats_identical_work_after_cold_start():
    runs = []
    for _ in range(2):
        clear_fill_memo()
        out = scaling4096.run(scale="quick", save=False)
        runs.append((out["times"], out["events"]))
    assert runs[0] == runs[1]
    # phase a simulated its barrier, phase b did not
    warm = scaling4096.run(scale="quick", save=False)
    assert warm["times"] == runs[0][0]
    assert warm["events"]["bcast"] < runs[0][1]["bcast"]
    assert warm["events"]["allreduce"] == runs[0][1]["allreduce"]


def test_unknown_scale_is_an_error_not_the_paper_geometry():
    with pytest.raises(ValueError, match="quick.*small.*medium.*paper"):
        scaling4096.run(scale="smal", save=False)
