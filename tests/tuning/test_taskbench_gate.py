"""TaskBench on the shared start gate: replay == simulated barrier, bit for bit.

The five task programs enter their start barrier through
``repro.tuning.measure.StartGate`` -- the same gate ``_run_once`` uses
(pinned by ``test_barrier_replay.py``).  These tests pin that a task
benchmark cannot tell a replayed start from a simulated one on any
field of its cost bundle, that only quiet runs and only single-instant
schedules take part, and that ``clear_fill_memo()`` is the cold start.
"""

import itertools

import pytest

from repro.core.config import HanConfig
from repro.faults import FaultPlan, FaultyMachineSpec, OsNoise
from repro.hardware import (
    gpu_pod,
    shaheen2,
    small_cluster,
    stampede2,
    tiny_cluster,
)
from repro.mpi.runtime import MPIRuntime
from repro.obs import ObsRecorder
from repro.sim.engine import Engine
from repro.sim.fluid import clear_fill_memo
from repro.tuning import Autotuner, SearchSpace, TaskBench, measure_collective
from repro.tuning import measure as measure_mod
from repro.tuning import taskbench as taskbench_mod
from repro.tuning.measure import StartGate
from repro.tuning.taskbench import costs_to_doc

KiB = 1024

MACHINES = {
    "multi_node": shaheen2(num_nodes=4, ppn=4),
    "single_node": small_cluster(num_nodes=1, ppn=8),
    "ppn1": tiny_cluster(num_nodes=4, ppn=1),
    "non_pow2": stampede2(num_nodes=3, ppn=3),
    "fabric_islands": gpu_pod(num_nodes=2, ppn=8),
}
COLLS = ("bcast", "allreduce", "reduce")
SEGS = (2 * KiB, 64 * KiB, 512 * KiB)  # eager, rendezvous, inner-segmented
CONFIGS = (
    HanConfig(),
    HanConfig(smod="solo"),
    HanConfig(imod="adapt", ibalg="chain", iralg="chain"),
    HanConfig(imod="adapt", smod="solo", ibalg="binary", iralg="binary",
              ibs=32 * KiB, irs=32 * KiB),
    HanConfig(imod="adapt", ibalg="binomial", iralg="binomial", ibs=128 * KiB),
)
#: an unrelated point records the schedules every case then replays
RECORDER = (HanConfig(imod="adapt", ibalg="binary", iralg="chain"), 8 * KiB, 3)


def cases(name):
    configs = CONFIGS
    if name == "fabric_islands":  # the device transport over split NVLink
        configs += (HanConfig(smod="gpu"),)
    return list(itertools.product(COLLS, configs, SEGS, (2, 5)))


@pytest.fixture(autouse=True)
def cold_start():
    clear_fill_memo()
    yield
    clear_fill_memo()


def benched(machine, coll="bcast", config=CONFIGS[0], seg=64 * KiB, warm=3,
            **kw):
    """(every number the bench produced, engine events it executed)."""
    ev0 = Engine.events_total
    bench = TaskBench(machine, warm_iters=warm, **kw)
    costs = getattr(bench, f"bench_{coll}_tasks")(config, seg)
    return (costs_to_doc(costs), bench.total_cost), Engine.events_total - ev0


def distinct_instants(exits):
    return len({when for _rank, when in exits})


# -- replay == real barrier ------------------------------------------------------


@pytest.mark.parametrize("name", MACHINES)
def test_replay_is_bit_identical_to_the_simulated_barrier(name):
    machine, todo = MACHINES[name], cases(name)
    rec_cfg, rec_seg, rec_warm = RECORDER
    benched(machine, "bcast", rec_cfg, rec_seg, rec_warm)
    # the node-level barrier, plus _sb_alone's on the one-node machine;
    # one-rank node communicators have no barrier to record
    assert len(measure_mod._BARRIER_EXITS) == (0 if machine.ppn == 1 else 2)
    for exits in measure_mod._BARRIER_EXITS.values():
        assert distinct_instants(exits) == 1
    replayed = [benched(machine, *case) for case in todo]
    for case, (got, got_events) in zip(todo, replayed):
        clear_fill_memo()
        want, want_events = benched(machine, *case)
        assert got == want, (name, case)
        # ...and the replay really was one: the barrier's messages are gone
        if machine.ppn == 1:
            assert got_events == want_events, (name, case)
        else:
            assert got_events < want_events, (name, case)


def test_sb_alone_shares_its_schedule_with_measure_collective():
    # the world barrier of the one-node machine is one key for both harnesses
    machine = MACHINES["multi_node"]
    one_node = machine.scaled(num_nodes=1)
    cold, cold_events = benched(machine)
    clear_fill_memo()
    measure_collective(one_node, "bcast", 8 * KiB, HanConfig())
    assert len(measure_mod._BARRIER_EXITS) == 1
    _, events = benched(machine)
    assert len(measure_mod._BARRIER_EXITS) == 2  # only "low" was new
    _, warm_events = benched(machine)
    # recorded by measure_collective -> _sb_alone replayed on first use
    assert warm_events < events < cold_events
    assert benched(machine)[0] == cold


def test_task_sweep_serial_equals_pool_with_replay_active():
    space = SearchSpace(
        seg_sizes=(64 * KiB, 256 * KiB),
        messages=(256 * KiB, 1024 * KiB),
        adapt_algorithms=("chain", "binary"),
        inner_segs=(None,),
    )

    def tune(**kw):
        return Autotuner(
            tiny_cluster(num_nodes=2, ppn=4), space=space, warm_iters=4, **kw
        ).tune(colls=("bcast", "allreduce", "reduce"), method="task")

    cold = tune()  # the first point records, the rest replay
    warm = tune()  # every point replays
    pooled = tune(workers=2)  # forked workers inherit and replay
    clear_fill_memo()
    pooled_cold = tune(workers=2)  # each worker records its own first
    for other in (warm, pooled, pooled_cold):
        assert other.candidates == cold.candidates
        assert other.table.entries == cold.table.entries
        assert other.tuning_cost == cold.tuning_cost
        assert other.searches == cold.searches


# -- the single-instant rule -----------------------------------------------------


def _gate_run(machine, **gate_kw):
    """One bare gated start on the world communicator; events it took."""
    runtime = MPIRuntime(machine)
    gate = StartGate(runtime, "world", **gate_kw)

    def prog(comm):
        yield from gate.wait(comm)
        return comm.now

    ev0 = Engine.events_total
    exits = runtime.run(prog)
    return exits, Engine.events_total - ev0


def test_multi_instant_schedule_is_neither_stored_nor_replayed_in_lockstep():
    machine = MACHINES["multi_node"]  # its world barrier lets ranks go in waves
    want, simulated = _gate_run(machine, lockstep=True)
    assert len(set(want)) > 1
    assert not measure_mod._BARRIER_EXITS  # not stored...
    assert _gate_run(machine, lockstep=True) == (want, simulated)
    # ...but measure_collective's gate stores and replays it (its ranks
    # go into blocking splits, see StartGate)
    assert _gate_run(machine) == (want, simulated)
    (exits,) = measure_mod._BARRIER_EXITS.values()
    assert distinct_instants(exits) == len(set(want))
    got, replayed = _gate_run(machine)
    assert got == want and replayed < simulated
    # a lockstep caller finding that schedule leaves it alone and simulates
    assert _gate_run(machine, lockstep=True) == (want, simulated)
    assert list(measure_mod._BARRIER_EXITS.values()) == [exits]


def test_one_rank_communicators_are_never_recorded():
    assert _gate_run(tiny_cluster(num_nodes=1, ppn=1)) == ([0.0], 1)
    benched(MACHINES["ppn1"], "allreduce")
    assert not measure_mod._BARRIER_EXITS


# -- eligibility ------------------------------------------------------------------


class _HookedRuntime(MPIRuntime):
    """A runtime that comes up with an (identity) overhead hook installed."""

    def __init__(self, machine, profile=None):
        super().__init__(machine, profile=profile)
        self.engine.overhead_hook = lambda kind, who, duration: duration


class _ObservedRuntime(MPIRuntime):
    """A runtime that comes up with an obs recorder attached."""

    def __init__(self, machine, profile=None):
        super().__init__(machine, profile=profile)
        ObsRecorder(self.engine).attach()


@pytest.mark.parametrize("how", ("fault_plan", "overhead_hook", "obs_recorder"))
@pytest.mark.parametrize("coll", COLLS)
def test_loud_benches_neither_record_nor_replay(how, coll, monkeypatch):
    machine = MACHINES["multi_node"]
    loud_machine = machine
    if how == "fault_plan":
        plan = FaultPlan(seed=3).add(OsNoise(amplitude=0.4)).for_trial(0)
        loud_machine = FaultyMachineSpec.wrap(machine, plan)

    def loud():
        with monkeypatch.context() as mp:
            if how == "overhead_hook":
                mp.setattr(taskbench_mod, "MPIRuntime", _HookedRuntime)
            elif how == "obs_recorder":
                mp.setattr(taskbench_mod, "MPIRuntime", _ObservedRuntime)
            return benched(loud_machine, coll)

    want, want_events = loud()
    assert not measure_mod._BARRIER_EXITS  # did not record
    quiet_cold, quiet_cold_events = benched(machine, coll)
    stored = len(measure_mod._BARRIER_EXITS)
    assert stored == (2 if coll == "bcast" else 1)
    got, got_events = loud()
    assert (got, got_events) == (want, want_events)  # did not replay
    assert len(measure_mod._BARRIER_EXITS) == stored
    if how != "fault_plan":
        # an identity hook and a recorder change no number, so the whole
        # bench must be the quiet one with its barriers simulated (a cold
        # quiet bcast bench already replays one: its third program
        # enters the barrier its first one recorded, so it alone retires
        # fewer events)
        assert want == quiet_cold
        assert (want_events > quiet_cold_events) == (coll == "bcast")


# -- cold start -------------------------------------------------------------------


@pytest.mark.parametrize("coll", COLLS)
def test_clear_fill_memo_is_the_cold_start(coll):
    machine = MACHINES["non_pow2"]
    cold, cold_events = benched(machine, coll)
    warm, warm_events = benched(machine, coll)
    assert warm == cold and warm_events < cold_events
    clear_fill_memo()
    assert not measure_mod._BARRIER_EXITS
    again, again_events = benched(machine, coll)
    assert (again, again_events) == (cold, cold_events)
