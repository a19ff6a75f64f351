"""The shared-memory call instances: kills, the copy order and lifetime.

Every SM, SOLO and GPU collective runs as one call instance shared by
the node's ranks (DESIGN.md section 4p); ``test_sm_call_lock`` pins
their schedules.  This file checks what a schedule lock cannot see:

- a killed rank issues no further step: a background HAN allreduce and
  bcast over SM or SOLO, killed at every instant of its run and so
  inside every collective it calls, starts no grant and no flow after
  the kill;
- a host copy starts its memory-bus flow before it asks for its CPU
  half, which an overhead hook can observe;
- a finished call leaves the shared state empty, and a finished
  runtime is freed by reference counting alone.
"""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.core import HanModule
from repro.core.config import HanConfig
from repro.hardware import gpu_cluster, shaheen2
from repro.modules import SMModule, make_module
from repro.mpi import MPIRuntime
from repro.sim.engine import Sleep

KiB, MiB = 1024, 1024 * 1024
NODE = shaheen2(num_nodes=1, ppn=4)
#: background sizes and HAN segment sizes: one segment, four
SIZES = {"64KiB": (64 * KiB, 64 * KiB), "1MiB": (1 * MiB, 256 * KiB)}
#: kill case -> (intra-node module, background size)
KILLED = {size: ("sm", size) for size in SIZES}
KILLED.update({f"solo-{size}": ("solo", size) for size in SIZES})
#: the collectives a single-node HAN allreduce and bcast call, per module
CALLED = {"sm": {"reduce", "bcast"}, "solo": {"allreduce", "bcast"}}


def _background(smod, nbytes, fs):
    han = HanModule(config=HanConfig(smod=smod, fs=fs))

    def program(comm):
        yield from comm.compute(0.1e-6 * comm.rank)
        yield from han.allreduce(comm, nbytes)
        yield from han.bcast(comm, nbytes)

    return program


def _grant_instants(smod, nbytes, fs) -> list[float]:
    """Every instant the background alone grants CPU at."""
    runtime = MPIRuntime(NODE)
    seen = set()

    def hook(kind, who, duration):
        seen.add(runtime.engine.now)
        return duration

    runtime.engine.overhead_hook = hook
    runtime.spawn_job(_background(smod, nbytes, fs), name="bg")
    runtime.engine.run()
    return sorted(seen)


def _killed_at(smod, nbytes, fs, when):
    """Kill the background at ``when``: the collectives of the calls open
    then, and the jobs and flows started by the kill and by the end of
    the run."""
    runtime = MPIRuntime(NODE)
    engine, fabric = runtime.engine, runtime.fabric
    job = runtime.spawn_job(_background(smod, nbytes, fs), name="bg")
    seen = {}

    def work():
        return (sum(p.jobs for p in fabric.progress),
                fabric.solver.total_flows)

    def killer(comm):
        yield Sleep(when)
        for proc in job:
            engine.kill(proc)
        seen["open"] = {
            state["call"].coll for state in runtime._coll_state.values()
        }
        seen["at kill"] = work()

    runtime.run(killer, ranks=1)
    return seen["open"], seen["at kill"], work()


@pytest.mark.parametrize("case", sorted(KILLED))
def test_killed_ranks_start_no_further_grant_or_flow(case):
    smod, size = KILLED[case]
    nbytes, fs = SIZES[size]
    instants = _grant_instants(smod, nbytes, fs)
    kills = instants + [(a + b) / 2 for a, b in zip(instants, instants[1:])]
    inside = set()
    for when in kills:
        open_calls, at_kill, at_end = _killed_at(smod, nbytes, fs, when)
        assert at_end == at_kill, f"killed at {when!r}: work went on"
        inside |= open_calls
    # some kills hit ranks in the middle of every collective called
    assert inside == CALLED[smod]


def test_copy_starts_its_flow_before_its_cpu_half():
    runtime = MPIRuntime(NODE)
    fabric = runtime.fabric
    copy_bw = NODE.node.copy_bw
    log = []
    membus_flow = fabric.membus_flow

    def flow(node, nbytes, on_done, copies=1, rate_cap=None):
        log.append(("flow", nbytes))
        return membus_flow(node, nbytes, on_done, copies, rate_cap)

    def hook(kind, who, duration):
        log.append(("cpu", duration))
        return duration

    fabric.membus_flow = flow
    runtime.engine.overhead_hook = hook
    sm = SMModule()

    def program(comm):
        yield from sm.allreduce(comm, 64 * KiB)

    runtime.run(program)
    copies = [i for i, entry in enumerate(log) if entry[0] == "flow"]
    # reduce: 3 writes and 3 drains; bcast: the bounce write, 3 reads
    assert len(copies) == 6 + 4
    for i in copies:
        assert log[i + 1] == ("cpu", log[i][1] / copy_bw)


def test_finished_sm_runtime_is_not_cyclic_garbage():
    """Every call instance leaves the shared state with its last rank,
    and nothing of it keeps a finished runtime alive but the refcount."""
    sm = SMModule()

    def program(comm):
        yield from comm.compute(0.1e-6 * comm.rank)
        yield from sm.allreduce(comm, 64 * KiB)
        yield from sm.gather(comm, 1 * KiB, root=2)
        yield from sm.bcast(comm, 0, root=3)

    _assert_freed(MPIRuntime(NODE), program)


@pytest.mark.parametrize("mod_name", ["solo", "gpu"])
def test_finished_runtime_is_not_cyclic_garbage(mod_name):
    """The same for every role of SOLO and GPU."""
    mod = make_module(mod_name)

    def program(comm):
        yield from comm.compute(0.1e-6 * comm.rank)
        yield from mod.allreduce(comm, 64 * KiB)
        yield from mod.reduce(comm, 64 * KiB, root=1)
        yield from mod.bcast(comm, 1 * KiB, root=3)
        yield from mod.scatter(comm, 4 * KiB, root=2)
        yield from mod.gather(comm, 1 * KiB, root=2)
        yield from mod.allgather(comm, 1 * KiB)
        yield from mod.reduce_scatter(comm, 4 * KiB)
        yield from mod.alltoall(comm, 1 * KiB)
        yield from mod.barrier(comm)

    _assert_freed(MPIRuntime(gpu_cluster(num_nodes=1, ppn=4)), program)


def _assert_freed(runtime, program):
    runtime.run(program)
    assert runtime._coll_state == {}
    ref = weakref.ref(runtime)
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        del runtime
        assert ref() is None
    finally:
        if was_enabled:
            gc.enable()

