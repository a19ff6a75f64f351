"""Pin the point-to-point message lifecycle, quiet and loud, bit for bit.

Every case runs one program on a fresh runtime in one of the run modes
of ``tests/locks.py``: quiet, tenant (a background HAN allreduce sweep),
an identity hook, seeded ``OsNoise``, seeded ``MessageJitter``, a hook
that halves every ``net_latency`` (so an eager payload lands before its
envelope) and ``obs`` (an ``ObsRecorder``, whose records the case pins
as ``obs_digest``).  The programs are

- every collective of HAN and of the ``tuned`` / ``libnbc`` / ``adapt``
  point-to-point modules x {0 B, 1 KiB eager, 8 KiB + 256 B just over
  the eager limit, 1 MiB} on shaheen2 2x2, shaheen2 8x4 and gpu_pod 2x8
  (the barrier at 0 B only);
- four crafted same-instant programs on one 4-rank node;
- a fixed corpus of seeded random point-to-point programs: rounds of
  non-blocking sends and receives (wildcard source and tag included)
  posted in a drawn order, with pauses built from the machine's own
  overheads and latencies, drained by ``waitall``, ``waitany`` or in
  order, optionally ending in a barrier.

Each case records every rank's exit instant and the order in which
the ranks leave, a digest of what each rank returned (received
payloads and completion instants), ``engine.now``, ``engine.events``,
the number of messages issued and each rank's progress-server ``jobs``
and ``busy_time``.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest

from tests import locks

KiB, MiB = 1024, 1024 * 1024
MODES = ("quiet", "tenant", "hook", "noise", "jitter", "shrink", "obs")

#: machine name -> (nodes, ppn, preset, HAN config keywords)
MACHINES = {
    "shaheen2-2x2": (2, 2, "shaheen2", {"fs": 64 * KiB}),
    "shaheen2-8x4": (8, 4, "shaheen2", {"fs": 512 * KiB}),
    "gpu_pod": (2, 8, "gpu_pod", {"fs": 512 * KiB, "smod": "gpu"}),
}
#: zero-byte, eager, just above openmpi's 8 KiB eager limit, rendezvous
SIZES = (0, 1 * KiB, 8 * KiB + 256, 1 * MiB)
COLLS = (
    "bcast", "reduce", "allreduce", "gather", "scatter", "allgather",
    "reduce_scatter", "alltoall", "barrier",
)
P2P_MODULES = {
    "tuned": COLLS,
    "libnbc": ("bcast", "reduce", "barrier"),
    "adapt": ("bcast", "reduce"),
}
CRAFTED = (
    "resumed_behind_the_arrival", "same_instant_arrivals", "eager_ring",
    "barrier_then_bcast",
)
#: seeded random point-to-point programs in the corpus
CORPUS = 40
P2P_MACHINES = {"2x2": (2, 2), "1x4": (1, 4)}
P2P_SIZES = (0, 0, 512, 8 * KiB + 8, 64 * KiB)
RECV_MODES = ("exact", "any_source", "any")


def machine_of(name: str):
    """The preset machine a case key names."""
    from repro.hardware import gpu_pod, shaheen2

    if name in P2P_MACHINES:
        nodes, ppn = P2P_MACHINES[name]
        return shaheen2(num_nodes=nodes, ppn=ppn)
    nodes, ppn, preset, _ = MACHINES[name]
    return {"shaheen2": shaheen2, "gpu_pod": gpu_pod}[preset](
        num_nodes=nodes, ppn=ppn
    )


def cases() -> list[str]:
    """Every case key: ``mode/coll/<machine>/<module>/<coll>/<nbytes>``,
    ``mode/crafted/<name>`` or ``mode/p2p/<seed>``."""
    keys = []
    for mode in MODES:
        for mname in MACHINES:
            for module, colls in (("han", COLLS), *P2P_MODULES.items()):
                for coll in colls:
                    for nbytes in (0,) if coll == "barrier" else SIZES:
                        keys.append(
                            f"{mode}/coll/{mname}/{module}/{coll}/{nbytes}"
                        )
        keys += [f"{mode}/crafted/{name}" for name in CRAFTED]
        keys += [f"{mode}/p2p/{seed}" for seed in range(CORPUS)]
    return keys


# -- collective programs -------------------------------------------------------------


def collective_program(module, coll, nbytes):
    """``program(comm)`` -> what the rank received (payloads ride along
    wherever they are cheap: up to 16 ranks)."""

    def program(comm):
        size = comm.size
        data = None
        if nbytes and size <= 16:
            rng = np.random.default_rng([nbytes, comm.rank])
            data = rng.integers(-50, 50, nbytes // 8).astype(np.float64)
        op = getattr(module, coll)
        if coll == "barrier":
            out = yield from op(comm)
        elif coll in ("bcast", "scatter"):
            out = yield from op(
                comm, nbytes, root=0,
                payload=data if comm.rank == 0 else None,
            )
        elif coll in ("reduce", "gather"):
            out = yield from op(comm, nbytes, root=0, payload=data)
        elif coll == "alltoall":
            out = yield from op(comm, nbytes / size, payload=data)
        else:
            out = yield from op(comm, nbytes, payload=data)
        return out

    return program


# -- crafted same-instant programs (one shaheen2 node of 4 ranks) ------------------------


@functools.cache
def _one_node_atoms():
    from repro.mpi import MPIRuntime

    probe = MPIRuntime(machine_of("1x4"))
    return probe.profile.o_send, probe.fabric.control_latency(0, 1)


def resumed_behind_the_arrival(comm):
    """Rank 1 wakes in the instant rank 0's zero-byte message arrives,
    from a cell scheduled *behind* the arrival, and sends at once: its
    send overhead must queue ahead of the message's receive overhead,
    as it does when the landing is an event of its own."""
    from repro.sim.engine import Sleep

    o_send, latency = _one_node_atoms()
    if comm.rank == 0:
        yield from comm.send(1, nbytes=0, tag=0)
    elif comm.rank == 1:
        recv = comm.irecv(0, 0)
        yield Sleep(o_send)   # wakes right behind rank 0's send overhead
        yield Sleep(latency)  # ... so this lands right behind the arrival
        send = comm.isend(2, nbytes=0, tag=1)
        yield from comm.wait(send)
        sent_at = comm.now
        yield from comm.wait(recv)
        return sent_at, comm.now
    elif comm.rank == 2:
        yield from comm.recv(1, 1)
    return comm.now


def same_instant_arrivals(comm):
    """Three zero-byte messages reach rank 0 in one instant; wildcard
    receives must see them in send order."""
    from repro.mpi import ANY_SOURCE, ANY_TAG

    if comm.rank == 0:
        reqs = [comm.irecv(ANY_SOURCE, ANY_TAG) for _ in range(3)]
        msgs = yield from comm.waitall(reqs)
        return comm.now, [(m.source, m.tag) for m in msgs]
    yield from comm.send(0, nbytes=0, tag=comm.rank)
    return comm.now


def eager_ring(comm):
    """One eager, data-bearing hop around the ring."""
    msg = yield from comm.sendrecv(
        (comm.rank + 1) % comm.size, (comm.rank - 1) % comm.size,
        payload=np.full(64, comm.rank, dtype=np.float64),
    )
    return comm.now, msg.payload


def barrier_then_bcast(comm):
    """The built-in barrier, then an eager ``tuned`` bcast with data."""
    from repro.modules import make_module

    yield from comm.barrier()
    out = yield from make_module("tuned").bcast(
        comm, 1 * KiB, payload=np.arange(128.0) if comm.rank == 0 else None
    )
    return comm.now, out


# -- the random point-to-point corpus ------------------------------------------------------


def p2p_atoms(machine):
    """The durations simulated time is made of on ``machine``."""
    from repro.mpi import MPIRuntime

    probe = MPIRuntime(machine)
    out = {probe.profile.o_send, probe.fabric.control_latency(0, 1)}
    if machine.num_nodes > 1:
        out.add(probe.fabric.control_latency(0, machine.ppn))
    return sorted(out)


def p2p_case(seed: int):
    """``(machine name, sync, rounds)`` of corpus program ``seed``: the
    shape ``p2p_program`` runs (see the module docstring)."""
    from repro.mpi import ANY_SOURCE, ANY_TAG

    rng = np.random.default_rng([2026, seed])
    mname = sorted(P2P_MACHINES)[rng.integers(2)]
    machine = machine_of(mname)
    nranks = machine.num_ranks
    atoms = p2p_atoms(machine)
    sync = bool(rng.integers(2))

    def pause():
        if rng.integers(2):
            return None
        kind = ("sleep", "compute")[rng.integers(2)]
        return kind, [atoms[i] for i in rng.integers(len(atoms),
                                                     size=rng.integers(1, 4))]

    rounds = []
    for rnd in range(rng.integers(1, 4)):
        msgs = []
        for _ in range(rng.integers(1, 9)):
            src, dst = (int(r) for r in rng.choice(nranks, 2, replace=False))
            tag = int(rng.integers(2))
            msgs.append((src, dst, tag, P2P_SIZES[rng.integers(len(P2P_SIZES))]))
        per_rank = []
        for rank in range(nranks):
            mode = RECV_MODES[rng.integers(3)]
            if mode == "any" and not sync:
                mode = "any_source"  # would reach into the next round
            ops = []
            for k, (src, dst, tag, size) in enumerate(msgs):
                tag += 2 * rnd
                if src == rank:
                    ops.append(("send", dst, tag, size, (rnd, k)))
                if dst == rank:
                    ops.append((
                        "recv",
                        src if mode == "exact" else ANY_SOURCE,
                        ANY_TAG if mode == "any" else tag,
                    ))
            ops = [(pause(), ops[i]) for i in rng.permutation(len(ops))]
            drain = ("waitall", "waitany", "in_order")[rng.integers(3)]
            per_rank.append((ops, drain))
        rounds.append(per_rank)
    return mname, sync, rounds


def p2p_program(sync, rounds):
    """``program(comm)`` running one random point-to-point program; it
    returns the rank's log of completion instants and received
    messages."""
    from repro.sim.engine import Sleep

    def seen(value):
        if value is None:  # a send
            return None
        return (value.source, value.tag, value.nbytes, value.payload)

    def program(comm):
        log = []
        for per_rank in rounds:
            ops, drain = per_rank[comm.rank]
            reqs = []
            for pause, op in ops:
                if pause is not None:
                    for atom in pause[1]:
                        if pause[0] == "sleep":
                            yield Sleep(atom)
                        else:
                            yield from comm.compute(atom)
                if op[0] == "send":
                    _, dst, tag, size, mark = op
                    reqs.append(
                        comm.isend(dst, payload=mark, nbytes=size, tag=tag)
                    )
                else:
                    reqs.append(comm.irecv(op[1], op[2]))
            if drain == "waitall":
                values = yield from comm.waitall(reqs)
                log.append((comm.now, [seen(v) for v in values]))
            elif drain == "in_order":
                for req in reqs:
                    value = yield from comm.wait(req)
                    log.append((comm.now, seen(value)))
            else:
                left = list(range(len(reqs)))
                while left:
                    i, value = yield from comm.waitany(
                        [reqs[k] for k in left]
                    )
                    log.append((comm.now, left.pop(i), seen(value)))
            if sync:
                yield from comm.barrier()
        return log

    return program


def program_of(key: str):
    """``(machine, program(comm))`` of a case key's program part."""
    from repro.core import HanModule
    from repro.core.config import HanConfig
    from repro.modules import make_module

    kind, *rest = key.split("/")
    if kind == "coll":
        mname, module, coll, nbytes = rest
        config = HanConfig(**MACHINES[mname][3])
        mod = (HanModule(config=config) if module == "han"
               else make_module(module))
        return machine_of(mname), collective_program(mod, coll, int(nbytes))
    if kind == "crafted":
        return machine_of("1x4"), globals()[rest[0]]
    mname, sync, rounds = p2p_case(int(rest[0]))
    return machine_of(mname), p2p_program(sync, rounds)


def run_case(key: str) -> dict:
    """What one case pins (see the module docstring)."""
    mode, rest = key.split("/", 1)
    machine, program = program_of(rest)
    order = []

    def prog(comm):
        out = yield from program(comm)
        order.append(comm.rank)
        return comm.now, out

    results, runtime, rec = locks.run(machine, prog, mode=locks.MODES[mode])
    progress = runtime.fabric.progress
    out = {
        "now": runtime.engine.now,
        "events": runtime.engine.events,
        "messages": runtime.message_stats()["messages"],
        "exits": [now for now, _ in results],
        "order": order,
        "results": locks.digest([result for _, result in results]),
        "jobs": [p.jobs for p in progress],
        "busy": [p.busy_time for p in progress],
    }
    if rec is not None:
        out["obs"] = locks.obs_digest(rec)
    return out


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("group", ["coll/shaheen2-2x2", "coll/shaheen2-8x4",
                                   "coll/gpu_pod", "crafted", "p2p"])
def test_lifecycle_is_pinned(mode, group):
    locks.check("lifecycle", f"{mode}/{group}/")
