"""The differential battery: the fused message lifecycle against the staged one.

On a quiet engine the runtime retires the envelope arrival and the data
latency of every message in one ``Arrivals`` event and lands zero-byte
payloads inside it (DESIGN.md section 4o).  The staged five-event
pipeline is what every loud run still uses, so it is the reference:
``_identity`` installed as the engine's overhead hook makes a run loud
while leaving every duration it is shown untouched.  Each case runs
twice, staged and fused, and must agree bit for bit on what every rank
saw and when.

Sensitivity is shown at the bottom: six planted mutants, each caught
by a case of this battery.
"""

from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import HanModule
from repro.core.config import HanConfig
from repro.faults import FaultPlan, MessageJitter
from repro.faults.machine import FaultyMachineSpec
from repro.hardware import gpu_pod, shaheen2
from repro.modules import make_module
from repro.mpi import ANY_SOURCE, ANY_TAG, MPIRuntime
from repro.mpi import matching
from repro.mpi.matching import Arrivals, Channel, Transit
from repro.obs import ObsRecorder
from repro.sim.engine import Sleep
from repro.tenancy import TenantScheduler, TenantWorkload, TrafficPlan

KiB, MiB = 1024, 1024 * 1024


def _identity(kind, who, duration):
    return duration


# -- running one case both ways -------------------------------------------------


def _same(a, b) -> bool:
    """Bit equality through the containers programs return."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return (
            isinstance(a, np.ndarray) and isinstance(b, np.ndarray)
            and a.dtype == b.dtype and a.shape == b.shape
            and a.tobytes() == b.tobytes()
        )
    if isinstance(a, (list, tuple)):
        return (
            type(a) is type(b) and len(a) == len(b)
            and all(_same(x, y) for x, y in zip(a, b))
        )
    return type(a) is type(b) and a == b


def _run(machine, program, staged: bool, traffic=None):
    runtime = MPIRuntime(machine)
    if staged:
        runtime.engine.overhead_hook = _identity
    if traffic is not None:
        results = TenantScheduler(runtime, traffic).run(program)
    else:
        results = runtime.run(program)
    return results, runtime


def differential(machine, program, traffic=None):
    """Run ``program`` staged and fused; returns what the two disagree
    on (empty when they are the same run)."""
    want, staged = _run(machine, program, True, traffic)
    got, fused = _run(machine, program, False, traffic)
    s, f = staged.message_stats(), fused.message_stats()
    assert s["fused"] == 0 and f["staged"] == 0, (s, f)
    diffs = []
    if staged.engine.now != fused.engine.now:
        diffs.append(f"engine.now {staged.engine.now!r} != {fused.engine.now!r}")
    if s["messages"] != f["messages"]:
        diffs.append(f"messages {s['messages']} != {f['messages']}")
    for rank, (w, g) in enumerate(zip(want, got)):
        if not _same(w, g):
            diffs.append(f"rank {rank}: staged {w!r} != fused {g!r}")
    if f["messages"] and fused.engine.events > staged.engine.events:
        diffs.append("the fused run retired more events")
    return diffs


# -- every collective, every protocol, three machines, with and without tenants --

MACHINES = {
    "shaheen2-2x2": (lambda: shaheen2(num_nodes=2, ppn=2), HanConfig(fs=64 * KiB)),
    "shaheen2-8x4": (lambda: shaheen2(num_nodes=8, ppn=4), HanConfig(fs=512 * KiB)),
    "gpu_pod": (
        lambda: gpu_pod(num_nodes=2, ppn=8),
        HanConfig(fs=512 * KiB, smod="gpu"),
    ),
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
TRAFFIC = TrafficPlan(seed=11).add(
    TenantWorkload(
        name="bg", coll="allreduce", pattern="sweep",
        sizes=(8, 4 * KiB, 256 * KiB), gap=2e-6, jitter=0.5,
    )
)


def _collective_program(module, coll, nbytes):
    """``program(comm)`` -> (completion instant, what the rank received).

    Payloads ride along wherever they are cheap: up to 16 ranks."""

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
        return comm.now, out

    return program


def _cases():
    for mname in MACHINES:
        for module, colls in (("han", COLLS), *P2P_MODULES.items()):
            for coll in colls:
                sizes = (0,) if coll == "barrier" else SIZES
                for nbytes in sizes:
                    yield mname, module, coll, nbytes


@pytest.mark.parametrize("traffic", [None, TRAFFIC], ids=["quiet", "tenant"])
@pytest.mark.parametrize(
    "mname,module,coll,nbytes", list(_cases()),
    ids=lambda v: str(v),
)
def test_collectives_fused_equals_staged(mname, module, coll, nbytes, traffic):
    make, config = MACHINES[mname]
    mod = HanModule(config=config) if module == "han" else make_module(module)
    diffs = differential(
        make(), _collective_program(mod, coll, nbytes), traffic
    )
    assert not diffs, "\n".join(diffs)


# -- random point-to-point programs ----------------------------------------------
#
# Rounds of non-blocking traffic.  Every rank posts its sends and its
# receives of a round in a drawn order, with drawn pauses in between,
# then drains them in a drawn style.  The pauses are sums of the
# machine's own overheads and latencies, added the way the engine adds
# them, so a rank is regularly resumed in the very instant a message
# reaches it -- before the arrival, behind it, or at a different rank.

P2P_SIZES = (0, 0, 512, 8 * KiB + 8, 64 * KiB)
RECV_MODES = ("exact", "any_source", "any")


def _atoms(machine):
    """The durations simulated time is made of on ``machine``."""
    probe = MPIRuntime(machine)
    ppn = machine.ppn
    out = {probe.profile.o_send, probe.fabric.control_latency(0, 1)}
    if machine.num_nodes > 1:
        out.add(probe.fabric.control_latency(0, ppn))
    return sorted(out)


P2P_MACHINES = {
    "2x2": shaheen2(num_nodes=2, ppn=2),
    "1x4": shaheen2(num_nodes=1, ppn=4),
}
P2P_ATOMS = {name: _atoms(m) for name, m in P2P_MACHINES.items()}


@st.composite
def p2p_programs(draw):
    mname = draw(st.sampled_from(sorted(P2P_MACHINES)))
    nranks = P2P_MACHINES[mname].num_ranks
    atoms = P2P_ATOMS[mname]
    sync = draw(st.booleans())
    pause = st.one_of(
        st.none(),
        st.tuples(
            st.sampled_from(("sleep", "compute")),
            st.lists(st.sampled_from(atoms), min_size=1, max_size=3),
        ),
    )
    rounds = []
    for rnd in range(draw(st.integers(1, 3))):
        msgs = draw(st.lists(
            st.tuples(
                st.integers(0, nranks - 1), st.integers(0, nranks - 1),
                st.integers(0, 1), st.sampled_from(P2P_SIZES),
            ).filter(lambda m: m[0] != m[1]),
            min_size=1, max_size=8,
        ))
        per_rank = []
        for rank in range(nranks):
            mode = draw(st.sampled_from(RECV_MODES))
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
            ops = draw(st.permutations(ops))
            ops = [(draw(pause), op) for op in ops]
            drain = draw(st.sampled_from(("waitall", "waitany", "in_order")))
            per_rank.append((ops, drain))
        rounds.append(per_rank)
    return mname, sync, rounds


def _p2p_program(sync, rounds):
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


@settings(max_examples=120, deadline=None)
@given(case=p2p_programs())
def test_random_p2p_programs_fused_equals_staged(case):
    mname, sync, rounds = case
    diffs = differential(P2P_MACHINES[mname], _p2p_program(sync, rounds))
    assert not diffs, "\n".join(diffs)


# -- crafted same-instant cases ----------------------------------------------------

ONE_NODE = P2P_MACHINES["1x4"]
O_SEND = MPIRuntime(ONE_NODE).profile.o_send
LATENCY = MPIRuntime(ONE_NODE).fabric.control_latency(0, 1)


def _resumed_behind_the_arrival(comm):
    """Rank 1 wakes in the instant rank 0's zero-byte message arrives,
    from a cell scheduled *behind* the arrival, and sends at once: its
    send overhead must queue ahead of the message's receive overhead,
    as it does when the landing is an event of its own."""
    if comm.rank == 0:
        yield from comm.send(1, nbytes=0, tag=0)
    elif comm.rank == 1:
        recv = comm.irecv(0, 0)
        yield Sleep(O_SEND)   # wakes right behind rank 0's send overhead
        yield Sleep(LATENCY)  # ... so this lands right behind the arrival
        send = comm.isend(2, nbytes=0, tag=1)
        yield from comm.wait(send)
        sent_at = comm.now
        yield from comm.wait(recv)
        return sent_at, comm.now
    elif comm.rank == 2:
        yield from comm.recv(1, 1)
    return comm.now


def _same_instant_arrivals(comm):
    """Three zero-byte messages reach rank 0 in one instant; wildcard
    receives must see them in send order."""
    if comm.rank == 0:
        reqs = [comm.irecv(ANY_SOURCE, ANY_TAG) for _ in range(3)]
        msgs = yield from comm.waitall(reqs)
        return comm.now, [(m.source, m.tag) for m in msgs]
    yield from comm.send(0, nbytes=0, tag=comm.rank)
    return comm.now


def _eager_ring(comm):
    """One eager, data-bearing hop around the ring."""
    msg = yield from comm.sendrecv(
        (comm.rank + 1) % comm.size, (comm.rank - 1) % comm.size,
        payload=np.full(64, comm.rank, dtype=np.float64),
    )
    return comm.now, msg.payload


@pytest.mark.parametrize(
    "program",
    [_resumed_behind_the_arrival, _same_instant_arrivals, _eager_ring],
)
def test_crafted_cases_fused_equals_staged(program):
    assert differential(ONE_NODE, program) == []


def test_hold_back_restores_send_order():
    assert _hold_back_order() == [0, 1, 2, 3]


def _hold_back_order():
    """Feed one channel its envelopes out of order; the order they reach
    the matcher in.  (No run produces this today -- envelopes of one
    channel share a latency and a FIFO sender -- which is why the
    hold-back needs a case of its own.)"""
    runtime = MPIRuntime(ONE_NODE)
    comm = runtime.world_view(0)
    channel = runtime._channel(comm, 0, 1)
    msgs = [
        Transit(channel, 0, 0.0, None, True, 0.0, None, -1) for _ in range(4)
    ]
    for k in (1, 0, 3, 2):
        channel.deliver_in_order(msgs[k])
    # no receive is posted: the unexpected queue is the delivery order
    return [msg.seq for msg in channel.matcher.unexpected]


# -- the choice between the two paths -----------------------------------------------


def _barrier_then_bcast(comm):
    yield from comm.barrier()
    out = yield from make_module("tuned").bcast(
        comm, 1 * KiB, payload=np.arange(128.0) if comm.rank == 0 else None
    )
    return comm.now, out


#: what a message's stages are scheduled as (the staged pipeline hands
#: the payload to the solver in an event of its own)
_STAGES = ("Transit.", "Arrivals.", "FluidSolver.start_flow")


def _lifecycle_events(runtime) -> list:
    """Spy on the engine: one entry per event scheduled for a stage of a
    message's lifecycle (the solver's and the processes' own events are
    not the messages')."""
    engine = runtime.engine
    seen = []

    def spy(schedule):
        def spied(when, fn, priority=0):
            name = getattr(fn, "func", fn).__qualname__
            if name.startswith(_STAGES):
                seen.append(name)
            return schedule(when, fn, priority)
        return spied

    engine.schedule = spy(engine.schedule)
    engine.schedule_at = spy(engine.schedule_at)
    return seen


def test_quiet_run_fuses_every_message_and_stays_within_the_event_budget():
    machine = shaheen2(num_nodes=8, ppn=4)

    def events_and_messages(program, staged=False):
        runtime = MPIRuntime(machine)
        if staged:
            runtime.engine.overhead_hook = _identity
        events = _lifecycle_events(runtime)
        runtime.run(program)
        stats = runtime.message_stats()
        assert all(type(v) is int for v in stats.values())
        assert stats["staged" if staged else "fused"] == stats["messages"] > 0
        assert stats["fused" if staged else "staged"] == 0
        return len(events), stats["messages"]

    def barrier(comm):
        yield from comm.barrier()

    def bcast(comm):
        yield from make_module("tuned").bcast(comm, 1 * KiB)

    assert events_and_messages(barrier, staged=True) == (5 * 160, 160)
    events, messages = events_and_messages(barrier)
    assert messages == 160 and events <= 3 * messages
    assert events_and_messages(bcast, staged=True) == (5 * 31, 31)
    events, messages = events_and_messages(bcast)
    assert messages == 31 and events <= 4 * messages


def test_fault_plan_and_recorder_runs_stay_staged():
    quiet = MPIRuntime(ONE_NODE)
    want = quiet.run(_barrier_then_bcast)

    plan = FaultPlan(seed=3).add(MessageJitter(amplitude=1e-7))
    faulty = MPIRuntime(FaultyMachineSpec.wrap(ONE_NODE, plan))
    faulty.run(_barrier_then_bcast)
    stats = faulty.message_stats()
    assert stats["fused"] == 0 and stats["staged"] == stats["messages"] > 0

    traced = MPIRuntime(ONE_NODE)
    with ObsRecorder(traced.engine):
        got = traced.run(_barrier_then_bcast)
    stats = traced.message_stats()
    assert stats["fused"] == 0 and stats["staged"] == stats["messages"] > 0
    assert _same(got, want)  # the recorder never moves a time
    assert traced.engine.events > quiet.engine.events


def test_finished_runtime_is_not_cyclic_garbage():
    """Channels reach the engine and the fabric through ``Wire``, never
    through the runtime that registers them: a tuning sweep builds one
    runtime per measurement and leaves freeing them to the refcount."""
    runtime = MPIRuntime(ONE_NODE)
    runtime.run(_barrier_then_bcast)
    ref = weakref.ref(runtime)
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        del runtime
        assert ref() is None
    finally:
        if was_enabled:
            gc.enable()


# -- planted mutants ------------------------------------------------------------------


def _jittered_run():
    plan = FaultPlan(seed=3).add(MessageJitter(amplitude=1e-6))
    runtime = MPIRuntime(FaultyMachineSpec.wrap(ONE_NODE, plan))
    return runtime.run(_barrier_then_bcast)


def _plant_lands_behind_nothing(monkeypatch):
    """Land zero-byte payloads inside the arrival event even when other
    cells of the instant come first."""
    fire = Arrivals.fire

    def mutant(self):
        engine = self.wire.engine
        engine.is_last = lambda when, token: True
        try:
            fire(self)
        finally:
            del engine.is_last

    monkeypatch.setattr(Arrivals, "fire", mutant)


def _plant_fuses_under_a_hook(monkeypatch):
    """Take the fused path although a (non-identity) hook is installed."""
    sent = Transit.sent

    def mutant(self):
        engine = self.ch.wire.engine
        hook, engine.overhead_hook = engine.overhead_hook, None
        try:
            sent(self)
        finally:
            engine.overhead_hook = hook

    monkeypatch.setattr(Transit, "sent", mutant)


def _plant_skips_the_recv_overhead(monkeypatch):
    """Complete the receive of a zero-byte message inside the arrival
    event, before its receive overhead is paid."""

    def mutant(msgs):
        for msg in msgs:
            msg.arrived = True
            if msg.recv_req is not None:
                msg.received()

    monkeypatch.setattr(Arrivals, "land", staticmethod(mutant))


def _plant_arrives_in_reverse(monkeypatch):
    """Retire the messages of one arrival event newest first."""
    fire = Arrivals.fire

    def mutant(self):
        self.msgs.reverse()
        fire(self)

    monkeypatch.setattr(Arrivals, "fire", mutant)


def _plant_drops_the_hold_back(monkeypatch):
    """Hand every envelope to the matcher the moment it arrives."""
    monkeypatch.setattr(
        Channel, "deliver_in_order",
        lambda self, msg: self.matcher.deliver(msg),
    )


def _plant_treats_payloads_as_instant(monkeypatch):
    """Land data-bearing eager payloads without their fluid flow."""
    monkeypatch.setattr(matching, "EPS_BYTES", float("inf"))


MUTANTS = {
    "lands-behind-nothing": (
        _plant_lands_behind_nothing,
        lambda: differential(ONE_NODE, _resumed_behind_the_arrival),
    ),
    "fuses-under-a-hook": (_plant_fuses_under_a_hook, _jittered_run),
    "skips-the-recv-overhead": (
        _plant_skips_the_recv_overhead,
        lambda: differential(ONE_NODE, _same_instant_arrivals),
    ),
    "arrives-in-reverse": (
        _plant_arrives_in_reverse,
        lambda: differential(ONE_NODE, _same_instant_arrivals),
    ),
    "drops-the-hold-back": (_plant_drops_the_hold_back, _hold_back_order),
    "treats-payloads-as-instant": (
        _plant_treats_payloads_as_instant,
        lambda: differential(ONE_NODE, _eager_ring),
    ),
}


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_planted_mutant_is_caught(name, monkeypatch):
    plant, case = MUTANTS[name]
    clean = case()
    assert _same(clean, case())  # the case itself is deterministic
    plant(monkeypatch)
    assert not _same(clean, case()), f"mutant {name} went unnoticed"
