"""The differential battery for the barrier instance.

``Communicator.barrier`` is one ``Barrier`` state machine per barrier
instance: every round keeps its engine cells (send grant, a place in an
``Arrivals`` event, the payload's landing, receive grant), its
overhead-hook calls and its obs records, but builds no request,
channel, message or resumed generator (DESIGN.md section 4o).  Every
case runs twice in one run mode of ``tests/locks.py`` -- quiet, an
identity hook, seeded ``OsNoise``, seeded ``MessageJitter``, a hook that
halves every ``net_latency``, or an ``ObsRecorder`` in ``full`` (``obs``)
or ``metrics`` mode -- once as the instance and once as the *loop*:
:func:`loop_barrier`, a ``sendrecv`` loop over ``Transit`` messages that
stands in for ``Communicator.barrier``.  The two must agree on results,
times, barrier exit order, engine events and ``message_stats``, and
under a recorder on ``obs_digest`` (records and metrics registry).
Every run is fresh: nothing here reads the harness cache.  The
parent-made reference for the loop under every hook is
``test_barrier_lock``, whose loud entries were generated while the
runtime ran the loop over the staged five-event message pipeline.

The cases mix barriers with user point-to-point traffic on the same
communicator, with sub-communicators and with tenant traffic.  Six
planted mutants at the bottom are each caught by a case.
"""

from __future__ import annotations

import dataclasses
import gc
import weakref
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardware import shaheen2
from repro.mpi import ANY_SOURCE, ANY_TAG, Communicator, MPIRuntime
from repro.mpi.constants import INTERNAL_TAG_BASE
from repro.mpi.matching import EAGER, Arrivals, Barrier, Hop, Wire
from repro.netsim.profiles import openmpi_profile
from repro.obs import ObsRecorder
from repro.sim.engine import Sleep
from tests import locks

KiB = 1024
MODES = {
    name: locks.Mode(plan=locks.jitter(seed=3)) if name == "jitter"
    else locks.MODES[name]
    for name in ("quiet", "hook", "noise", "jitter", "shrink", "obs", "metrics")
}


def loop_barrier(comm):
    """The dissemination barrier as a ``sendrecv`` loop: it consumes an
    epoch as ``barrier_replay`` does and tags its messages as the
    instance tags its rounds."""
    epoch = comm._barrier_epoch
    comm._barrier_epoch += 1
    size, rank = comm.size, comm.rank
    tag = INTERNAL_TAG_BASE + epoch % 1024
    dist = 1
    while dist < size:
        yield from comm.sendrecv(
            (rank + dist) % size, (rank - dist) % size, nbytes=0,
            send_tag=tag, recv_tag=tag,
        )
        dist *= 2


def _run(machine, program, mode, loop, traffic=None, profile=None):
    """``(per-rank results, shared log)`` of one run in run mode
    ``mode`` (a name of :data:`MODES` or a :class:`locks.Mode`) beside
    ``traffic``, its runtime and its recorder (or None); ``loop`` makes
    every barrier :func:`loop_barrier`."""
    if isinstance(mode, str):
        mode = MODES[mode]
    if traffic is not None:
        mode = dataclasses.replace(mode, traffic=traffic)
    log: list = []
    barrier = Communicator.barrier
    if loop:
        Communicator.barrier = loop_barrier
    try:
        results, runtime, rec = locks.run(machine, program, log, mode=mode,
                                          profile=profile)
    finally:
        Communicator.barrier = barrier
    return (results, log), runtime, rec


#: what the loop and the instance must agree on
OBSERVED = ("results and log", "now", "events", "message_stats", "obs_digest")


def differential(machine, program, traffic=None, profile=None,
                 mode="quiet") -> list[str]:
    """What the barrier instance disagrees with the loop on in run mode
    ``mode`` (empty when both runs are the same)."""

    def observed(loop):
        out, runtime, rec = _run(machine, program, mode, loop, traffic,
                                 profile)
        return (out, runtime.engine.now, runtime.engine.events,
                runtime.message_stats(), rec and locks.obs_digest(rec))

    return [f"{what}: loop {a!r}\n  != instance {b!r}"
            for what, a, b in zip(OBSERVED, observed(True), observed(False))
            if a != b]


# -- random programs: user traffic around and through barriers --------------------
#
# Rounds of non-blocking traffic, as in test_lifecycle_fusion's battery,
# with one barrier per round that every rank enters at a drawn point of
# its own sequence -- before, between or after posting its operations --
# or, in every rank, after draining them; so user messages land while
# their receiver is in the barrier.  A round's barrier is on the world
# communicator or on a split half of it.  Pauses are sums of the
# machine's own overheads and latencies, so ranks are regularly resumed
# in the very instant a barrier round reaches them.

SIZES = (0, 0, 512, 8 * KiB + 8)
RECV_MODES = ("exact", "any_source", "any")


def _atoms(machine):
    """The durations simulated time is made of on ``machine``."""
    probe = MPIRuntime(machine)
    prof, fabric = probe.profile, probe.fabric
    out = {prof.o_send, prof.o_recv, fabric.control_latency(0, 1)}
    if machine.num_nodes > 1:
        out.add(fabric.control_latency(0, machine.ppn))
    return sorted(out)


MACHINES = {
    "2x2": shaheen2(num_nodes=2, ppn=2),
    "1x4": shaheen2(num_nodes=1, ppn=4),
    "3x2": shaheen2(num_nodes=3, ppn=2),
}
ATOMS = {name: _atoms(m) for name, m in MACHINES.items()}
TRAFFIC = locks.tenant(5, 1e-6, sizes=(8, 4 * KiB))


@st.composite
def barrier_programs(draw):
    mname = draw(st.sampled_from(sorted(MACHINES)))
    nranks = MACHINES[mname].num_ranks
    atoms = ATOMS[mname]
    pause = st.one_of(
        st.none(),
        st.tuples(
            st.sampled_from(("sleep", "compute")),
            st.lists(st.sampled_from(atoms), min_size=1, max_size=3),
        ),
    )
    rounds = []
    for rnd in range(draw(st.integers(1, 3))):
        # a wildcard receive may only be open while no later round's
        # message can exist: the round then ends in a world barrier
        sync = draw(st.booleans())
        on_sub = not sync and draw(st.booleans())
        msgs = draw(st.lists(
            st.tuples(
                st.integers(0, nranks - 1), st.integers(0, nranks - 1),
                st.integers(0, 1), st.sampled_from(SIZES),
            ).filter(lambda m: m[0] != m[1]),
            max_size=6,
        ))
        per_rank = []
        for rank in range(nranks):
            mode = draw(st.sampled_from(RECV_MODES))
            if mode == "any" and not sync:
                mode = "any_source"
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
            ops = [(draw(pause), op) for op in draw(st.permutations(ops))]
            # the barrier goes before op `at`; len(ops) is before the
            # drain, len(ops) + 1 after it (in every rank, or a rank
            # could wait for a send its peer posts after the barrier)
            at = len(ops) + 1 if sync else draw(st.integers(0, len(ops)))
            drain = draw(st.sampled_from(("waitall", "in_order")))
            per_rank.append((ops, at, draw(pause), drain))
        rounds.append((on_sub, per_rank))
    traffic = draw(st.sampled_from((None, None, TRAFFIC)))
    return mname, rounds, traffic, draw(st.sampled_from(list(MODES)))


def _pause(comm, pause):
    if pause is not None:
        for atom in pause[1]:
            if pause[0] == "sleep":
                yield Sleep(atom)
            else:
                yield from comm.compute(atom)


def _barrier_program(rounds):
    def seen(value):
        if value is None:  # a send
            return None
        return (value.source, value.tag, value.nbytes, value.payload)

    def program(comm, log):
        half = yield from comm.split(color=comm.rank % 2)
        out = []
        for rnd, (on_sub, per_rank) in enumerate(rounds):
            ops, at, pause, drain = per_rank[comm.rank]
            bcomm = half if on_sub else comm

            def barrier():
                yield from _pause(comm, pause)
                yield from bcomm.barrier()
                log.append((comm.rank, rnd, comm.now))

            reqs = []
            for i, (before, op) in enumerate(ops):
                if i == at:
                    yield from barrier()
                yield from _pause(comm, before)
                if op[0] == "send":
                    _, dst, tag, size, mark = op
                    reqs.append(
                        comm.isend(dst, payload=mark, nbytes=size, tag=tag)
                    )
                else:
                    reqs.append(comm.irecv(op[1], op[2]))
            if at == len(ops):
                yield from barrier()
            if drain == "waitall":
                values = yield from comm.waitall(reqs)
                out.append((comm.now, [seen(v) for v in values]))
            else:
                for req in reqs:
                    value = yield from comm.wait(req)
                    out.append((comm.now, seen(value)))
            if at > len(ops):
                yield from barrier()
        return out

    return program


@settings(max_examples=100, deadline=None)
@given(case=barrier_programs())
def test_random_barrier_programs_instance_equals_loop(case):
    mname, rounds, traffic, mode = case
    diffs = differential(
        MACHINES[mname], _barrier_program(rounds), traffic, mode=mode
    )
    assert not diffs, "\n".join(diffs)


# -- crafted cases -------------------------------------------------------------------

ONE_NODE = MACHINES["1x4"]


def _world(comm, log):
    """Every rank enters at t = 0: each round's messages share one
    ``Arrivals`` event per instant."""
    yield from comm.barrier()
    log.append((comm.rank, comm.now))


def _skewed_entry(comm, log):
    """Late ranks find their first rounds' messages already landed."""
    for skew in (2e-6, 7e-7):
        yield from comm.compute(skew * (comm.size - comm.rank))
        yield from comm.barrier()
        log.append((comm.rank, comm.now))


def _user_message_beside_a_round(comm, log):
    """Rank 0's zero-byte user message to rank 2 and rank 1's first
    barrier round to rank 2 leave in one instant and reach rank 2 in one
    ``Arrivals`` event, the user message first: its receive overhead is
    granted first, and its receive completes while rank 2 is in the
    barrier."""
    if comm.rank == 0:
        comm.isend(2, nbytes=0, tag=7)
    elif comm.rank == 2:
        recv = comm.irecv(0, 7)
        recv.event.callbacks.append(lambda _ev: log.append(("recv", comm.now)))
    yield from comm.barrier()
    log.append((comm.rank, comm.now))


def _killed_mid_barrier(comm, log):
    """A background job's ranks are killed while in a barrier: they
    start no further round, and the foreground's timing shows it."""
    job = []

    def background(bg):
        yield from bg.compute(1e-7 * bg.rank)
        yield from bg.barrier()
        log.append(("bg", bg.rank, bg.now))

    if comm.rank == 0:
        job = comm.runtime.spawn_job(background, name="bg")
    yield Sleep(1.5e-6)
    if comm.rank == 0:
        for proc in job:
            comm.runtime.engine.kill(proc)
    yield from comm.barrier()
    log.append((comm.rank, comm.now))


@pytest.mark.parametrize("mode", list(MODES))
@pytest.mark.parametrize("mname", sorted(MACHINES))
@pytest.mark.parametrize(
    "program", [_world, _skewed_entry, _user_message_beside_a_round,
                _killed_mid_barrier],
)
def test_crafted_cases_instance_equals_loop(program, mname, mode):
    assert differential(MACHINES[mname], program, mode=mode) == []


@pytest.mark.parametrize("mode", list(MODES))
def test_zero_latency_rounds_take_cells_of_their_own(mode):
    """No latency to share an ``Arrivals`` event over: each round's
    envelope, flow start and landing are one cell each, and the run
    stays exact."""
    machine = dataclasses.replace(
        ONE_NODE, node=dataclasses.replace(ONE_NODE.node, shm_latency=0.0)
    )
    profile = dataclasses.replace(openmpi_profile(), sw_latency=0.0)
    assert differential(machine, _skewed_entry, profile=profile,
                        mode=mode) == []
    _, instance, _ = _run(machine, _skewed_entry, mode, False,
                          profile=profile)
    assert instance.message_stats() == {"messages": 2 * 4 * 2, "fused": 0}


def test_barrier_instance_counts_its_rounds_as_fused_messages():
    _, instance, _ = _run(ONE_NODE, _world, "quiet", False)
    assert instance.message_stats() == {"messages": 8, "fused": 8}


def test_finished_barrier_runtime_is_not_cyclic_garbage():
    """Every barrier instance leaves the registry with its last rank,
    and nothing of it keeps a finished runtime alive but the refcount."""
    def halves(comm, log):
        half = yield from comm.split(color=comm.rank % 2)
        yield from half.barrier()
        yield from comm.barrier()

    runtime = MPIRuntime(ONE_NODE)
    runtime.run(halves, [])
    runtime.run(_skewed_entry, [])
    assert runtime._wire.barriers == {}
    ref = weakref.ref(runtime)
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        del runtime
        assert ref() is None
    finally:
        if was_enabled:
            gc.enable()


# -- a recorder attached while ranks are in a barrier ---------------------------------


def _records_in_order(rec) -> list[str]:
    """What of ``rec``'s records is out of lifecycle order: an open span,
    or a message whose times run backwards ("not yet" times skipped)."""
    bad = [f"open span {sp}" for sp in rec.spans if sp.open]
    for m in rec.messages.values():
        times = [t for t in (m.t_send, m.t_send_done, m.t_arrive,
                             m.t_recv_done) if t >= 0]
        if times != sorted(times):
            bad.append(f"message out of order: {m}")
    return bad


def _late_attach(attach):
    """``_skewed_entry`` whose last rank, when ``attach``, attaches a
    recorder before its first barrier, while the others are in it."""

    def program(comm, log):
        if attach and comm.rank == comm.size - 1:
            yield from comm.compute(3e-6)
            log.append(ObsRecorder(comm.runtime.engine, mode="full").attach())
        yield from _skewed_entry(comm, log)

    return program


def test_recorder_attached_mid_barrier_records_the_later_rounds():
    """Rounds that started untraced emit nothing; the recorder gets the
    whole life of every round that starts after it, and the run's
    timing is the unrecorded run's."""
    want, quiet, _ = _run(ONE_NODE, _late_attach(False), "quiet", False)
    (results, log), traced, _ = _run(ONE_NODE, _late_attach(True), "quiet",
                                     False)
    rec = log.pop(0)
    rec.detach()
    assert (results, log) == want
    assert traced.engine.now == quiet.engine.now
    assert rec.messages and rec.spans
    assert _records_in_order(rec) == []
    assert all(m.t_recv_done >= 0 for m in rec.messages.values())


def _toggled(detach_at, attach_at):
    """``_skewed_entry`` with the run's recorder detached at
    ``detach_at`` and attached again at ``attach_at``."""

    def program(comm, log):
        if comm.rank == 0:
            engine = comm.runtime.engine
            rec = engine.obs
            engine.schedule(detach_at, rec.detach)
            engine.schedule(attach_at, rec.attach)
        yield from _skewed_entry(comm, log)

    return program


@pytest.mark.parametrize("step", range(0, 60, 3))
def test_recorder_reattached_mid_barrier_keeps_its_records_in_order(step):
    """A round that starts while the recorder is off is not traced when
    it is back: none of its times lands on an earlier round's record."""
    detach_at = step * 1e-7
    want, _, _ = _run(ONE_NODE, _skewed_entry, "quiet", False)
    got, _, rec = _run(ONE_NODE, _toggled(detach_at, detach_at + 2e-7),
                       "obs", False)
    assert got == want
    assert _records_in_order(rec) == []


# -- planted mutants ------------------------------------------------------------------


def _plant_receives_before_it_sends(monkeypatch):
    """Grant a round's receive overhead ahead of its send overhead when
    its message has already landed."""

    def mutant(self, rank, k):
        self.round[rank] = k
        self.wire.hops += 1
        mid = self.early.pop((rank, k), None)
        if mid is not None:
            self._grant_recv(rank, mid)
        self.cpus[rank].request_call(self.send_ov, partial(self._sent, rank))

    monkeypatch.setattr(Barrier, "_start", mutant)


def _plant_opens_a_batch_per_round(monkeypatch):
    """Give every barrier round an ``Arrivals`` event of its own instead
    of joining the newest one of its instant."""
    arrive = Wire.arrive

    def mutant(self, when, msg):
        if type(msg) is Hop:
            self.arrivals[when] = Arrivals(self, when, msg)
        else:
            arrive(self, when, msg)

    monkeypatch.setattr(Wire, "arrive", mutant)


def _plant_grants_at_delivery(monkeypatch):
    """Grant a barrier round's receive overhead when its ``Arrivals``
    event fires, ahead of the landings of the messages beside it."""
    fire = Arrivals.fire

    def mutant(self):
        hops = [msg for msg in self.msgs if type(msg) is Hop]
        self.msgs = [msg for msg in self.msgs if type(msg) is not Hop]
        self.wire.fused += len(hops)
        for hop in hops:
            hop.landed() if hop.rides else hop.delivered()
        fire(self)

    monkeypatch.setattr(Arrivals, "fire", mutant)


def _plant_ignores_the_hook(monkeypatch):
    """Land a round's payload with its envelope although the hook moved
    the payload's data latency."""
    sent = Barrier._sent

    def mutant(self, rank):
        engine = self.wire.engine
        hook, engine.overhead_hook = engine.overhead_hook, None
        try:
            sent(self, rank)
        finally:
            engine.overhead_hook = hook

    monkeypatch.setattr(Barrier, "_sent", mutant)


def _plant_opens_the_recv_span_first(monkeypatch):
    """Open a round's ``recv`` span before its send grant, so the span
    ids of the grant and the receive swap."""

    def mutant(self, rank, k):
        self.round[rank] = k
        self.wire.hops += 1
        obs = self.wire.engine.obs
        n = len(self.group)
        me = self.group[rank]
        peer = self.group[(rank + (1 << k)) % n]
        mid = obs.msg_begin(me, peer, self.tag, 0.0, EAGER)
        send = obs.begin(f"rank{me}", "send", "p2p", peer=peer,
                         tag=self.tag, nbytes=0.0, mid=mid)
        recv = obs.begin(f"rank{me}", "recv", "p2p",
                         source=(rank - (1 << k)) % n, tag=self.tag)
        self.cpus[rank].request_call(self.send_ov, partial(self._sent, rank),
                                     "send_ov", mid=mid)
        self.open[rank] = (obs, mid, send, recv)
        early = self.early.pop((rank, k), None)
        if early is not None:
            self._grant_recv(rank, early)

    monkeypatch.setattr(Barrier, "_start", mutant)


def _plant_arrives_at_delivery(monkeypatch):
    """Record a round's message as arrived when its envelope is
    delivered, not when its payload lands."""
    delivered = Hop.delivered

    def mutant_delivered(self):
        self.barrier.wire.engine.obs.msg_arrived(self.mid)
        delivered(self)

    def mutant_landed(self):
        (mutant_delivered if self.rides else delivered)(self)

    monkeypatch.setattr(Hop, "delivered", mutant_delivered)
    monkeypatch.setattr(Hop, "landed", mutant_landed)


MUTANTS = {
    "receives-before-it-sends": (
        _plant_receives_before_it_sends, _skewed_entry, "quiet",
    ),
    "opens-a-batch-per-round": (_plant_opens_a_batch_per_round, _world, "quiet"),
    "grants-at-delivery": (
        _plant_grants_at_delivery, _user_message_beside_a_round, "quiet",
    ),
    "ignores-the-hook": (_plant_ignores_the_hook, _skewed_entry, "jitter"),
    "opens-the-recv-span-first": (
        _plant_opens_the_recv_span_first, _world, "obs",
    ),
    "arrives-at-delivery": (
        _plant_arrives_at_delivery, _skewed_entry,
        dataclasses.replace(MODES["shrink"], record="full"),
    ),
}


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_planted_mutant_is_caught(name, monkeypatch):
    plant, program, mode = MUTANTS[name]
    assert differential(ONE_NODE, program, mode=mode) == []
    plant(monkeypatch)
    try:
        caught = differential(ONE_NODE, program, mode=mode)
    except RuntimeError as exc:  # e.g. a rank released twice
        caught = [repr(exc)]
    assert caught, f"mutant {name} went unnoticed"
