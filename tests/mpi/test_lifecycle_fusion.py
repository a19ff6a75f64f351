"""The differential battery: every run mode takes one message lifecycle.

Every run, quiet or loud, retires the envelope arrivals of all messages
that reach their receivers in one instant as one ``Arrivals`` event,
lets a payload whose data latency is the envelope's ride in it, and
lands zero-byte payloads inside it (DESIGN.md section 4o).  The
reference is ``test_lifecycle_lock``'s fixture, made while every loud
run still took the staged five-event pipeline: its ``hook`` entries
(an identity overhead hook, which moves no duration) are the staged
pipeline's numbers.  Its ``tenant`` entries (a quiet engine sharing the
machine with a background HAN sweep) were made by the fused path, which
the staged pipeline's own battery then held equal to the staged one.
A quiet run is held to the ``hook`` entry and a tenant run to the
``tenant`` entry, bit for bit on every field but ``events``, which may
only be lower.  Both runs are the lock's own cases, read from the
harness cache (``tests/locks.py``), so each is simulated once per
process.

Sensitivity is shown at the bottom: six planted mutants, each caught
by a case of this battery on a fresh run.
"""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.faults import FaultPlan, MessageJitter
from repro.hardware import shaheen2
from repro.modules import make_module
from repro.mpi import MPIRuntime
from repro.mpi import matching
from repro.mpi.matching import Arrivals, Channel, Transit
from tests import locks
from tests.mpi.test_lifecycle_lock import (
    CORPUS, CRAFTED, barrier_then_bcast, cases, machine_of,
)

KiB = 1024
ONE_NODE = machine_of("1x4")


def differential(key: str, mode: str = "quiet", run=locks.result) -> list[str]:
    """What lock case ``key`` run in ``mode`` (by ``run``: the cache, or
    :func:`locks.fresh`) disagrees with its reference on (empty when
    they are the same run)."""
    want = locks.fixture("lifecycle")[
        f"{'hook' if mode == 'quiet' else mode}/{key}"]
    got = run("lifecycle", f"{mode}/{key}")
    diffs = [
        f"{field}: staged {want[field]!r} != {got.get(field)!r}"
        for field in want if field != "events" and got.get(field) != want[field]
    ]
    if got["events"] > want["events"]:
        diffs.append(f"events: {got['events']} > staged {want['events']}")
    return diffs


# -- every collective, every protocol, three machines ----------------------------

GRID = sorted({key.split("/", 1)[1] for key in cases()
               if key.startswith("quiet/coll/")})


@pytest.mark.parametrize("mode", ["quiet", "tenant"])
@pytest.mark.parametrize(
    "key", GRID, ids=lambda key: key.split("/", 1)[1].replace("/", "-")
)
def test_collectives_fused_equals_staged(key, mode):
    assert differential(key, mode) == []


@pytest.mark.parametrize("seed", range(CORPUS))
def test_quiet_p2p_programs_equal_the_staged_lock(seed):
    assert differential(f"p2p/{seed}") == []


@pytest.mark.parametrize("name", CRAFTED)
def test_crafted_cases_equal_the_staged_lock(name):
    assert differential(f"crafted/{name}") == []


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


# -- one path in every run mode ----------------------------------------------------

#: what a message's stages are scheduled as (a payload with a data
#: latency of its own hands itself to the solver in an event of its own)
_STAGES = ("Transit.", "Arrivals.", "FluidSolver.start_flow",
           "Fabric.start_flow")


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


@pytest.mark.parametrize("hooked", [False, True], ids=["quiet", "hook"])
def test_every_message_is_fused_within_the_event_budget(hooked):
    machine = shaheen2(num_nodes=8, ppn=4)

    def events_and_messages(program):
        runtime = MPIRuntime(machine)
        if hooked:
            runtime.engine.overhead_hook = locks.identity
        events = _lifecycle_events(runtime)
        runtime.run(program)
        stats = runtime.message_stats()
        assert all(type(v) is int for v in stats.values())
        assert stats["fused"] == stats["messages"] > 0
        return len(events), stats["messages"]

    def barrier(comm):
        yield from comm.barrier()

    def bcast(comm):
        yield from make_module("tuned").bcast(comm, 1 * KiB)

    events, messages = events_and_messages(barrier)
    assert messages == 160 and events <= 3 * messages
    events, messages = events_and_messages(bcast)
    assert messages == 31 and events <= 4 * messages


def test_fault_plan_and_recorder_runs_fuse_every_message():
    want, quiet, _ = locks.run(ONE_NODE, barrier_then_bcast)

    plan = FaultPlan(seed=3).add(MessageJitter(amplitude=1e-7))
    _, faulty, _ = locks.run(ONE_NODE, barrier_then_bcast,
                             mode=locks.Mode(plan=plan))
    stats = faulty.message_stats()
    assert stats["fused"] == stats["messages"] > 0

    got, traced, rec = locks.run(ONE_NODE, barrier_then_bcast,
                                 mode=locks.MODES["obs"])
    stats = traced.message_stats()
    assert stats["fused"] == stats["messages"] == len(rec.messages) > 0
    assert repr(got) == repr(want)  # the recorder never moves a time
    # the recorder only stamps records: its barrier is the same instance
    assert traced.engine.events == quiet.engine.events


def test_finished_runtime_is_not_cyclic_garbage():
    """Channels reach the engine and the fabric through ``Wire``, never
    through the runtime that registers them: a tuning sweep builds one
    runtime per measurement and leaves freeing them to the refcount."""
    runtime = MPIRuntime(ONE_NODE)
    runtime.run(barrier_then_bcast)
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
    """Let every eager payload ride its envelope's event although the
    hook moved its data latency."""
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


def _fresh(key: str, mode: str = "quiet"):
    return lambda: differential(key, mode, run=locks.fresh)


MUTANTS = {
    "lands-behind-nothing": (
        _plant_lands_behind_nothing,
        _fresh("crafted/resumed_behind_the_arrival"),
    ),
    "fuses-under-a-hook": (
        _plant_fuses_under_a_hook, _fresh("crafted/barrier_then_bcast", "jitter"),
    ),
    "skips-the-recv-overhead": (
        _plant_skips_the_recv_overhead, _fresh("crafted/same_instant_arrivals"),
    ),
    "arrives-in-reverse": (
        _plant_arrives_in_reverse, _fresh("crafted/same_instant_arrivals"),
    ),
    "drops-the-hold-back": (_plant_drops_the_hold_back, _hold_back_order),
    "treats-payloads-as-instant": (
        _plant_treats_payloads_as_instant, _fresh("crafted/eager_ring"),
    ),
}


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_planted_mutant_is_caught(name, monkeypatch):
    plant, case = MUTANTS[name]
    clean = case()
    assert clean == case()  # the case itself is deterministic
    plant(monkeypatch)
    assert clean != case(), f"mutant {name} went unnoticed"
