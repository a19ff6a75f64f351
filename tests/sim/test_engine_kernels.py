"""Event-queue semantics: pinned examples, then the engine against a model.

The engine has one queue (a bucket of two FIFOs per distinct instant,
see ``repro/sim/engine.py``) and nothing to A/B it against, so its
oracle lives here: :class:`ModelEngine`, the same engine with the queue
replaced by the most obvious one -- a list kept sorted by
``(time, priority, seq)`` and popped from the front.

- The pinned examples state the contract one case at a time: same-instant
  (priority, schedule order), entries scheduled *during* an instant
  joining it, ``schedule_at`` firing at the bit-exact instant,
  ``run(until=T)`` leaving ``now == T`` on both stop paths, an instant
  of cancelled entries advancing nothing, single-use tokens, bounded
  schedule-then-cancel churn, a callback that raises mid-instant, the
  composite-wait sweeps.  They run on the engine *and* on the model:
  an oracle that has not passed the examples is not an oracle.
- The differential section replays 20 random schedules and the 225
  fluid fuzz schedules on both and compares the fired order and the
  engine counters (``events``, ``batches``, final ``now``) with ``==``.
- The state machine drives both through random interleavings of
  ``schedule`` / ``schedule_at`` / ``cancel`` (live, fired, stale,
  twice) / ``run(until=)`` / raising callbacks, with the compaction
  threshold lowered so that it fires mid-instant too.
"""

from __future__ import annotations

import bisect
from unittest import mock

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

import repro.sim.engine as engine_module
from repro.netsim.progress import ProgressServer
from repro.sim.engine import (
    _COMPACT_MIN,
    PRIORITY_LATE,
    PRIORITY_NORMAL,
    AllOf,
    AnyOf,
    DeadlockError,
    Engine,
    SimEvent,
)
from repro.sim.fluid import FluidSolver
from tests.sim.test_fluid_differential import make_schedule

# -- the reference model -------------------------------------------------------


class ModelEngine(Engine):
    """:class:`Engine` with the obvious queue, for everything else to match.

    Entries are ``[time, priority, seq, fn]`` lists kept sorted (``seq``
    is unique, so ``fn`` is never compared); the front one runs next.  A
    cancelled entry is deleted on the spot, so ``queue_depth`` here is
    the live count.  Processes, waits and ``spawn`` are inherited: they
    only ever reach the queue through the four methods below.
    """

    def __init__(self) -> None:
        super().__init__()
        self._entries: list[list] = []
        self._seq = 0

    def _push(self, when, fn, priority) -> list:
        if priority not in (PRIORITY_NORMAL, PRIORITY_LATE):
            raise ValueError(f"unknown priority {priority!r}")
        entry = [when, priority, self._seq, fn]
        self._seq += 1
        bisect.insort(self._entries, entry)
        self.queue_depth = len(self._entries)
        return entry

    def schedule(self, delay, fn, priority=PRIORITY_NORMAL) -> list:
        if not delay >= 0:
            raise ValueError(f"bad delay {delay}")
        return self._push(self.now + delay, fn, priority)

    def schedule_at(self, when, fn, priority=PRIORITY_NORMAL) -> list:
        if not when >= self.now:
            raise ValueError(f"{when} is in the past or NaN")
        return self._push(when, fn, priority)

    def cancel(self, token: list) -> None:
        if token[3] is not None:  # neither fired nor cancelled yet
            token[3] = None
            self._entries = [e for e in self._entries if e is not token]
            self.queue_depth = len(self._entries)

    def run(self, until=None) -> float:
        if until is not None and until < self.now:
            return self.now
        opened = None  # the instant this call last counted in `batches`
        while self._entries and not (
            until is not None and self._entries[0][0] > until
        ):
            entry = self._entries.pop(0)
            when, fn = entry[0], entry[3]
            entry[3] = None
            if when != opened:
                self.batches += 1
                opened = when
            self.now = when
            self.events += 1
            self.queue_depth = len(self._entries)
            fn()
        if until is not None:
            self.now = max(self.now, until)
        elif self._live_procs:
            raise DeadlockError("model: live processes, empty queue")
        return self.now


#: the two implementations every pinned example runs on.  The ids say how
#: each one retires events: ``batched`` is the production :class:`Engine`
#: (one instant's bucket per batch), ``scalar`` the model above (one
#: entry at a time).
ENGINES = {"batched": Engine, "scalar": ModelEngine}


@pytest.fixture(params=list(ENGINES))
def make_engine(request):
    return ENGINES[request.param]


# -- same-instant ordering ----------------------------------------------------


def test_same_instant_priority_then_seq_order(make_engine):
    eng = make_engine()
    order: list[str] = []
    eng.schedule_at(1.0, lambda: order.append("n0"))
    eng.schedule_at(1.0, lambda: order.append("late0"), priority=PRIORITY_LATE)
    eng.schedule_at(1.0, lambda: order.append("n1"))
    eng.schedule_at(1.0, lambda: order.append("late1"), priority=PRIORITY_LATE)
    eng.schedule_at(0.5, lambda: order.append("early"))
    eng.run()
    assert order == ["early", "n0", "n1", "late0", "late1"]


def test_mid_batch_scheduling_joins_the_batch(make_engine):
    """Entries scheduled *during* an instant join it in (priority,
    schedule order): a fresh normal-priority entry still runs before a
    late-priority entry that was scheduled long before it."""
    eng = make_engine()
    order: list[str] = []

    def first() -> None:
        order.append("first")
        eng.schedule(0.0, lambda: order.append("mid"))

    eng.schedule_at(2.0, first)
    eng.schedule_at(2.0, lambda: order.append("second"))
    eng.schedule_at(2.0, lambda: order.append("late"), priority=PRIORITY_LATE)
    eng.run()
    assert order == ["first", "second", "mid", "late"]


def test_late_callback_scheduling_normal_runs_it_before_the_next_late(make_engine):
    """One late entry at a time: what it schedules for the same instant
    at normal priority overtakes the late entries still waiting."""
    eng = make_engine()
    order: list[str] = []

    def late0() -> None:
        order.append("late0")
        eng.schedule(0.0, lambda: order.append("normal-from-late0"))
        eng.schedule(0.0, lambda: order.append("late2"), priority=PRIORITY_LATE)

    eng.schedule_at(1.0, late0, priority=PRIORITY_LATE)
    eng.schedule_at(1.0, lambda: order.append("late1"), priority=PRIORITY_LATE)
    eng.run()
    assert order == ["late0", "normal-from-late0", "late1", "late2"]
    assert (eng.events, eng.batches) == (4, 1)


def test_batches_counts_distinct_instants(make_engine):
    eng = make_engine()
    for t in (1.0, 1.0, 1.0, 2.0, 2.0, 3.0):
        eng.schedule_at(t, lambda: None)
    eng.run()
    assert eng.events == 6
    assert eng.batches == 3


def test_unknown_priority_rejected(make_engine):
    # -1 would index the late FIFO from the end; it must raise instead
    eng = make_engine()
    for priority in (-1, 2):
        with pytest.raises(ValueError, match="priority"):
            eng.schedule(0.0, lambda: None, priority=priority)
        with pytest.raises(ValueError, match="priority"):
            eng.schedule_at(1.0, lambda: None, priority=priority)
    assert eng.queue_depth == 0
    assert eng.run(until=2.0) == 2.0 and eng.events == 0


# -- schedule_at exactness, and what neither schedule accepts -----------------


def test_schedule_at_fires_at_bit_exact_instant(make_engine):
    # find a (now, when) pair where the naive now + (when - now) round
    # trip is off by an ulp; schedule_at must be immune to it
    a, b = next(
        (x, y)
        for x in (0.1, 0.2, 1 / 3, 0.7)
        for y in (0.9, 1.1, 1 / 7 + 1, 2.3)
        if x + (y - x) != y
    )
    eng = make_engine()
    seen: list[float] = []

    def at_a() -> None:
        assert eng.now == a
        eng.schedule_at(b, lambda: seen.append(eng.now))

    eng.schedule_at(a, at_a)
    eng.run()
    assert seen == [b]  # exact ==, not approx


def test_schedule_at_current_instant_joins_current_batch(make_engine):
    eng = make_engine()
    order: list[str] = []

    def first() -> None:
        order.append("first")
        eng.schedule_at(1.0, lambda: order.append("same-instant"))

    eng.schedule_at(1.0, first)
    eng.run()
    assert order == ["first", "same-instant"]
    assert eng.now == 1.0
    assert eng.batches == 1


def test_schedule_at_past_rejected(make_engine):
    eng = make_engine()
    eng.schedule_at(1.0, lambda: eng.schedule_at(0.5, lambda: None))
    with pytest.raises(ValueError, match="in the past"):
        eng.run()


def test_nan_delay_and_nan_instant_rejected(make_engine):
    """Regression: ``nan < 0`` and ``nan < now`` are both false, so a NaN
    used to get past the guards and onto the queue, where the run loop
    spun forever on an instant that never equals itself."""
    eng = make_engine()
    with pytest.raises(ValueError, match="nan"):
        eng.schedule(float("nan"), lambda: None)
    with pytest.raises(ValueError, match="nan"):
        eng.schedule_at(float("nan"), lambda: None)
    assert eng.queue_depth == 0
    assert eng.run() == 0.0  # returns


@pytest.mark.parametrize("flavor", ["request", "request_call", "request_burst"])
def test_nan_from_an_overhead_hook_fails_loudly(flavor):
    """A fault injector that computes a NaN cost must stop the run with
    the value named, not be clamped to zero seconds on the quiet."""
    eng = Engine()
    eng.overhead_hook = lambda kind, who, duration: float("nan")
    server = ProgressServer(eng, "r0", rank=0)
    with pytest.raises(ValueError, match="nan"):
        if flavor == "request":
            server.request(1e-6)
        elif flavor == "request_call":
            server.request_call(1e-6, lambda: None)
        else:
            server.request_burst([1e-6, 2e-6])
    # and a hook that only overshoots below zero is still clamped
    eng.overhead_hook = lambda kind, who, duration: -duration
    server = ProgressServer(eng, "r1", rank=1)
    server.request(1e-6)
    assert server.request_burst([1e-6])[0] is not None
    assert eng.run() == 0.0 and eng.events == 2


# -- run(until) (regression: now must advance to T on both stop paths) ---------


def test_run_until_advances_now_when_queue_drains_early(make_engine):
    eng = make_engine()
    eng.schedule_at(1.0, lambda: None)
    assert eng.run(until=5.0) == 5.0
    assert eng.now == 5.0
    assert eng.events == 1


def test_run_until_stops_before_a_later_entry_and_resumes(make_engine):
    eng = make_engine()
    fired: list[float] = []
    n = 2058
    for i in range(n):
        eng.schedule_at(1.0 + (i % 7), lambda: fired.append(eng.now))
    assert eng.run(until=0.5) == 0.5
    assert (eng.now, eng.events, eng.queue_depth) == (0.5, 0, n)
    # an entry due exactly at `until` is inside the window
    assert eng.run(until=1.0) == 1.0
    assert fired == [1.0] * (n // 7)
    eng.run()
    assert len(fired) == n
    assert fired == sorted(fired)
    assert (eng.now, eng.batches, eng.queue_depth) == (7.0, 7, 0)


def test_run_until_on_empty_queue(make_engine):
    eng = make_engine()
    assert eng.run(until=3.0) == 3.0
    # an `until` in the past is a no-op, never a rewind
    assert eng.run(until=1.0) == 3.0
    assert eng.now == 3.0


def test_run_until_drained_with_blocked_process_is_not_deadlock(make_engine):
    eng = make_engine()
    never = eng.event("never")

    def prog():
        yield never

    eng.spawn(prog())
    # bounded run: the process is blocked forever, but with `until` that
    # is an observation window, not a deadlock
    assert eng.run(until=2.0) == 2.0
    assert eng.now == 2.0


# -- cancellation and compaction (regression: bounded queue) ------------------


def test_cancelled_callback_never_fires_and_clock_stays(make_engine):
    eng = make_engine()
    fired: list[str] = []
    tok = eng.schedule_at(1.0, lambda: fired.append("boom"))
    eng.cancel(tok)
    eng.cancel(tok)  # double cancel is a no-op
    eng.run()
    assert fired == []
    assert eng.events == 0
    assert eng.batches == 0
    # an instant of nothing but cancelled entries must not advance the
    # clock, nor count as a batch
    assert eng.now == 0.0
    assert eng.queue_depth == 0


def test_stale_cancel_token_cannot_kill_a_recycled_slot(make_engine):
    """Tokens are single-use: one whose entry already fired stays dead,
    whatever is scheduled afterwards (at the same instant included)."""
    eng = make_engine()
    fired: list[str] = []
    tok = eng.schedule_at(1.0, lambda: fired.append("a"))
    eng.run()
    assert fired == ["a"]
    eng.cancel(tok)  # entry already fired: no-op
    eng.schedule_at(1.0, lambda: fired.append("b"))
    eng.schedule_at(2.0, lambda: fired.append("c"))
    eng.cancel(tok)
    assert eng.queue_depth == 2
    eng.run()
    assert fired == ["a", "b", "c"]


def test_schedule_then_cancel_churn_stays_bounded(make_engine):
    """A pure lazy-deletion queue grows without bound under this load;
    compaction must keep it O(live entries)."""
    eng = make_engine()
    live = [eng.schedule_at(1e9, lambda: None) for _ in range(8)]
    peak = 0
    for round_ in range(200):
        # every fourth round spreads over fresh instants, so the instant
        # heap has to shrink with the lists
        tokens = [
            eng.schedule_at(1e9 + (i if round_ % 4 == 0 else 0), lambda: None)
            for i in range(64)
        ]
        for tok in tokens:
            eng.cancel(tok)
        peak = max(peak, eng.queue_depth)
    assert peak <= 8 + 2 * _COMPACT_MIN
    assert eng.queue_depth < 8 + _COMPACT_MIN
    for tok in live:
        eng.cancel(tok)
    assert eng.run() == 0.0 and eng.events == 0


def test_compaction_reclaims_cancelled_instants(make_engine):
    eng = make_engine()
    n = 2148
    fired: list[int] = []
    tokens = [
        eng.schedule_at(10.0 + i, lambda i=i: fired.append(i))
        for i in range(n)
    ]
    eng.run(until=1.0)
    assert eng.queue_depth == n
    keep = 10
    for tok in tokens[keep:]:
        eng.cancel(tok)
    # compaction reclaimed the dead span instead of leaving n-10 zombies
    assert eng.queue_depth < keep + _COMPACT_MIN
    eng.run()
    assert fired == list(range(keep))
    assert eng.events == keep
    assert eng.now == 10.0 + keep - 1  # no cancelled instant moved the clock


def test_compaction_mid_instant_leaves_the_instant_being_retired_alone(make_engine):
    """A callback cancels enough to trigger compaction while the loop is
    half way through its own instant -- part of the cancelled entries
    sit in that very instant, behind the cursor and ahead of it."""
    eng = make_engine()
    order: list[str] = []
    tokens: dict[str, list] = {}

    def add(name: str, when: float, priority: int = PRIORITY_NORMAL) -> None:
        tokens[name] = eng.schedule_at(
            when, lambda: order.append(name), priority=priority
        )

    def purge() -> None:
        order.append("purge")
        for name in doomed:
            eng.cancel(tokens[name])

    add("before", 1.0)
    eng.schedule_at(1.0, purge)
    for i in range(40):
        add(f"same{i}", 1.0, PRIORITY_LATE if i % 2 else PRIORITY_NORMAL)
    for i in range(100):
        add(f"later{i}", 2.0 + i % 5)
    doomed = ["before"] + [f"same{i}" for i in range(4, 40)] + [
        f"later{i}" for i in range(5, 100)
    ]
    eng.run()
    assert order == (
        ["before", "purge", "same0", "same2", "same1", "same3"]
        + [f"later{i}" for i in range(5)]
    )
    assert (eng.events, eng.batches, eng.now) == (11, 6, 6.0)
    assert eng.queue_depth == 0


def test_raising_callback_leaves_the_queue_runnable(make_engine):
    """The exception propagates out of run(); what had not run yet --
    the rest of that instant included -- runs on the next call, in
    order, and nothing that already ran is seen again."""
    eng = make_engine()
    order: list[str] = []

    def boom() -> None:
        order.append("boom")
        eng.schedule(0.0, lambda: order.append("child-of-boom"))
        raise KeyError("boom")

    cancelled = eng.schedule_at(1.0, lambda: order.append("never"))
    eng.schedule_at(1.0, lambda: order.append("a"))
    eng.schedule_at(1.0, lambda: order.append("late"), priority=PRIORITY_LATE)
    eng.schedule_at(1.0, boom)
    stale = eng.schedule_at(1.0, lambda: order.append("b"))
    eng.schedule_at(2.0, lambda: order.append("c"))
    eng.cancel(cancelled)
    with pytest.raises(KeyError):
        eng.run()
    assert order == ["a", "boom"]
    assert (eng.now, eng.events) == (1.0, 2)
    assert eng.queue_depth == 4  # b, child-of-boom, late, c
    eng.cancel(stale)
    eng.cancel(cancelled)  # already retired: still a no-op
    eng.run()
    assert order == ["a", "boom", "child-of-boom", "late", "c"]
    assert (eng.now, eng.events, eng.queue_depth) == (2.0, 5, 0)


# -- composite waits ----------------------------------------------------------


def test_waitany_sweeps_losing_callbacks(make_engine):
    """Regression: the losing events of an AnyOf must not retain the
    dead winner-selection closures (they capture the process and the
    whole event list)."""
    eng = make_engine()
    evs = [eng.event(f"e{i}") for i in range(4)]

    def prog():
        got = yield AnyOf(evs)
        return got

    p = eng.spawn(prog())
    eng.schedule_at(1.0, lambda: evs[2].succeed("win"))
    eng.run()
    assert p.result == (2, "win")
    assert all(ev.callbacks == [] for ev in evs)


def test_waitany_no_accumulation_on_long_lived_events(make_engine):
    eng = make_engine()
    slow = eng.event("slow")

    def prog():
        for i in range(50):
            fast = eng.event(f"fast{i}")
            eng.schedule(0.0, lambda i=i, fast=fast: fast.succeed(i))
            idx, val = yield AnyOf([slow, fast])
            assert (idx, val) == (1, i)

    eng.spawn(prog())
    eng.run()
    assert slow.callbacks == []  # 50 rounds left zero dead closures


def test_waitall_with_already_triggered_events(make_engine):
    eng = make_engine()
    evs = [eng.event(f"e{i}") for i in range(3)]
    evs[0].succeed("a")
    evs[2].succeed("c")

    def prog():
        values = yield AllOf(evs)
        return values

    p = eng.spawn(prog())
    eng.schedule_at(1.0, lambda: evs[1].succeed("b"))
    eng.run()
    assert p.result == ["a", "b", "c"]


def test_waitall_all_pretriggered_resumes_at_current_time(make_engine):
    eng = make_engine()
    evs = [eng.event(f"e{i}") for i in range(3)]
    for i, ev in enumerate(evs):
        ev.succeed(i)

    def prog():
        values = yield AllOf(evs)
        return values

    p = eng.spawn(prog())
    eng.run()
    assert p.result == [0, 1, 2]
    assert eng.now == 0.0


def test_succeed_detaches_callbacks_before_firing(make_engine):
    # callbacks appended *during* firing must not run in this round (the
    # pre-detach list was already snapshot) and must not linger after
    eng = make_engine()
    ev = SimEvent(eng, "e")
    calls: list[str] = []

    def cb(_ev: SimEvent) -> None:
        calls.append("cb")
        ev.callbacks.append(lambda _e: calls.append("late-add"))

    ev.callbacks.append(cb)
    ev.succeed()
    assert calls == ["cb"]
    # the late addition landed on the fresh (detached) list and did not
    # fire in this round; the pre-fire list is gone
    assert len(ev.callbacks) == 1


# -- differential: random schedules on the raw engine -------------------------


def _replay(make, times, prios, cancels):
    eng = make()
    fired: list[tuple[float, int]] = []
    tokens = {}
    for i, (t, p) in enumerate(zip(times, prios)):
        def fn(i=i):
            fired.append((eng.now, i))
            if i % 7 == 0:  # mid-instant child at the same instant
                eng.schedule(0.0, lambda i=i: fired.append((eng.now, 1000 + i)))
            elif i % 7 == 1:  # cancels from inside the loop: live, fired, stale
                eng.cancel(tokens[(i * 31) % len(times)])
        tokens[i] = eng.schedule_at(t, fn, priority=p)
    for i in cancels:
        eng.cancel(tokens[i])
    eng.run()
    return fired, eng.events, eng.batches, eng.now


@pytest.mark.parametrize("seed", range(20))
def test_kernel_ab_random_schedules(seed):
    """A = the engine's bucket queue, B = the model's sorted list."""
    rng = np.random.default_rng(seed)
    # heavy instant collisions throughout, plus enough cancels to trip
    # compaction; the first seeds are large and mix in ~1250 instants of
    # their own, so the instant heap is compacted as well
    n = 2500 if seed < 3 else 300
    times = rng.choice([0.0, 0.5, 1.0, 1.0, 1.0, 2.25, 4.0], size=n)
    if seed < 3:
        times = np.where(rng.random(n) < 0.5, rng.random(n) * 4.0, times)
    times = times.tolist()
    prios = rng.integers(0, 2, size=n).tolist()
    cancels = sorted(rng.choice(n, size=n // 2, replace=False).tolist())
    assert _replay(Engine, times, prios, cancels) == _replay(
        ModelEngine, times, prios, cancels
    )


# -- differential: the fluid fuzz schedules ------------------------------------


def _run_fluid(make, schedule):
    """The fuzz replay of test_fluid_differential, instrumented with the
    engine counters so that equivalence covers the execution *shape*
    (event count, batch count) and not just the observable timings."""
    caps, flows, cap_events, aborts, probes = schedule
    engine = make()
    solver = FluidSolver(engine, mode="incremental")
    rids = [solver.add_resource(c, name=f"r{i}") for i, c in enumerate(caps)]

    log: list = []
    fid_of: dict[int, int] = {}

    for i, (start, nbytes, route, rate_cap, weight) in enumerate(flows):
        def launch(i=i, nbytes=nbytes, route=route, rate_cap=rate_cap,
                   weight=weight):
            fid_of[i] = solver.start_flow(
                nbytes,
                route,
                lambda i=i: log.append(("done", i, engine.now)),
                rate_cap=rate_cap,
                weight=weight,
            )
        engine.schedule_at(start, launch)

    for t, rid, cap in cap_events:
        engine.schedule_at(
            t, lambda rid=rid, cap=cap: solver.set_capacity(rid, cap)
        )

    for t, i in aborts:
        def abort(i=i):
            fid = fid_of.get(i)
            if fid is not None:
                solver.abort_flow(fid)
                log.append(("abort", i, engine.now))
        engine.schedule_at(t, abort)

    for t in probes:
        def probe():
            solver.sync_accounting()
            log.append((
                "probe",
                engine.now,
                tuple(solver.flow_rate(fid_of.get(i, -1))
                      for i in range(len(flows))),
                tuple((solver.busy_time(r), solver.served_bytes(r))
                      for r in rids),
            ))
        engine.schedule_at(t, probe)

    engine.run()
    solver.sync_accounting()
    log.append((
        "final",
        engine.now,
        solver.active_flows,
        tuple((solver.busy_time(r), solver.served_bytes(r)) for r in rids),
    ))
    return log, engine.events, engine.batches, engine.now


@pytest.mark.parametrize("seed", range(225))
def test_kernels_bit_identical_on_fluid_schedules(seed):
    """The two kernels: the engine's bucket queue and the model's list."""
    schedule = make_schedule(seed)
    assert _run_fluid(Engine, schedule) == _run_fluid(ModelEngine, schedule)


# -- state machine: the engine against the model ------------------------------


class _Boom(Exception):
    pass


class _Side:
    """One engine, the tokens it handed out, and what it fired."""

    def __init__(self, eng: Engine) -> None:
        self.eng = eng
        self.tokens: list = []
        self.fired: list[tuple[float, int]] = []

    def callback(self, label: int, action: str, arg: int):
        eng = self.eng

        def fn() -> None:
            self.fired.append((eng.now, label))
            if action == "child":
                self.push(eng.schedule, 0.0, -label, "none", 0, PRIORITY_NORMAL)
            elif action == "late-child":
                self.push(eng.schedule, 0.0, -label, "none", 0, PRIORITY_LATE)
            elif action == "later-child":
                self.push(eng.schedule, 0.25, -label, "child", 0, PRIORITY_NORMAL)
            elif action == "cancel":
                eng.cancel(self.tokens[arg % len(self.tokens)])
            elif action == "cancel-many":
                for token in self.tokens[arg % len(self.tokens)::2]:
                    eng.cancel(token)
            elif action == "raise":
                raise _Boom(label)

        return fn

    def push(self, method, t, label, action, arg, priority) -> None:
        self.tokens.append(
            method(t, self.callback(label, action, arg), priority=priority)
        )

    def run(self, until):
        try:
            return self.eng.run(until=until)
        except _Boom as boom:
            return f"raised {boom}"


ACTIONS = st.sampled_from([
    "none", "none", "child", "late-child", "later-child",
    "cancel", "cancel-many", "raise",
])
PRIORITIES = st.sampled_from([PRIORITY_NORMAL, PRIORITY_NORMAL, PRIORITY_LATE])
#: few distinct values, so that instants collide
OFFSETS = st.sampled_from([0.0, 0.0, 0.25, 0.5, 0.5, 1.0, 3.0])


class EngineAgainstModel(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        # 64 cancels per compaction would put it out of hypothesis' reach
        self._patch = mock.patch.object(engine_module, "_COMPACT_MIN", 3)
        self._patch.start()
        self.sides = [_Side(Engine()), _Side(ModelEngine())]
        self.labels = 0

    def teardown(self) -> None:
        try:
            raised = True
            while raised:  # drain both, one raising callback at a time
                real, model = (side.run(None) for side in self.sides)
                assert real == model
                self.agree()
                raised = isinstance(real, str)
            assert all(side.eng.queue_depth == 0 for side in self.sides)
        finally:
            self._patch.stop()

    def _push(self, method: str, t: float, action, arg, priority) -> None:
        self.labels += 1
        for side in self.sides:
            side.push(getattr(side.eng, method), t, self.labels, action, arg,
                      priority)

    @rule(delay=OFFSETS, action=ACTIONS, arg=st.integers(0, 50),
          priority=PRIORITIES)
    def schedule(self, delay, action, arg, priority):
        self._push("schedule", delay, action, arg, priority)

    @rule(offset=OFFSETS, action=ACTIONS, arg=st.integers(0, 50),
          priority=PRIORITIES)
    def schedule_at(self, offset, action, arg, priority):
        # absolute instants on a grid, so that schedule() and
        # schedule_at() land on each other's instants
        now = self.sides[0].eng.now
        when = max(now, int(now) + offset)
        self._push("schedule_at", when, action, arg, priority)

    @rule(which=st.integers(0, 200), again=st.booleans())
    def cancel(self, which, again):
        for side in self.sides:
            if side.tokens:  # live, fired or already cancelled: all legal
                token = side.tokens[which % len(side.tokens)]
                side.eng.cancel(token)
                if again:
                    side.eng.cancel(token)

    @rule(bad=st.sampled_from([
        ("schedule", float("nan"), 0), ("schedule", -0.5, 0),
        ("schedule_at", float("nan"), 0), ("schedule_at", -1.0, 0),
        ("schedule", 0.0, 2), ("schedule_at", 1e9, -1),
    ]))
    def rejected(self, bad):
        method, t, priority = bad
        for side in self.sides:
            depth = side.eng.queue_depth
            with pytest.raises(ValueError):
                getattr(side.eng, method)(t, lambda: None, priority=priority)
            assert side.eng.queue_depth == depth

    @rule(window=st.none() | OFFSETS)
    def run_for(self, window):
        until = None if window is None else self.sides[0].eng.now + window
        outcomes = [side.run(until) for side in self.sides]
        assert outcomes[0] == outcomes[1]

    @invariant()
    def agree(self):
        real, model = (side.eng for side in self.sides)
        assert self.sides[0].fired == self.sides[1].fired
        assert (real.now, real.events, real.batches) == (
            model.now, model.events, model.batches
        )
        # exact between run() calls: every cell is counted, fired ones
        # are not, and the heap holds each pending instant once
        cells = [c for pair in real._buckets.values() for fifo in pair for c in fifo]
        assert real.queue_depth == len(cells)
        assert sum(c[0] is not None for c in cells) == model.queue_depth
        assert sorted(real._instants) == sorted(real._buckets)
        assert real._retiring is None


EngineAgainstModel.TestCase.settings = settings(
    max_examples=150, stateful_step_count=40, deadline=None
)
test_engine_against_model = EngineAgainstModel.TestCase
