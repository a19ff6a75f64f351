"""Deterministic discrete-event engine with generator-based processes.

Simulated processes are Python generators that ``yield`` *commands*; the
engine interprets each command, and resumes the generator
(``gen.send(value)``) when the command completes.  Sub-routines compose
with plain ``yield from``, so collective algorithms read like
straight-line MPI code.

Commands understood by the engine:

``Sleep(dt)``
    Suspend the process for ``dt`` simulated seconds.
``SimEvent``
    Suspend until the event is succeeded; ``succeed(value)`` resumes every
    waiter with ``value``.
``AnyOf(events)`` / ``AllOf(events)``
    Composite waits (used to build ``MPI_Waitany`` / ``MPI_Waitall``).
``Spawn(gen)``
    Start a child process *on the same simulated rank* and resume
    immediately with its :class:`SimProcess` handle.  This is how
    non-blocking collectives (Libnbc / ADAPT schedules) run concurrently
    with the caller while still sharing the rank's CPU progress engine.
``Join(proc)``
    Suspend until the given child process finishes; resumes with the
    child's return value.

Determinism: events due at one instant run in (priority, schedule
order), so repeated runs are bit-identical.  ``priority`` lets the fluid
solver batch same-instant flow arrivals into a single rate recomputation
(see :mod:`repro.sim.fluid`).

Event queue: simulated ranks move in lockstep (a paper-scale run retires
~110 events per distinct instant, a tuning sweep ~3.5) and only two
priorities exist, so the queue groups by instant and is FIFO inside -- a
dict ``instant -> (normal FIFO, late FIFO)`` of one-element ``[fn]``
cells plus a ``heapq`` of the *distinct* instants.  Append order is
schedule order, so there is no per-event key, sequence counter or sort.
A cell is its own cancellation token: ``cancel`` empties it, the loop
skips it, and once empty cells reach half the pending set the queue is
rebuilt without them, so schedule-then-cancel workloads (fault
injectors, flow epoch bumps) cannot grow it without bound.
"""

from __future__ import annotations

import gc
import heapq
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Generator, Iterable, Optional

__all__ = [
    "AllOf",
    "AnyOf",
    "DeadlockError",
    "Engine",
    "Join",
    "SimEvent",
    "SimProcess",
    "Sleep",
    "Spawn",
    "PRIORITY_NORMAL",
    "PRIORITY_LATE",
]

# Priorities for same-timestamp ordering.  "Late" callbacks (fluid-rate
# recomputation) run after every normal event scheduled for the same instant.
PRIORITY_NORMAL = 0
PRIORITY_LATE = 1

#: compaction trigger: at least this many cancelled cells *and* at
#: least half the pending queue cancelled (amortized O(1) per cancel)
_COMPACT_MIN = 64


class DeadlockError(RuntimeError):
    """Raised when the event queue drains while processes are still blocked."""


# Command dataclasses use ``slots`` but not ``frozen``: frozen's
# ``object.__setattr__`` init path is ~3x slower and these are built on
# the hot path (one Sleep per shared-memory hop).  Treat as immutable.


@dataclass(slots=True)
class Sleep:
    """Command: suspend the issuing process for ``dt`` simulated seconds."""

    dt: float


@dataclass(slots=True)
class Spawn:
    """Command: start ``gen`` as a child process; resume with its handle."""

    gen: Generator
    name: str = ""


@dataclass(slots=True)
class Join:
    """Command: wait for a spawned :class:`SimProcess` to finish."""

    proc: "SimProcess"


class SimEvent:
    """One-shot event; processes wait on it, someone succeeds it once.

    The value passed to :meth:`succeed` becomes the result of the ``yield``
    in every waiting process.
    """

    __slots__ = ("engine", "name", "triggered", "value", "_waiters", "callbacks")

    def __init__(self, engine: "Engine", name: str = ""):
        self.engine = engine
        self.name = name
        self.triggered = False
        self.value: Any = None
        self._waiters: list[SimProcess] = []
        # Plain callables invoked (synchronously, in order) on success;
        # used by AnyOf/AllOf and by the MPI request layer.
        self.callbacks: list[Callable[["SimEvent"], None]] = []

    def succeed(self, value: Any = None) -> None:
        if self.triggered:
            raise RuntimeError(f"event {self.name!r} succeeded twice")
        self.triggered = True
        self.value = value
        waiters, self._waiters = self._waiters, []
        cbs = self.callbacks
        if cbs:
            # detach before firing: composite-wait closures capture the
            # event list that contains this event, so a populated
            # callbacks list is a reference *cycle* — left in place, every
            # completed wait becomes collector-only garbage (~1M cyclic
            # objects per paper-scale run).  Detaching also preserves the
            # old iterate-over-a-copy semantics: mutations during firing
            # hit the fresh list and cannot affect this iteration.
            self.callbacks = []
            if len(cbs) == 1:
                cbs[0](self)
            else:
                for cb in cbs:
                    cb(self)
        if waiters:
            resume = self.engine._resume
            for proc in waiters:
                resume(proc, value)

    def _add_waiter(self, proc: "SimProcess") -> None:
        if self.triggered:
            self.engine._resume(proc, self.value)
        else:
            self._waiters.append(proc)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "set" if self.triggered else "pending"
        return f"<SimEvent {self.name!r} {state}>"


class AnyOf:
    """Composite command: resume when *any* of ``events`` has triggered.

    Resumes with ``(index, value)`` of the first event (already-triggered
    events win immediately, lowest index first).
    """

    __slots__ = ("events",)

    def __init__(self, events: Iterable[SimEvent]):
        self.events = events if type(events) is list else list(events)


class AllOf:
    """Composite command: resume when *all* of ``events`` have triggered.

    Resumes with the list of event values, in order.
    """

    __slots__ = ("events",)

    def __init__(self, events: Iterable[SimEvent]):
        self.events = events if type(events) is list else list(events)


class SimProcess:
    """Handle for a running generator-based simulated process."""

    __slots__ = (
        "engine", "gen", "name", "finished", "result", "done_event",
        "error", "children",
    )

    def __init__(self, engine: "Engine", gen: Generator, name: str = ""):
        self.engine = engine
        self.gen = gen
        self.name = name
        self.finished = False
        self.result: Any = None
        self.error: Optional[BaseException] = None
        self.done_event = SimEvent(engine, name=f"done:{name}")
        #: processes this one spawned while running (in spawn order);
        #: lets :meth:`Engine.kill` retire a whole process tree so no
        #: orphaned helper (e.g. a non-blocking collective's scheduler
        #: process) is left blocked forever
        self.children: list["SimProcess"] = []

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "finished" if self.finished else "running"
        return f"<SimProcess {self.name!r} {state}>"


#: cancellation token: the queue cell ``[fn]`` itself; firing or cancelling
#: the entry empties it, which makes the token single-use
Token = list


class Engine:
    """The discrete-event loop.

    Typical use::

        eng = Engine()
        def prog():
            yield Sleep(1.0)
            return 42
        p = eng.spawn(prog(), name="p0")
        eng.run()
        assert p.result == 42 and eng.now == 1.0
    """

    #: process-wide event counter (sum over every engine instance); lets
    #: benchmark harnesses compute events/sec across runtimes they never
    #: see (e.g. the ones :func:`measure_collective` creates internally)
    events_total: int = 0

    def __init__(self) -> None:
        self.now: float = 0.0
        #: events executed by this engine instance
        self.events: int = 0
        #: distinct instants retired (those with >= 1 executed event)
        self.batches: int = 0
        #: instant -> (normal FIFO, late FIFO) of ``[fn]`` cells
        self._buckets: dict[float, tuple[list, list]] = {}
        #: heap of the instants that have a bucket, each exactly once
        self._instants: list[float] = []
        #: the bucket run() holds cursors into, while it retires it
        self._retiring: Optional[tuple[list, list]] = None
        #: pending queue entries, including not-yet-reclaimed cancelled
        #: ones (run() settles it once per instant, not per event)
        self.queue_depth: int = 0
        #: cells cancelled since the last compaction and not yet retired
        self._ncancelled = 0
        self._live_procs: int = 0
        # live processes, for deadlock diagnostics: when the heap drains,
        # every unfinished process is by definition blocked, so a
        # spawn/finish registry replaces per-block bookkeeping (which
        # cost two dict ops on every suspend/resume)
        self._procs: dict[int, SimProcess] = {}
        # the process whose generator is currently executing (None
        # between steps); spawns made while it runs are recorded as its
        # children so kill() can retire whole process trees
        self._running: Optional[SimProcess] = None
        #: Optional perturbation hook ``(kind, who, duration) -> duration``
        #: consulted by components that charge simulated time (the per-rank
        #: progress servers with ``kind="cpu"`` and the fabric's message
        #: latencies with ``kind="net_latency"``).  ``who`` is the rank the
        #: cost is charged to.  ``None`` (the default) leaves every duration
        #: untouched, so runs without an installed hook are bit-identical
        #: to builds that predate it.  Fault injectors
        #: (:mod:`repro.faults`) install a dispatcher here.
        self.overhead_hook: Optional[Callable[[str, int, float], float]] = None
        #: Optional observability recorder (:mod:`repro.obs`).  Every
        #: instrumented component guards its emission with a single
        #: ``engine.obs is not None`` test, so a run without a recorder
        #: attached is bit-identical to (and as fast as) an uninstrumented
        #: build.
        self.obs: Optional[Any] = None

    # -- scheduling --------------------------------------------------------

    # NOTE: schedule() and schedule_at() duplicate the push body on
    # purpose -- one of them runs for every single event, and the extra
    # call layer of a shared _push() helper is measurable at paper scale.
    # Their guards are spelled ``not x >= y`` so that NaN fails them too.

    def schedule(
        self, delay: float, fn: Callable[[], None], priority: int = PRIORITY_NORMAL
    ) -> Token:
        """Run ``fn()`` after ``delay`` seconds; returns a cancellable token."""
        if not delay >= 0:
            raise ValueError(f"delay must be >= 0, got {delay}")
        if priority and priority != PRIORITY_LATE:
            raise ValueError(f"unknown priority {priority!r}")
        when = self.now + delay
        bucket = self._buckets.get(when)
        if bucket is None:
            bucket = self._buckets[when] = ([], [])
            heapq.heappush(self._instants, when)
        cell = [fn]
        bucket[priority].append(cell)
        self.queue_depth += 1
        return cell

    def schedule_at(
        self, when: float, fn: Callable[[], None], priority: int = PRIORITY_NORMAL
    ) -> Token:
        """Run ``fn()`` at absolute simulated time ``when``.

        ``when`` itself keys the queue (no ``now + (when - now)`` round
        trip, which can be off by an ulp): the fluid solver relies on a
        flow completion firing at the bit-identical instant however many
        unrelated events were processed in between.
        """
        if not when >= self.now:
            raise ValueError(f"when={when} is in the past or NaN (now={self.now})")
        if priority and priority != PRIORITY_LATE:
            raise ValueError(f"unknown priority {priority!r}")
        bucket = self._buckets.get(when)
        if bucket is None:
            bucket = self._buckets[when] = ([], [])
            heapq.heappush(self._instants, when)
        cell = [fn]
        bucket[priority].append(cell)
        self.queue_depth += 1
        return cell

    def is_last(self, when: float, token: Token) -> bool:
        """Is ``token`` the newest normal-priority entry of instant ``when``?

        While it is, whatever gets scheduled for ``when`` next runs right
        behind it -- which lets a caller fold that work into the entry
        ``token`` stands for without moving anything in the instant's
        order.  Fired or not makes no difference.
        """
        bucket = self._buckets.get(when)
        if bucket is None:
            return False
        cells = bucket[0]  # empty when only late entries are queued
        return cells[-1] is token if cells else False

    def cancel(self, token: Token) -> None:
        """Cancel a previously scheduled callback.

        A no-op on a token whose entry already fired or was already
        cancelled.  Deletion is lazy -- the cell is emptied and skipped
        at retirement -- until cancelled cells reach half the pending
        set, which compacts the queue.
        """
        if token[0] is None:
            return
        token[0] = None  # releases the closure now, not at retirement
        n = self._ncancelled = self._ncancelled + 1
        if n >= _COMPACT_MIN and n * 2 >= self.queue_depth:
            self._compact()

    def _compact(self) -> None:
        """Rebuild the lists and the instant heap without cancelled cells."""
        buckets = self._buckets
        for t, bucket in list(buckets.items()):
            if bucket is self._retiring:
                continue  # run() holds cursors into these two lists
            for cells in bucket:
                cells[:] = [cell for cell in cells if cell[0] is not None]
            if not (bucket[0] or bucket[1]):
                del buckets[t]
        self._instants[:] = buckets  # in place: run() holds an alias
        heapq.heapify(self._instants)
        self.queue_depth = sum(len(n) + len(late) for n, late in buckets.values())
        self._ncancelled = 0

    def event(self, name: str = "") -> SimEvent:
        """Create a fresh one-shot :class:`SimEvent` bound to this engine."""
        return SimEvent(self, name)

    # -- processes ----------------------------------------------------------

    def spawn(self, gen: Generator, name: str = "") -> SimProcess:
        """Start ``gen`` as a simulated process at the current time."""
        proc = SimProcess(self, gen, name)
        if self._running is not None:
            self._running.children.append(proc)
        self._live_procs += 1
        self._procs[id(proc)] = proc
        # partial over lambda on hot dispatch paths: the C-level call
        # skips the closure's Python frame
        self.schedule(0.0, partial(self._resume, proc, None))
        return proc

    def spawn_eager(self, gen: Generator, name: str = "") -> SimProcess:
        """Start ``gen`` and run it synchronously until its first block.

        Non-blocking collectives (MPI_Ibcast & co.) initiate their first
        operations *inside* the call before returning; eager spawning
        preserves that: the child's initial sends are enqueued on the
        progress server ahead of whatever the caller does next.
        """
        proc = SimProcess(self, gen, name)
        if self._running is not None:
            self._running.children.append(proc)
        self._live_procs += 1
        self._procs[id(proc)] = proc
        self._resume(proc, None)
        return proc

    def kill(self, proc: SimProcess) -> None:
        """Forcibly finish a process at the current instant.

        The generator is closed (its ``finally`` blocks run), the process
        is marked finished with result ``None``, and every resumption
        still pending for it — sleeps, event successions, message
        completions — becomes a no-op.  In-flight side effects the
        process started (fluid flows, progress-server work) run to
        completion on their own; only the *process* stops issuing new
        work.  This is how the tenant scheduler (:mod:`repro.tenancy`)
        retires background jobs the moment the foreground measurement
        completes: the kill happens at one deterministic point in event
        order, so runs remain bit-identical.

        The kill cascades: every live process ``proc`` spawned while
        running (non-blocking collective schedulers, nested helpers) is
        killed too, in spawn order, so no orphaned child is left blocked
        on a message its parent will never send.

        Killing an already-finished process is a no-op.
        """
        if proc.finished:
            return
        proc.gen.close()
        self._finish(proc, None, None)
        for child in proc.children:
            self.kill(child)

    def _resume(self, proc: SimProcess, value: Any) -> None:
        if proc.finished:
            return
        prev, self._running = self._running, proc
        try:
            cmd = proc.gen.send(value)
        except StopIteration as stop:
            self._finish(proc, stop.value, None)
            return
        except BaseException as exc:  # propagate at run()
            self._finish(proc, None, exc)
            raise
        finally:
            self._running = prev
        self._dispatch(proc, cmd)

    def _finish(self, proc: SimProcess, result: Any, error) -> None:
        proc.finished = True
        proc.result = result
        proc.error = error
        self._live_procs -= 1
        self._procs.pop(id(proc), None)
        proc.done_event.succeed(result)

    def _dispatch(self, proc: SimProcess, cmd: Any) -> None:
        """Interpret one yielded command for ``proc``."""
        # isinstance chain ordered by yield frequency at scale: plain
        # event waits, then waitall (every sendrecv), then the rest
        if isinstance(cmd, SimEvent):
            cmd._add_waiter(proc)
        elif isinstance(cmd, AllOf):
            self._wait_all(proc, cmd.events)
        elif isinstance(cmd, Sleep):
            self.schedule(cmd.dt, partial(self._resume, proc, None))
        elif isinstance(cmd, Spawn):
            child = self.spawn_eager(cmd.gen, name=cmd.name or f"{proc.name}/child")
            self.schedule(0.0, partial(self._resume, proc, child))
        elif isinstance(cmd, Join):
            target = cmd.proc
            if target.finished:
                self.schedule(0.0, partial(self._resume, proc, target.result))
            else:
                target.done_event._add_waiter(proc)
        elif isinstance(cmd, AnyOf):
            self._wait_any(proc, cmd.events)
        else:
            raise TypeError(
                f"process {proc.name!r} yielded unsupported command {cmd!r}"
            )

    def _wait_any(self, proc: SimProcess, events: list[SimEvent]) -> None:
        for idx, ev in enumerate(events):
            if ev.triggered:
                self.schedule(0.0, partial(self._resume, proc, (idx, ev.value)))
                return
        state = {"done": False}
        cbs: list = []

        def make_cb(idx: int):
            def cb(ev: SimEvent) -> None:
                if state["done"]:
                    return
                state["done"] = True
                # sweep every registered sibling callback off the losing
                # events: without this, long-lived events accumulate dead
                # closures (and their captured processes) without bound
                for e, c in zip(events, cbs):
                    try:
                        e.callbacks.remove(c)
                    except ValueError:
                        pass
                self._resume(proc, (idx, ev.value))

            return cb

        for idx, ev in enumerate(events):
            cb = make_cb(idx)
            cbs.append(cb)
            ev.callbacks.append(cb)

    def _wait_all(self, proc: SimProcess, events: list[SimEvent]) -> None:
        pending = 0
        for ev in events:
            if not ev.triggered:
                pending += 1
        if pending == 0:
            values = [ev.value for ev in events]
            self.schedule(0.0, partial(self._resume, proc, values))
            return
        state = [pending]

        def cb(_ev: SimEvent) -> None:
            state[0] -= 1
            if state[0] == 0:
                self._resume(proc, [e.value for e in events])

        for ev in events:
            if not ev.triggered:
                ev.callbacks.append(cb)

    # -- main loop -----------------------------------------------------------

    def run(self, until: Optional[float] = None) -> float:
        """Drain the event queue; returns the final simulated time.

        With ``until=T`` the loop stops once the next entry lies beyond
        ``T`` *or* the queue drains early — either way ``now`` advances
        to exactly ``T``, so both stop paths agree.  Raises
        :class:`DeadlockError` if processes remain blocked with no
        pending events (a genuinely hung simulation), and re-raises any
        exception a simulated process died with.

        The Python garbage collector is paused for the duration of the
        loop (and restored on exit): the event machinery allocates
        heavily but creates no garbage cycles on the hot path, and
        collector passes were ~half the wall time of paper-scale runs.
        """
        if until is not None and until < self.now:
            return self.now
        events_before = self.events
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            self._retire(until)
        finally:
            # the process-wide counter is updated in one batch: a
            # per-event class-attribute store is measurable at scale
            executed = self.events - events_before
            Engine.events_total += executed
            if gc_was_enabled:
                if executed > 150_000:
                    # big runs defer a mountain of collector work; paying
                    # it here (~0.15 s) beats the multi-second stall the
                    # re-enabled collector would otherwise take at an
                    # arbitrary later allocation
                    gc.collect()
                gc.enable()
        if until is not None:
            if until > self.now:
                self.now = until
        elif self._live_procs > 0:
            blocked = sorted(
                p.name for p in self._procs.values() if not p.finished
            )
            raise DeadlockError(
                f"simulation deadlock: {self._live_procs} live process(es), "
                f"blocked: {blocked[:20]}"
            )
        return self.now

    def _retire(self, until: Optional[float]) -> None:
        """Retire instant after instant, up to and including ``until``."""
        buckets, instants = self._buckets, self._instants
        while instants:
            t = instants[0]
            if until is not None and t > until:
                return
            normal, late = bucket = buckets[t]
            i = j = 0  # cursors: callbacks may append to both lists
            opened = False
            try:
                self._retiring = bucket
                while True:
                    # normal cells first, re-checked after every late one:
                    # what a callback schedules for this instant joins it
                    if i < len(normal):
                        cell = normal[i]
                        i += 1
                    elif j < len(late):
                        cell = late[j]
                        j += 1
                    else:
                        break
                    fn = cell[0]
                    if fn is None:  # cancelled
                        if self._ncancelled:  # 0 after a compaction
                            self._ncancelled -= 1
                        continue
                    if not opened:  # a cancelled-only instant never gets here
                        self.now = t
                        self.batches += 1
                        opened = True
                    cell[0] = None  # spends the token
                    self.events += 1
                    fn()
            except BaseException:
                # fired cells read as cancelled: drop them for the next run()
                del normal[:i], late[:j]
                raise
            else:
                # t is still the earliest: nothing schedules into the past
                heapq.heappop(instants)
                del buckets[t]
            finally:
                self.queue_depth -= i + j
                self._retiring = None
