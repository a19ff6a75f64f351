"""The `sm` module: bounce-buffer shared-memory collectives.

Open MPI's ``coll/sm``: ranks exchange data through a pre-mapped shared
segment of small fragments.  Setup is nearly free (the segment and its
flags are persistent), but every byte crosses the memory bus four times
on its way root -> shared buffer -> receiver (write: read-src+write-shm;
read: read-shm+write-dst) and the per-fragment flag dance adds a small
cost proportional to ceil(m / fragment).

Net effect, as the paper states (section III): "SM has better performance
for small messages while SOLO performs significantly better as the
communication size increases".  Reductions are scalar (no AVX, IV-A2).

SM's own bodies -- the children-write / root-drains reduce and gather
and the fragment-pipelined bcast -- each run as one *call instance*
shared by the node's ranks (:class:`_Drain`, :class:`_Pipe`), kept in
the call's shared state and opened by the first rank to enter.  A rank's
call is one wait on one event; the instance runs each of the rank's
steps as a callback in the engine cell that completes the step before
it, so a call issues its grants, flows and cells in the order a
straight-line generator body would (DESIGN.md section 4p).  A rank
whose process was killed takes no further step.
"""

from __future__ import annotations

import math
from functools import partial

from repro.modules.shm_common import ShmModule
from repro.mpi.op import SUM
from repro.sim.engine import SimEvent, Sleep

__all__ = ["SMModule"]


class SMModule(ShmModule):
    name = "sm"
    avx = False
    nonblocking = False

    #: shared-segment fragment size (bytes)
    fragment = 8 * 1024
    #: flag handling per fragment (seconds)
    frag_overhead = 0.05e-6
    #: fraction of peak copy bandwidth a reader achieves through the
    #: fragment pipeline (flag polling between 8KB fragments); this is
    #: SM's large-message handicap vs SOLO's single big copy.
    pipe_efficiency = 0.6

    def __init__(self, setup_overhead: float = 0.2e-6):
        self.setup_overhead = setup_overhead

    def _flag_time(self, nbytes: float) -> float:
        """Per-fragment flag handling for ``nbytes``, as one CPU lump."""
        return max(1, math.ceil(nbytes / self.fragment)) * self.frag_overhead

    def _stage_cost(self, comm, nbytes: float):
        return comm.compute(self._flag_time(nbytes))

    def _call(self, comm, coll, nbytes, root, payload, kind, op=None):
        """Enter ``comm.rank`` into this call's instance (the first rank
        to enter opens it); returns the event the rank waits on."""
        state = self._begin(comm, coll, nbytes, root)
        call = state.get("call")
        if call is None:
            call = state["call"] = kind(self, comm, state, nbytes, root, op)
        return call.enter(comm, payload)

    # -- bcast ----------------------------------------------------------------

    def bcast(self, comm, nbytes, root=0, payload=None, algorithm=None, segsize=None):
        """Fragment pipeline: readers start as soon as the first fragment
        landed and drain the bounce buffer at the pipeline rate."""
        if comm.size == 1:
            return payload
        result = yield self._call(comm, "bcast", nbytes, root, payload, _Pipe)
        return result

    # -- reduce and gather: children write, the root drains ------------------------

    def reduce(
        self, comm, nbytes, root=0, payload=None, op=SUM, algorithm=None, segsize=None
    ):
        """Root drains contributions in rank order: read + scalar combine."""
        if comm.size == 1:
            return payload
        result = yield self._call(comm, "reduce", nbytes, root, payload, _Drain, op)
        return result

    def gather(self, comm, nbytes, root=0, payload=None):
        """Children write blocks to the shared segment; root reads them all."""
        if comm.size == 1:
            return payload
        result = yield self._call(comm, "gather", nbytes, root, payload, _Drain)
        return result

    # -- composed collectives ----------------------------------------------------------------

    def allreduce(self, comm, nbytes, payload=None, op=SUM, algorithm=None, segsize=None):
        reduced = yield from self.reduce(comm, nbytes, root=0, payload=payload, op=op)
        result = yield from self.bcast(
            comm, nbytes, root=0, payload=reduced if comm.rank == 0 else None
        )
        return result

    def barrier(self, comm):
        """Flag counter in the shared segment; leaving reads the release
        flag once more."""
        yield from super().barrier(comm)
        if comm.size > 1:
            yield Sleep(comm.runtime.machine.node.shm_latency)


class _Call:
    """One SM call on one node, run for all of its ranks.

    Every step method takes the rank it is a step of and starts with the
    kill guard: a rank whose process finished early (a killed tenant job)
    issues nothing more, as its closed generator would not.  A step that
    releases another rank -- the root, released by the write it waits
    for or by the last reader -- runs that rank's next step before the
    releasing rank returns, as ``SimEvent.succeed`` resumes a waiter
    before its caller goes on.
    """

    __slots__ = (
        "sm", "key", "node", "nbytes", "root", "size", "engine", "comms",
        "cpus", "procs", "exits", "left",
    )

    def __init__(self, sm: SMModule, comm, state: dict, nbytes: float,
                 root: int) -> None:
        self.sm = sm
        # the state dict keeps the instance; the instance keeps only the
        # key, so a finished call leaves no reference cycle behind
        self.key = state["key"]
        self.node = state["node"]
        self.nbytes = nbytes
        self.root = root
        n = self.size = comm.size
        self.engine = comm.runtime.engine
        self.comms: list = [None] * n
        self.cpus: list = [None] * n
        #: the process running each rank's call
        self.procs: list = [None] * n
        #: the event each rank waits on; it carries the rank's result
        self.exits: list = [None] * n
        #: ranks still in the call
        self.left = n

    def enter(self, comm, payload) -> SimEvent:
        """``comm.rank`` calls: pay the setup, then take its first step."""
        rank = comm.rank
        self._arrived(rank, payload)
        engine = self.engine
        ev = self.exits[rank] = SimEvent(engine, "sm-call")
        self.comms[rank] = comm
        self.cpus[rank] = comm.runtime.fabric.progress[comm.world_rank]
        self.procs[rank] = engine._running
        setup = self.sm.setup_overhead
        if setup > 0:
            self._cpu(rank, setup, self._start)
        else:
            self._start(rank)
        return ev

    def _cpu(self, rank: int, seconds: float, then, label: str = "compute",
             **span_args) -> None:
        """Grant ``rank`` ``seconds`` of CPU, then run ``then(rank)``."""
        self.cpus[rank].request_call(seconds, partial(then, rank), label,
                                     **span_args)

    def _flags(self, rank: int, then) -> None:
        """The fragment-flag grant of ``rank``'s copy, then ``then``."""
        self._cpu(rank, self.sm._flag_time(self.nbytes), then)

    def _copy(self, rank: int, then, copies: int = 2, rate_cap=None) -> None:
        """``rank`` moves the call's bytes across the memory bus."""
        ShmModule._copy(self.comms[rank], self.node, self.nbytes,
                        partial(then, rank), copies, rate_cap)

    def _finish(self, rank: int, result) -> None:
        """``rank`` returns ``result``; the last one out drops the state."""
        self.left -= 1
        if not self.left:
            self.comms[rank].runtime.drop_coll_state(self.key)
        self.exits[rank].succeed(result)


class _Drain(_Call):
    """reduce / gather: every child writes its block into the shared
    segment (flag grant, copy); the root drains the blocks in rank order,
    each one copy after its writer finished, and reduce combines each at
    the scalar kernel rate, after its own flag grant up front."""

    __slots__ = ("op", "contrib", "written", "cursor", "blocked")

    def __init__(self, sm, comm, state, nbytes, root, op) -> None:
        super().__init__(sm, comm, state, nbytes, root)
        #: the reduction; None for gather
        self.op = op
        self.contrib: dict = {}
        self.written = [False] * self.size
        #: the child the root drains next
        self.cursor = 0
        #: the root waits for the cursor child's write
        self.blocked = False

    def _arrived(self, rank, payload) -> None:
        self.contrib[rank] = payload

    def _start(self, rank) -> None:
        if self.procs[rank].finished:
            return
        if rank != self.root:
            self._flags(rank, self._write)
        elif self.op is not None:
            self._flags(rank, self._drain)
        else:
            self._drain(rank)

    def _write(self, rank) -> None:
        if self.procs[rank].finished:
            return
        self._copy(rank, self._written)

    def _written(self, rank) -> None:
        if self.procs[rank].finished:
            return
        self.written[rank] = True
        root = self.root
        if self.blocked and self.cursor == rank:
            self.blocked = False
            if not self.procs[root].finished:
                self._copy(root, self._fetched)
        self._finish(rank, None)

    def _drain(self, root) -> None:
        """The root takes the cursor child's block once it is written."""
        if self.procs[root].finished:
            return
        if self.cursor == root:
            self.cursor += 1
        if self.cursor == self.size:
            self._finish(root, self._result())
        elif self.written[self.cursor]:
            self._copy(root, self._fetched)
        else:
            self.blocked = True

    def _fetched(self, root) -> None:
        if self.procs[root].finished:
            return
        self.cursor += 1
        if self.op is None:
            self._drain(root)
            return
        node = self.comms[root].runtime.machine.node
        rate = node.reduce_bw_avx if self.sm.avx else node.reduce_bw
        self._cpu(root, self.nbytes / rate, self._drain, "reduce",
                  nbytes=self.nbytes)

    def _result(self):
        size, contrib = self.size, self.contrib
        if self.op is None:
            return ShmModule._gathered([contrib.get(r) for r in range(size)])
        return ShmModule._fold(contrib, size, self.op)


class _Pipe(_Call):
    """bcast: the root schedules the first fragment's flag, pays the
    fragment flags and writes the bounce buffer, then waits until the
    readers drained it; each reader waits for that flag, pays the flags
    and reads the buffer at the pipeline rate."""

    __slots__ = ("payload", "staged", "waiting", "read", "drained",
                 "root_waits")

    def __init__(self, sm, comm, state, nbytes, root, op) -> None:
        super().__init__(sm, comm, state, nbytes, root)
        self.payload = None
        #: the first fragment landed; readers waiting for it, in order
        self.staged = False
        self.waiting: list[int] = []
        self.read = 0
        self.drained = False
        self.root_waits = False

    def _arrived(self, rank, payload) -> None:
        if rank == self.root:
            self.payload = payload
        elif payload is not None:
            raise ValueError("payload may only be supplied at the root")

    def _start(self, rank) -> None:
        if self.procs[rank].finished:
            return
        if rank == self.root:
            node = self.comms[rank].runtime.machine.node
            # readers may start as soon as the first fragment landed
            first = min(self.sm.fragment, self.nbytes)
            self.engine.schedule(
                node.shm_latency + first / node.copy_bw, self._staged
            )
            self._flags(rank, self._write)
        elif self.staged:
            self._flags(rank, self._read)
        else:
            self.waiting.append(rank)

    def _staged(self) -> None:
        self.staged = True
        waiting, self.waiting = self.waiting, []
        for rank in waiting:
            if not self.procs[rank].finished:
                self._flags(rank, self._read)

    def _write(self, root) -> None:
        if self.procs[root].finished:
            return
        self._copy(root, self._written)

    def _written(self, root) -> None:
        # bounce-buffer backpressure: the fragment pool is finite, so the
        # root cannot retire the call until the readers drained it
        if self.procs[root].finished:
            return
        if self.drained:
            self._finish(root, self.payload)
        else:
            self.root_waits = True

    def _read(self, rank) -> None:
        if self.procs[rank].finished:
            return
        # the bounce fragment is cache-resident when read: one bus
        # crossing (the write to the destination buffer)
        copy_bw = self.comms[rank].runtime.machine.node.copy_bw
        self._copy(rank, self._done_reading, copies=1,
                   rate_cap=copy_bw * self.sm.pipe_efficiency)

    def _done_reading(self, rank) -> None:
        if self.procs[rank].finished:
            return
        self.read += 1
        if self.read == self.size - 1:
            self.drained = True
            root = self.root
            if self.root_waits and not self.procs[root].finished:
                self._finish(root, self.payload)
        self._finish(rank, self.payload)
