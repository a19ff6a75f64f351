"""One shared-memory call driver for the intra-node modules SM, SOLO and GPU.

These modules bypass the MPI point-to-point stack entirely: ranks
synchronize through node-local flags and move data as memory-bus or
device fluid flows.  Every collective call is one *call instance* per
``(module, cid, tag block)``, kept in the call's shared state and opened
by the first rank to enter (DESIGN.md section 4p).  A rank's call is one
wait on one event.  Each role of a collective is written once, as a
short list of *steps*, and the instance runs a rank's steps from the
engine cell that completes the step before: a CPU ``grant``, a host copy
on the memory ``bus`` (the flow first, then its CPU half), a copy
``on_device``, one ``FLAG_DELAY``, a ``timer`` that raises a flag from a
cell of its own, ``wait`` for a flag, ``count`` one arrival at it (the
n-th raises it, which runs its waiters in wait order before the counting
rank goes on; ``RAISE_OWN`` raises the rank's own flag) and ``leave``
with the rank's result.

A concrete module is a *transport policy*: its hooks return the steps
of one staging move.

- ``_stage_cost``: CPU bookkeeping before a copy (SM's fragment flags,
  GPU's kernel launch, nothing for SOLO);
- ``_stage``: make a root's buffer visible to its readers (SM's
  bounce-buffer write, SOLO's window exposure, GPU's host->device copy);
- ``_read``: pull peers' bytes (a host copy, or NVLink on GPUs);
- ``_unstage``: land a device result in host memory (GPU only);
- ``_post``: stage every rank's send buffer (GPU exposes it in place).

There are exactly two copy sites: the ``bus`` step and
:func:`_device_copy`.  ``copies`` counts how many times each byte crosses
the memory bus -- the lever that separates SM's bounce-buffer pipe
(write 2x + read 2x) from SOLO's one-sided direct copy (read 2x only).
"""

from __future__ import annotations

import math
from functools import partial, reduce

import numpy as np

from repro.colls.util import coll_tag_block
from repro.modules.base import CollModule
from repro.mpi.communicator import Communicator
from repro.mpi.op import SUM
from repro.sim.engine import SimEvent

__all__ = ["ShmModule", "gpu_copy"]


class _Both:
    """Join two completions: ``arrive`` twice, and the second call runs
    ``fn()``."""

    __slots__ = ("fn", "left")

    def __init__(self, fn) -> None:
        self.fn = fn
        self.left = 2

    def arrive(self) -> None:
        self.left -= 1
        if not self.left:
            self.fn()


def _device_copy(comm: Communicator, nbytes: float, path: str, fn) -> None:
    """Device-side transfer ('nvlink', 'h2d' or 'd2h') of ``nbytes`` > 0
    charged by the calling rank; calls ``fn()`` once drained.

    NVLink flows ride the calling rank's own island; on split-fabric
    nodes a comm spanning islands puts each rank's traffic on its local
    fabric (the island-level composite in repro.core routes cross-island
    bytes over PCIe instead of calling this flat path).
    """
    fabric = comm.runtime.fabric
    rank = comm.world_rank
    fabric.gpu_flow(
        fabric.node_of(rank), nbytes, fn, path=path,
        domain=fabric.fabric_domain_of(rank),
    )


def gpu_copy(comm: Communicator, nbytes: float, path: str):
    """:func:`_device_copy`, yielding until drained (the leader
    composite's staging hop)."""
    if nbytes <= 0:
        return
    ev = comm.runtime.engine.event(f"gpu-{path}")
    _device_copy(comm, nbytes, path, ev.succeed)
    yield ev


def _block(src, size: int, rank: int):
    """Rank ``rank``'s element-aligned block of ``size`` equal blocks."""
    if src is None:
        return None
    bounds = np.linspace(0, src.size, size + 1).astype(int)
    return src[bounds[rank] : bounds[rank + 1]]


def _concat(parts):
    """The concatenation of ``parts``; ``None`` if any is missing."""
    if any(p is None for p in parts):
        return None
    return np.concatenate(parts)


class _Call:
    """One intra-node collective call on one node, run for all its ranks.

    A step is a tuple ``(op, *args)``; ``op(call, rank, step)`` issues it
    and returns True when the rank now waits for something else to run
    its next step.  :meth:`_run` starts every step with the kill guard: a
    rank whose process finished early (a killed tenant job) takes no
    further step, as its closed generator would not resume.
    """

    __slots__ = (
        "key", "coll", "node", "root", "op", "size", "engine", "fabric",
        "shm_latency", "copy_bw", "comms", "cpus", "procs", "exits",
        "steps", "pcs", "left", "contrib", "payload", "result", "flags",
        "counts", "roles",
    )

    def __init__(self, comm, coll, key, node, root, op) -> None:
        # the state dict keeps the instance; the instance keeps only the
        # key, so a finished call leaves no reference cycle behind
        self.key = key
        #: the collective this call serves
        self.coll = coll
        self.node = node
        self.root = root
        self.op = op
        runtime = comm.runtime
        self.engine = runtime.engine
        self.fabric = runtime.fabric
        self.shm_latency = runtime.machine.node.shm_latency
        self.copy_bw = runtime.machine.node.copy_bw
        n = self.size = comm.size
        self.comms: list = [None] * n
        self.cpus: list = [None] * n
        #: the process running each rank's call
        self.procs: list = [None] * n
        #: the event each rank waits on; it carries the rank's result
        self.exits: list = [None] * n
        self.steps: list = [None] * n
        self.pcs = [0] * n
        #: ranks still in the call
        self.left = n
        self.contrib: list = [None] * n
        self.payload = self.result = None
        #: waiting ranks per flag (None once raised), arrivals per flag
        self.flags: dict = {}
        self.counts: dict = {}
        #: the steps of each kind of rank (see ShmModule._call)
        self.roles: dict = {}

    def enter(self, comm, payload, steps) -> SimEvent:
        """``comm.rank`` calls with ``payload`` and runs ``steps``."""
        rank = comm.rank
        self.contrib[rank] = payload
        if rank == self.root:
            self.payload = payload
        ev = self.exits[rank] = SimEvent(self.engine, "shm-call")
        self.comms[rank] = comm
        self.cpus[rank] = self.fabric.progress[comm.world_rank]
        self.procs[rank] = self.engine._running
        self.steps[rank] = steps
        self._run(rank)
        return ev

    def _run(self, rank: int) -> None:
        """Run ``rank``'s steps from its next one until one has it wait."""
        steps, proc, pcs = self.steps[rank], self.procs[rank], self.pcs
        while not proc.finished:
            pc = pcs[rank]
            pcs[rank] = pc + 1
            step = steps[pc]
            if step[0](self, rank, step):
                return

    # -- the steps ----------------------------------------------------------------

    def grant(self, rank, step) -> bool:
        _, seconds, label, args = step
        self.cpus[rank].request_call(
            seconds, partial(self._run, rank), label, **args
        )
        return True

    def bus(self, rank, step) -> bool:
        """A CPU-driven memcpy: the bytes occupy the node's memory bus
        *and* the copying rank's CPU for the minimum copy duration, which
        makes `sb` contend with a concurrent `ib` on a single-threaded
        rank (the paper's imperfect-overlap factor (2), III-A2).  The
        rank goes on in the cell of whichever half finishes last."""
        _, nbytes, copies, rate_cap = step
        if nbytes <= 0:
            return False
        both = _Both(partial(self._run, rank))
        self.fabric.membus_flow(
            self.node, nbytes, both.arrive, copies=copies, rate_cap=rate_cap
        )
        self.cpus[rank].request_call(nbytes / self.copy_bw, both.arrive)
        return True

    def on_device(self, rank, step) -> bool:
        _, nbytes, path = step
        if nbytes <= 0:
            return False
        _device_copy(self.comms[rank], nbytes, path, partial(self._run, rank))
        return True

    def flag_delay(self, rank, step) -> bool:
        self.engine.schedule(self.shm_latency, partial(self._run, rank))
        return True

    def timer(self, rank, step) -> bool:
        # the cell is the call's, not the rank's: it fires even if the
        # rank is killed before it does
        self.engine.schedule(step[1], partial(self._raise, step[2]))
        return False

    def wait(self, rank, step) -> bool:
        waiters = self.flags.setdefault(step[1], [])
        if waiters is None:  # raised
            return False
        waiters.append(rank)
        return True

    def count(self, rank, step) -> bool:
        _, flag, n = step
        seen = self.counts[flag] = self.counts.get(flag, 0) + 1
        if seen == n:
            self._raise(flag)
        return False

    def raise_own(self, rank, step) -> bool:
        self._raise(rank)
        return False

    def _raise(self, flag) -> None:
        waiters = self.flags.get(flag)
        self.flags[flag] = None
        for rank in waiters or ():
            self._run(rank)

    def leave(self, rank, step) -> bool:
        """``rank`` returns; the last one out drops the shared state."""
        self.left -= 1
        if not self.left:
            self.comms[rank].runtime.drop_coll_state(self.key)
        result = step[1]
        self.exits[rank].succeed(None if result is None else result(self, rank))
        return True

    # -- results ------------------------------------------------------------------

    def root_buffer(self, rank):
        return self.payload

    def block(self, rank):  # scatter
        return _block(self.payload, self.size, rank)

    def fold(self, rank):
        """The ranks' buffers combined in rank order, MPI's order for a
        non-commutative op (``None`` if any is missing); computed once."""
        if self.result is None and all(v is not None for v in self.contrib):
            self.result = reduce(self.op, self.contrib)
        return self.result

    def fold_block(self, rank):
        return _block(self.fold(rank), self.size, rank)

    def gathered(self, rank):
        return _concat(self.contrib)

    def exchange(self, rank):
        """Alltoall: my block of every rank's buffer, in rank order."""
        return _concat([_block(c, self.size, rank) for c in self.contrib])


# -- the step constructors ----------------------------------------------------------

def grant(seconds: float, label: str = "compute", **span_args) -> tuple:
    return (_Call.grant, seconds, label, span_args)


def bus(nbytes: float, copies: int = 2, rate_cap=None) -> tuple:
    """By default 2 crossings at the node's ``copy_bw`` (what
    ``membus_flow`` charges without a ``rate_cap``)."""
    return (_Call.bus, nbytes, copies, rate_cap)


def on_device(nbytes: float, path: str) -> tuple:
    return (_Call.on_device, nbytes, path)


def timer(seconds: float, flag) -> tuple:
    return (_Call.timer, seconds, flag)


def wait(flag) -> tuple:
    return (_Call.wait, flag)


def count(flag, n: int = 1) -> tuple:
    return (_Call.count, flag, n)


def leave(result=None) -> tuple:
    """Hand the rank ``result(call, rank)`` (a ``_Call`` result method)."""
    return (_Call.leave, result)


FLAG_DELAY = (_Call.flag_delay,)
#: raise the flag named by the rank's own number
RAISE_OWN = (_Call.raise_own,)


class ShmModule(CollModule):
    """Base for intra-node modules: the call driver plus the collectives
    written over the transport hooks.

    Data contracts match repro.colls: scatter/reduce_scatter take the
    *total* byte count (``size`` equal blocks); gather/allgather/alltoall
    take one block.  Every collective is element-exact when given
    integer float64 payloads, which is what locks them into the payload
    oracle.
    """

    #: per-call, per-rank setup cost (seconds)
    setup_overhead: float = 0.0

    # -- the call -----------------------------------------------------------------

    def _begin(self, comm: Communicator, coll: str, nbytes: float,
               root: int | None) -> int:
        """Validate the arguments and intra-node scope; returns the node."""
        if not 0 <= nbytes < math.inf:  # spelled so that NaN fails too
            raise ValueError(
                f"{self.name} {coll}: nbytes must be finite and >= 0, "
                f"got {nbytes!r}"
            )
        if root is not None and not 0 <= root < comm.size:
            raise ValueError(
                f"{self.name} {coll}: root must be in [0, {comm.size}), "
                f"got {root!r}"
            )
        node = comm.runtime.single_node_of_comm(comm.cid, comm.group)
        if node is None:
            raise ValueError(
                f"{self.name} is an intra-node module; communicator spans "
                "multiple nodes"
            )
        return node

    def _call(self, comm, coll, nbytes, root, payload, role, *args, op=None):
        """One collective call of ``comm.rank``: enter the call's instance
        (the first rank to enter opens it) with the setup grant and the
        steps ``role(comm, nbytes, root, payload, *args)`` builds, and
        wait for the result.  ``root`` is None for an unrooted collective."""
        if comm.size == 1:
            return payload
        node = self._begin(comm, coll, nbytes, root)
        key = (self.name, comm.cid, coll_tag_block(comm))
        state = comm.runtime.coll_state(key)
        call = state.get("call")
        if call is None:
            call = state["call"] = _Call(comm, coll, key, node, root, op)
        # a role's steps depend on the rank only through whether it is the
        # root and whether it brought a payload (a fan-out refuses one off
        # the root), so the ranks of one kind build them once and share them
        kind = (comm.rank == root, payload is None)
        steps = call.roles.get(kind)
        if steps is None:
            steps = role(comm, nbytes, root, payload, *args)
            if self.setup_overhead > 0:
                steps = (grant(self.setup_overhead), *steps)
            call.roles[kind] = steps
        result = yield call.enter(comm, payload, steps)
        return result

    # -- the transport hooks ------------------------------------------------------

    def _stage_cost(self, comm: Communicator, nbytes: float) -> tuple:
        """CPU bookkeeping before a copy (none by default)."""
        return ()

    def _stage(self, comm: Communicator, nbytes: float) -> tuple:
        """Make a root's ``nbytes`` visible to its readers: by default a
        bounce-buffer write across the bus."""
        return (bus(nbytes),)

    def _read(self, comm: Communicator, nbytes: float) -> tuple:
        """A reader pulls peers' bytes: one host copy by default."""
        return (bus(nbytes),)

    def _unstage(self, comm: Communicator, nbytes: float) -> tuple:
        """Land a result in host memory (host modules already have it)."""
        return ()

    def _post(self, comm: Communicator, nbytes: float) -> tuple:
        """Stage this rank's whole send buffer for its peers."""
        return (*self._stage_cost(comm, nbytes), *self._stage(comm, nbytes))

    def _reduce(self, comm: Communicator, nbytes: float) -> tuple:
        """Combine ``nbytes`` of input at the module's kernel rate."""
        node = comm.runtime.machine.node
        rate = node.reduce_bw_avx if self.avx else node.reduce_bw
        return grant(nbytes / rate, "reduce", nbytes=nbytes)

    @staticmethod
    def _in_place(comm: Communicator) -> tuple:
        """The rank's buffer is exposed in place: one flag delay, then it
        counts towards flag ``exposed``."""
        return (FLAG_DELAY, count("exposed", comm.size))

    # -- the roles ----------------------------------------------------------------

    def _from_root(self, comm, nbytes, root, payload, per, result):
        """Root stages ``nbytes``, every reader pulls ``per`` of them, and
        the root retires only once the readers drained its buffer."""
        if comm.rank == root:
            return (*self._stage_cost(comm, nbytes), *self._stage(comm, nbytes),
                    count("staged"), wait("drained"), leave(result))
        if payload is not None:
            raise ValueError("payload may only be supplied at the root")
        return (wait("staged"), *self._stage_cost(comm, per),
                *self._read(comm, per), count("drained", comm.size - 1),
                leave(result))

    def _from_all(self, comm, nbytes, root, payload, result):
        """Every rank publishes its buffer, then pulls the ``size - 1``
        foreign blocks of ``nbytes``."""
        size = comm.size
        return (*self._post(comm, nbytes * size), count("published", size),
                wait("published"), *self._stage_cost(comm, (size - 1) * nbytes),
                *self._read(comm, (size - 1) * nbytes), leave(result))

    def _to_root(self, comm, nbytes, root, payload):
        """Every rank exposes its block in place; the root reads them all."""
        if comm.rank != root:
            return (*self._in_place(comm), wait("done"), leave())
        size = comm.size
        return (*self._in_place(comm), wait("exposed"),
                *self._stage_cost(comm, (size - 1) * nbytes),
                *self._read(comm, (size - 1) * nbytes),
                *self._unstage(comm, size * nbytes), count("done"),
                leave(_Call.gathered))

    def _fence(self, comm, nbytes, root, payload):
        """Flag counter in the shared segment."""
        return (*self._in_place(comm), wait("exposed"), leave())

    # -- the collectives ----------------------------------------------------------

    def bcast(self, comm, nbytes, root=0, payload=None, algorithm=None,
              segsize=None):
        """Root stages the buffer once; every reader pulls all of it."""
        return self._call(comm, "bcast", nbytes, root, payload, self._from_root,
                          nbytes, _Call.root_buffer)

    def scatter(self, comm, nbytes, root=0, payload=None):
        """Root stages the full buffer; every rank reads its own block."""
        return self._call(comm, "scatter", nbytes, root, payload, self._from_root,
                          nbytes / comm.size, _Call.block)

    def gather(self, comm, nbytes, root=0, payload=None):
        return self._call(comm, "gather", nbytes, root, payload, self._to_root)

    def allgather(self, comm, nbytes, payload=None):
        """Gather at a fixed root, then broadcast the concatenation."""
        if comm.size == 1:
            return payload
        gathered = yield from self.gather(comm, nbytes, root=0, payload=payload)
        result = yield from self.bcast(
            comm, nbytes * comm.size, root=0,
            payload=gathered if comm.rank == 0 else None,
        )
        return result

    def reduce_scatter(self, comm, nbytes, payload=None, op=SUM):
        """Reduce to a fixed root, then scatter the blocks back out."""
        if comm.size == 1:
            return payload
        reduced = yield from self.reduce(
            comm, nbytes, root=0, payload=payload, op=op
        )
        result = yield from self.scatter(
            comm, nbytes, root=0,
            payload=reduced if comm.rank == 0 else None,
        )
        return result

    def alltoall(self, comm, nbytes, payload=None):
        """All ranks publish their send buffers, then read foreign blocks.

        ``nbytes`` is one rank-to-rank block; each rank publishes ``size``
        blocks and reads the ``size - 1`` blocks addressed to it.
        """
        return self._call(comm, "alltoall", nbytes, None, payload, self._from_all,
                          _Call.exchange)

    def barrier(self, comm):
        return self._call(comm, "barrier", 0, None, None, self._fence)
