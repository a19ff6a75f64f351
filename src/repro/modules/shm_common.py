"""One shared-memory call protocol for the intra-node modules SM, SOLO and GPU.

These modules bypass the MPI point-to-point stack entirely: ranks
synchronize through node-local flags (simulated as engine events in a
per-call shared-state dict) and move data as memory-bus or device fluid
flows.  :class:`ShmModule` writes every collective's rendezvous, fold
and data handling once; a concrete module is a *transport policy* that
only says what one staging step costs and where its bytes go:

- ``_stage_cost``: CPU bookkeeping before a copy (SM's fragment flags,
  GPU's kernel launch, nothing for SOLO);
- ``_stage``: make a root's buffer visible to its readers (SM's
  bounce-buffer write, SOLO's window exposure, GPU's host->device copy);
- ``_read``: pull peers' bytes (a host copy, or NVLink on GPUs);
- ``_unstage``: land a device result in host memory (GPU only).

There are exactly two copy sites: :meth:`ShmModule._copy` on the host
memory bus (callback-first; :meth:`ShmModule._flow` is the generator
bodies' one-event wait on it) and :func:`gpu_copy` on a GPU node's
NVLink / PCIe fabric.
``copies`` counts how many times each byte crosses the memory bus --
the lever that separates SM's bounce-buffer pipe (write 2x + read 2x)
from SOLO's one-sided direct copy (read 2x only).

Events and counters share the per-call state dict, so they never share
a name: events are named for the condition they signal
(``all-exposed``, ``staged``, ``drained``, ``result``), counters for
what they count (``exposed``, ``read``, ``reduced``).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.colls.util import coll_tag_block
from repro.modules.base import CollModule
from repro.mpi.communicator import Communicator
from repro.mpi.op import SUM
from repro.sim.engine import SimEvent, Sleep

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


def gpu_copy(comm: Communicator, nbytes: float, path: str):
    """Device-side transfer ('nvlink', 'h2d' or 'd2h') charged by the
    calling rank; yields until drained.

    NVLink flows ride the calling rank's own island; on split-fabric
    nodes a comm spanning islands puts each rank's traffic on its local
    fabric (the island-level composite in repro.core routes cross-island
    bytes over PCIe instead of calling this flat path).
    """
    if nbytes <= 0:
        return
    fabric = comm.runtime.fabric
    rank = comm.world_rank
    ev = comm.runtime.engine.event(f"gpu-{path}")
    fabric.gpu_flow(
        fabric.node_of(rank), nbytes, lambda: ev.succeed(None), path=path,
        domain=fabric.fabric_domain_of(rank),
    )
    yield ev


class ShmModule(CollModule):
    """Base for intra-node modules: the call protocol plus the generic
    collectives written over the transport hooks.

    Data contracts match repro.colls: scatter/reduce_scatter take the
    *total* byte count (``size`` equal blocks); gather/allgather/alltoall
    take one block.  Every collective is element-exact when given
    integer float64 payloads, which is what locks them into the payload
    oracle.
    """

    #: per-call, per-rank setup cost (seconds)
    setup_overhead: float = 0.0

    # -- the call protocol ---------------------------------------------------------

    def _begin(self, comm: Communicator, coll: str, nbytes: float = 0,
               root: int = 0) -> dict:
        """Validate the arguments and intra-node scope, and open the
        per-call shared state."""
        if not nbytes >= 0:  # spelled so that NaN fails too
            raise ValueError(
                f"{self.name} {coll}: nbytes must be >= 0, got {nbytes!r}"
            )
        if not 0 <= root < comm.size:
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
        key = (self.name, comm.cid, coll_tag_block(comm))
        state = comm.runtime.coll_state(key)
        state.setdefault("key", key)
        state.setdefault("node", node)
        state.setdefault("done_count", 0)
        return state

    @staticmethod
    def _event(comm: Communicator, state: dict, name: str):
        """Get-or-create a named sync flag in the shared state."""
        ev = state.get(name)
        if ev is None:
            ev = state[name] = comm.runtime.engine.event(name)
        return ev

    @staticmethod
    def _arrive(state: dict, counter: str, n: int, ev=None) -> bool:
        """Count one arrival at ``counter``; the n-th succeeds ``ev``
        (when given) and returns True."""
        count = state[counter] = state.get(counter, 0) + 1
        if count != n:
            return False
        if ev is not None:
            ev.succeed(None)
        return True

    def _expose(self, comm: Communicator, state: dict, payload, ev):
        """Publish this rank's buffer, let its flag propagate (one
        shared-memory flag delay) and count it towards ``ev``."""
        state.setdefault("contrib", {})[comm.rank] = payload
        yield Sleep(comm.runtime.machine.node.shm_latency)
        self._arrive(state, "exposed", comm.size, ev)

    @staticmethod
    def _fold(contrib: dict, size: int, op):
        """The ranks' buffers ``contrib`` combined in rank order, MPI's
        order for a non-commutative ``op`` (``None`` if any is missing).
        The data result is computed once; callers charge its cost."""
        vals = [contrib[r] for r in range(size)]
        acc = None
        if all(v is not None for v in vals):
            acc = vals[0]
            for v in vals[1:]:
                acc = op(acc, v)
        return acc

    def _finish(self, comm: Communicator, state: dict) -> None:
        """Reference-count call completion; last rank drops the state."""
        state["done_count"] += 1
        if state["done_count"] == comm.size:
            comm.runtime.drop_coll_state(state["key"])

    def _setup(self, comm: Communicator):
        """Charge the per-rank setup cost on the progress server
        (returned as a step, like the transport hooks below)."""
        if self.setup_overhead > 0:
            return comm.compute(self.setup_overhead)
        return ()

    # -- data helpers ----------------------------------------------------------------

    @staticmethod
    def _block(src, size: int, rank: int):
        """Rank ``rank``'s element-aligned block of ``size`` equal blocks."""
        if src is None:
            return None
        bounds = np.linspace(0, src.size, size + 1).astype(int)
        return src[bounds[rank] : bounds[rank + 1]]

    @staticmethod
    def _gathered(parts):
        """The concatenation of ``parts``; ``None`` if any is missing."""
        if any(p is None for p in parts):
            return None
        return np.concatenate(parts)

    def _exchange(self, comm: Communicator, contrib: dict):
        """Alltoall result: my block of every rank's buffer, in rank order."""
        size = comm.size
        return self._gathered(
            [self._block(contrib.get(r), size, comm.rank) for r in range(size)]
        )

    # -- the two copy sites and the transport hooks ------------------------------
    #
    # A hook that only hands back another generator returns it instead of
    # delegating to it, so a call resumes through no extra frame; an empty
    # tuple is the no-op step.

    @staticmethod
    def _copy(comm: Communicator, node: int, nbytes: float, fn,
              copies: int = 2, rate_cap: Optional[float] = None) -> None:
        """Memory-bus transfer on ``node`` charged to ``comm``'s rank;
        calls ``fn()`` once drained (at once when there is nothing to
        move).

        The default is a 2-crossing copy at the node's ``copy_bw`` (what
        ``membus_flow`` charges without a ``rate_cap``).  Shared-memory
        copies are CPU-driven memcpys: the bytes occupy the node's memory
        bus (fluid flow) *and* the copying rank's CPU (progress server)
        for the minimum copy duration.  The CPU share is what makes `sb`
        contend with a concurrent `ib`'s progression on the same
        single-threaded rank -- the paper's imperfect-overlap factor (2)
        in section III-A2.  The flow starts first, then the CPU half is
        granted; ``fn`` runs in the cell of whichever finishes last.
        """
        if nbytes <= 0:
            fn()
            return
        runtime = comm.runtime
        both = _Both(fn)
        runtime.fabric.membus_flow(
            node, nbytes, both.arrive, copies=copies, rate_cap=rate_cap
        )
        runtime.fabric.progress[comm.world_rank].request_call(
            nbytes / runtime.machine.node.copy_bw, both.arrive
        )

    @staticmethod
    def _flow(comm: Communicator, state: dict, nbytes: float, copies: int = 2,
              rate_cap: Optional[float] = None):
        """:meth:`_copy` on this call's node; yields until drained."""
        if nbytes <= 0:
            return
        ev = SimEvent(comm.runtime.engine, "shm-flow")
        ShmModule._copy(comm, state["node"], nbytes, ev.succeed, copies,
                        rate_cap)
        yield ev

    #: a reader pulls peers' bytes: one host copy by default
    _read = _flow

    def _stage_cost(self, comm: Communicator, nbytes: float):
        """CPU bookkeeping before a copy (none by default)."""
        return ()

    def _stage(self, comm: Communicator, state: dict, nbytes: float):
        """Make a root's ``nbytes`` visible to its readers: by default a
        bounce-buffer write across the bus."""
        return self._flow(comm, state, nbytes)

    def _unstage(self, comm: Communicator, nbytes: float):
        """Land a result in host memory (host modules already have it)."""
        return ()

    def _publish(self, comm: Communicator, state: dict, payload,
                 nbytes: float, ev):
        """Stage this rank's whole send buffer for its peers and count it
        towards ``ev`` (every rank published)."""
        state.setdefault("contrib", {})[comm.rank] = payload
        yield from self._stage_cost(comm, nbytes)
        yield from self._stage(comm, state, nbytes)
        self._arrive(state, "published", comm.size, ev)

    # -- the shared bodies -------------------------------------------------------------

    def _fan_out(self, comm, coll, nbytes, root, payload, per):
        """Root stages ``nbytes``, every reader pulls ``per`` of them, and
        the root retires only once the readers drained its buffer.
        Returns the root's buffer on every rank."""
        if comm.size == 1:
            return payload
        state = self._begin(comm, coll, nbytes, root)
        staged = self._event(comm, state, "staged")
        drained = self._event(comm, state, "drained")
        yield from self._setup(comm)
        if comm.rank == root:
            state["payload"] = payload
            yield from self._stage_cost(comm, nbytes)
            yield from self._stage(comm, state, nbytes)
            staged.succeed(None)
            yield drained
        else:
            if payload is not None:
                raise ValueError("payload may only be supplied at the root")
            yield staged
            yield from self._stage_cost(comm, per)
            yield from self._read(comm, state, per)
            self._arrive(state, "read", comm.size - 1, drained)
        self._finish(comm, state)
        return state["payload"]

    def _pull(self, comm, coll, nbytes, payload):
        """Every rank publishes its buffer, then pulls the ``size - 1``
        foreign blocks of ``nbytes``; returns the published buffers."""
        state = self._begin(comm, coll, nbytes)
        published = self._event(comm, state, "all-published")
        yield from self._setup(comm)
        yield from self._publish(
            comm, state, payload, nbytes * comm.size, published
        )
        yield published
        yield from self._stage_cost(comm, (comm.size - 1) * nbytes)
        yield from self._read(comm, state, (comm.size - 1) * nbytes)
        self._finish(comm, state)
        return state["contrib"]

    # -- generic collectives -----------------------------------------------------------

    def bcast(self, comm, nbytes, root=0, payload=None, algorithm=None,
              segsize=None):
        """Root stages the buffer once; every reader pulls all of it."""
        return self._fan_out(comm, "bcast", nbytes, root, payload, nbytes)

    def scatter(self, comm, nbytes, root=0, payload=None):
        """Root stages the full buffer; every rank reads its own block."""
        if comm.size == 1:
            return payload
        src = yield from self._fan_out(
            comm, "scatter", nbytes, root, payload, nbytes / comm.size
        )
        return self._block(src, comm.size, comm.rank)

    def gather(self, comm, nbytes, root=0, payload=None):
        """Every rank exposes its block in place; the root reads them all."""
        if comm.size == 1:
            return payload
        state = self._begin(comm, "gather", nbytes, root)
        exposed = self._event(comm, state, "all-exposed")
        done = self._event(comm, state, "done")
        yield from self._setup(comm)
        yield from self._expose(comm, state, payload, exposed)
        result = None
        if comm.rank == root:
            yield exposed
            yield from self._stage_cost(comm, (comm.size - 1) * nbytes)
            yield from self._read(comm, state, (comm.size - 1) * nbytes)
            yield from self._unstage(comm, comm.size * nbytes)
            done.succeed(None)
            contrib = state["contrib"]
            result = self._gathered([contrib.get(r) for r in range(comm.size)])
        else:
            yield done
        self._finish(comm, state)
        return result

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
        if comm.size == 1:
            return payload
        contrib = yield from self._pull(comm, "alltoall", nbytes, payload)
        return self._exchange(comm, contrib)

    def barrier(self, comm):
        """Flag counter in the shared segment."""
        if comm.size == 1:
            return
        state = self._begin(comm, "barrier")
        release = self._event(comm, state, "release")
        yield from self._setup(comm)
        yield from self._expose(comm, state, None, release)
        yield release
        self._finish(comm, state)
