"""Shared machinery for the intra-node (shared-memory) modules SM and SOLO.

These modules bypass the MPI point-to-point stack entirely: ranks
synchronize through node-local flags (simulated as engine events in a
per-call shared-state dict) and move data as memory-bus fluid flows.
``copies`` counts how many times each byte crosses the node's memory bus
-- the lever that separates SM's bounce-buffer pipe (write 2x + read 2x)
from SOLO's one-sided direct copy (read 2x only).
"""

from __future__ import annotations

from typing import Optional

from repro.colls.util import coll_tag_block
from repro.modules.base import CollModule
from repro.mpi.communicator import Communicator
from repro.mpi.op import SUM

__all__ = ["ShmModule"]


class ShmModule(CollModule):
    """Base for intra-node modules; provides state, sync and flow helpers.

    Also provides generic shared-segment compositions of the collectives
    the concrete modules historically lacked (scatter, allgather,
    reduce_scatter, alltoall), parameterised by ``_ds_write_copies`` --
    how many bus crossings a writer pays to stage its data for readers
    (2 for SM's bounce buffer, 0 for SOLO's one-sided direct reads).
    """

    #: per-call, per-rank setup cost (seconds)
    setup_overhead: float = 0.0
    #: bus crossings per byte when a rank stages data for peers to read
    _ds_write_copies: int = 2

    def _begin(self, comm: Communicator) -> dict:
        """Validate intra-node scope and open the per-call shared state."""
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
    def _flow(comm: Communicator, state: dict, nbytes: float, copies: int,
              rate_cap: Optional[float] = None):
        """Memory-bus transfer on this call's node; yields until drained.

        Shared-memory copies are CPU-driven memcpys: the bytes occupy the
        node's memory bus (fluid flow) *and* the copying rank's CPU
        (progress server) for the minimum copy duration.  The CPU share
        is what makes `sb` contend with a concurrent `ib`'s progression
        on the same single-threaded rank -- the paper's imperfect-overlap
        factor (2) in section III-A2.
        """
        if nbytes <= 0:
            return
        from repro.sim.engine import AllOf

        engine = comm.runtime.engine
        node = comm.runtime.machine.node
        ev = engine.event("shm-flow")
        comm.runtime.fabric.membus_flow(
            state["node"],
            nbytes,
            lambda: ev.succeed(None),
            copies=copies,
            rate_cap=rate_cap,
        )
        cpu = comm.runtime.fabric.progress[comm.world_rank].request(
            nbytes / node.copy_bw
        )
        yield AllOf([ev, cpu])

    def _finish(self, comm: Communicator, state: dict) -> None:
        """Reference-count call completion; last rank drops the state."""
        state["done_count"] += 1
        if state["done_count"] == comm.size:
            comm.runtime.drop_coll_state(state["key"])

    def _setup(self, comm: Communicator):
        """Charge the per-rank setup cost on the progress server."""
        if self.setup_overhead > 0:
            yield from comm.compute(self.setup_overhead)

    @property
    def shm_latency(self) -> float:
        raise NotImplementedError

    @staticmethod
    def _latency(comm: Communicator):
        """One shared-memory flag-propagation delay."""
        from repro.sim.engine import Sleep

        yield Sleep(comm.runtime.machine.node.shm_latency)

    def _stage_cost(self, comm: Communicator, nbytes: float):
        """Per-call staging bookkeeping; SM overrides with fragment flags."""
        return
        yield  # pragma: no cover -- makes this a generator

    def _stage_write(self, comm: Communicator, state: dict, nbytes: float):
        """Make ``nbytes`` visible to peers: a bus write for bounce-buffer
        modules, just a flag propagation for one-sided ones."""
        if self._ds_write_copies > 0:
            yield from self._flow(
                comm, state, nbytes, copies=self._ds_write_copies,
                rate_cap=comm.runtime.machine.node.copy_bw,
            )
        else:
            yield from self._latency(comm)

    # -- generic composed collectives -------------------------------------------
    #
    # Data contracts match repro.colls: scatter/reduce_scatter take the
    # *total* byte count (``size`` equal blocks); allgather/alltoall take
    # one block.  Every generic op is element-exact when given integer
    # float64 payloads, which is what locks them into the payload oracle.

    def scatter(self, comm, nbytes, root=0, payload=None):
        """Root stages the full buffer; every rank reads its own block."""
        import numpy as np

        if comm.size == 1:
            return payload
        state = self._begin(comm)
        staged = self._event(comm, state, "scatter-staged")
        drained = self._event(comm, state, "scatter-drained")
        yield from self._setup(comm)
        per = nbytes / comm.size
        if comm.rank == root:
            state["payload"] = payload
            yield from self._stage_cost(comm, nbytes)
            yield from self._stage_write(comm, state, nbytes)
            staged.succeed(None)
            yield drained
        else:
            if payload is not None:
                raise ValueError("payload may only be supplied at the root")
            yield staged
            yield from self._stage_cost(comm, per)
            yield from self._flow(
                comm, state, per, copies=2,
                rate_cap=comm.runtime.machine.node.copy_bw,
            )
            state["readers_done"] = state.get("readers_done", 0) + 1
            if state["readers_done"] == comm.size - 1:
                drained.succeed(None)
        src = state.get("payload")
        self._finish(comm, state)
        if src is None:
            return None
        bounds = np.linspace(0, src.size, comm.size + 1).astype(int)
        return src[bounds[comm.rank] : bounds[comm.rank + 1]]

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
        """All ranks stage their send buffers, then read foreign blocks.

        ``nbytes`` is one rank-to-rank block; each rank stages ``size``
        blocks and reads the ``size - 1`` blocks addressed to it.
        """
        import numpy as np

        if comm.size == 1:
            return payload
        state = self._begin(comm)
        contrib = state.setdefault("contrib", {})
        all_written = self._event(comm, state, "a2a-written")
        yield from self._setup(comm)
        contrib[comm.rank] = payload
        total = nbytes * comm.size
        yield from self._stage_cost(comm, total)
        yield from self._stage_write(comm, state, total)
        state["written"] = state.get("written", 0) + 1
        if state["written"] == comm.size:
            all_written.succeed(None)
        yield all_written
        yield from self._stage_cost(comm, (comm.size - 1) * nbytes)
        yield from self._flow(
            comm, state, (comm.size - 1) * nbytes, copies=2,
            rate_cap=comm.runtime.machine.node.copy_bw,
        )
        parts = []
        for r in range(comm.size):
            src = contrib.get(r)
            if src is None:
                parts.append(None)
                continue
            bounds = np.linspace(0, src.size, comm.size + 1).astype(int)
            parts.append(src[bounds[comm.rank] : bounds[comm.rank + 1]])
        self._finish(comm, state)
        if any(p is None for p in parts):
            return None
        return np.concatenate(parts)
