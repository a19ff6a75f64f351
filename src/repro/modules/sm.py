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
"""

from __future__ import annotations

import math

from repro.modules.shm_common import ShmModule
from repro.mpi.op import SUM
from repro.sim.engine import Sleep

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

    def _stage_cost(self, comm, nbytes: float):
        """Per-fragment flag handling, charged as one CPU lump."""
        nfrag = max(1, math.ceil(nbytes / self.fragment))
        return comm.compute(nfrag * self.frag_overhead)

    # -- bcast ----------------------------------------------------------------

    def bcast(self, comm, nbytes, root=0, payload=None, algorithm=None, segsize=None):
        """Fragment pipeline: readers start as soon as the first fragment
        landed and drain the bounce buffer at the pipeline rate."""
        if comm.size == 1:
            return payload
        state = self._begin(comm, "bcast", nbytes, root)
        ready = self._event(comm, state, "staged")
        drained = self._event(comm, state, "drained")
        yield from self._setup(comm)
        node = comm.runtime.machine.node
        if comm.rank == root:
            state["payload"] = payload
            # Readers may start as soon as the first fragment landed.
            first = min(self.fragment, nbytes)
            comm.runtime.engine.schedule(
                node.shm_latency + first / node.copy_bw,
                lambda: ready.succeed(None),
            )
            yield from self._stage_cost(comm, nbytes)
            yield from self._flow(comm, state, nbytes)
            # Bounce-buffer backpressure: the fragment pool is finite, so
            # the root cannot retire the call until readers drained it.
            yield drained
        else:
            if payload is not None:
                raise ValueError("payload may only be supplied at the root")
            yield ready
            yield from self._stage_cost(comm, nbytes)
            # the bounce fragment is cache-resident when read: one bus
            # crossing (the write to the destination buffer)
            yield from self._flow(comm, state, nbytes, copies=1,
                                  rate_cap=node.copy_bw * self.pipe_efficiency)
            self._arrive(state, "read", comm.size - 1, drained)
        self._finish(comm, state)
        return state["payload"]

    # -- reduce and gather: children write, the root drains ------------------------

    def reduce(
        self, comm, nbytes, root=0, payload=None, op=SUM, algorithm=None, segsize=None
    ):
        """Root drains contributions in rank order: read + scalar combine."""
        if comm.size == 1:
            return payload
        state = self._begin(comm, "reduce", nbytes, root)
        contrib = state.setdefault("contrib", {})
        written = [self._event(comm, state, f"w{r}") for r in range(comm.size)]
        yield from self._setup(comm)
        if comm.rank != root:
            contrib[comm.rank] = payload
            yield from self._stage_cost(comm, nbytes)
            yield from self._flow(comm, state, nbytes)
            written[comm.rank].succeed(None)
            self._finish(comm, state)
            return None
        acc = payload
        yield from self._stage_cost(comm, nbytes)
        for r in range(comm.size):
            if r == root:
                continue
            yield written[r]
            yield from self._flow(comm, state, nbytes)
            yield from comm.reduce_compute(nbytes, avx=self.avx)
            incoming = contrib.get(r)
            if acc is not None and incoming is not None:
                acc = op(acc, incoming)
        self._finish(comm, state)
        return acc

    def gather(self, comm, nbytes, root=0, payload=None):
        """Children write blocks to the shared segment; root reads them all."""
        if comm.size == 1:
            return payload
        state = self._begin(comm, "gather", nbytes, root)
        contrib = state.setdefault("contrib", {})
        written = [self._event(comm, state, f"w{r}") for r in range(comm.size)]
        yield from self._setup(comm)
        contrib[comm.rank] = payload
        if comm.rank != root:
            yield from self._stage_cost(comm, nbytes)
            yield from self._flow(comm, state, nbytes)
            written[comm.rank].succeed(None)
            self._finish(comm, state)
            return None
        for r in range(comm.size):
            if r != root:
                yield written[r]
                yield from self._flow(comm, state, nbytes)
        self._finish(comm, state)
        return self._gathered([contrib.get(r) for r in range(comm.size)])

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
