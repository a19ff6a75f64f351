"""The `solo` module: one-sided single-copy shared-memory collectives.

SOLO (paper section III) builds on MPI one-sided communication: ranks
expose their buffers in RMA windows and peers copy *directly* from the
source -- each byte crosses the memory bus only on the reader's side
(2 crossings: read-remote + write-local) instead of SM's 4.  Reductions
are chunk-parallel (every rank reduces 1/P of the vector) and use AVX
kernels (paper IV-A2).

The price is the window synchronization on every call, a multi-
microsecond fixed cost -- "due to the differences in algorithms and
implementations, SM has better performance for small messages while SOLO
performs significantly better as the communication size increases", and
the paper's heuristic only considers SOLO above 512 KB (section III-C).

Everything but the reductions is :class:`ShmModule`'s generic protocol:
a root only exposes its window (one flag delay) and readers pull from it
directly; a window fence is itself a barrier.
"""

from __future__ import annotations

from repro.modules.shm_common import ShmModule
from repro.mpi.op import SUM
from repro.sim.engine import Sleep

__all__ = ["SoloModule"]


class SoloModule(ShmModule):
    name = "solo"
    avx = True
    nonblocking = False

    def __init__(self, setup_overhead: float = 2.5e-6):
        #: RMA window synchronization (fence/flush) per call per rank
        self.setup_overhead = setup_overhead

    def _stage(self, comm, state, nbytes):
        """One-sided: the root only exposes its window (one flag delay);
        peers read straight from the source."""
        yield Sleep(comm.runtime.machine.node.shm_latency)

    # -- reduce / allreduce (chunk-parallel) ------------------------------------------

    def _chunk_parallel(self, comm, coll, nbytes, payload, op, root=None):
        """Every rank reduces one 1/P chunk across the other P-1 exposed
        buffers (reads are direct, kernels are AVX).  With a ``root`` the
        chunks are deposited into the root's result buffer; without one
        (allreduce) every rank reads back the finished vector."""
        if comm.size == 1:
            return payload
        state = self._begin(comm, coll, nbytes, 0 if root is None else root)
        exposed = self._event(comm, state, "all-exposed")
        folded = self._event(comm, state, "folded")
        yield from self._setup(comm)
        yield from self._expose(comm, state, payload, exposed)
        yield exposed
        size = comm.size
        chunk = nbytes / size
        yield from self._flow(comm, state, (size - 1) * chunk)
        yield from comm.reduce_compute((size - 1) * chunk, avx=self.avx)
        mine = root is None or comm.rank == root
        if not mine:
            yield from self._flow(comm, state, chunk)
        if self._arrive(state, "reduced", size):
            state["result"] = self._fold(state["contrib"], size, op)
            folded.succeed(None)
        if mine:
            yield folded
        if root is None:
            # read back the other P-1 chunks of the finished vector
            yield from self._flow(comm, state, (size - 1) * chunk)
        self._finish(comm, state)
        return state["result"] if mine else None

    def reduce(
        self, comm, nbytes, root=0, payload=None, op=SUM, algorithm=None, segsize=None
    ):
        return self._chunk_parallel(comm, "reduce", nbytes, payload, op, root)

    def allreduce(self, comm, nbytes, payload=None, op=SUM, algorithm=None, segsize=None):
        """Chunk-parallel reduce, then every rank reads the full result."""
        return self._chunk_parallel(comm, "allreduce", nbytes, payload, op)
