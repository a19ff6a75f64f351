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

Everything but the reductions is :class:`ShmModule`'s call driver with
its default roles: a root only exposes its window (one flag delay) and
readers pull from it directly; a window fence is itself a barrier.
"""

from __future__ import annotations

from repro.modules.shm_common import (
    FLAG_DELAY, ShmModule, _Call, bus, count, leave, wait,
)
from repro.mpi.op import SUM

__all__ = ["SoloModule"]


class SoloModule(ShmModule):
    name = "solo"
    avx = True
    nonblocking = False

    def __init__(self, setup_overhead: float = 2.5e-6):
        #: RMA window synchronization (fence/flush) per call per rank
        self.setup_overhead = setup_overhead

    def _stage(self, comm, nbytes):
        """One-sided: the root only exposes its window (one flag delay);
        peers read straight from the source."""
        return (FLAG_DELAY,)

    def _chunked(self, comm, nbytes, root, payload):
        """Every rank reduces one 1/P chunk across the other P-1 exposed
        buffers (reads are direct, kernels are AVX).  With a ``root`` the
        chunks are deposited into the root's result buffer; without one
        (allreduce) every rank reads back the finished vector."""
        size = comm.size
        chunk = nbytes / size
        mine = root is None or comm.rank == root
        steps = [*self._in_place(comm), wait("exposed"), bus((size - 1) * chunk),
                 self._reduce(comm, (size - 1) * chunk)]
        if mine:
            steps += (count("folded", size), wait("folded"))
        else:
            steps += (bus(chunk), count("folded", size))
        if root is None:
            # read back the other P-1 chunks of the finished vector
            steps.append(bus((size - 1) * chunk))
        steps.append(leave(_Call.fold if mine else None))
        return steps

    def reduce(
        self, comm, nbytes, root=0, payload=None, op=SUM, algorithm=None, segsize=None
    ):
        return self._call(comm, "reduce", nbytes, root, payload,
                          self._chunked, op=op)

    def allreduce(self, comm, nbytes, payload=None, op=SUM, algorithm=None, segsize=None):
        """Chunk-parallel reduce, then every rank reads the full result."""
        return self._call(comm, "allreduce", nbytes, None, payload,
                          self._chunked, op=op)
