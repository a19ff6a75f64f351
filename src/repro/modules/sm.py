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

Over :class:`ShmModule`'s call driver, SM's transport charges the
fragment flags before every copy and stages through the bounce buffer.
SM writes three roles of its own: the children-write / root-drains
reduce and gather, and the fragment-pipelined bcast.
"""

from __future__ import annotations

import math

from repro.modules.shm_common import (
    FLAG_DELAY, RAISE_OWN, ShmModule, _Call, bus, count, grant, leave, timer,
    wait,
)
from repro.mpi.op import SUM

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

    def _stage_cost(self, comm, nbytes):
        """Per-fragment flag handling for ``nbytes``, as one CPU lump."""
        return (grant(max(1, math.ceil(nbytes / self.fragment))
                      * self.frag_overhead),)

    def _pipe(self, comm, nbytes, root, payload):
        """bcast: the root schedules the first fragment's flag, pays the
        fragment flags and writes the bounce buffer, then waits until the
        readers drained it (the fragment pool is finite); each reader
        waits for that flag, pays the flags and reads the buffer at the
        pipeline rate."""
        node = comm.runtime.machine.node
        if comm.rank == root:
            # readers may start as soon as the first fragment landed
            first = min(self.fragment, nbytes)
            return (timer(node.shm_latency + first / node.copy_bw, "staged"),
                    *self._stage_cost(comm, nbytes), bus(nbytes),
                    wait("drained"), leave(_Call.root_buffer))
        if payload is not None:
            raise ValueError("payload may only be supplied at the root")
        # the bounce fragment is cache-resident when read: one bus
        # crossing (the write to the destination buffer)
        return (wait("staged"), *self._stage_cost(comm, nbytes),
                bus(nbytes, 1, node.copy_bw * self.pipe_efficiency),
                count("drained", comm.size - 1), leave(_Call.root_buffer))

    def _drain(self, comm, nbytes, root, payload, reduce):
        """reduce / gather: every child writes its block into the shared
        segment (flag grant, copy) and raises its own flag; the root
        drains the blocks in rank order, each one copy after its writer's
        flag, and reduce combines each at the scalar kernel rate, after
        its own flag grant up front."""
        if comm.rank != root:
            return (*self._stage_cost(comm, nbytes), bus(nbytes), RAISE_OWN,
                    leave())
        steps = [*self._stage_cost(comm, nbytes)] if reduce else []
        fetch = (bus(nbytes), self._reduce(comm, nbytes)) if reduce else (bus(nbytes),)
        for child in range(comm.size):
            if child != root:
                steps += (wait(child), *fetch)
        steps.append(leave(_Call.fold if reduce else _Call.gathered))
        return steps

    def _fence(self, comm, nbytes, root, payload):
        """Flag counter in the shared segment; leaving reads the release
        flag once more."""
        return (*self._in_place(comm), wait("exposed"), FLAG_DELAY, leave())

    def bcast(self, comm, nbytes, root=0, payload=None, algorithm=None, segsize=None):
        """Fragment pipeline: readers start as soon as the first fragment
        landed and drain the bounce buffer at the pipeline rate."""
        return self._call(comm, "bcast", nbytes, root, payload, self._pipe)

    def reduce(
        self, comm, nbytes, root=0, payload=None, op=SUM, algorithm=None, segsize=None
    ):
        """Root drains contributions in rank order: read + scalar combine."""
        return self._call(comm, "reduce", nbytes, root, payload, self._drain,
                          True, op=op)

    def gather(self, comm, nbytes, root=0, payload=None):
        """Children write blocks to the shared segment; root reads them all."""
        return self._call(comm, "gather", nbytes, root, payload, self._drain,
                          False)

    def allreduce(self, comm, nbytes, payload=None, op=SUM, algorithm=None, segsize=None):
        reduced = yield from self.reduce(comm, nbytes, root=0, payload=payload, op=op)
        result = yield from self.bcast(
            comm, nbytes, root=0, payload=reduced if comm.rank == 0 else None
        )
        return result
