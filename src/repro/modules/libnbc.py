"""The `libnbc` module: schedule-based non-blocking collectives [31].

Libnbc compiles a collective into *rounds* of point-to-point operations;
a round can only start once the previous round's operations completed and
the process has entered the progress engine again.  Compared to ADAPT's
event-driven design this costs an extra progression delay per round and
prevents intra-collective pipelining -- which is exactly why the paper's
autotuner prefers ADAPT for large messages while Libnbc stays competitive
for small ones (no per-segment machinery).

No algorithm selection (binomial trees only -- the "if supported" fields
of Table II stay empty for Libnbc) and no AVX reductions (paper IV-A2).
"""

from __future__ import annotations

from repro.colls.trees import binomial_tree
from repro.colls.util import charge_reduce, coll_tag_block, combine, unvrank, vrank
from repro.modules.base import CollModule
from repro.mpi.op import SUM

__all__ = ["LibnbcModule"]


class LibnbcModule(CollModule):
    name = "libnbc"
    avx = False
    nonblocking = True
    bcast_algorithms = ("binomial",)
    reduce_algorithms = ("binomial",)

    #: progression cost charged per schedule round (test/wait driven)
    round_overhead = 0.6e-6

    # -- blocking wrappers (ibcast + wait) -----------------------------------------

    def bcast(self, comm, nbytes, root=0, payload=None, algorithm=None, segsize=None):
        req = self.ibcast(comm, nbytes, root, payload, algorithm, segsize)
        result = yield req.event
        return result

    def reduce(
        self, comm, nbytes, root=0, payload=None, op=SUM, algorithm=None, segsize=None
    ):
        req = self.ireduce(comm, nbytes, root, payload, op, algorithm, segsize)
        result = yield req.event
        return result

    # -- non-blocking collectives ----------------------------------------------------

    def ibcast(self, comm, nbytes, root=0, payload=None, algorithm=None, segsize=None):
        self._check_alg(algorithm, self.bcast_algorithms, "ibcast")
        return self._spawn(
            comm, self._sched_bcast(comm, nbytes, root, payload), "libnbc.ibcast"
        )

    def ireduce(
        self, comm, nbytes, root=0, payload=None, op=SUM, algorithm=None, segsize=None
    ):
        self._check_alg(algorithm, self.reduce_algorithms, "ireduce")
        return self._spawn(
            comm, self._sched_reduce(comm, nbytes, root, payload, op), "libnbc.ireduce"
        )

    def ibarrier(self, comm):
        return self._spawn(comm, self._sched_barrier(comm), "libnbc.ibarrier")

    def barrier(self, comm):
        req = self.ibarrier(comm)
        yield req.event

    # -- schedules ----------------------------------------------------

    def _sched_bcast(self, comm, nbytes, root, payload):
        """Binomial bcast, one schedule round per tree level."""
        size, rank = comm.size, comm.rank
        tag = coll_tag_block(comm)
        if size == 1:
            return payload
        v = vrank(rank, root, size)
        tree = binomial_tree(v, size)
        buf = payload
        if tree.parent >= 0:
            msg = yield from comm.recv(source=unvrank(tree.parent, root, size), tag=tag)
            buf = msg.payload
            yield from comm.compute(self.round_overhead)
        for c in tree.children:
            yield from comm.send(
                unvrank(c, root, size), payload=buf, nbytes=nbytes, tag=tag
            )
            yield from comm.compute(self.round_overhead)
        return buf

    def _sched_reduce(self, comm, nbytes, root, payload, op):
        size, rank = comm.size, comm.rank
        tag = coll_tag_block(comm)
        if size == 1:
            return payload
        v = vrank(rank, root, size)
        tree = binomial_tree(v, size)
        acc = payload
        for c in tree.children:
            msg = yield from comm.recv(source=unvrank(c, root, size), tag=tag)
            yield from charge_reduce(comm, nbytes, self.avx)
            acc = combine(op, acc, msg.payload)
            yield from comm.compute(self.round_overhead)
        if tree.parent >= 0:
            yield from comm.send(
                unvrank(tree.parent, root, size), payload=acc, nbytes=nbytes, tag=tag
            )
            yield from comm.compute(self.round_overhead)
            return None
        return acc

    def _sched_barrier(self, comm):
        size, rank = comm.size, comm.rank
        tag = coll_tag_block(comm)
        dist = 1
        while dist < size:
            yield from comm.sendrecv(
                (rank + dist) % size,
                (rank - dist) % size,
                nbytes=0,
                send_tag=tag,
                recv_tag=tag,
            )
            yield from comm.compute(self.round_overhead)
            dist <<= 1
