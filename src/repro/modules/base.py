"""Collective-module interface.

Blocking entry points are generators (``yield from module.bcast(...)``);
non-blocking entry points return a :class:`~repro.mpi.Request` backed by
a child simulated process on the same rank -- the child's software costs
queue on the rank's serial progress server, so "non-blocking" work still
contends for the CPU exactly as the paper's single-threaded analysis
requires (section III-A2).
"""

from __future__ import annotations

from typing import Generator, Optional

from repro.mpi.communicator import Communicator
from repro.mpi.op import SUM
from repro.mpi.request import Request

__all__ = ["CollModule", "NotSupportedError"]


class NotSupportedError(NotImplementedError):
    """The module does not implement this collective (or variant)."""


class CollModule:
    """Base class; subclasses override what they support."""

    #: module name, matches the registry key
    name: str = "base"
    #: reductions run at the AVX rate (paper IV-A2: only SOLO and ADAPT)
    avx: bool = False
    #: supports non-blocking collectives (paper: only Libnbc and ADAPT)
    nonblocking: bool = False
    #: moves device buffers over the node's NVLink fabric, so it sees
    #: split islands (HAN wraps it in the island-level leader composite)
    device: bool = False
    #: algorithm names accepted by bcast/ibcast (empty -> no choice)
    bcast_algorithms: tuple[str, ...] = ()
    #: algorithm names accepted by reduce/ireduce
    reduce_algorithms: tuple[str, ...] = ()

    # -- blocking interface ----------------------------------------------------

    def bcast(
        self, comm, nbytes, root=0, payload=None, algorithm=None, segsize=None
    ) -> Generator:
        raise NotSupportedError(f"{self.name} has no bcast")

    def reduce(
        self,
        comm,
        nbytes,
        root=0,
        payload=None,
        op=SUM,
        algorithm=None,
        segsize=None,
    ) -> Generator:
        raise NotSupportedError(f"{self.name} has no reduce")

    def allreduce(
        self, comm, nbytes, payload=None, op=SUM, algorithm=None, segsize=None
    ) -> Generator:
        raise NotSupportedError(f"{self.name} has no allreduce")

    def gather(self, comm, nbytes, root=0, payload=None) -> Generator:
        raise NotSupportedError(f"{self.name} has no gather")

    def scatter(self, comm, nbytes, root=0, payload=None) -> Generator:
        raise NotSupportedError(f"{self.name} has no scatter")

    def allgather(self, comm, nbytes, payload=None) -> Generator:
        raise NotSupportedError(f"{self.name} has no allgather")

    def reduce_scatter(self, comm, nbytes, payload=None, op=SUM) -> Generator:
        raise NotSupportedError(f"{self.name} has no reduce_scatter")

    def alltoall(self, comm, nbytes, payload=None) -> Generator:
        raise NotSupportedError(f"{self.name} has no alltoall")

    def barrier(self, comm) -> Generator:
        raise NotSupportedError(f"{self.name} has no barrier")

    # -- non-blocking interface ----------------------------------------------------

    def ibcast(
        self, comm, nbytes, root=0, payload=None, algorithm=None, segsize=None
    ) -> Request:
        raise NotSupportedError(f"{self.name} has no ibcast")

    def ireduce(
        self,
        comm,
        nbytes,
        root=0,
        payload=None,
        op=SUM,
        algorithm=None,
        segsize=None,
    ) -> Request:
        raise NotSupportedError(f"{self.name} has no ireduce")

    # -- helpers ----------------------------------------------------

    @staticmethod
    def _spawn(comm: Communicator, gen: Generator, kind: str) -> Request:
        """Run ``gen`` as a concurrent child of this rank; Request wraps it."""
        obs = comm.runtime.engine.obs
        if obs is not None:
            gen = observed(obs, comm, gen, kind, "module")
        proc = comm.runtime.engine.spawn_eager(
            gen, name=f"{kind}@w{comm.world_rank}"
        )
        return Request(proc.done_event, kind)

    def _check_alg(self, algorithm: Optional[str], allowed, what: str) -> None:
        if algorithm is not None and algorithm not in allowed:
            raise ValueError(
                f"{self.name} {what} supports {sorted(allowed)}, "
                f"got {algorithm!r}"
            )

    def __repr__(self) -> str:
        return f"<{type(self).__name__}>"


def observed(obs, comm: Communicator, gen: Generator, name: str, cat: str,
             **args):
    """Wrap a collective schedule in an observability span.

    The span covers the schedule's whole lifetime on the issuing rank's
    track (category ``cat``: ``module`` for a non-blocking schedule,
    ``coll`` for a HAN collective), closing even if the schedule dies.
    """
    sid = obs.begin(f"rank{comm.world_rank}", name, cat, **args)
    try:
        result = yield from gen
    finally:
        obs.end(sid)
    return result
