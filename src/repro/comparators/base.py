"""Common interface for comparator MPI libraries."""

from __future__ import annotations

from repro.netsim.profiles import P2PProfile

__all__ = ["MPILibrary", "TwoLevelMixin"]


class MPILibrary:
    """An MPI implementation: a P2P profile plus the collectives it has.

    The measured program (:func:`repro.tuning.measure.run_once`) builds
    ``MPIRuntime(machine, profile=lib.profile)`` and calls the method
    named after the collective in every rank; a collective the library
    does not implement is simply absent.
    """

    name: str = "base"

    @property
    def profile(self) -> P2PProfile:
        raise NotImplementedError

    def barrier(self, comm):
        yield from comm.barrier()

    def __repr__(self) -> str:
        return f"<MPILibrary {self.name}>"


class TwoLevelMixin:
    """Classic hierarchical collectives *without* level overlap.

    The MPICH2/Cray-style leader design the paper's related work
    describes [23, 24]: minimize inter-node traffic by electing node
    leaders, but run the levels back-to-back -- "since they are not able
    to overlap communications on different levels, their performance for
    big messages would be sub-optimal" (paper II-A).
    """

    @staticmethod
    def _hier(comm):
        from repro.core.subcomms import build_hierarchy

        hier = yield from build_hierarchy(comm)
        return hier

    def two_level_bcast(self, comm, nbytes, root, payload, inter_alg,
                        inter_seg, smod):
        from repro.colls import BCAST_ALGORITHMS

        hier = yield from self._hier(comm)
        root_local = hier.local_rank_of(root)
        root_up = hier.up_rank_of(root)
        buf = payload
        if hier.local_rank == root_local and hier.up.size > 1:
            buf = yield from BCAST_ALGORITHMS[inter_alg](
                hier.up, nbytes, root=root_up, payload=buf, segsize=inter_seg
            )
        if hier.low.size > 1:
            buf = yield from smod.bcast(
                hier.low, nbytes, root=root_local,
                payload=buf if hier.local_rank == root_local else None,
            )
        return buf if comm.rank != root else payload

    def two_level_allreduce(self, comm, nbytes, payload, op, inter_alg,
                            smod, avx):
        from repro.colls import ALLREDUCE_ALGORITHMS

        hier = yield from self._hier(comm)
        part = payload
        if hier.low.size > 1:
            part = yield from smod.reduce(
                hier.low, nbytes, root=0, payload=payload, op=op
            )
        if hier.local_rank == 0 and hier.up.size > 1:
            part = yield from ALLREDUCE_ALGORITHMS[inter_alg](
                hier.up, nbytes, payload=part, op=op, avx=avx
            )
        if hier.low.size > 1:
            part = yield from smod.bcast(
                hier.low, nbytes, root=0,
                payload=part if hier.local_rank == 0 else None,
            )
        return part
