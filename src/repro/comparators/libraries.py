"""The concrete comparator libraries."""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from repro.comparators.base import MPILibrary, TwoLevelMixin
from repro.core.config import HanConfig
from repro.core.han import HanModule
from repro.modules import SMModule, SoloModule, TunedModule
from repro.mpi.op import SUM
from repro.netsim.profiles import (
    craympi_profile,
    intelmpi_profile,
    mvapich2_profile,
    openmpi_profile,
)

__all__ = [
    "OpenMPIDefault",
    "OpenMPIHan",
    "CrayMPI",
    "IntelMPI",
    "MVAPICH2",
    "library_by_name",
]

KiB, MiB = 1024, 1024 * 1024


class OpenMPIDefault(MPILibrary):
    """Open MPI 4.0.0 with the flat `tuned` component ("default Open MPI")."""

    name = "openmpi"

    def __init__(self):
        self._tuned = TunedModule()

    @property
    def profile(self):
        return openmpi_profile()

    def bcast(self, comm, nbytes, root=0, payload=None):
        out = yield from self._tuned.bcast(comm, nbytes, root=root, payload=payload)
        return out

    def allreduce(self, comm, nbytes, payload=None, op=SUM):
        out = yield from self._tuned.allreduce(comm, nbytes, payload=payload, op=op)
        return out

    def reduce(self, comm, nbytes, root=0, payload=None, op=SUM):
        out = yield from self._tuned.reduce(comm, nbytes, root=root,
                                            payload=payload, op=op)
        return out

    def gather(self, comm, nbytes, root=0, payload=None):
        out = yield from self._tuned.gather(comm, nbytes, root=root,
                                            payload=payload)
        return out

    def scatter(self, comm, nbytes, root=0, payload=None):
        out = yield from self._tuned.scatter(comm, nbytes, root=root,
                                             payload=payload)
        return out

    def allgather(self, comm, nbytes, payload=None):
        out = yield from self._tuned.allgather(comm, nbytes, payload=payload)
        return out


class OpenMPIHan(MPILibrary):
    """Open MPI + HAN (this paper): same P2P stack, HAN collectives.

    ``decision_fn`` is usually an autotuned lookup table; without one HAN
    falls back to its static default configuration.
    """

    name = "han"

    def __init__(self, decision_fn: Optional[Callable] = None,
                 config: Optional[HanConfig] = None):
        self.han = HanModule(config=config, decision_fn=decision_fn)

    @property
    def profile(self):
        return openmpi_profile()

    def bcast(self, comm, nbytes, root=0, payload=None):
        out = yield from self.han.bcast(comm, nbytes, root=root, payload=payload)
        return out

    def allreduce(self, comm, nbytes, payload=None, op=SUM):
        out = yield from self.han.allreduce(comm, nbytes, payload=payload, op=op)
        return out

    def barrier(self, comm):
        yield from self.han.barrier(comm)

    def reduce(self, comm, nbytes, root=0, payload=None, op=SUM):
        out = yield from self.han.reduce(comm, nbytes, root=root,
                                         payload=payload, op=op)
        return out

    def gather(self, comm, nbytes, root=0, payload=None):
        out = yield from self.han.gather(comm, nbytes, root=root,
                                         payload=payload)
        return out

    def scatter(self, comm, nbytes, root=0, payload=None):
        out = yield from self.han.scatter(comm, nbytes, root=root,
                                          payload=payload)
        return out

    def allgather(self, comm, nbytes, payload=None):
        out = yield from self.han.allgather(comm, nbytes, payload=payload)
        return out

    def alltoall(self, comm, nbytes, payload=None):
        out = yield from self.han.alltoall(comm, nbytes, payload=payload)
        return out


class CrayMPI(TwoLevelMixin, MPILibrary):
    """Cray MPI 7.7.0: near-peak Aries P2P + leader-based hierarchical
    collectives without level overlap."""

    name = "craympi"

    def __init__(self):
        self._sm = SMModule(setup_overhead=0.15e-6)
        self._solo = SoloModule()

    @property
    def profile(self):
        return craympi_profile()

    def _smod(self, nbytes):
        return self._solo if nbytes > 512 * KiB else self._sm

    def bcast(self, comm, nbytes, root=0, payload=None):
        alg = "binomial" if nbytes <= 64 * KiB else "chain"
        seg = None if nbytes <= 64 * KiB else 1 * MiB
        out = yield from self.two_level_bcast(
            comm, nbytes, root, payload, alg, seg, self._smod(nbytes)
        )
        return out

    def allreduce(self, comm, nbytes, payload=None, op=SUM):
        alg = "recursive_doubling" if nbytes <= 16 * KiB else "ring"
        out = yield from self.two_level_allreduce(
            comm, nbytes, payload, op, alg, self._smod(nbytes), avx=True
        )
        return out


class IntelMPI(TwoLevelMixin, MPILibrary):
    """Intel MPI 18.0.2: strong PSM2 P2P, hierarchical non-overlapped
    collectives, vectorized reductions."""

    name = "intelmpi"

    def __init__(self):
        self._sm = SMModule(setup_overhead=0.2e-6)
        self._solo = SoloModule(setup_overhead=2.0e-6)

    @property
    def profile(self):
        return intelmpi_profile()

    def _smod(self, nbytes):
        return self._solo if nbytes > 512 * KiB else self._sm

    def bcast(self, comm, nbytes, root=0, payload=None):
        alg = "binomial" if nbytes <= 32 * KiB else "binary"
        seg = None if nbytes <= 32 * KiB else 512 * KiB
        out = yield from self.two_level_bcast(
            comm, nbytes, root, payload, alg, seg, self._smod(nbytes)
        )
        return out

    def allreduce(self, comm, nbytes, payload=None, op=SUM):
        alg = "recursive_doubling" if nbytes <= 16 * KiB else "rabenseifner"
        out = yield from self.two_level_allreduce(
            comm, nbytes, payload, op, alg, self._smod(nbytes), avx=True
        )
        return out


class MVAPICH2(TwoLevelMixin, MPILibrary):
    """MVAPICH2 2.3.1: flat tree broadcasts (its weak spot in Fig 12)
    and the multi-leader partitioned allreduce of [20] that matches HAN
    on very large messages (Fig 14)."""

    name = "mvapich2"

    #: DPML leaders per node (each owns 1/L of the vector)
    leaders_per_node = 4

    def __init__(self):
        self._sm = SMModule()
        # DPML's node-level reduction is partitioned across the leaders;
        # the chunk-parallel one-sided path models that aggregate rate.
        self._solo = SoloModule(setup_overhead=3.0e-6)

    @property
    def profile(self):
        return mvapich2_profile()

    def bcast(self, comm, nbytes, root=0, payload=None):
        from repro.colls import BCAST_ALGORITHMS

        # flat, topology-unaware binomial trees (its Fig 12 weak spot):
        # interior vertices fan out to log(P) children over the wire, so
        # the root pushes log2(P) copies of the message through one NIC
        if nbytes <= 16 * KiB:
            out = yield from BCAST_ALGORITHMS["binomial"](
                comm, nbytes, root=root, payload=payload
            )
        else:
            out = yield from BCAST_ALGORITHMS["binomial"](
                comm, nbytes, root=root, payload=payload, segsize=64 * KiB
            )
        return out

    def allreduce(self, comm, nbytes, payload=None, op=SUM):
        if nbytes <= 64 * KiB:
            out = yield from self.two_level_allreduce(
                comm, nbytes, payload, op, "recursive_doubling", self._sm,
                avx=False,
            )
            return out
        out = yield from self._multi_leader_allreduce(comm, nbytes, payload, op)
        return out

    def _multi_leader_allreduce(self, comm, nbytes, payload, op):
        """DPML [20]: L leaders per node each own 1/L of the vector and
        run concurrent inter-node rings, exposing network parallelism."""
        from repro.colls import ALLREDUCE_ALGORITHMS

        hier = yield from self._hier(comm)
        low, up = hier.low, hier.up
        L = max(1, min(self.leaders_per_node, low.size))
        is_leader = hier.local_rank < L
        chunk = nbytes / L

        # 1) node-local reduction, partitioned across the L leaders
        part = payload
        if low.size > 1:
            part = yield from self._solo.reduce(
                low, nbytes, root=0, payload=payload, op=op
            )
            # partition hand-off to other leaders through shared memory
            if is_leader and hier.local_rank != 0:
                part = None
        # 2) each leader's layer runs a ring over its chunk concurrently
        if is_leader and up.size > 1:
            my = None
            if part is not None and isinstance(part, np.ndarray):
                my = part  # leader 0 carries the data result
            reduced = yield from ALLREDUCE_ALGORITHMS["ring"](
                up, chunk, payload=my if hier.local_rank == 0 else None,
                op=op, avx=False,
            )
            if hier.local_rank == 0:
                part = reduced
        # 3) redistribute on the node
        if low.size > 1:
            part = yield from self._solo.bcast(
                low, nbytes, root=0,
                payload=part if hier.local_rank == 0 else None,
            )
        return part


_REGISTRY = {
    "openmpi": OpenMPIDefault,
    "han": OpenMPIHan,
    "craympi": CrayMPI,
    "intelmpi": IntelMPI,
    "mvapich2": MVAPICH2,
}


def library_by_name(name: str, **kwargs) -> MPILibrary:
    try:
        cls = _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown MPI library {name!r}; available: {sorted(_REGISTRY)}"
        ) from None
    return cls(**kwargs)
