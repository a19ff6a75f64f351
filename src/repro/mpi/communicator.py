"""Per-rank communicator views.

Each simulated rank holds its own :class:`Communicator` object for every
communicator it belongs to (matching how MPI handles are process-local).
All time-consuming calls are generators driven by the simulation engine::

    def program(comm):
        if comm.rank == 0:
            yield from comm.send(1, payload=data)
        elif comm.rank == 1:
            msg = yield from comm.recv(0)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, TYPE_CHECKING

import numpy as np

from repro.mpi.constants import ANY_SOURCE, ANY_TAG
from repro.mpi.request import Request
from repro.sim.engine import AllOf, AnyOf

if TYPE_CHECKING:  # pragma: no cover
    from repro.mpi.runtime import MPIRuntime

__all__ = ["Communicator", "Message"]


@dataclass(slots=True)
class Message:
    """What a completed receive yields.

    One per received message makes this a hot allocation; ``slots``
    (without ``frozen``, whose ``object.__setattr__`` init path is slow)
    keeps construction cheap.  Treat instances as immutable anyway.
    """

    source: int  # communicator rank of the sender
    tag: int
    nbytes: float
    payload: object


def _payload_nbytes(payload, nbytes) -> float:
    if nbytes is not None:
        return float(nbytes)
    if isinstance(payload, np.ndarray):
        return float(payload.nbytes)
    raise ValueError(
        "isend/send need nbytes= unless payload is a numpy array"
    )


class Communicator:
    """One rank's view of one communicator."""

    def __init__(
        self,
        runtime: "MPIRuntime",
        cid: int,
        group: tuple[int, ...],
        rank: int,
    ):
        self.runtime = runtime
        self.cid = cid
        self.group = group  # world ranks, indexed by communicator rank
        self.rank = rank
        #: group size; a plain attribute (groups are immutable) — the
        #: property call was measurable inside collective loops
        self.size = len(group)
        self._split_epoch = 0
        self._barrier_epoch = 0
        self._nodes: Optional[list[int]] = None  # node_of cache, lazy
        # the runtime's per-peer send channels and this rank's matcher,
        # resolved on first use
        self._channels: dict = {}
        self._matcher = None

    # -- introspection -----------------------------------------------------------

    @property
    def world_rank(self) -> int:
        return self.group[self.rank]

    def node_of(self, rank: Optional[int] = None) -> int:
        """Physical node hosting ``rank`` (default: me)."""
        nodes = self._nodes
        if nodes is None:
            nodes = self._nodes = self.runtime.nodes_of_comm(
                self.cid, self.group
            )
        r = self.rank if rank is None else rank
        if r < 0:
            raise IndexError(f"rank {r} out of range")
        return nodes[r]

    @property
    def now(self) -> float:
        """Current simulated time (convenience for timing loops)."""
        return self.runtime.engine.now

    # -- point-to-point ------------------------------------------------------------

    def isend(
        self,
        dest: int,
        payload: object = None,
        nbytes: Optional[float] = None,
        tag: int = 0,
    ) -> Request:
        """Start a non-blocking send of ``nbytes`` (or ``payload.nbytes``)."""
        if not (0 <= dest < self.size):
            raise IndexError(f"dest {dest} out of range for size {self.size}")
        n = _payload_nbytes(payload, nbytes)
        return self.runtime._isend(self, self.rank, dest, n, payload, tag)

    def irecv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Request:
        """Post a non-blocking receive."""
        if source != ANY_SOURCE and not (0 <= source < self.size):
            raise IndexError(f"source {source} out of range")
        return self.runtime._irecv(self, self.rank, source, tag)

    def send(self, dest, payload=None, nbytes=None, tag=0):
        """Blocking send (= isend + wait)."""
        req = self.isend(dest, payload, nbytes, tag)
        yield req.event

    def recv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG):
        """Blocking receive; returns the :class:`Message`."""
        req = self.irecv(source, tag)
        msg = yield req.event
        return msg

    def sendrecv(
        self,
        dest: int,
        source: int,
        payload=None,
        nbytes=None,
        send_tag: int = 0,
        recv_tag: int = ANY_TAG,
    ):
        """Concurrent send+recv (the workhorse of ring algorithms)."""
        sreq = self.isend(dest, payload, nbytes, send_tag)
        rreq = self.irecv(source, recv_tag)
        _, msg = yield from self.waitall([sreq, rreq])
        return msg

    # -- request completion ------------------------------------------------------------

    def wait(self, req: Request):
        value = yield req.event
        return value

    def waitall(self, reqs: Sequence[Request]):
        values = yield AllOf([r.event for r in reqs])
        return values

    def waitany(self, reqs: Sequence[Request]):
        """Returns ``(index, value)`` of the first completed request."""
        idx, value = yield AnyOf([r.event for r in reqs])
        return idx, value

    # -- local compute ------------------------------------------------------------

    def compute(self, seconds: float):
        """Occupy this rank's CPU for ``seconds`` (application compute)."""
        ev = self.runtime.fabric.progress[self.world_rank].request(
            seconds, "compute"
        )
        yield ev

    def reduce_compute(self, nbytes: float, avx: bool = False):
        """Charge the CPU cost of reducing ``nbytes`` of input data.

        ``avx=True`` uses the vectorized kernel rate -- in the paper only
        the SOLO and ADAPT submodules have AVX reductions (IV-A2).
        """
        node = self.runtime.machine.node
        rate = node.reduce_bw_avx if avx else node.reduce_bw
        yield self.runtime.fabric.progress[self.world_rank].request(
            nbytes / rate, "reduce", nbytes=nbytes
        )

    # -- communicator management ------------------------------------------------------------

    def split(self, color: int, key: Optional[int] = None):
        """MPI_Comm_split; every rank of this communicator must call it.

        Returns the new :class:`Communicator` view, or ``None`` when
        ``color`` is :data:`~repro.mpi.constants.UNDEFINED`.
        Communicator construction is instantaneous in simulated time (its
        cost is not part of any experiment in the paper).
        """
        epoch = self._split_epoch
        self._split_epoch += 1
        ev = self.runtime._split_submit(
            self, epoch, color, self.rank if key is None else key
        )
        new_comm = yield ev
        return new_comm

    def split_type_shared(self):
        """MPI_Comm_split_type(COMM_TYPE_SHARED): the intra-node comm.

        This is the portable MPI-3.1 call HAN relies on to discover the
        hardware hierarchy (paper section III).
        """
        comm = yield from self.split(color=self.node_of())
        return comm

    def dup(self):
        """Duplicate this communicator (fresh matching context)."""
        comm = yield from self.split(color=0, key=self.rank)
        return comm

    # -- built-in barrier ------------------------------------------------------------

    def barrier(self):
        """Dissemination barrier over internal tags (runtime utility).

        Collective *modules* provide their own tuned barriers; this one
        exists so applications and tests can synchronize without picking
        a module.  Rank *r*'s round *k* is a zero-byte message to
        ``r + 2**k`` and one from ``r - 2**k`` (mod size), tagged
        ``INTERNAL_TAG_BASE + epoch % 1024``; one
        :class:`~repro.mpi.matching.Barrier` runs every rank's rounds,
        with the engine cells, hook calls and obs records a ``sendrecv``
        loop over those messages would have.
        """
        epoch = self._barrier_epoch
        self._barrier_epoch += 1
        if self.size == 1:
            return
        yield self.runtime._barrier(self, epoch).enter(self.rank)

    def barrier_replay(self, released):
        """Leave a barrier whose outcome the caller already knows.

        Waits on the event ``released`` instead of exchanging messages,
        and consumes a barrier epoch exactly as :meth:`barrier` does, so
        a later real barrier on this communicator uses the same tag
        either way.  The caller owns the hard part -- succeeding every
        rank's event at the instants, and in the order, a real barrier
        from the same state would have let the ranks go (see
        ``repro.tuning.measure.StartGate``).
        """
        self._barrier_epoch += 1
        yield released

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Communicator cid={self.cid} rank={self.rank}/{self.size}>"
