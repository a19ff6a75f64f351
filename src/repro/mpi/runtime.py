"""The simulated MPI runtime: process launch, P2P protocol, comm split.

One :class:`MPIRuntime` owns the simulation engine, the fabric (fluid
resources + progress servers) and all communicator state.  ``run()``
plays the role of ``mpirun``: it instantiates one simulated process per
rank and drives the event loop to completion.
"""

from __future__ import annotations

import math
from typing import Callable, Generator, Optional

from repro.hardware.spec import MachineSpec
from repro.mpi.communicator import Communicator
from repro.mpi.constants import UNDEFINED
from repro.mpi.matching import (
    EAGER, RNDV, Barrier, Channel, Matcher, Transit, Wire, begin_recv,
    begin_send,
)
from repro.mpi.request import Request
from repro.netsim.fabric import Fabric
from repro.netsim.profiles import P2PProfile, openmpi_profile
from repro.sim.engine import Engine, SimEvent

__all__ = ["MPIRuntime"]


class MPIRuntime:
    """A machine + an MPI library profile + live communicator state."""

    def __init__(
        self,
        machine: MachineSpec,
        profile: Optional[P2PProfile] = None,
    ):
        self.machine = machine
        self.profile = profile if profile is not None else openmpi_profile()
        self.engine = Engine()
        self.fabric = Fabric(self.engine, machine, self.profile)
        # A FaultyMachineSpec carries a fault plan; arm it on this runtime.
        # Plain specs (no attribute) and empty plans change nothing.
        plan = getattr(machine, "fault_plan", None)
        if plan is not None:
            plan.install(self)
        self._matchers: dict[tuple[int, int], Matcher] = {}
        self._channels: dict[tuple[int, int, int], Channel] = {}
        # nbytes -> (eager, send overhead, recv overhead)
        self._costs: dict[float, tuple[bool, float, float]] = {}
        self._wire = Wire(self.engine, self.fabric)
        self._next_cid = 0
        # cid -> group (world ranks); split coordination state
        self._groups: dict[int, tuple[int, ...]] = {}
        # cid -> node per communicator rank, shared by every rank's view
        # (each rank holds its own Communicator object for the same cid)
        self._comm_nodes: dict[int, list[int]] = {}
        self._comm_single_node: dict[int, Optional[int]] = {}
        self._splits: dict[tuple[int, int], dict] = {}
        self.world_group = tuple(range(machine.num_ranks))
        self._world_cid = self._register_comm(self.world_group)
        self._coll_state: dict = {}

    # -- communicator bookkeeping ---------------------------------------------------

    def _register_comm(self, group: tuple[int, ...]) -> int:
        cid = self._next_cid
        self._next_cid += 1
        self._groups[cid] = group
        return cid

    def nodes_of_comm(self, cid: int, group: tuple[int, ...]) -> list[int]:
        """Node of every communicator rank, computed once per cid."""
        nodes = self._comm_nodes.get(cid)
        if nodes is None:
            node_of = self.fabric.node_of
            nodes = self._comm_nodes[cid] = [node_of(w) for w in group]
        return nodes

    def single_node_of_comm(
        self, cid: int, group: tuple[int, ...]
    ) -> Optional[int]:
        """The node hosting *every* rank of the communicator, or None if
        it spans several; checked once per cid (intra-node modules ask
        on every call of every rank)."""
        try:
            return self._comm_single_node[cid]
        except KeyError:
            nodes = self.nodes_of_comm(cid, group)
            node = nodes[0] if len(set(nodes)) == 1 else None
            self._comm_single_node[cid] = node
            return node

    def world_view(self, rank: int) -> Communicator:
        """COMM_WORLD as seen by ``rank``."""
        return Communicator(self, self._world_cid, self.world_group, rank)

    def _matcher(self, cid: int, dst_crank: int) -> Matcher:
        key = (cid, dst_crank)
        m = self._matchers.get(key)
        if m is None:
            m = self._matchers[key] = Matcher()
        return m

    def _channel(self, comm: Communicator, src: int, dst: int) -> Channel:
        key = (comm.cid, src, dst)
        c = self._channels.get(key)
        if c is None:
            c = self._channels[key] = Channel(
                self._wire, self._matcher(comm.cid, dst), src,
                comm.group[src], comm.group[dst],
            )
        return c

    def coll_state(self, key) -> dict:
        """Shared per-collective-call scratch state.

        Shared-memory collective modules (SM/SOLO) synchronize their ranks
        through node-local flags rather than MPI messages; this registry
        is the simulation stand-in for that shared segment.  Callers pop
        the key when the call completes.
        """
        state = self._coll_state.get(key)
        if state is None:
            state = self._coll_state[key] = {}
        return state

    def drop_coll_state(self, key) -> None:
        self._coll_state.pop(key, None)

    # -- P2P protocol ------------------------------------------------------------

    def _cost(self, nbytes: float) -> tuple[bool, float, float]:
        """``(eager, send overhead, recv overhead)`` of one payload size,
        computed once per size (collectives reuse a handful)."""
        prof = self.profile
        cost = self._costs[nbytes] = (
            prof.is_eager(nbytes),
            prof.send_overhead(nbytes),
            prof.recv_overhead(nbytes),
        )
        return cost

    def _isend(
        self,
        comm: Communicator,
        src: int,
        dst: int,
        nbytes: float,
        payload: object,
        tag: int,
    ) -> Request:
        cost = self._costs.get(nbytes)
        if cost is None or tag < 0:
            # the message's route depends on nbytes from here on: refuse
            # a bad size now, not one latency later in the fluid solver
            # (NaN fails the comparison too), and a send tag that would
            # alias ANY_TAG
            if not 0 <= nbytes < math.inf or tag < 0:
                raise ValueError(
                    f"rank {comm.group[src]}: isend(dest={dst}, tag={tag}, "
                    f"nbytes={nbytes}) needs a finite nbytes >= 0 and a "
                    f"tag >= 0"
                )
            cost = self._cost(nbytes)
        ch = comm._channels.get(dst)
        if ch is None:
            ch = comm._channels[dst] = self._channel(comm, src, dst)
        # direct SimEvent construction: event() is a pure wrapper frame
        # and this is one of the two hottest allocation sites
        req = Request(SimEvent(self.engine, "send"), "send")
        eager, send_ov, recv_ov = cost
        obs = self.engine.obs
        mid = -1
        if obs is not None:
            mid, sid = begin_send(obs, ch.src_world, ch.dst_world, tag,
                                  nbytes, EAGER if eager else RNDV)
            req.event.callbacks.append(lambda _ev: obs.end(sid))
        msg = Transit(ch, tag, nbytes, payload, eager, recv_ov, req, mid)
        ch.src_cpu.request_call(send_ov, msg.sent, "send_ov", mid=mid)
        return req

    def _irecv(
        self, comm: Communicator, dst: int, source: int, tag: int
    ) -> Request:
        req = Request(SimEvent(self.engine, "recv"), "recv")
        obs = self.engine.obs
        if obs is not None:
            sid = begin_recv(obs, comm.group[dst], source, tag)
            req.event.callbacks.append(
                lambda ev: obs.end(
                    sid,
                    nbytes=getattr(ev.value, "nbytes", 0.0),
                )
            )
        matcher = comm._matcher
        if matcher is None:
            matcher = comm._matcher = self._matcher(comm.cid, dst)
        matcher.post(source, tag, req)
        return req

    def _barrier(self, comm: Communicator, epoch: int) -> Barrier:
        """Barrier instance ``epoch`` of ``comm`` (its first rank opens
        it)."""
        key = (comm.cid, epoch)
        barrier = self._wire.barriers.get(key)
        if barrier is None:
            _eager, send_ov, recv_ov = self._costs.get(0.0) or self._cost(0.0)
            barrier = self._wire.barriers[key] = Barrier(
                self._wire, key, comm.group, send_ov, recv_ov
            )
        return barrier

    def message_stats(self) -> dict[str, int]:
        """Messages issued so far (barrier rounds included), and how many
        of their envelopes reached the receiver in an ``Arrivals`` event
        (the rest are in flight, or had no latency to share one)."""
        return {
            "messages": self._wire.hops + sum(
                ch.next_send_seq for ch in self._channels.values()
            ),
            "fused": self._wire.fused,
        }

    # -- comm split ------------------------------------------------------------

    def _split_submit(self, comm: Communicator, epoch: int, color, key):
        """Collect split calls; resolve when the whole group has called."""
        ev = self.engine.event(f"split:{comm.cid}:{epoch}:{comm.rank}")
        state = self._splits.setdefault((comm.cid, epoch), {})
        state[comm.rank] = (color, key, ev)
        if len(state) == len(comm.group):
            del self._splits[(comm.cid, epoch)]
            self._split_resolve(comm.group, state)
        return ev

    def _split_resolve(self, parent_group: tuple[int, ...], state: dict) -> None:
        by_color: dict = {}
        for rank, (color, key, ev) in state.items():
            if color == UNDEFINED:
                continue
            by_color.setdefault(color, []).append((key, rank, ev))
        results: dict[int, tuple[Optional[Communicator], object]] = {}
        for color in sorted(by_color):
            members = sorted(by_color[color])  # by (key, parent rank)
            group = tuple(parent_group[rank] for _k, rank, _ev in members)
            cid = self._register_comm(group)
            for new_rank, (_k, parent_rank, ev) in enumerate(members):
                results[parent_rank] = (
                    Communicator(self, cid, group, new_rank),
                    ev,
                )
        for rank, (color, _key, ev) in state.items():
            if color == UNDEFINED:
                ev.succeed(None)
            else:
                new_comm, _ = results[rank]
                ev.succeed(new_comm)

    # -- launching ------------------------------------------------------------

    def spawn_job(
        self,
        program: Callable[..., Generator],
        *args,
        group: Optional[tuple[int, ...]] = None,
        name: str = "job",
    ) -> list:
        """Start ``program(comm, *args)`` on every rank of a *fresh* comm.

        The simulated analogue of launching one more job onto an
        already-busy machine (multi-tenancy, :mod:`repro.tenancy`): the
        job gets its own communicator id — hence its own matcher/channel
        tag space, fully isolated from every other job's messages — but
        shares all hardware: the fluid NIC/link/memory-bus resources and
        the per-rank progress servers of the world ranks it lands on.

        ``group`` restricts the job to a subset of world ranks (default:
        all of them).  Unlike :meth:`run`, nothing is driven here —
        callers compose any number of jobs, then drain the engine once.
        Returns the per-rank :class:`~repro.sim.engine.SimProcess`
        handles.
        """
        grp = self.world_group if group is None else tuple(group)
        if not grp:
            raise ValueError("spawn_job needs at least one rank")
        for w in grp:
            if not (0 <= w < self.machine.num_ranks):
                raise ValueError(f"world rank {w} out of range")
        if len(set(grp)) != len(grp):
            raise ValueError(f"duplicate world ranks in group {grp}")
        cid = self._register_comm(grp)
        return [
            self.engine.spawn(
                program(Communicator(self, cid, grp, r), *args),
                name=f"{name}/rank{w}",
            )
            for r, w in enumerate(grp)
        ]

    def run(
        self,
        program: Callable[..., Generator],
        *args,
        ranks: Optional[int] = None,
        until: Optional[float] = None,
    ) -> list:
        """``mpirun``: start ``program(comm, *args)`` on every rank.

        Returns the per-rank results (the generators' return values) after
        the simulation drains.  ``ranks`` may restrict the launch to the
        first N world ranks (they still see a communicator of that size).
        """
        nranks = self.machine.num_ranks if ranks is None else ranks
        if not (1 <= nranks <= self.machine.num_ranks):
            raise ValueError(f"ranks must be in [1, {self.machine.num_ranks}]")
        if nranks == self.machine.num_ranks:
            comms = [self.world_view(r) for r in range(nranks)]
        else:
            group = tuple(range(nranks))
            cid = self._register_comm(group)
            comms = [Communicator(self, cid, group, r) for r in range(nranks)]
        procs = [
            self.engine.spawn(program(comms[r], *args), name=f"rank{r}")
            for r in range(nranks)
        ]
        self.engine.run(until=until)
        return [p.result for p in procs]
