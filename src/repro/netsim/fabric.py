"""The fabric: every shared hardware resource of one simulated machine.

Built once per simulation from a :class:`~repro.hardware.MachineSpec` and
a :class:`~repro.netsim.profiles.P2PProfile`:

- one *memory-bus* fluid resource per node (shared by intra-node copies
  and NIC DMA -- the `ib`-vs-`sb` contention of paper III-A2),
- one *NIC tx* and one *NIC rx* fluid resource per node (full-duplex, so
  `ir` and `ib` can overlap on opposite directions, paper III-B1),
- one fluid resource per interconnect link (from the topology),
- one serial :class:`ProgressServer` per rank (single-threaded MPI).

It exposes transfer *plans* (latency + resource route + rate cap) and a
``start_transfer`` helper that runs the latency->flow pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Tuple

import numpy as np

from repro.hardware.spec import MachineSpec
from repro.netsim.profiles import P2PProfile
from repro.netsim.progress import ProgressServer
from repro.sim.engine import Engine
from repro.sim.fluid import FluidSolver

__all__ = ["Fabric", "TransferPlan"]


@dataclass(frozen=True)
class TransferPlan:
    """Everything needed to time one message's data movement.

    ``resources`` is a pre-validated ``np.intp`` array so the fluid
    solver's trusted fast path can start the flow without converting or
    re-checking the route (plans are cached and reused per message).
    """

    latency: float
    resources: np.ndarray
    rate_cap: float
    intra_node: bool


class Fabric:
    def __init__(self, engine: Engine, machine: MachineSpec, profile: P2PProfile):
        self.engine = engine
        self.machine = machine
        self.profile = profile
        self.solver = FluidSolver(engine)
        self.topo = machine.build_topology()

        n = machine.num_nodes
        node = machine.node
        self._membus = [
            self.solver.add_resource(node.mem_bw, name=f"membus:n{i}")
            for i in range(n)
        ]
        self._nic_tx = [
            self.solver.add_resource(machine.nic.bw, name=f"nic_tx:n{i}")
            for i in range(n)
        ]
        self._nic_rx = [
            self.solver.add_resource(machine.nic.bw, name=f"nic_rx:n{i}")
            for i in range(n)
        ]
        self._links = [
            self.solver.add_resource(link.capacity, name=f"link:{i}")
            for i, link in enumerate(self.topo.links)
        ]
        # GPU nodes get NVLink-fabric resources and a per-direction PCIe
        # staging resource.  With NodeSpec.fabric_domains > 1 the node's
        # fabric splits into that many independent islands, each its own
        # fluid resource — the accelerator tier of HAN's
        # fabric/node/network hierarchy.  _nvlink is indexed
        # [node][domain]; single-fabric nodes keep the legacy resource
        # name so existing traces stay identical.
        self._fabric_domains = max(1, node.fabric_domains) if node.gpus > 0 else 0
        if node.gpus > 0:
            d = self._fabric_domains
            self._nvlink = [
                [
                    self.solver.add_resource(
                        node.nvlink_bw,
                        name=f"nvlink:n{i}" if d == 1 else f"nvlink:n{i}d{k}",
                    )
                    for k in range(d)
                ]
                for i in range(n)
            ]
            self._pcie_h2d = [
                self.solver.add_resource(node.pcie_bw, name=f"pcie_h2d:n{i}")
                for i in range(n)
            ]
            self._pcie_d2h = [
                self.solver.add_resource(node.pcie_bw, name=f"pcie_d2h:n{i}")
                for i in range(n)
            ]
        else:
            self._nvlink = self._pcie_h2d = self._pcie_d2h = None
        self.progress = [
            ProgressServer(engine, name=f"rank{r}", rank=r)
            for r in range(machine.num_ranks)
        ]
        # (src_node, dst_node) -> (latency, resources); the rate cap is
        # message-size dependent, so full plans are cached separately
        # under (src_node, dst_node, nbytes) — collectives reuse a
        # handful of segment sizes, so both caches stay small.
        self._path_cache: dict[tuple[int, int], tuple[float, np.ndarray]] = {}
        self._plan_cache: dict[tuple[int, int, float], TransferPlan] = {}
        # (src_rank, dst_rank) -> control latency; two lookups per
        # message (envelope + CTS) make even the plan-cache hit path hot
        self._ctrl_cache: dict[tuple[int, int], float] = {}
        # (node, copies) -> pre-validated membus route for membus_flow()
        self._membus_routes: dict[tuple[int, int], np.ndarray] = {}
        # node_of() is the hottest call in a paper-scale run (millions of
        # lookups); a precomputed table beats the div + property chain.
        ppn = machine.ppn
        self._node_of = [r // ppn for r in range(machine.num_ranks)]

    # -- placement ---------------------------------------------------------------

    def node_of(self, rank: int) -> int:
        """Block ("by node") rank placement: ranks 0..ppn-1 on node 0, etc."""
        if rank < 0:
            raise IndexError(f"rank {rank} out of range")
        try:
            return self._node_of[rank]
        except IndexError:
            raise IndexError(f"rank {rank} out of range") from None

    @property
    def fabric_domains(self) -> int:
        """NVLink islands per node (0 on CPU-only nodes, >= 1 on GPU nodes)."""
        return self._fabric_domains

    def fabric_domain_of(self, rank: int) -> int:
        """Which NVLink island hosts this rank (block placement within
        the node, mirroring :meth:`node_of`'s block placement across
        nodes).  Always 0 on single-fabric GPU nodes."""
        if self._fabric_domains <= 1:
            return 0
        ppn = self.machine.ppn
        return (rank % ppn) // (ppn // self._fabric_domains)

    def membus_rid(self, node: int) -> int:
        return self._membus[node]

    def nic_tx_rid(self, node: int) -> int:
        return self._nic_tx[node]

    def nic_rx_rid(self, node: int) -> int:
        return self._nic_rx[node]

    def fault_resources(self, kind: str, *args: int) -> tuple[int, ...]:
        """Resolve a named hardware element to its fluid resource ids.

        Used by the fault injectors (:mod:`repro.faults`) to target
        capacity changes without reaching into Fabric internals:

        - ``("membus", node)`` — the node's memory bus,
        - ``("nic_tx", node)`` / ``("nic_rx", node)`` — one NIC direction,
        - ``("nic", node)`` — both NIC directions,
        - ``("link", a, b)`` — every interconnect link on the routed path
          from node ``a`` to node ``b`` (for adjacent nodes this is the
          single direct link; topologies without internal links, like the
          crossbar, yield an empty tuple — degrade the NICs instead),
        - ``("nvlink", node)`` — every NVLink island on the node, or
          ``("nvlink", node, domain)`` for one island (GPU nodes only),
        - ``("pcie", node)`` — both host<->device staging directions.
        """
        if kind == "membus":
            (node,) = args
            return (self._membus[node],)
        if kind == "nic_tx":
            (node,) = args
            return (self._nic_tx[node],)
        if kind == "nic_rx":
            (node,) = args
            return (self._nic_rx[node],)
        if kind == "nic":
            (node,) = args
            return (self._nic_tx[node], self._nic_rx[node])
        if kind == "link":
            a, b = args
            return tuple(self._links[l] for l in self.topo.route(a, b))
        if kind == "nvlink":
            if self._nvlink is None:
                raise ValueError("machine has no GPUs (NodeSpec.gpus == 0)")
            if len(args) == 2:
                node, domain = args
                return (self._nvlink[node][domain],)
            (node,) = args
            return tuple(self._nvlink[node])
        if kind == "pcie":
            if self._pcie_h2d is None:
                raise ValueError("machine has no GPUs (NodeSpec.gpus == 0)")
            (node,) = args
            return (self._pcie_h2d[node], self._pcie_d2h[node])
        raise ValueError(
            f"unknown fault resource kind {kind!r}; expected membus, "
            f"nic_tx, nic_rx, nic, link, nvlink or pcie"
        )

    # -- transfer planning ----------------------------------------------------------

    def plan(self, src_rank: int, dst_rank: int, nbytes: float) -> TransferPlan:
        """Latency, fluid route and rate cap for one message."""
        nd = self._node_of
        sn, dn = nd[src_rank], nd[dst_rank]
        plan = self._plan_cache.get((sn, dn, nbytes))
        if plan is not None:
            return plan
        prof = self.profile
        intra = sn == dn
        cached = self._path_cache.get((sn, dn))
        if cached is None:
            if intra:
                # Shared-memory path: copy-in + copy-out cross the bus twice.
                bus = self._membus[sn]
                cached = (
                    self.machine.node.shm_latency + prof.sw_latency,
                    np.asarray((bus, bus), dtype=np.intp),
                )
            else:
                route = self.topo.route(sn, dn)
                latency = (
                    self.machine.nic.latency
                    + prof.sw_latency
                    + len(route) * self.machine.hop_latency
                )
                cached = (
                    latency,
                    np.asarray(
                        (
                            self._nic_tx[sn],
                            *(self._links[l] for l in route),
                            self._nic_rx[dn],
                            self._membus[sn],
                            self._membus[dn],
                        ),
                        dtype=np.intp,
                    ),
                )
            self._path_cache[(sn, dn)] = cached
        latency, resources = cached
        cap = (
            self.machine.node.copy_bw
            if intra
            else prof.rate_cap(nbytes, self.machine.nic.bw)
        )
        plan = TransferPlan(
            latency=latency, resources=resources, rate_cap=cap, intra_node=intra
        )
        self._plan_cache[(sn, dn, nbytes)] = plan
        return plan

    def control_latency(self, src_rank: int, dst_rank: int) -> float:
        """One-way latency of a zero-payload control message (RTS/CTS)."""
        key = (src_rank, dst_rank)
        hit = self._ctrl_cache.get(key)
        if hit is None:
            hit = self._ctrl_cache[key] = self.plan(src_rank, dst_rank, 0).latency
        return hit

    # -- transfer execution ----------------------------------------------------------

    def start_transfer(
        self,
        src_rank: int,
        dst_rank: int,
        nbytes: float,
        on_done: Callable[[], None],
    ) -> None:
        """Run the data latency then the flow; ``on_done`` fires at delivery."""
        latency = self.plan(src_rank, dst_rank, nbytes).latency
        self.engine.schedule(self.data_latency(src_rank, latency), partial(
            self.start_flow, src_rank, dst_rank, nbytes, on_done
        ))

    def data_latency(self, src_rank: int, latency: float) -> float:
        """A payload's one-way ``latency`` after the overhead hook."""
        hook = self.engine.overhead_hook
        if hook is None:
            return latency
        latency = hook("net_latency", src_rank, latency)
        # not max(): a NaN must reach schedule()'s guard
        return 0.0 if latency < 0 else latency

    def start_flow(
        self,
        src_rank: int,
        dst_rank: int,
        nbytes: float,
        on_done: Callable[[], None],
    ) -> None:
        """The fluid half of :meth:`start_transfer`."""
        plan = self.plan(src_rank, dst_rank, nbytes)
        self.solver.start_flow(
            nbytes, plan.resources, on_done, plan.rate_cap, 1.0,
            f"x:{src_rank}->{dst_rank}" if self.engine.obs is not None else "",
        )

    def gpu_flow(
        self,
        node: int,
        nbytes: float,
        on_done: Callable[[], None],
        path: str = "nvlink",
        domain: int = 0,
    ) -> int:
        """GPU-side data movement: 'nvlink', 'h2d' or 'd2h'.

        ``domain`` selects the NVLink island (only meaningful for the
        'nvlink' path on multi-fabric nodes).  Host<->device staging
        (h2d/d2h) also crosses the host memory bus.
        """
        if self._nvlink is None:
            raise RuntimeError("machine has no GPUs (NodeSpec.gpus == 0)")
        if path == "nvlink":
            resources = (self._nvlink[node][domain],)
        elif path == "h2d":
            resources = (self._pcie_h2d[node], self._membus[node])
        elif path == "d2h":
            resources = (self._pcie_d2h[node], self._membus[node])
        else:
            raise ValueError(f"unknown gpu path {path!r}")
        return self.solver.start_flow(
            nbytes, resources, on_done, label=f"gpu:{path}"
        )

    def membus_flow(
        self,
        node: int,
        nbytes: float,
        on_done: Callable[[], None],
        copies: int = 1,
        rate_cap: float | None = None,
    ) -> int:
        """Raw memory-bus flow used by the SM/SOLO intra-node modules.

        ``copies`` is how many times each byte crosses the bus (2 for a
        bounce-buffer pipe, 1 for a one-sided direct copy).
        """
        route = self._membus_routes.get((node, copies))
        if route is None:
            route = np.full(copies, self._membus[node], dtype=np.intp)
            self._membus_routes[(node, copies)] = route
        cap = self.machine.node.copy_bw if rate_cap is None else rate_cap
        return self.solver.start_flow(
            nbytes, route, on_done, rate_cap=cap, label="shm-copy"
        )
