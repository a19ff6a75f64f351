"""The `gpu` module: intra-node GPU collectives (paper future work).

The conclusion announces: "We also plan to add a new submodule to support
intra-node GPU collective operations and combine it with the existing
inter-node submodules to adapt HAN to GPU-based machines."  This module
is that submodule: one rank drives one GPU, device buffers move over the
node's NVLink fabric, and host staging (for the inter-node level, which
still runs over the NICs from host memory) crosses PCIe.

Semantics mirror SM/SOLO so HAN can plug it in as `smod="gpu"`:

- ``bcast``: the leader holds the segment in *host* memory (it arrived
  via `ib`); one H2D staging transfer, then an NVLink fan-out to the
  other ranks' devices.  The returned payload is device-resident.
- ``reduce``: chunk-parallel NVLink reduction (NCCL-style) at the GPU
  kernel rate, then one D2H staging so the leader can feed `ir`.
- ``allreduce``: NVLink ring reduction without any host staging.

Kernel/copy launch latency (`gpu_latency`) is the small-message handicap
-- GPUs want big transfers, exactly like SOLO but more so.

The transport, over :class:`ShmModule`'s protocol: every copy step pays
one launch, readers pull over NVLink, a root stages host buffers with
H2D and lands host-bound results with D2H; device-resident send buffers
are exposed in place.  Data contracts match repro.colls (gather /
allgather / alltoall take one block, scatter / reduce_scatter the total).
"""

from __future__ import annotations

from repro.modules.shm_common import ShmModule, gpu_copy
from repro.mpi.op import SUM

__all__ = ["GpuModule"]


class GpuModule(ShmModule):
    name = "gpu"
    avx = True  # reductions run on-device, far above CPU AVX rates
    nonblocking = False
    device = True
    setup_overhead = 1.0e-6

    # -- transport -----------------------------------------------------------------

    def _begin(self, comm, coll, nbytes=0, root=0):
        """Also check that every rank drives its own GPU."""
        node = comm.runtime.machine.node
        if node.gpus == 0:
            raise ValueError("gpu module needs GPU nodes (NodeSpec.gpus > 0)")
        if comm.size > node.gpus:
            raise ValueError(
                f"gpu module drives one GPU per rank: {comm.size} ranks > "
                f"{node.gpus} GPUs"
            )
        if node.fabric_domains > 1:
            fabric = comm.runtime.fabric
            domains = {fabric.fabric_domain_of(w) for w in comm.group}
            per_domain = node.gpus // node.fabric_domains
            if len(domains) == 1 and comm.size > per_domain:
                raise ValueError(
                    f"gpu module: {comm.size} ranks confined to one NVLink "
                    f"island of {per_domain} GPUs"
                )
        return super()._begin(comm, coll, nbytes, root)

    def _stage_cost(self, comm, nbytes):
        """Kernel/copy launch latency on the driving rank's CPU."""
        return comm.compute(comm.runtime.machine.node.gpu_latency)

    def _stage(self, comm, state, nbytes):
        """host segment (delivered by ib) -> device"""
        return gpu_copy(comm, nbytes, "h2d")

    def _read(self, comm, state, nbytes):
        """NVLink pull (an aggregate resource: all reader flows share it,
        like a broadcast ring)."""
        return gpu_copy(comm, nbytes, "nvlink")

    def _unstage(self, comm, nbytes):
        """device result -> host memory, for the inter-node stage"""
        return gpu_copy(comm, nbytes, "d2h")

    def _publish(self, comm, state, payload, nbytes, ev):
        """Device-resident send buffers are exposed in place."""
        return self._expose(comm, state, payload, ev)

    # -- reduce / allreduce / reduce_scatter (one ring body) -----------------------

    def _ring(self, comm, coll, nbytes, payload, op, moved, reduced, root=None):
        """Every GPU pulls ``moved`` bytes over NVLink and reduces
        ``reduced`` of them at kernel rate.  With a ``root`` the reduced
        slices are then gathered to the root GPU and the full vector
        staged to host memory, so `ir` can take over."""
        if comm.size == 1:
            return payload
        state = self._begin(comm, coll, nbytes, 0 if root is None else root)
        exposed = self._event(comm, state, "all-exposed")
        folded = self._event(comm, state, "folded")
        yield from self._setup(comm)
        yield from self._expose(comm, state, payload, exposed)
        yield exposed
        yield from self._stage_cost(comm, moved)
        yield from self._read(comm, state, moved)
        yield from comm.compute(reduced / comm.runtime.machine.node.gpu_reduce_bw)
        if self._arrive(state, "reduced", comm.size):
            state["result"] = self._fold(state["contrib"], comm.size, op)
            folded.succeed(None)
        if root is not None and comm.rank != root:
            self._finish(comm, state)
            return None
        yield folded
        if root is not None:
            yield from self._read(comm, state, moved)
            yield from self._unstage(comm, nbytes)
        self._finish(comm, state)
        return state["result"]

    def reduce(self, comm, nbytes, root=0, payload=None, op=SUM,
               algorithm=None, segsize=None):
        """Chunk-parallel: every GPU pulls the other P-1 chunks of its 1/P
        slice over NVLink and reduces at kernel rate."""
        moved = (comm.size - 1) * (nbytes / comm.size)
        return self._ring(comm, "reduce", nbytes, payload, op, moved, moved, root)

    def allreduce(self, comm, nbytes, payload=None, op=SUM, algorithm=None,
                  segsize=None):
        """Pure-NVLink ring allreduce (no host staging): ~2x the bytes of
        the vector cross the fabric per GPU."""
        size = comm.size
        return self._ring(
            comm, "allreduce", nbytes, payload, op,
            2.0 * nbytes * (size - 1) / size, nbytes * (size - 1) / size,
        )

    def reduce_scatter(self, comm, nbytes, payload=None, op=SUM):
        """Ring reduce-scatter (the first phase of the ring allreduce):
        nbytes*(P-1)/P cross the fabric per GPU, reductions at kernel
        rate; every rank keeps its own reduced block on device."""
        if comm.size == 1:
            return payload
        ring_bytes = nbytes * (comm.size - 1) / comm.size
        acc = yield from self._ring(
            comm, "reduce_scatter", nbytes, payload, op, ring_bytes, ring_bytes
        )
        return self._block(acc, comm.size, comm.rank)

    # -- allgather / alltoall (one pull) ---------------------------------------------

    def allgather(self, comm, nbytes, payload=None):
        """NVLink ring allgather, fully device-resident: every GPU pulls
        the size-1 foreign blocks around the ring."""
        if comm.size == 1:
            return payload
        contrib = yield from self._pull(comm, "allgather", nbytes, payload)
        return self._gathered([contrib.get(r) for r in range(comm.size)])
