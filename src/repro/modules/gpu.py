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

The transport, over :class:`ShmModule`'s call driver: every copy step
pays one launch, readers pull over NVLink, a root stages host buffers
with H2D and lands host-bound results with D2H; device-resident send
buffers are exposed in place.  Data contracts match repro.colls (gather
/ allgather / alltoall take one block, scatter / reduce_scatter the
total).
"""

from __future__ import annotations

from repro.modules.shm_common import (
    FLAG_DELAY, ShmModule, _Call, count, grant, leave, on_device, wait,
)
from repro.mpi.op import SUM

__all__ = ["GpuModule"]


class GpuModule(ShmModule):
    name = "gpu"
    avx = True  # reductions run on-device, far above CPU AVX rates
    nonblocking = False
    device = True
    setup_overhead = 1.0e-6

    # -- transport -----------------------------------------------------------------

    def _begin(self, comm, coll, nbytes, root):
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
        return (grant(comm.runtime.machine.node.gpu_latency),)

    def _stage(self, comm, nbytes):
        """host segment (delivered by ib) -> device"""
        return (on_device(nbytes, "h2d"),)

    def _read(self, comm, nbytes):
        """NVLink pull (an aggregate resource: all reader flows share it,
        like a broadcast ring)."""
        return (on_device(nbytes, "nvlink"),)

    def _unstage(self, comm, nbytes):
        """device result -> host memory, for the inter-node stage"""
        return (on_device(nbytes, "d2h"),)

    def _post(self, comm, nbytes):
        """Device-resident send buffers are exposed in place."""
        return (FLAG_DELAY,)

    # -- reduce / allreduce / reduce_scatter (one ring role) ----------------------

    def _ring_reduce(self, comm, nbytes, root, payload, moved, reduced,
                     result=_Call.fold):
        """Every GPU pulls ``moved`` bytes over NVLink and reduces
        ``reduced`` of them at kernel rate.  With a ``root`` the reduced
        slices are then gathered to the root GPU and the full vector
        staged to host memory, so `ir` can take over."""
        steps = [*self._in_place(comm), wait("exposed"),
                 *self._stage_cost(comm, moved), *self._read(comm, moved),
                 grant(reduced / comm.runtime.machine.node.gpu_reduce_bw),
                 count("folded", comm.size)]
        if root is None:
            steps += (wait("folded"), leave(result))
        elif comm.rank == root:
            steps += (wait("folded"), *self._read(comm, moved),
                      *self._unstage(comm, nbytes), leave(result))
        else:
            steps.append(leave())
        return steps

    def reduce(self, comm, nbytes, root=0, payload=None, op=SUM,
               algorithm=None, segsize=None):
        """Chunk-parallel: every GPU pulls the other P-1 chunks of its 1/P
        slice over NVLink and reduces at kernel rate."""
        moved = (comm.size - 1) * (nbytes / comm.size)
        return self._call(comm, "reduce", nbytes, root, payload,
                          self._ring_reduce, moved, moved, op=op)

    def allreduce(self, comm, nbytes, payload=None, op=SUM, algorithm=None,
                  segsize=None):
        """Pure-NVLink ring allreduce (no host staging): ~2x the bytes of
        the vector cross the fabric per GPU."""
        size = comm.size
        return self._call(
            comm, "allreduce", nbytes, None, payload, self._ring_reduce,
            2.0 * nbytes * (size - 1) / size, nbytes * (size - 1) / size, op=op,
        )

    def reduce_scatter(self, comm, nbytes, payload=None, op=SUM):
        """Ring reduce-scatter (the first phase of the ring allreduce):
        nbytes*(P-1)/P cross the fabric per GPU, reductions at kernel
        rate; every rank keeps its own reduced block on device."""
        ring_bytes = nbytes * (comm.size - 1) / comm.size
        return self._call(comm, "reduce_scatter", nbytes, None, payload,
                          self._ring_reduce, ring_bytes, ring_bytes,
                          _Call.fold_block, op=op)

    def allgather(self, comm, nbytes, payload=None):
        """NVLink ring allgather, fully device-resident: every GPU pulls
        the size-1 foreign blocks around the ring."""
        return self._call(comm, "allgather", nbytes, None, payload,
                          self._from_all, _Call.gathered)
