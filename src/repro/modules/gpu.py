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
"""

from __future__ import annotations

import math

from repro.modules.shm_common import ShmModule
from repro.mpi.op import SUM

__all__ = ["GpuModule"]


class GpuModule(ShmModule):
    name = "gpu"
    avx = True  # reductions run on-device, far above CPU AVX rates
    nonblocking = False
    device = True

    def __init__(self, setup_overhead: float = 1.0e-6):
        self.setup_overhead = setup_overhead

    # -- helpers ---------------------------------------------------------------

    def _gpu(self, comm, state, nbytes, path):
        if nbytes <= 0:
            return
        fabric = comm.runtime.fabric
        ev = comm.runtime.engine.event(f"gpu-{path}")
        # NVLink flows ride the calling rank's own island; on split-fabric
        # nodes a comm spanning islands puts each rank's traffic on its
        # local fabric (the island-level composite in repro.core routes
        # cross-island bytes over PCIe instead of calling this flat path).
        fabric.gpu_flow(
            state["node"], nbytes, lambda: ev.succeed(None), path=path,
            domain=fabric.fabric_domain_of(comm.world_rank),
        )
        yield ev

    def _launch(self, comm):
        """Kernel/copy launch latency on the driving rank's CPU."""
        yield from comm.compute(comm.runtime.machine.node.gpu_latency)

    def _check_gpus(self, comm):
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

    def _gpu_reduce(self, comm, nbytes):
        node = comm.runtime.machine.node
        yield from comm.compute(nbytes / node.gpu_reduce_bw)

    # -- collectives ---------------------------------------------------------------

    def bcast(self, comm, nbytes, root=0, payload=None, algorithm=None,
              segsize=None):
        if comm.size == 1:
            return payload
        self._check_gpus(comm)
        state = self._begin(comm)
        staged = self._event(comm, state, "bcast-staged")
        drained = self._event(comm, state, "bcast-drained")
        yield from self._setup(comm)
        if comm.rank == root:
            state["payload"] = payload
            yield from self._launch(comm)
            # host segment (delivered by ib) -> device
            yield from self._gpu(comm, state, nbytes, "h2d")
            staged.succeed(None)
            result = payload
            yield drained
        else:
            if payload is not None:
                raise ValueError("payload may only be supplied at the root")
            yield staged
            yield from self._launch(comm)
            # fan-out over the NVLink fabric (aggregate resource: all
            # reader flows share it, like a broadcast ring)
            yield from self._gpu(comm, state, nbytes, "nvlink")
            result = state.get("payload")
            state["readers_done"] = state.get("readers_done", 0) + 1
            if state["readers_done"] == comm.size - 1:
                drained.succeed(None)
        self._finish(comm, state)
        return result

    def reduce(self, comm, nbytes, root=0, payload=None, op=SUM,
               algorithm=None, segsize=None):
        if comm.size == 1:
            return payload
        self._check_gpus(comm)
        state = self._begin(comm)
        contrib = state.setdefault("contrib", {})
        all_ready = self._event(comm, state, "reduce-ready")
        result_ready = self._event(comm, state, "reduce-result")
        yield from self._setup(comm)
        contrib[comm.rank] = payload
        yield from self._latency(comm)
        state["ready"] = state.get("ready", 0) + 1
        if state["ready"] == comm.size:
            all_ready.succeed(None)
        yield all_ready
        # chunk-parallel: every GPU pulls the other P-1 chunks of its
        # 1/P slice over NVLink and reduces at kernel rate
        size = comm.size
        chunk = nbytes / size
        yield from self._launch(comm)
        yield from self._gpu(comm, state, (size - 1) * chunk, "nvlink")
        yield from self._gpu_reduce(comm, (size - 1) * chunk)
        state["chunks_done"] = state.get("chunks_done", 0) + 1
        if state["chunks_done"] == size:
            vals = [contrib[r] for r in range(size)]
            if all(v is not None for v in vals):
                acc = vals[0]
                for v in vals[1:]:
                    acc = op(acc, v)
            else:
                acc = None
            state["result"] = acc
            result_ready.succeed(None)
        if comm.rank == root:
            yield result_ready
            # gather the reduced slices to the root GPU, then stage the
            # full vector to host memory so `ir` can take over
            yield from self._gpu(
                comm, state, (size - 1) * chunk, "nvlink"
            )
            yield from self._gpu(comm, state, nbytes, "d2h")
            result = state.get("result")
        else:
            result = None
        self._finish(comm, state)
        return result

    def allreduce(self, comm, nbytes, payload=None, op=SUM, algorithm=None,
                  segsize=None):
        """Pure-NVLink ring allreduce (no host staging): ~2x the bytes of
        the vector cross the fabric per GPU."""
        if comm.size == 1:
            return payload
        self._check_gpus(comm)
        state = self._begin(comm)
        contrib = state.setdefault("contrib", {})
        all_ready = self._event(comm, state, "ar-ready")
        done = self._event(comm, state, "ar-done")
        yield from self._setup(comm)
        contrib[comm.rank] = payload
        yield from self._latency(comm)
        state["ready"] = state.get("ready", 0) + 1
        if state["ready"] == comm.size:
            all_ready.succeed(None)
        yield all_ready
        size = comm.size
        ring_bytes = 2.0 * nbytes * (size - 1) / size
        yield from self._launch(comm)
        yield from self._gpu(comm, state, ring_bytes, "nvlink")
        yield from self._gpu_reduce(comm, nbytes * (size - 1) / size)
        state["done"] = state.get("done", 0) + 1
        if state["done"] == size:
            vals = [contrib[r] for r in range(size)]
            if all(v is not None for v in vals):
                acc = vals[0]
                for v in vals[1:]:
                    acc = op(acc, v)
            else:
                acc = None
            state["result"] = acc
            done.succeed(None)
        yield done
        result = state.get("result")
        self._finish(comm, state)
        return result

    # -- fallback collectives (consistent GPU-staged pattern) -----------------------
    #
    # Each follows the same shape as the core three: launch latency,
    # all-ready flag sync, NVLink flows for device bytes, PCIe staging
    # only where the result must land in host memory for an inter-node
    # stage.  Data contracts match repro.colls (gather/allgather/alltoall
    # take one block, scatter/reduce_scatter the total).

    def gather(self, comm, nbytes, root=0, payload=None):
        """Root GPU pulls every peer block over NVLink, then stages the
        concatenation to host memory (for HAN's inter-node `ig`)."""
        import numpy as np

        if comm.size == 1:
            return payload
        self._check_gpus(comm)
        state = self._begin(comm)
        contrib = state.setdefault("contrib", {})
        all_ready = self._event(comm, state, "gather-ready")
        done = self._event(comm, state, "gather-done")
        yield from self._setup(comm)
        contrib[comm.rank] = payload
        yield from self._latency(comm)
        state["ready"] = state.get("ready", 0) + 1
        if state["ready"] == comm.size:
            all_ready.succeed(None)
        if comm.rank == root:
            yield all_ready
            yield from self._launch(comm)
            yield from self._gpu(comm, state, (comm.size - 1) * nbytes, "nvlink")
            yield from self._gpu(comm, state, comm.size * nbytes, "d2h")
            parts = [contrib.get(r) for r in range(comm.size)]
            done.succeed(None)
            self._finish(comm, state)
            if any(p is None for p in parts):
                return None
            return np.concatenate(parts)
        yield done
        self._finish(comm, state)
        return None

    def scatter(self, comm, nbytes, root=0, payload=None):
        """Root stages the full buffer to its device, peers pull their
        blocks over NVLink; results are device-resident."""
        import numpy as np

        if comm.size == 1:
            return payload
        self._check_gpus(comm)
        state = self._begin(comm)
        staged = self._event(comm, state, "scatter-staged")
        drained = self._event(comm, state, "scatter-drained")
        yield from self._setup(comm)
        per = nbytes / comm.size
        if comm.rank == root:
            state["payload"] = payload
            yield from self._launch(comm)
            yield from self._gpu(comm, state, nbytes, "h2d")
            staged.succeed(None)
            yield drained
        else:
            if payload is not None:
                raise ValueError("payload may only be supplied at the root")
            yield staged
            yield from self._launch(comm)
            yield from self._gpu(comm, state, per, "nvlink")
            state["readers_done"] = state.get("readers_done", 0) + 1
            if state["readers_done"] == comm.size - 1:
                drained.succeed(None)
        src = state.get("payload")
        self._finish(comm, state)
        if src is None:
            return None
        bounds = np.linspace(0, src.size, comm.size + 1).astype(int)
        return src[bounds[comm.rank] : bounds[comm.rank + 1]]

    def allgather(self, comm, nbytes, payload=None):
        """NVLink ring allgather, fully device-resident: every GPU pulls
        the size-1 foreign blocks around the ring."""
        import numpy as np

        if comm.size == 1:
            return payload
        self._check_gpus(comm)
        state = self._begin(comm)
        contrib = state.setdefault("contrib", {})
        all_ready = self._event(comm, state, "ag-ready")
        yield from self._setup(comm)
        contrib[comm.rank] = payload
        yield from self._latency(comm)
        state["ready"] = state.get("ready", 0) + 1
        if state["ready"] == comm.size:
            all_ready.succeed(None)
        yield all_ready
        yield from self._launch(comm)
        yield from self._gpu(comm, state, (comm.size - 1) * nbytes, "nvlink")
        parts = [contrib.get(r) for r in range(comm.size)]
        self._finish(comm, state)
        if any(p is None for p in parts):
            return None
        return np.concatenate(parts)

    def reduce_scatter(self, comm, nbytes, payload=None, op=SUM):
        """Ring reduce-scatter (the first phase of the ring allreduce):
        nbytes*(P-1)/P cross the fabric per GPU, reductions at kernel
        rate; every rank keeps its own reduced block on device."""
        import numpy as np

        if comm.size == 1:
            return payload
        self._check_gpus(comm)
        state = self._begin(comm)
        contrib = state.setdefault("contrib", {})
        all_ready = self._event(comm, state, "rs-ready")
        done = self._event(comm, state, "rs-done")
        yield from self._setup(comm)
        contrib[comm.rank] = payload
        yield from self._latency(comm)
        state["ready"] = state.get("ready", 0) + 1
        if state["ready"] == comm.size:
            all_ready.succeed(None)
        yield all_ready
        size = comm.size
        ring_bytes = nbytes * (size - 1) / size
        yield from self._launch(comm)
        yield from self._gpu(comm, state, ring_bytes, "nvlink")
        yield from self._gpu_reduce(comm, ring_bytes)
        state["done"] = state.get("done", 0) + 1
        if state["done"] == size:
            vals = [contrib[r] for r in range(size)]
            if all(v is not None for v in vals):
                acc = vals[0]
                for v in vals[1:]:
                    acc = op(acc, v)
            else:
                acc = None
            state["result"] = acc
            done.succeed(None)
        yield done
        acc = state.get("result")
        self._finish(comm, state)
        if acc is None:
            return None
        bounds = np.linspace(0, acc.size, size + 1).astype(int)
        return acc[bounds[comm.rank] : bounds[comm.rank + 1]]

    def alltoall(self, comm, nbytes, payload=None):
        """Direct NVLink exchange: every GPU pulls its size-1 foreign
        blocks once all peers exposed their send buffers."""
        import numpy as np

        if comm.size == 1:
            return payload
        self._check_gpus(comm)
        state = self._begin(comm)
        contrib = state.setdefault("contrib", {})
        all_ready = self._event(comm, state, "a2a-ready")
        yield from self._setup(comm)
        contrib[comm.rank] = payload
        yield from self._latency(comm)
        state["ready"] = state.get("ready", 0) + 1
        if state["ready"] == comm.size:
            all_ready.succeed(None)
        yield all_ready
        yield from self._launch(comm)
        yield from self._gpu(comm, state, (comm.size - 1) * nbytes, "nvlink")
        parts = []
        for r in range(comm.size):
            src = contrib.get(r)
            if src is None:
                parts.append(None)
                continue
            bounds = np.linspace(0, src.size, comm.size + 1).astype(int)
            parts.append(src[bounds[comm.rank] : bounds[comm.rank + 1]])
        self._finish(comm, state)
        if any(p is None for p in parts):
            return None
        return np.concatenate(parts)

    def barrier(self, comm):
        if comm.size == 1:
            return
        self._check_gpus(comm)
        state = self._begin(comm)
        release = self._event(comm, state, "barrier-release")
        yield from self._setup(comm)
        yield from self._latency(comm)
        state["arrived"] = state.get("arrived", 0) + 1
        if state["arrived"] == comm.size:
            release.succeed(None)
        yield release
        self._finish(comm, state)

    def frag_count(self, nbytes: float) -> int:
        return max(1, math.ceil(nbytes / (1 << 20)))
