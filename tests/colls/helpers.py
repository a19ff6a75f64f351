"""Shared machinery for collective-algorithm correctness tests."""

from __future__ import annotations

import numpy as np

from repro.hardware import gpu_cluster, gpu_pod, tiny_cluster
from repro.mpi import MPIRuntime

#: module names accepted by :func:`make_test_module`
MODULE_NAMES = ("han", "han3", "tuned", "libnbc", "adapt", "sm", "solo", "gpu")

#: modules that only run inside one node (shared-memory / device transports)
INTRA_ONLY = frozenset({"sm", "solo", "gpu"})

#: machine fabrics the matrix tests place modules on: ``flat`` is a
#: single NVLink/memory domain per node, ``pod`` splits each node into
#: two NVLink islands bridged over PCIe/host (``fabric_domains=2``)
FABRICS = ("flat", "pod")


def run_collective(nranks, program):
    """Run ``program(comm)`` on ``nranks`` ranks spread over 2-rank nodes."""
    nodes = max(1, (nranks + 1) // 2)
    machine = tiny_cluster(num_nodes=nodes, ppn=2)
    runtime = MPIRuntime(machine)
    return runtime.run(program, ranks=nranks), runtime.engine.now


def make_test_module(name: str, config=None):
    """Instantiate any collective module by name, including HAN itself.

    ``config`` (a :class:`~repro.core.config.HanConfig`) only applies to
    the HAN modules; plain transports ignore it.
    """
    if name == "han":
        from repro.core import HanModule

        return HanModule(config=config)
    if name == "han3":
        from repro.core import HanModule

        return HanModule(config=config, group_level=True)
    from repro.modules import make_module

    return make_module(name)


def module_machine(name: str, nranks: int, fabric: str = "flat"):
    """A machine the named module can legally run ``nranks`` ranks on.

    ``fabric="pod"`` places the ranks on the split-NVLink ``gpu_pod``
    preset (two fabric islands per node); ``"flat"`` uses single-domain
    nodes — ``tiny_cluster`` for host transports, ``gpu_cluster`` for
    the device transport (which needs GPUs either way).
    """
    if fabric == "pod":
        if name in INTRA_ONLY:
            return gpu_pod(num_nodes=1, ppn=nranks)
        return gpu_pod(num_nodes=2, ppn=max(2, nranks // 2))
    if name == "gpu":
        return gpu_cluster(num_nodes=1, ppn=nranks)
    if name in INTRA_ONLY:
        return tiny_cluster(num_nodes=1, ppn=nranks)
    nodes = max(1, (nranks + 1) // 2)
    return tiny_cluster(num_nodes=nodes, ppn=2)


def run_module_collective(name: str, nranks: int, program,
                          fabric: str = "flat"):
    """``run_collective`` with module-appropriate rank placement."""
    runtime = MPIRuntime(module_machine(name, nranks, fabric))
    return runtime.run(program, ranks=nranks), runtime.engine.now


def rank_array(rank: int, n: int, dtype=np.float64) -> np.ndarray:
    """Deterministic distinct per-rank contribution."""
    return (np.arange(n, dtype=dtype) + 1) * (rank + 1)
