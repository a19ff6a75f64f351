"""The fabric tier: split-NVLink presets, hierarchy comms, composite.

Covers the three layers of the fabric/node/network composition:

- hardware: ``NodeSpec.fabric_domains`` validation and the ``gpu_pod``
  preset,
- runtime: per-island NVLink resources and ``fabric_domain_of``,
- hierarchy: the ``island`` level (my NVLink island plus the island
  leaders) from ``build_hierarchy`` and the
  :class:`~repro.core.composite.LeaderComposite` HAN wires in over it
  when ``smod="gpu"`` meets a split node.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core import HanConfig, HanModule, LeaderComposite
from repro.core.subcomms import build_hierarchy
from repro.hardware import MACHINE_PRESETS, gpu_cluster, gpu_pod, tiny_cluster
from repro.hardware.spec import MachineSpec, NicSpec, NodeSpec
from repro.mpi import MPIRuntime


def _gpu_node(**kw) -> NodeSpec:
    base = dict(
        cores=8, mem_bw=100e9, copy_bw=8e9, reduce_bw=3e9,
        reduce_bw_avx=12e9, gpus=8, nvlink_bw=200e9, pcie_bw=12e9,
        gpu_reduce_bw=100e9,
    )
    base.update(kw)
    return NodeSpec(**base)


class TestSpecValidation:
    def test_negative_fabric_domains_rejected(self):
        with pytest.raises(ValueError, match="fabric_domains"):
            _gpu_node(fabric_domains=-1)

    def test_split_fabric_requires_gpus(self):
        with pytest.raises(ValueError, match="fabric_domains"):
            _gpu_node(gpus=0, nvlink_bw=0.0, pcie_bw=0.0,
                      gpu_reduce_bw=0.0, fabric_domains=2)

    def test_gpus_must_split_evenly(self):
        with pytest.raises(ValueError, match="fabric_domains"):
            _gpu_node(gpus=6, fabric_domains=4)

    def test_ppn_must_split_evenly(self):
        node = _gpu_node(fabric_domains=2)
        with pytest.raises(ValueError, match="ppn"):
            MachineSpec(
                name="bad", num_nodes=2, ppn=3, node=node,
                nic=NicSpec(bw=25e9, latency=1.2e-6),
            )

    def test_flat_nodes_unconstrained(self):
        # 0 and 1 both mean "one flat fabric" — no divisibility rules
        _gpu_node(gpus=6, fabric_domains=0)
        _gpu_node(gpus=6, fabric_domains=1)


class TestGpuPodPreset:
    def test_registered(self):
        assert "gpu_pod" in MACHINE_PRESETS
        assert MACHINE_PRESETS["gpu_pod"] is gpu_pod

    def test_split_fabric_geometry(self):
        m = gpu_pod(num_nodes=2, ppn=8)
        assert m.node.fabric_domains == 2
        assert m.node.gpus % m.node.fabric_domains == 0
        assert m.ppn % m.node.fabric_domains == 0

    def test_scaled_keeps_split(self):
        m = gpu_pod(num_nodes=2, ppn=8).scaled(num_nodes=3, ppn=4)
        assert m.node.fabric_domains == 2
        assert m.ppn == 4

    def test_gpu_cluster_stays_flat(self):
        assert gpu_cluster().node.fabric_domains == 0


class TestFabricResources:
    def test_domain_of_block_placement(self):
        runtime = MPIRuntime(gpu_pod(num_nodes=2, ppn=8))
        fabric = runtime.fabric
        assert fabric.fabric_domains == 2
        # ranks 0-3 on island 0, 4-7 on island 1, same pattern on node 1
        assert [fabric.fabric_domain_of(r) for r in range(8)] == \
            [0, 0, 0, 0, 1, 1, 1, 1]
        assert [fabric.fabric_domain_of(r) for r in range(8, 16)] == \
            [0, 0, 0, 0, 1, 1, 1, 1]

    def test_flat_gpu_machine_single_domain(self):
        runtime = MPIRuntime(gpu_cluster(num_nodes=1, ppn=4))
        fabric = runtime.fabric
        assert fabric.fabric_domains == 1
        assert all(fabric.fabric_domain_of(r) == 0 for r in range(4))

    def test_cpu_machine_has_no_fabric_domains(self):
        runtime = MPIRuntime(tiny_cluster(num_nodes=1, ppn=4))
        assert runtime.fabric.fabric_domains == 0

    def test_per_island_fault_targets(self):
        runtime = MPIRuntime(gpu_pod(num_nodes=2, ppn=8))
        fabric = runtime.fabric
        both = fabric.fault_resources("nvlink", 0)
        assert len(both) == 2
        one = fabric.fault_resources("nvlink", 0, 1)
        assert len(one) == 1 and one[0] in both
        assert fabric.fault_resources("nvlink", 0, 0) != one
        assert len(fabric.fault_resources("pcie", 0)) == 2

    def test_flat_machine_single_island_target(self):
        runtime = MPIRuntime(gpu_cluster(num_nodes=1, ppn=4))
        assert len(runtime.fabric.fault_resources("nvlink", 0)) == 1


def _hier_props(machine, ranks):
    runtime = MPIRuntime(machine)

    def prog(comm):
        hier = yield from build_hierarchy(comm)
        island = hier.level("island")
        fab = island.comm if island else None
        fleaders = island.leaders if island else None
        return {
            "has_fabric": island is not None,
            "outer_is_low": island is not None and island.outer is hier.low,
            "fab_size": fab.size if fab else None,
            "fab_rank": fab.rank if fab else None,
            "is_leader": fleaders is not None,
            "fleaders_size": fleaders.size if fleaders else None,
        }

    return runtime.run(prog, ranks=ranks)


class TestHierarchyComms:
    def test_flat_machine_has_no_fabric_comms(self):
        props = _hier_props(tiny_cluster(num_nodes=2, ppn=4), 8)
        assert all(not p["has_fabric"] for p in props)
        assert all(p["fab_size"] is None for p in props)

    def test_flat_gpu_machine_has_no_fabric_comms(self):
        props = _hier_props(gpu_cluster(num_nodes=2, ppn=4), 8)
        assert all(not p["has_fabric"] for p in props)

    def test_pod_fab_and_fleaders_structure(self):
        props = _hier_props(gpu_pod(num_nodes=2, ppn=8), 16)
        assert all(p["has_fabric"] and p["outer_is_low"] for p in props)
        # islands of ppn / domains = 4 ranks each
        assert all(p["fab_size"] == 4 for p in props)
        # exactly the island leaders (fab rank 0) carry fleaders,
        # one leader per island -> fleaders spans 2 ranks per node
        leaders = [p for p in props if p["is_leader"]]
        assert len(leaders) == 4
        assert all(p["fab_rank"] == 0 for p in leaders)
        assert all(p["fleaders_size"] == 2 for p in leaders)
        assert all(p["fab_rank"] != 0 for p in props if not p["is_leader"])


class TestIslandComposite:
    def _run_pod(self, prog, num_nodes=1, ppn=8):
        runtime = MPIRuntime(gpu_pod(num_nodes=num_nodes, ppn=ppn))
        return runtime.run(prog, ranks=num_nodes * ppn)

    def test_rejects_foreign_comm(self):
        han = HanModule()

        def prog(comm):
            hier = yield from build_hierarchy(comm)
            cfg = HanConfig(fs=None, imod="libnbc", smod="gpu")
            _, comp = han._modules(hier, cfg)
            assert isinstance(comp, LeaderComposite)
            with pytest.raises(ValueError, match="outer comm"):
                next(comp.bcast(comm, 64))
            return True

        assert all(self._run_pod(prog))

    def test_modules_wrap_and_cache(self):
        han = HanModule()

        def prog(comm):
            hier = yield from build_hierarchy(comm)
            gpu_cfg = HanConfig(fs=None, imod="libnbc", smod="gpu")
            _, comp = han._modules(hier, gpu_cfg)
            _, again = han._modules(hier, gpu_cfg)
            _, host = han._modules(
                hier, HanConfig(fs=None, imod="libnbc", smod="sm")
            )
            return (
                isinstance(comp, LeaderComposite),
                comp.level is hier.level("island"),
                comp is again,  # cached per hierarchy
                type(host).name == "sm",  # host smods bypass the wrapper
            )

        assert all(all(flags) for flags in self._run_pod(prog))

    def test_flat_hierarchy_bypasses_wrapper(self):
        han = HanModule()
        runtime = MPIRuntime(gpu_cluster(num_nodes=2, ppn=4))

        def prog(comm):
            hier = yield from build_hierarchy(comm)
            _, mod = han._modules(
                hier, HanConfig(fs=None, imod="libnbc", smod="gpu")
            )
            return type(mod).name == "gpu"

        assert all(runtime.run(prog, ranks=8))

    def test_allreduce_exact_on_node_comm(self):
        han = HanModule()
        n = 64
        blocks = [np.arange(n, dtype=np.float64) + r for r in range(8)]
        want = np.sum(blocks, axis=0)

        def prog(comm):
            hier = yield from build_hierarchy(comm)
            _, comp = han._modules(
                hier, HanConfig(fs=None, imod="libnbc", smod="gpu")
            )
            out = yield from comp.allreduce(
                hier.low, n * 8, payload=blocks[comm.rank]
            )
            return out

        for out in self._run_pod(prog):
            np.testing.assert_array_equal(out, want)

    def test_split_fabric_slower_than_flat_for_cross_island_traffic(self):
        """Same GPUs, same NVLink speed: the PCIe bridge must cost time."""
        nbytes = 8 * 1024 * 1024
        times = {}
        for name, machine in (
            ("pod", gpu_pod(num_nodes=1, ppn=8)),
            ("flat", dataclasses.replace(
                gpu_pod(num_nodes=1, ppn=8),
                node=dataclasses.replace(
                    gpu_pod().node, fabric_domains=0
                ),
            )),
        ):
            han = HanModule(
                config=HanConfig(fs=None, imod="libnbc", smod="gpu")
            )
            runtime = MPIRuntime(machine)

            def prog(comm, h=han):
                yield from h.allreduce(comm, nbytes)

            runtime.run(prog, ranks=8)
            times[name] = runtime.engine.now
        assert times["pod"] > times["flat"]
