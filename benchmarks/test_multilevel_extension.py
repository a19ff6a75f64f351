"""Extension bench: three hardware levels (the paper's future work).

"In the future, we plan to ... explore approaches based on an increased
number of hardware levels."  HAN with the group level (node /
dragonfly-group / machine) crosses the expensive global links once per
group instead of once per node; this bench quantifies the benefit on a
grouped fabric.
"""

from conftest import KiB, MiB, once

from repro.core import HanConfig, HanModule
from repro.hardware import MachineSpec, NicSpec, NodeSpec
from repro.mpi import MPIRuntime


def grouped_dragonfly():
    node = NodeSpec(cores=4, mem_bw=60e9, copy_bw=6e9, reduce_bw=2.5e9,
                    reduce_bw_avx=10e9)
    return MachineSpec(
        name="dragonfly24",
        num_nodes=24,
        ppn=4,
        node=node,
        nic=NicSpec(bw=10e9, latency=1.2e-6),
        topology="dragonfly",
        link_bw=12e9,
        topo_params=dict(
            nodes_per_router=2,
            routers_per_group=2,
            global_links_per_router=2,
        ),
    )


def test_three_levels_beat_two_on_grouped_fabric(benchmark):
    machine = grouped_dragonfly()
    cfg = HanConfig(fs=2 * MiB, imod="adapt", smod="solo",
                    ibalg="chain", iralg="chain", ibs=512 * KiB,
                    irs=512 * KiB)

    def regen():
        out = {}
        for name, mod in (
            ("han2", HanModule(config=cfg)),
            ("han3", HanModule(config=cfg, group_level=True)),
        ):
            rt = MPIRuntime(machine)

            def prog(comm, m=mod):
                yield from m.bcast(comm, nbytes=32 * MiB)

            rt.run(prog)
            out[name] = rt.engine.now
        return out

    times = once(benchmark, regen)
    assert times["han3"] < times["han2"]
