"""HAN with more hardware levels than node + network (paper future work).

The conclusion plans "approaches based on an increased number of
hardware levels".  Here they are levels of one
:class:`~repro.core.subcomms.Hierarchy`: the topology-group level
(dragonfly group / fat-tree edge) requested by ``HanModule(...,
group_level=True)``, the NVLink-island level of split-fabric nodes, and
both at once on a 4-level machine, every collective and every root
checked element-exact against numpy.
"""

import dataclasses

import numpy as np
import pytest

from repro.core import HanConfig, HanModule, LeaderComposite
from repro.core.subcomms import build_hierarchy
from repro.hardware import MachineSpec, NicSpec, NodeSpec, gpu_pod, tiny_cluster
from repro.mpi import MPIRuntime

KiB, MiB = 1024, 1024 * 1024

DRAGONFLY = dict(nodes_per_router=2, routers_per_group=2,
                 global_links_per_router=2)


def dragonfly_machine(groups=3, routers=2, nodes_per_router=2, ppn=2):
    node = NodeSpec(cores=max(ppn, 4), mem_bw=60e9, copy_bw=6e9,
                    reduce_bw=2.5e9, reduce_bw_avx=10e9)
    return MachineSpec(
        name="dtest",
        num_nodes=groups * routers * nodes_per_router,
        ppn=ppn,
        node=node,
        nic=NicSpec(bw=10e9, latency=1.2e-6),
        topology="dragonfly",
        link_bw=12e9,
        topo_params=dict(
            nodes_per_router=nodes_per_router,
            routers_per_group=routers,
            global_links_per_router=2,
        ),
    )


def four_level_machine():
    """Island / node / dragonfly group / network: gpu_pod nodes (two
    NVLink islands each) in 3 dragonfly groups of 4 nodes."""
    return dataclasses.replace(
        gpu_pod(num_nodes=12, ppn=4), name="pod_dragonfly",
        topology="dragonfly", link_bw=25e9, topo_params=dict(DRAGONFLY),
    )


CFG = HanConfig(fs=128 * KiB, imod="adapt", smod="sm",
                ibalg="binary", iralg="binary")


def _group_view(machine, groups=True):
    runtime = MPIRuntime(machine)

    def prog(comm):
        hier = yield from build_hierarchy(comm, groups)
        g = hier.level("group")
        if g is None:
            return [lv.name for lv in hier.levels], None
        return [lv.name for lv in hier.levels], dict(
            low=hier.low.size,
            mid=g.comm.size,
            top=None if g.leaders is None else g.leaders.size,
            groups=len({g.color(w) for w in g.outer.group}),
            is_up=g.outer is hier.up,
        )

    return runtime.run(prog)


class TestGroupLevel:
    def test_levels_partition_by_dragonfly_group(self):
        results = _group_view(dragonfly_machine())
        names, view = results[0]
        assert names == ["node", "group"]
        # 12 nodes in 3 groups of 4; ppn=2
        assert view == dict(low=2, mid=4, top=3, groups=3, is_up=True)
        # exactly one top member per group per layer
        tops = [v["top"] for _, v in results if v["top"] is not None]
        assert len(tops) == 3 * 2  # 3 groups x 2 layers

    def test_cached(self):
        runtime = MPIRuntime(dragonfly_machine())

        def prog(comm):
            h1 = yield from build_hierarchy(comm, True)
            h2 = yield from build_hierarchy(comm, True)
            plain = yield from build_hierarchy(comm)
            return h1 is h2, plain is not h1, plain.up is h1.up

        assert all(all(flags) for flags in runtime.run(prog))

    def test_synthesized_groups_on_crossbar(self):
        results = _group_view(tiny_cluster(num_nodes=9, ppn=1))
        groups = results[0][1]["groups"]
        assert 2 <= groups <= 5  # ~sqrt(9) nodes per synthetic group

    @pytest.mark.parametrize("machine", [
        dragonfly_machine(groups=1),  # one group
        tiny_cluster(num_nodes=2, ppn=2),  # one node per synthetic group
    ])
    def test_fallback_adds_no_level_and_no_split(self, machine):
        runtime = MPIRuntime(machine)

        def prog(comm):
            plain = yield from build_hierarchy(comm)
            grouped = yield from build_hierarchy(comm, True)
            return grouped is plain and [lv.name for lv in plain.levels]

        assert all(r == ["node"] for r in runtime.run(prog))

    def test_levels_innermost_first(self):
        for groups, want in ((False, ["island", "node"]),
                             (True, ["island", "node", "group"])):
            names = {tuple(n) for n, _ in _group_view(four_level_machine(),
                                                      groups)}
            assert names == {tuple(want)}

    def test_composite_rejects_noncontiguous_groups(self):
        runtime = MPIRuntime(dragonfly_machine())

        def prog(comm):
            hier = yield from build_hierarchy(comm, True)
            level = dataclasses.replace(
                hier.level("group"), color=lambda w: (w // 2) % 2  # node parity
            )
            with pytest.raises(ValueError, match="not contiguous"):
                LeaderComposite(level, None, None)
            return True

        assert all(runtime.run(prog))


class TestGroupLevelBcast:
    @pytest.mark.parametrize("root", [0, 1, 2, 5, 11, 23])
    def test_payload_everywhere(self, root):
        machine = dragonfly_machine()
        han3 = HanModule(config=CFG, group_level=True)
        data = np.arange(300, dtype=np.float64)
        runtime = MPIRuntime(machine)

        def prog(comm):
            payload = data if comm.rank == root else None
            out = yield from han3.bcast(
                comm, nbytes=data.nbytes, root=root, payload=payload
            )
            return out

        results = runtime.run(prog)
        for r, out in enumerate(results):
            np.testing.assert_array_equal(out, data, err_msg=f"rank {r}")

    def test_single_group_falls_back(self):
        machine = dragonfly_machine(groups=1)
        han3 = HanModule(config=CFG, group_level=True)
        data = np.arange(40, dtype=np.float64)
        runtime = MPIRuntime(machine)

        def prog(comm):
            payload = data if comm.rank == 0 else None
            out = yield from han3.bcast(
                comm, nbytes=data.nbytes, payload=payload
            )
            return out

        results = runtime.run(prog)
        for out in results:
            np.testing.assert_array_equal(out, data)

    @pytest.mark.parametrize("ibs", [None, 64])
    def test_segmented_pipeline(self, ibs):
        machine = dragonfly_machine()
        # many HAN segments; with ibs the composite also sub-segments
        han3 = HanModule(config=CFG.with_(fs=256, ibs=ibs), group_level=True)
        data = np.arange(512, dtype=np.float64)
        runtime = MPIRuntime(machine)

        def prog(comm):
            payload = data if comm.rank == 0 else None
            out = yield from han3.bcast(
                comm, nbytes=data.nbytes, payload=payload
            )
            return out

        results = runtime.run(prog)
        for out in results:
            np.testing.assert_array_equal(out, data)

    def test_three_level_helps_on_grouped_fabric_large_message(self):
        """On a dragonfly with weak global links, crossing them once per
        group (not once per node) must pay off for big broadcasts."""
        machine = dragonfly_machine(groups=6, routers=2,
                                    nodes_per_router=2, ppn=4)
        cfg = HanConfig(fs=2 * MiB, imod="adapt", smod="solo",
                        ibalg="chain", iralg="chain", ibs=512 * KiB,
                        irs=512 * KiB)
        times = {}
        for name, mod in (
            ("han2", HanModule(config=cfg)),
            ("han3", HanModule(config=cfg, group_level=True)),
        ):
            runtime = MPIRuntime(machine)

            def prog(comm, m=mod):
                yield from m.bcast(comm, nbytes=32 * MiB)

            runtime.run(prog)
            times[name] = runtime.engine.now
        assert times["han3"] < times["han2"]


# -- the 4-level machine: all nine collectives, every root ---------------------

P4 = 48  # 12 nodes x 4 ranks
N = 4 * P4  # elements per rank: divisible by P4 for clean blocks
CONFIGS = {
    # adapt with ibs < fs: HAN segments, composite sub-segments, chunks
    "adapt": HanConfig(fs=512, imod="adapt", smod="gpu", ibalg="binary",
                       iralg="binary", ibs=128, irs=128),
    "libnbc": HanConfig(fs=None, imod="libnbc", smod="gpu"),
}


def _blocks(n=N):
    rng = np.random.default_rng(7)
    return [rng.integers(-50, 50, n).astype(np.float64) for _ in range(P4)]


def _run4(config, body):
    han = HanModule(config=CONFIGS[config], group_level=True)
    runtime = MPIRuntime(four_level_machine())
    return runtime.run(lambda comm: body(han, comm))


@pytest.mark.parametrize("config", sorted(CONFIGS))
class TestFourLevels:
    def test_unrooted(self, config):
        blocks, small = _blocks(), _blocks(N // P4)
        total = np.sum(blocks, axis=0)
        per = N // P4

        def body(han, comm):
            me = comm.rank
            out = {}
            out["allreduce"] = yield from han.allreduce(
                comm, blocks[me].nbytes, payload=blocks[me])
            out["allgather"] = yield from han.allgather(
                comm, small[me].nbytes, payload=small[me])
            out["reduce_scatter"] = yield from han.reduce_scatter(
                comm, blocks[me].nbytes, payload=blocks[me])
            out["alltoall"] = yield from han.alltoall(
                comm, blocks[me].nbytes / P4, payload=blocks[me])
            yield from comm.compute(1e-3 * me)
            out["entry"] = comm.now
            yield from han.barrier(comm)
            out["exit"] = comm.now
            return out

        results = _run4(config, body)
        assert min(o["exit"] for o in results) >= max(
            o["entry"] for o in results)
        for r, out in enumerate(results):
            np.testing.assert_array_equal(out["allreduce"], total)
            np.testing.assert_array_equal(out["allgather"],
                                          np.concatenate(small))
            np.testing.assert_array_equal(out["reduce_scatter"],
                                          total[r * per:(r + 1) * per])
            np.testing.assert_array_equal(out["alltoall"], np.concatenate(
                [blocks[s].reshape(P4, per)[r] for s in range(P4)]))

    @pytest.mark.parametrize("coll", ["bcast", "reduce", "gather", "scatter"])
    def test_every_root(self, config, coll):
        blocks, small = _blocks(), _blocks(N // P4)
        total = np.sum(blocks, axis=0)
        full = np.concatenate(small)

        def body(han, comm):
            me, outs = comm.rank, []
            for root in range(comm.size):
                if coll == "bcast":
                    out = yield from han.bcast(
                        comm, blocks[root].nbytes, root=root,
                        payload=blocks[root] if me == root else None)
                elif coll == "reduce":
                    out = yield from han.reduce(
                        comm, blocks[me].nbytes, root=root,
                        payload=blocks[me])
                elif coll == "gather":
                    out = yield from han.gather(
                        comm, small[me].nbytes, root=root, payload=small[me])
                else:
                    out = yield from han.scatter(
                        comm, full.nbytes, root=root,
                        payload=full if me == root else None)
                outs.append(out)
            return outs

        for r, outs in enumerate(_run4(config, body)):
            for root, out in enumerate(outs):
                msg = f"{coll} rank {r} root {root}"
                if coll == "bcast":
                    np.testing.assert_array_equal(out, blocks[root],
                                                  err_msg=msg)
                elif coll == "scatter":
                    np.testing.assert_array_equal(out, small[r], err_msg=msg)
                elif r != root:
                    assert out is None, msg
                else:
                    want = total if coll == "reduce" else full
                    np.testing.assert_array_equal(out, want, err_msg=msg)


# -- the barrier under every inter-node module -------------------------------------

BARRIER_CONFIGS = {
    "libnbc": HanConfig(fs=None, smod="sm"),
    "adapt": HanConfig(fs=None, imod="adapt", smod="sm", ibalg="chain"),
}


def _barrier(imod, group_level):
    """(entry, exit) per rank of one HAN barrier behind a skewed start."""
    han = HanModule(config=BARRIER_CONFIGS[imod], group_level=group_level)

    def prog(comm):
        yield from comm.compute(1e-4 * ((3 * comm.rank + 1) % comm.size))
        entry = comm.now
        yield from han.barrier(comm)
        return entry, comm.now

    return MPIRuntime(dragonfly_machine()).run(prog)


@pytest.mark.parametrize("group_level", [False, True])
@pytest.mark.parametrize("imod", sorted(BARRIER_CONFIGS))
def test_barrier_runs_under_every_imod(imod, group_level):
    """ADAPT has no barrier of its own: HAN's up stage takes Libnbc's, so
    an ADAPT config's barrier is the Libnbc config's, exit for exit."""
    times = _barrier(imod, group_level)
    assert min(t for _, t in times) >= max(e for e, _ in times)
    assert times == _barrier("libnbc", group_level)
