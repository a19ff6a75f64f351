"""Behavioural tests for the five collective modules."""

import numpy as np
import pytest

from repro.hardware import tiny_cluster
from repro.modules import (
    AdaptModule,
    LibnbcModule,
    SMModule,
    SoloModule,
    TunedModule,
    make_module,
)
from repro.mpi import MPIRuntime, SUM
from repro.mpi.op import Op
from tests.colls.helpers import rank_array


def run(machine, prog, ranks=None):
    runtime = MPIRuntime(machine)
    results = runtime.run(prog, ranks=ranks)
    return results, runtime.engine.now


def intra_machine(ppn=4):
    return tiny_cluster(num_nodes=1, ppn=ppn)


def inter_machine(nodes=4):
    return tiny_cluster(num_nodes=nodes, ppn=1)


def test_make_module_registry():
    for name in ("tuned", "libnbc", "adapt", "sm", "solo"):
        assert make_module(name).name == name
    with pytest.raises(ValueError):
        make_module("nope")


# ---------------------------------------------------------------- tuned

class TestTuned:
    @pytest.mark.parametrize("nbytes", [64, 64 * 1024, 4 * 1024 * 1024])
    def test_bcast_correct_all_decision_branches(self, nbytes):
        mod = TunedModule()
        n = nbytes // 8
        data = np.arange(n, dtype=np.float64)

        def prog(comm):
            payload = data if comm.rank == 0 else None
            out = yield from mod.bcast(comm, nbytes=nbytes, payload=payload)
            return out

        results, _ = run(tiny_cluster(num_nodes=3, ppn=2), prog)
        for out in results:
            np.testing.assert_array_equal(out, data)

    @pytest.mark.parametrize("nbytes", [64, 1024 * 1024])
    def test_allreduce_correct(self, nbytes):
        mod = TunedModule()
        n = nbytes // 8

        def prog(comm):
            out = yield from mod.allreduce(
                comm, nbytes=nbytes, payload=rank_array(comm.rank, n), op=SUM
            )
            return out

        results, _ = run(tiny_cluster(num_nodes=2, ppn=2), prog)
        want = np.sum([rank_array(r, n) for r in range(4)], axis=0)
        for out in results:
            np.testing.assert_allclose(out, want)

    def test_decision_rules_shape(self):
        assert TunedModule.decide_bcast(64, 100)[0] == "binomial"
        assert TunedModule.decide_bcast(64, 100 * 1024)[0] == "binary"
        alg, seg = TunedModule.decide_bcast(64, 8 * 1024 * 1024)
        assert alg == "chain" and seg == 128 * 1024
        assert TunedModule.decide_allreduce(64, 512)[0] == "recursive_doubling"
        assert TunedModule.decide_allreduce(64, 8 * 1024 * 1024)[0] == "ring"

    def test_explicit_algorithm_override(self):
        mod = TunedModule()

        def prog(comm):
            out = yield from mod.bcast(
                comm, nbytes=1024, payload=None, algorithm="chain", segsize=256
            )
            return out

        run(inter_machine(3), prog)

    def test_no_nonblocking(self):
        mod = TunedModule()
        from repro.modules import NotSupportedError

        def prog(comm):
            with pytest.raises(NotSupportedError):
                mod.ibcast(comm, nbytes=8)
            yield from comm.barrier()

        run(inter_machine(2), prog)


# ---------------------------------------------------------------- libnbc / adapt

class TestNonblocking:
    @pytest.mark.parametrize("mod_cls", [LibnbcModule, AdaptModule])
    def test_ibcast_delivers_and_returns_request(self, mod_cls):
        mod = mod_cls()
        data = np.arange(100, dtype=np.float64)

        def prog(comm):
            payload = data if comm.rank == 0 else None
            req = mod.ibcast(comm, nbytes=data.nbytes, payload=payload)
            out = yield from comm.wait(req)
            return out

        results, _ = run(inter_machine(4), prog)
        for out in results:
            np.testing.assert_array_equal(out, data)

    @pytest.mark.parametrize("mod_cls", [LibnbcModule, AdaptModule])
    def test_ireduce_correct(self, mod_cls):
        mod = mod_cls()
        n = 50

        def prog(comm):
            req = mod.ireduce(
                comm, nbytes=n * 8, payload=rank_array(comm.rank, n), op=SUM
            )
            out = yield from comm.wait(req)
            return out

        results, _ = run(inter_machine(4), prog)
        want = np.sum([rank_array(r, n) for r in range(4)], axis=0)
        np.testing.assert_allclose(results[0], want)
        assert all(r is None for r in results[1:])

    def test_adapt_algorithm_selection(self):
        for alg in ("chain", "binary", "binomial"):
            mod = AdaptModule()
            data = np.arange(64, dtype=np.float64)

            def prog(comm, a=alg):
                payload = data if comm.rank == 0 else None
                out = yield from mod.bcast(
                    comm, nbytes=data.nbytes, payload=payload, algorithm=a,
                    segsize=128,
                )
                return out

            results, _ = run(inter_machine(5), prog)
            for out in results:
                np.testing.assert_array_equal(out, data)

    def test_libnbc_rejects_algorithm_choice(self):
        mod = LibnbcModule()

        def prog(comm):
            with pytest.raises(ValueError):
                mod.ibcast(comm, nbytes=8, algorithm="chain")
            yield from comm.barrier()

        run(inter_machine(2), prog)

    def test_adapt_rejects_unknown_algorithm(self):
        mod = AdaptModule()

        def prog(comm):
            with pytest.raises(ValueError):
                mod.ibcast(comm, nbytes=8, algorithm="warp")
            yield from comm.barrier()

        run(inter_machine(2), prog)

    def test_adapt_overlaps_with_sliced_compute(self):
        """A non-blocking bcast progresses during (sliced) caller compute.

        Single-threaded MPI only progresses inside library calls, so the
        application compute is sliced -- which is exactly how HAN's
        task-based pipeline interleaves work (paper III-A).
        """
        mod = AdaptModule()
        nbytes = 8 * 1024 * 1024
        slices, total = 200, 5e-3

        def overlapped(comm):
            req = mod.ibcast(comm, nbytes=nbytes)
            for _ in range(slices):
                yield from comm.compute(total / slices)
            yield from comm.wait(req)

        _, t_overlap = run(inter_machine(3), overlapped)

        def serial(comm):
            for _ in range(slices):
                yield from comm.compute(total / slices)
            req = mod.ibcast(comm, nbytes=nbytes)
            yield from comm.wait(req)

        _, t_serial = run(inter_machine(3), serial)
        assert t_overlap < t_serial * 0.85

    def test_libnbc_slower_than_adapt_large_pipelined(self):
        """Libnbc is stuck with an unsegmented binomial tree; ADAPT's
        pipelined chain wins for big messages (why Table II exposes
        `ibalg`/`ibs` for ADAPT only)."""
        times = {}

        def prog_libnbc(comm):
            req = LibnbcModule().ibcast(comm, nbytes=16 * 1024 * 1024)
            yield from comm.wait(req)

        def prog_adapt(comm):
            req = AdaptModule().ibcast(
                comm,
                nbytes=16 * 1024 * 1024,
                algorithm="chain",
                segsize=1024 * 1024,
            )
            yield from comm.wait(req)

        _, times["libnbc"] = run(inter_machine(6), prog_libnbc)
        _, times["adapt"] = run(inter_machine(6), prog_adapt)
        assert times["adapt"] < times["libnbc"] * 0.75


# ---------------------------------------------------------------- sm / solo

class TestSharedMemory:
    @pytest.mark.parametrize("mod_cls", [SMModule, SoloModule])
    def test_bcast_correct(self, mod_cls):
        mod = mod_cls()
        data = np.arange(128, dtype=np.float64)

        def prog(comm):
            payload = data if comm.rank == 0 else None
            out = yield from mod.bcast(comm, nbytes=data.nbytes, payload=payload)
            return out

        results, _ = run(intra_machine(4), prog)
        for out in results:
            np.testing.assert_array_equal(out, data)

    @pytest.mark.parametrize("mod_cls", [SMModule, SoloModule])
    def test_reduce_correct(self, mod_cls):
        mod = mod_cls()
        n = 40

        def prog(comm):
            out = yield from mod.reduce(
                comm, nbytes=n * 8, payload=rank_array(comm.rank, n), op=SUM
            )
            return out

        results, _ = run(intra_machine(4), prog)
        want = np.sum([rank_array(r, n) for r in range(4)], axis=0)
        np.testing.assert_allclose(results[0], want)
        assert all(r is None for r in results[1:])

    @pytest.mark.parametrize("root", [0, 1, 3])
    def test_reduce_folds_in_rank_order(self, root):
        """A non-commutative op folds contributions in rank order,
        whichever rank is the root: ((b0 - b1) - b2) - b3."""
        sub = Op("sub", np.subtract, commutative=False)
        got = {}
        for mod in (SMModule(), SoloModule()):

            def prog(comm, m=mod):
                out = yield from m.reduce(
                    comm, nbytes=8, root=root, op=sub,
                    payload=np.array([10.0 ** comm.rank]),
                )
                return out

            results, _ = run(intra_machine(4), prog)
            got[mod.name] = results[root]
        assert got["sm"].tolist() == got["solo"].tolist() == [-1109.0]

    @pytest.mark.parametrize("mod_cls", [SMModule, SoloModule])
    def test_allreduce_correct(self, mod_cls):
        mod = mod_cls()
        n = 24

        def prog(comm):
            out = yield from mod.allreduce(
                comm, nbytes=n * 8, payload=rank_array(comm.rank, n), op=SUM
            )
            return out

        results, _ = run(intra_machine(4), prog)
        want = np.sum([rank_array(r, n) for r in range(4)], axis=0)
        for out in results:
            np.testing.assert_allclose(out, want)

    @pytest.mark.parametrize("mod_cls", [SMModule, SoloModule])
    def test_gather_correct(self, mod_cls):
        mod = mod_cls()
        n = 8

        def prog(comm):
            out = yield from mod.gather(
                comm, nbytes=n * 8, payload=rank_array(comm.rank, n)
            )
            return out

        results, _ = run(intra_machine(4), prog)
        want = np.concatenate([rank_array(r, n) for r in range(4)])
        np.testing.assert_array_equal(results[0], want)

    @pytest.mark.parametrize("mod_cls", [SMModule, SoloModule])
    def test_barrier_holds_fast_ranks(self, mod_cls):
        mod = mod_cls()
        exits = {}

        def prog(comm):
            yield from comm.compute(0.1 * comm.rank)
            yield from mod.barrier(comm)
            exits[comm.rank] = comm.now

        run(intra_machine(4), prog)
        assert min(exits.values()) >= 0.3

    @pytest.mark.parametrize("mod_cls", [SMModule, SoloModule])
    def test_rejects_multi_node_communicator(self, mod_cls):
        mod = mod_cls()

        def prog(comm):
            with pytest.raises(ValueError, match="intra-node"):
                yield from mod.bcast(comm, nbytes=8)
            return True

        results, _ = run(tiny_cluster(num_nodes=2, ppn=1), prog)
        assert all(results)

    def test_sm_beats_solo_small_messages(self):
        """The paper's SM/SOLO crossover (section III, III-C heuristic)."""
        times = {}
        for name, mod in (("sm", SMModule()), ("solo", SoloModule())):

            def prog(comm, m=mod):
                for _ in range(4):
                    out = yield from m.bcast(comm, nbytes=256)
                return out

            _, times[name] = run(intra_machine(8), prog)
        assert times["sm"] < times["solo"]

    def test_solo_beats_sm_large_messages(self):
        times = {}
        for name, mod in (("sm", SMModule()), ("solo", SoloModule())):

            def prog(comm, m=mod):
                out = yield from m.bcast(comm, nbytes=4 * 1024 * 1024)
                return out

            _, times[name] = run(intra_machine(8), prog)
        assert times["solo"] < times["sm"]

    def test_solo_reduce_beats_sm_large(self):
        times = {}
        for name, mod in (("sm", SMModule()), ("solo", SoloModule())):

            def prog(comm, m=mod):
                yield from m.reduce(comm, nbytes=4 * 1024 * 1024)

            _, times[name] = run(intra_machine(8), prog)
        assert times["solo"] < times["sm"]

    def test_coll_state_cleaned_up(self):
        mod = SMModule()
        machine = intra_machine(4)
        runtime = MPIRuntime(machine)

        def prog(comm):
            yield from mod.bcast(comm, nbytes=64)
            yield from mod.barrier(comm)

        runtime.run(prog)
        assert runtime._coll_state == {}
