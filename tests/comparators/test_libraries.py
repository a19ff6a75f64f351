"""Tests for the comparator MPI libraries and the benchmark harnesses."""

import numpy as np
import pytest

from repro.bench import imb_run, netpipe_run
from repro.comparators import (
    CrayMPI,
    IntelMPI,
    MVAPICH2,
    OpenMPIDefault,
    OpenMPIHan,
    library_by_name,
)
from repro.hardware import tiny_cluster
from repro.mpi import MPIRuntime, SUM
from repro.netsim.profiles import craympi_profile, openmpi_profile
from tests.colls.helpers import rank_array

ALL_LIBS = [OpenMPIDefault, OpenMPIHan, CrayMPI, IntelMPI, MVAPICH2]
MACHINE = tiny_cluster(num_nodes=3, ppn=2)


def run_lib(lib, prog):
    runtime = MPIRuntime(MACHINE, profile=lib.profile)
    results = runtime.run(prog)
    return results, runtime.engine.now


def test_registry():
    for name in ("openmpi", "han", "craympi", "intelmpi", "mvapich2"):
        assert library_by_name(name).name == name
    with pytest.raises(ValueError):
        library_by_name("lam-mpi")


@pytest.mark.parametrize("lib_cls", ALL_LIBS)
@pytest.mark.parametrize("nbytes", [256, 1024 * 1024])
def test_bcast_correct(lib_cls, nbytes):
    lib = lib_cls()
    n = nbytes // 8
    data = np.arange(n, dtype=np.float64)

    def prog(comm):
        payload = data if comm.rank == 0 else None
        out = yield from lib.bcast(comm, nbytes, root=0, payload=payload)
        return out

    results, t = run_lib(lib, prog)
    for r, out in enumerate(results):
        np.testing.assert_array_equal(out, data, err_msg=f"{lib.name} rank {r}")
    assert t > 0


@pytest.mark.parametrize("lib_cls", ALL_LIBS)
@pytest.mark.parametrize("nbytes", [256, 1024 * 1024])
def test_allreduce_correct(lib_cls, nbytes):
    lib = lib_cls()
    n = nbytes // 8

    def prog(comm):
        out = yield from lib.allreduce(
            comm, nbytes, payload=rank_array(comm.rank, n), op=SUM
        )
        return out

    results, _ = run_lib(lib, prog)
    want = np.sum([rank_array(r, n) for r in range(6)], axis=0)
    for r, out in enumerate(results):
        np.testing.assert_allclose(out, want, err_msg=f"{lib.name} rank {r}")


@pytest.mark.parametrize("lib_cls", ALL_LIBS)
def test_barrier(lib_cls):
    lib = lib_cls()
    exits = {}

    def prog(comm):
        yield from comm.compute(0.1 * comm.rank)
        yield from lib.barrier(comm)
        exits[comm.rank] = comm.now

    run_lib(lib, prog)
    assert min(exits.values()) >= 0.5


class TestIMB:
    def test_imb_returns_monotonic_enough_times(self):
        lib = OpenMPIDefault()
        res = imb_run(MACHINE, lib, "bcast", sizes=[1024, 64 * 1024, 1024 * 1024])
        assert res.library == "openmpi"
        assert len(res.times) == 3
        assert res.times[2] > res.times[0]

    def test_imb_speedup_helper(self):
        han = imb_run(MACHINE, OpenMPIHan(), "bcast", sizes=[1024 * 1024])
        omp = imb_run(MACHINE, OpenMPIDefault(), "bcast", sizes=[1024 * 1024])
        sp = han.speedup_over(omp)
        assert sp[1024 * 1024] == pytest.approx(
            omp.times[0] / han.times[0]
        )

    def test_imb_allreduce_and_barrier(self):
        lib = CrayMPI()
        ar = imb_run(MACHINE, lib, "allreduce", sizes=[4096])
        assert ar.times[0] > 0
        br = imb_run(MACHINE, lib, "barrier", sizes=[0])
        assert br.times[0] > 0

    def test_unknown_collective_rejected(self):
        with pytest.raises(ValueError):
            imb_run(MACHINE, OpenMPIDefault(), "alltoallw", sizes=[8])


class TestNetpipe:
    def test_bandwidth_increases_with_size(self):
        res = netpipe_run(
            MACHINE, openmpi_profile(), sizes=[512, 64 * 1024, 8 * 1024 * 1024]
        )
        assert res.bandwidth[2] > res.bandwidth[0]

    def test_cray_beats_openmpi_midrange(self):
        """Fig 11: Cray MPI wins 16KB..512KB, peaks converge."""
        sizes = [64 * 1024, 16 * 1024 * 1024]
        omp = netpipe_run(MACHINE, openmpi_profile(), sizes=sizes)
        cray = netpipe_run(MACHINE, craympi_profile(), sizes=sizes)
        assert cray.bandwidth_at(64 * 1024) > omp.bandwidth_at(64 * 1024) * 1.5
        ratio = cray.bandwidth_at(16 * 1024 * 1024) / omp.bandwidth_at(
            16 * 1024 * 1024
        )
        assert 0.9 < ratio < 1.15

    def test_needs_two_nodes(self):
        with pytest.raises(ValueError):
            netpipe_run(tiny_cluster(num_nodes=1, ppn=2), openmpi_profile(), [8])


class TestIMBExtendedCollectives:
    @pytest.mark.parametrize(
        "coll", ["reduce", "gather", "allgather"]
    )
    def test_extended_collectives_run_for_both_libraries(self, coll):
        for lib in (OpenMPIDefault(), OpenMPIHan()):
            res = imb_run(MACHINE, lib, coll, sizes=[4096, 256 * 1024])
            assert res.times[0] > 0
            assert res.times[1] > res.times[0]

    def test_han_alltoall_through_imb(self):
        res = imb_run(MACHINE, OpenMPIHan(), "alltoall", sizes=[4096])
        assert res.times[0] > 0

    def test_unsupported_collective_raises(self):
        from repro.sim import DeadlockError

        with pytest.raises((ValueError, DeadlockError)):
            imb_run(MACHINE, OpenMPIDefault(), "alltoall", sizes=[8])


class TestIMBPoints:
    """Every sweep size is one measured run, for HAN and for rivals."""

    SIZES = [4096.0, 256.0 * 1024]

    def test_han_reduce_scatter_through_imb(self):
        from repro.core.han import HanModule
        from repro.tuning.measure import run_once

        res = imb_run(MACHINE, OpenMPIHan(), "reduce_scatter", sizes=[4096])
        per_rank, _cost, _rec = run_once(
            MACHINE, "reduce_scatter", 4096, HanModule.default_config(4096)
        )
        assert res.times == (max(per_rank),)

    def test_cached_sweep_replays_bit_identically(self):
        from repro.hardware import shaheen2
        from repro.tuning.cache import MeasurementCache

        machine = shaheen2(num_nodes=2, ppn=4)
        cache = MeasurementCache()

        def sweep():
            return [imb_run(machine, lib, "bcast", self.SIZES, cache=cache)
                    for lib in (OpenMPIHan(), CrayMPI())]

        first = sweep()
        assert (cache.hits, cache.misses) == (0, 4)
        assert sweep() == first
        assert (cache.hits, cache.misses) == (4, 4)

    def test_pool_equals_serial(self):
        from repro.core.han import HanModule
        from repro.hardware import shaheen2
        from repro.tuning.parallel import MeasurePoint, run_cached

        machine = shaheen2(num_nodes=2, ppn=4)
        serial = [imb_run(machine, lib, "bcast", self.SIZES).times
                  for lib in (OpenMPIHan(), CrayMPI())]
        points = [MeasurePoint(machine, "bcast", s, HanModule.default_config(s))
                  for s in self.SIZES]
        points += [MeasurePoint(machine, "bcast", s, None, library="craympi")
                   for s in self.SIZES]
        pooled = run_cached(points, workers=2, cap_to_cores=False)
        assert [m.time for m in pooled] == [*serial[0], *serial[1]]
        pooled_imb = imb_run(machine, CrayMPI(), "bcast", self.SIZES, workers=2)
        assert pooled_imb.times == serial[1]
