"""Point-to-point semantics and timing of the simulated MPI runtime."""

import numpy as np
import pytest

from repro.hardware import tiny_cluster, small_cluster
from repro.mpi import ANY_SOURCE, ANY_TAG, MPIRuntime
from repro.sim import DeadlockError


def rt(num_nodes=2, ppn=2, **kw):
    return MPIRuntime(tiny_cluster(num_nodes=num_nodes, ppn=ppn), **kw)


def test_send_recv_payload_roundtrip():
    runtime = rt()
    data = np.arange(10, dtype=np.float64)

    def prog(comm):
        if comm.rank == 0:
            yield from comm.send(1, payload=data)
            return None
        elif comm.rank == 1:
            msg = yield from comm.recv(0)
            return msg
        return None

    results = runtime.run(prog)
    msg = results[1]
    assert msg.source == 0
    assert msg.nbytes == 80
    np.testing.assert_array_equal(msg.payload, data)
    assert runtime.engine.now > 0


def test_send_without_nbytes_or_array_rejected():
    runtime = rt()

    def prog(comm):
        if comm.rank == 0:
            with pytest.raises(ValueError):
                comm.isend(1, payload={"not": "an array"})
        yield from comm.barrier()

    runtime.run(prog)


def test_message_timing_scales_with_size():
    durations = {}
    for nbytes in (1024, 1024 * 1024):
        runtime = rt()

        def prog(comm, n=nbytes):
            if comm.rank == 0:
                yield from comm.send(2, nbytes=n)  # rank 2 = other node
            elif comm.rank == 2:
                yield from comm.recv(0)

        runtime.run(prog)
        durations[nbytes] = runtime.engine.now
    assert durations[1024 * 1024] > durations[1024] * 10


def test_intra_node_faster_than_inter_node():
    times = {}
    for label, dst in (("intra", 1), ("inter", 2)):
        runtime = rt()  # ppn=2: ranks 0,1 on node 0; 2,3 on node 1

        def prog(comm, dst=dst):
            if comm.rank == 0:
                yield from comm.send(dst, nbytes=256 * 1024)
            elif comm.rank == dst:
                yield from comm.recv(0)

        runtime.run(prog)
        times[label] = runtime.engine.now
    assert times["intra"] < times["inter"]


def test_eager_send_completes_before_recv_posted():
    runtime = rt()
    completion = {}

    def prog(comm):
        if comm.rank == 0:
            req = comm.isend(1, nbytes=512)  # below eager threshold
            yield from comm.wait(req)
            completion["send_done"] = comm.now
        elif comm.rank == 1:
            yield from comm.compute(1.0)  # recv posted very late
            msg = yield from comm.recv(0)
            completion["recv_done"] = comm.now
            assert msg.nbytes == 512

    runtime.run(prog)
    assert completion["send_done"] < 1e-3
    assert completion["recv_done"] >= 1.0


def test_rendezvous_send_blocks_until_recv_posted():
    runtime = rt()
    completion = {}

    def prog(comm):
        if comm.rank == 0:
            yield from comm.send(1, nbytes=4 * 1024 * 1024)  # >> eager
            completion["send_done"] = comm.now
        elif comm.rank == 1:
            yield from comm.compute(1.0)
            yield from comm.recv(0)

    runtime.run(prog)
    assert completion["send_done"] > 1.0


def test_matching_order_non_overtaking_same_tag():
    # Big message sent first, small second, same tag: recvs must see them
    # in send order even though the small one physically lands earlier.
    runtime = rt()
    got = []

    def prog(comm):
        if comm.rank == 0:
            r1 = comm.isend(2, nbytes=8 * 1024 * 1024, tag=7)
            r2 = comm.isend(2, nbytes=16, tag=7)
            yield from comm.waitall([r1, r2])
        elif comm.rank == 2:
            m1 = yield from comm.recv(0, tag=7)
            m2 = yield from comm.recv(0, tag=7)
            got.extend([m1.nbytes, m2.nbytes])

    runtime.run(prog)
    assert got == [8 * 1024 * 1024, 16]


def test_tag_selective_matching():
    runtime = rt()
    got = {}

    def prog(comm):
        if comm.rank == 0:
            ra = comm.isend(1, nbytes=100, tag=5)
            rb = comm.isend(1, nbytes=200, tag=9)
            yield from comm.waitall([ra, rb])
        elif comm.rank == 1:
            m9 = yield from comm.recv(0, tag=9)
            m5 = yield from comm.recv(0, tag=5)
            got["by_tag"] = (m9.nbytes, m5.nbytes)

    runtime.run(prog)
    assert got["by_tag"] == (200, 100)


def test_wildcard_source_and_tag():
    runtime = rt(num_nodes=2, ppn=2)
    got = []

    def prog(comm):
        if comm.rank in (1, 2, 3):
            yield from comm.send(0, nbytes=64, tag=comm.rank)
        else:
            for _ in range(3):
                msg = yield from comm.recv(ANY_SOURCE, ANY_TAG)
                got.append((msg.source, msg.tag))

    runtime.run(prog)
    assert sorted(got) == [(1, 1), (2, 2), (3, 3)]


def test_waitany_returns_first():
    runtime = rt()

    def prog(comm):
        if comm.rank == 0:
            yield from comm.compute(1.0)
            yield from comm.send(1, nbytes=32, tag=1)
        elif comm.rank == 2:
            yield from comm.send(1, nbytes=32, tag=2)
        elif comm.rank == 1:
            r0 = comm.irecv(source=0)
            r2 = comm.irecv(source=2)
            idx, msg = yield from comm.waitany([r0, r2])
            assert idx == 1 and msg.tag == 2
            yield from comm.wait(r0)

    runtime.run(prog)


def test_deadlock_detected_on_missing_send():
    runtime = rt()

    def prog(comm):
        if comm.rank == 1:
            yield from comm.recv(0)  # never sent

    with pytest.raises(DeadlockError):
        runtime.run(prog)


def test_sendrecv_ring_rotation():
    runtime = rt(num_nodes=2, ppn=2)

    def prog(comm):
        right = (comm.rank + 1) % comm.size
        left = (comm.rank - 1) % comm.size
        data = np.full(4, comm.rank, dtype=np.int32)
        msg = yield from comm.sendrecv(right, left, payload=data)
        return int(msg.payload[0])

    results = runtime.run(prog)
    assert results == [3, 0, 1, 2]


def test_out_of_range_peers_rejected():
    runtime = rt()

    def prog(comm):
        if comm.rank == 0:
            with pytest.raises(IndexError):
                comm.isend(99, nbytes=1)
            with pytest.raises(IndexError):
                comm.irecv(source=99)
        yield from comm.barrier()

    runtime.run(prog)


def test_run_with_restricted_ranks():
    runtime = MPIRuntime(small_cluster(num_nodes=2, ppn=4))

    def prog(comm):
        yield from comm.barrier()
        return comm.size

    results = runtime.run(prog, ranks=3)
    assert results == [3, 3, 3]


def test_progress_server_serializes_overheads():
    # Two concurrent sends from one rank must queue their CPU overheads.
    runtime = rt()
    prof = runtime.profile

    def prog(comm):
        if comm.rank == 0:
            reqs = [comm.isend(1, nbytes=512, tag=i) for i in range(50)]
            yield from comm.waitall(reqs)
            return comm.now
        elif comm.rank == 1:
            for i in range(50):
                yield from comm.recv(0, tag=i)
        return None

    results = runtime.run(prog)
    # 50 eager sends' overheads serialize on the sender progress engine.
    assert results[0] >= 50 * prof.send_overhead(512) * 0.99


def test_reduce_compute_avx_faster():
    runtime = rt()

    def prog(comm, avx):
        yield from comm.reduce_compute(10 * 1024 * 1024, avx=avx)

    runtime.run(prog, False, ranks=1)
    t_scalar = runtime.engine.now

    runtime2 = rt()
    runtime2.run(prog, True, ranks=1)
    assert runtime2.engine.now < t_scalar


def test_wildcard_receive_leaves_internal_traffic_alone():
    """ANY_TAG is for user tags: posted ahead of a barrier, a full
    wildcard must not swallow the barrier's own messages."""
    runtime = MPIRuntime(tiny_cluster(num_nodes=2, ppn=2))

    def prog(comm):
        if comm.rank == 0:
            req = comm.irecv(ANY_SOURCE, ANY_TAG)
            yield from comm.barrier()
            msg = yield from comm.wait(req)
            return msg.source, msg.tag
        yield from comm.barrier()
        if comm.rank == 1:
            yield from comm.send(0, nbytes=8, tag=7)

    assert runtime.run(prog)[0] == (1, 7)


@pytest.mark.parametrize("nbytes", [-5, float("nan"), float("inf")])
def test_bad_send_size_is_refused_at_issue(nbytes):
    runtime = MPIRuntime(tiny_cluster(num_nodes=1, ppn=2))

    def prog(comm):
        if comm.rank == 1:
            comm.isend(0, nbytes=nbytes, tag=3)
        yield from comm.compute(0.0)

    with pytest.raises(ValueError, match=r"rank 1: isend\(dest=0, tag=3"):
        runtime.run(prog)
    assert runtime.engine.now == 0.0  # at the call, not a latency later


def test_negative_send_tag_is_refused():
    runtime = MPIRuntime(tiny_cluster(num_nodes=1, ppn=2))

    def prog(comm):
        if comm.rank == 0:
            comm.isend(1, nbytes=8, tag=ANY_TAG)
        yield from comm.compute(0.0)

    with pytest.raises(ValueError, match=r"rank 0: isend\(dest=1, tag=-1"):
        runtime.run(prog)
