"""Critical-path acceptance: serial coverage, overlap consistency, diff.

Issue criteria: on a purely serial schedule the path attributes 100% of
simulated time; on the fig06-style ib/sb overlap scenario the reported
concurrency is consistent with the recorded spans.
"""

import pytest

from repro.hardware.machines import small_cluster
from repro.mpi.runtime import MPIRuntime
from repro.obs import (
    ObsRecorder,
    critical_path,
    diff_runs,
    phase_overlap,
    phase_totals,
)
from repro.obs.core import RunRecord, Span
from repro.tuning.measure import run_once


def recorded(machine, coll, nbytes):
    """One recorded HAN collective (the measurement harness's record)."""
    return run_once(machine, coll, nbytes, record="full")[2]


def observed_p2p_run(nbytes=1 << 16):
    """One blocking send/recv pair between two nodes: fully serial."""
    machine = small_cluster(num_nodes=2, ppn=1)
    runtime = MPIRuntime(machine)

    def prog(comm):
        if comm.rank == 0:
            yield from comm.send(1, nbytes=nbytes)
        else:
            yield from comm.recv(0)

    rec = ObsRecorder(runtime.engine)
    with rec:
        runtime.run(prog)
        rec.snapshot_resources(runtime.fabric.solver)
    return rec.run_record(meta={"what": "p2p"})


def test_serial_schedule_attributes_100_percent():
    record = observed_p2p_run()
    path = critical_path(record)
    att = path.attribution
    assert att["coverage"] == pytest.approx(1.0)
    # the path must end when the receive-side overhead retires
    assert att["end"] == pytest.approx(record.sim_time, rel=1e-9)
    # a single message: sender cpu, wire, receiver cpu all on the path
    kinds = {s.kind for s in path.segments}
    assert "cpu" in kinds and "net" in kinds
    assert att["cpu"] > 0 and att["net"] > 0
    # segments tile [0, end] with no gaps or overlaps
    t = 0.0
    for seg in path.segments:
        assert seg.t0 == pytest.approx(t, abs=1e-15)
        t = seg.t1
    assert t == pytest.approx(att["end"])


def test_serial_path_walks_through_the_message():
    record = observed_p2p_run()
    path = critical_path(record)
    names = [s.label for s in path.segments if s.kind == "cpu"]
    assert "send_ov" in names and "recv_ov" in names
    net = [s for s in path.segments if s.kind == "net"]
    assert len(net) == 1
    (m,) = [m for m in record.messages if m.nbytes == 1 << 16]
    assert net[0].t0 == pytest.approx(m.t_send_done)
    assert net[0].t1 == pytest.approx(m.t_arrive)


def test_critical_path_on_empty_record():
    rr = RunRecord(meta={"sim_time": 2.0}, spans=[], messages=[],
                   counters=[], resources=[])
    path = critical_path(rr)
    assert path.attribution["wait"] == pytest.approx(2.0)


@pytest.fixture(scope="module")
def bcast_record():
    # two nodes, large message: HAN pipelines ib against sb (fig06 overlap)
    return recorded(
        small_cluster(num_nodes=2, ppn=4), "bcast", 4 << 20
    )


def test_overlap_consistent_with_recorded_spans(bcast_record):
    totals = phase_totals(bcast_record)
    assert totals["ib"]["count"] > 0 and totals["sb"]["count"] > 0
    ov = phase_overlap(bcast_record, "ib", "sb")
    # overlap is bounded by each phase's union occupancy...
    assert 0 < ov <= min(totals["ib"]["union"], totals["sb"]["union"]) + 1e-15
    # ...and the sbib pipeline genuinely overlaps: the shared wall-clock
    # is a significant fraction of the shorter phase
    assert ov > 0.25 * min(totals["ib"]["union"], totals["sb"]["union"])


def test_phase_union_not_exceeding_sim_time(bcast_record):
    totals = phase_totals(bcast_record)
    for name, d in totals.items():
        assert d["union"] <= bcast_record.sim_time + 1e-12, name
        assert d["total"] >= d["union"] - 1e-15  # total counts per-rank copies


def test_critical_path_covers_anchor_on_overlapped_run(bcast_record):
    path = critical_path(bcast_record)
    att = path.attribution
    assert att["coverage"] == pytest.approx(1.0)
    assert att["cpu"] + att["net"] + att["wait"] == pytest.approx(att["end"])


def test_phase_overlap_synthetic():
    spans = [
        Span(0, "rank0", "ib", "phase", 0.0, 3.0),
        Span(1, "rank0", "sb", "phase", 2.0, 5.0),
        Span(2, "rank1", "sb", "phase", 2.5, 2.8),  # inside the other sb
    ]
    rr = RunRecord(meta={"sim_time": 5.0}, spans=spans, messages=[],
                   counters=[], resources=[])
    assert phase_overlap(rr, "ib", "sb") == pytest.approx(1.0)  # [2, 3]
    totals = phase_totals(rr)
    assert totals["sb"]["union"] == pytest.approx(3.0)
    assert totals["sb"]["total"] == pytest.approx(3.3)


def test_diff_runs_reports_deltas():
    a = recorded(small_cluster(num_nodes=2, ppn=2), "bcast", 1 << 18)
    b = recorded(small_cluster(num_nodes=2, ppn=2), "bcast", 1 << 20)
    d = diff_runs(a, b)
    assert d["sim_time"]["delta"] == pytest.approx(
        b.sim_time - a.sim_time
    )
    assert d["sim_time"]["b"] > d["sim_time"]["a"]  # 4x the bytes is slower
    assert d["messages"]["a"] == len(a.messages)
    assert "sb" in d["phases"]
    assert any(name.startswith("nic") for name in d["resources"])
    for kind in ("cpu", "net", "wait"):
        assert kind in d["critical_path"]


def test_diff_runs_identical_is_all_zero():
    a = recorded(small_cluster(num_nodes=2, ppn=2), "bcast", 1 << 18)
    b = recorded(small_cluster(num_nodes=2, ppn=2), "bcast", 1 << 18)
    d = diff_runs(a, b)
    assert d["sim_time"]["delta"] == 0.0
    assert d["messages"]["delta"] == 0 and d["spans"]["delta"] == 0
    for e in d["phases"].values():
        assert e["delta"] == 0.0
