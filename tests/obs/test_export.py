"""Exporter acceptance: Chrome trace schema, JSONL round trip, timelines.

The headline case from the issue: the exported Chrome trace for a
two-node HAN bcast must be schema-valid JSON with per-rank tracks,
per-resource tracks, and ib/sb phase spans.
"""

import json

import pytest

from repro.hardware.machines import small_cluster
from repro.obs import (
    chrome_trace,
    load_jsonl,
    resource_timeline,
    validate_chrome_trace,
    write_chrome_trace,
    write_jsonl,
)
from repro.tuning.measure import run_once


@pytest.fixture(scope="module")
def bcast_record():
    return run_once(small_cluster(num_nodes=2, ppn=4), "bcast", 1 << 20,
                    record="full")[2]


def test_chrome_trace_is_schema_valid(bcast_record, tmp_path):
    path = tmp_path / "trace.json"
    write_chrome_trace(bcast_record, str(path))
    doc = json.loads(path.read_text())  # valid JSON on disk
    assert validate_chrome_trace(doc) is None
    assert doc["traceEvents"]


def test_chrome_trace_has_per_rank_and_per_resource_tracks(bcast_record):
    doc = chrome_trace(bcast_record)
    thread_names = {
        ev["args"]["name"]
        for ev in doc["traceEvents"]
        if ev["ph"] == "M" and ev["name"] == "thread_name"
    }
    for r in range(8):
        assert f"rank{r}" in thread_names  # collective/phase/p2p tracks
        assert f"cpu:rank{r}" in thread_names  # progress-server tracks
    assert any(t.startswith("res:nic_tx") for t in thread_names)
    assert any(t.startswith("res:membus") for t in thread_names)


def test_chrome_trace_contains_ib_and_sb_phase_spans(bcast_record):
    doc = chrome_trace(bcast_record)
    phase_names = {
        ev["name"]
        for ev in doc["traceEvents"]
        if ev.get("cat") == "phase" and ev["ph"] == "b"
    }
    assert {"ib", "sb"} <= phase_names


def test_chrome_trace_cpu_spans_are_complete_events(bcast_record):
    doc = chrome_trace(bcast_record)
    xs = [ev for ev in doc["traceEvents"] if ev["ph"] == "X"]
    assert xs and all(ev["cat"] == "cpu" for ev in xs)
    assert all(ev["dur"] >= 0 and ev["ts"] >= 0 for ev in xs)


def test_chrome_trace_async_pairs_share_track(bcast_record):
    doc = chrome_trace(bcast_record)
    begins = {
        (ev["cat"], ev["id"]): (ev["pid"], ev["tid"], ev["ts"])
        for ev in doc["traceEvents"] if ev["ph"] == "b"
    }
    ends = [ev for ev in doc["traceEvents"] if ev["ph"] == "e"]
    assert len(ends) == len(begins)
    for ev in ends:
        pid, tid, ts = begins[(ev["cat"], ev["id"])]
        assert (ev["pid"], ev["tid"]) == (pid, tid)
        assert ev["ts"] >= ts


def test_jsonl_round_trip(bcast_record, tmp_path):
    path = tmp_path / "run.jsonl"
    write_jsonl(bcast_record, str(path))
    back = load_jsonl(str(path))
    assert back.meta == bcast_record.meta
    assert len(back.spans) == len(bcast_record.spans)
    assert len(back.messages) == len(bcast_record.messages)
    assert len(back.counters) == len(bcast_record.counters)
    assert back.resources == bcast_record.resources
    s0, s1 = bcast_record.spans[0], back.spans[0]
    assert (s0.track, s0.name, s0.t0, s0.t1, s0.args) == (
        s1.track, s1.name, s1.t0, s1.t1, s1.args,
    )


def test_resource_timeline_matches_solver_accounting(bcast_record):
    timeline = resource_timeline(bcast_record)
    by_name = {r["name"]: r for r in timeline}
    # a 1 MB inter-node bcast must cross node 0's NIC
    nic = by_name["nic_tx:n0"]
    assert nic["busy_time"] > 0
    assert nic["served_bytes"] == pytest.approx(1 << 20, rel=1e-6)
    assert 0 < nic["mean_utilization"] <= 1.0
    # utilization counter samples exist for busy resources
    assert nic["samples"], "expected sampled utilization points"
    ts = [t for t, _v in nic["samples"]]
    assert ts == sorted(ts)


def test_message_records_cover_inter_node_traffic(bcast_record):
    msgs = bcast_record.messages
    assert msgs
    inter = [m for m in msgs if (m.src < 4) != (m.dst < 4)]
    assert inter, "2-node bcast must send inter-node messages"
    for m in msgs:
        assert m.t_send <= m.t_send_done <= m.t_arrive
        assert m.t_arrive <= m.t_recv_done


def test_chrome_trace_renders_metric_counter_tracks(bcast_record):
    doc = chrome_trace(bcast_record)
    assert validate_chrome_trace(doc) is None
    metric_events = [
        e for e in doc["traceEvents"]
        if e.get("name", "").startswith("metric:")
    ]
    assert metric_events, "metrics registry should render as counter tracks"
    assert all(e["ph"] == "C" for e in metric_events)
    pids = {e["pid"] for e in metric_events}
    assert len(pids) == 1  # all under the synthetic "metrics" process
    names = {e["name"] for e in metric_events}
    assert any(n.startswith("metric:mpi.bytes_sent{") for n in names)
    # histogram tracks carry one series per bucket plus the overflow
    (hist_ev,) = [
        e for e in metric_events if e["name"] == "metric:mpi.message_bytes"
    ]
    assert "le_inf" in hist_ev["args"]
    assert any(k.startswith("le_") and k != "le_inf" for k in hist_ev["args"])


def test_jsonl_round_trips_metrics(bcast_record, tmp_path):
    path = tmp_path / "run.jsonl"
    write_jsonl(bcast_record, str(path))
    back = load_jsonl(str(path))
    assert back.metrics == bcast_record.metrics
    assert back.metrics_registry().counter(
        "mpi.bytes_sent", rank=0
    ).value == bcast_record.metrics_registry().counter(
        "mpi.bytes_sent", rank=0
    ).value
