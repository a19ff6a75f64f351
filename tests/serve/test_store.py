"""Decision store: digests, shards, dedup, merge, compaction, writers."""

import dataclasses
import json
import threading

from repro.core.config import HanConfig
from repro.hardware import shaheen2, tiny_cluster
from repro.serve import store as store_mod
from repro.serve.store import (
    SERVE_SCHEMA_VERSION,
    DecisionStore,
    band_digest,
    decision_record,
    point_key,
)

KiB = 1024


def _machine(num_nodes=2, ppn=2):
    return tiny_cluster(num_nodes=num_nodes, ppn=ppn)


def _config(fs=64 * KiB):
    return HanConfig(fs=fs)


def test_band_digest_erases_job_geometry():
    base = _machine()
    assert band_digest(base) == band_digest(base.scaled(num_nodes=8, ppn=4))
    # different hardware -> different band
    assert band_digest(base) != band_digest(shaheen2(num_nodes=2, ppn=2))


def test_run_summaries_carry_the_band_the_decision_store_shards_by():
    """One band identity: a fleet finding joins to the shard it indicts."""
    from repro.hardware import MACHINE_PRESETS
    from repro.obs.store import summarize_point

    joined = 0
    for name in sorted(MACHINE_PRESETS):
        m = MACHINE_PRESETS[name]()
        try:
            m.band()
        except ValueError:
            continue  # gpu_pod: no band can be formed yet (ROADMAP)
        run = summarize_point(m, "bcast", 64 * KiB, 1e-4, config=_config())
        rec = decision_record(m, "bcast", 64 * KiB, _config())
        assert run["band"] == rec["band"] == band_digest(m)
        joined += 1
    assert joined >= 4


def test_point_key_is_content_addressed():
    band = band_digest(_machine())
    k = point_key(band, "bcast", 2, 2, 64 * KiB)
    assert k == point_key(band, "bcast", 2, 2, 64 * KiB)
    assert k != point_key(band, "bcast", 2, 2, 128 * KiB)
    assert k != point_key(band, "allreduce", 2, 2, 64 * KiB)
    assert k != point_key(band, "bcast", 4, 2, 64 * KiB)


def test_decision_record_contract():
    m = _machine()
    rec = decision_record(m, "bcast", 64 * KiB, _config(),
                          expected_time=1e-4, source="test")
    assert rec["schema_version"] == SERVE_SCHEMA_VERSION
    assert rec["band"] == band_digest(m)
    assert rec["key"] == point_key(rec["band"], "bcast", 2, 2, 64 * KiB)
    assert rec["n"] == 2 and rec["p"] == 2 and rec["commsize"] == 4
    assert rec["config"]["fs"] == 64 * KiB
    assert rec["config_digest"]


def test_memory_store_round_trip():
    m = _machine()
    store = DecisionStore()
    store.put_decision(m, "bcast", 64 * KiB, _config(), expected_time=1e-4)
    band = band_digest(m)
    rec = store.get(band, "bcast", 2, 2, 64 * KiB)
    assert rec is not None and rec["expected_time"] == 1e-4
    assert store.get(band, "bcast", 2, 2, 128 * KiB) is None
    assert len(store) == 1


def test_persistent_store_round_trip(tmp_path):
    m = _machine()
    store = DecisionStore(tmp_path / "ds")
    store.put_decision(m, "bcast", 64 * KiB, _config(), expected_time=1e-4)
    store.put_decision(m, "allreduce", 64 * KiB, _config(), expected_time=2e-4)
    band = band_digest(m)
    # a fresh handle reads the same shards off disk
    again = DecisionStore(tmp_path / "ds")
    assert again.bands() == [band]
    assert again.colls(band) == ["allreduce", "bcast"]
    assert again.get(band, "bcast", 2, 2, 64 * KiB)["expected_time"] == 1e-4
    # the band directory carries its marker
    marker = json.loads(
        (tmp_path / "ds" / band[:16] / "BAND.json").read_text())
    assert marker["band"] == band


def test_dedup_newer_wall_time_wins():
    m = _machine()
    store = DecisionStore()
    store.put_decision(m, "bcast", 64 * KiB, _config(64 * KiB),
                       expected_time=2e-4, wall_time=100.0)
    store.put_decision(m, "bcast", 64 * KiB, _config(128 * KiB),
                       expected_time=1e-4, wall_time=200.0)
    rec = store.get(band_digest(m), "bcast", 2, 2, 64 * KiB)
    assert rec["config"]["fs"] == 128 * KiB
    # an older retune does not overwrite the newer record
    store.put_decision(m, "bcast", 64 * KiB, _config(256 * KiB),
                       expected_time=3e-4, wall_time=50.0)
    rec = store.get(band_digest(m), "bcast", 2, 2, 64 * KiB)
    assert rec["config"]["fs"] == 128 * KiB
    assert len(store) == 1


def test_dedup_equal_time_breaks_on_config_digest():
    m = _machine()
    a = decision_record(m, "bcast", 64 * KiB, _config(64 * KiB),
                        wall_time=100.0)
    b = decision_record(m, "bcast", 64 * KiB, _config(128 * KiB),
                        wall_time=100.0)
    winner = min(a, b, key=lambda r: r["config_digest"])
    for order in ((a, b), (b, a)):
        store = DecisionStore()
        for rec in order:
            store.append(dict(rec))
        got = store.get(band_digest(m), "bcast", 2, 2, 64 * KiB)
        assert got["config_digest"] == winner["config_digest"]


def test_merge_is_union_and_order_independent(tmp_path):
    m = _machine()
    a = DecisionStore(tmp_path / "a")
    b = DecisionStore(tmp_path / "b")
    a.put_decision(m, "bcast", 64 * KiB, _config(64 * KiB), wall_time=1.0)
    a.put_decision(m, "bcast", 256 * KiB, _config(64 * KiB), wall_time=1.0)
    b.put_decision(m, "bcast", 64 * KiB, _config(128 * KiB), wall_time=2.0)
    b.put_decision(m, "allreduce", 64 * KiB, _config(64 * KiB), wall_time=1.0)

    def merged(first, second):
        into = DecisionStore()
        into.merge_from(first)
        into.merge_from(second)
        band = band_digest(m)
        return {
            coll: [(r["key"], r["config_digest"], r["wall_time"])
                   for r in into.records(band, coll)]
            for coll in into.colls(band)
        }

    ab, ba = merged(a, b), merged(b, a)
    assert ab == ba
    assert len(ab["bcast"]) == 2 and len(ab["allreduce"]) == 1
    # the contested point resolved to b's newer record in both orders
    contested = point_key(band_digest(m), "bcast", 2, 2, 64 * KiB)
    (rec,) = [r for r in ab["bcast"] if r[0] == contested]
    assert rec[2] == 2.0


def test_compact_preserves_records_and_is_idempotent(tmp_path):
    m = _machine()
    store = DecisionStore(tmp_path / "ds")
    for k in range(4):
        store.put_decision(m, "bcast", (64 << k) * KiB, _config(),
                           expected_time=1e-4 * (k + 1))
    band = band_digest(m)
    before = store.records(band, "bcast")
    stats = store.compact()
    assert stats["shards"] == 1 and stats["records"] == 4
    shard_dir = tmp_path / "ds" / band[:16] / "bcast"
    segs = sorted(f.name for f in shard_dir.glob("*.jsonl"))
    assert len(segs) == 1 and segs[0].startswith("seg-")
    assert store.records(band, "bcast") == before
    # recompacting an already-compact shard reproduces the same segment
    store.compact()
    assert sorted(f.name for f in shard_dir.glob("*.jsonl")) == segs
    # and a cold reader sees the same resolved view
    assert DecisionStore(tmp_path / "ds").records(band, "bcast") == before


def test_refresh_picks_up_other_writers(tmp_path):
    m = _machine()
    a = DecisionStore(tmp_path / "ds")
    b = DecisionStore(tmp_path / "ds")
    band = band_digest(m)
    a.put_decision(m, "bcast", 64 * KiB, _config())
    assert a.get(band, "bcast", 2, 2, 64 * KiB) is not None
    b.put_decision(m, "bcast", 128 * KiB, _config())
    # a's cached shard view predates b's append until refreshed
    assert a.get(band, "bcast", 2, 2, 128 * KiB) is None
    v = a.version
    a.refresh()
    assert a.version > v
    assert a.get(band, "bcast", 2, 2, 128 * KiB) is not None


def test_change_feed_names_each_point_the_view_changed_at(tmp_path,
                                                          monkeypatch):
    m = _machine()
    band = band_digest(m)
    ds = DecisionStore(tmp_path / "ds")
    v0 = ds.version
    k = ds.put_decision(m, "bcast", 64 * KiB, _config(), wall_time=10.0)
    # an older record of the same point loses: nothing changed
    ds.put_decision(m, "bcast", 64 * KiB, _config(16 * KiB), wall_time=5.0)
    k2 = ds.put_decision(m, "reduce", 64 * KiB, _config(), wall_time=5.0)
    assert ds.changes(v0) == [(band, "bcast", k), (band, "reduce", k2)]
    assert ds.changes(ds.version) == []
    # reloads from disk end the feed: a reader behind them rebuilds
    for reload in (ds.refresh, ds.compact):
        v = ds.version
        reload()
        assert ds.changes(v) is None and ds.changes(ds.version) == []
    # and so does falling too far behind a bounded feed
    monkeypatch.setattr(store_mod, "_FEED_MAX", 4)
    v = ds.version
    keys = [ds.put_decision(m, "bcast", i * KiB, _config(), wall_time=20.0)
            for i in range(1, 7)]
    assert ds.changes(v) is None
    assert ds.changes(ds.version - 2) == [(band, "bcast", k) for k in keys[-2:]]


def test_band_digest_memo_follows_topo_params():
    m = _machine()
    before = band_digest(m)
    m.topo_params["dims"] = (2,)
    assert band_digest(m) != before
    assert band_digest(m) == band_digest(
        dataclasses.replace(_machine(), topo_params={"dims": (2,)}))


def test_concurrent_append_writers(tmp_path):
    """Many store handles appending to one shard, lock-free."""
    m = _machine()
    sizes = [(64 + i) * KiB for i in range(40)]

    def writer(chunk):
        store = DecisionStore(tmp_path / "ds")  # own handle, own fd
        for s in chunk:
            store.put_decision(m, "bcast", s, _config(), expected_time=1e-4)

    threads = [
        threading.Thread(target=writer, args=(sizes[i::4],)) for i in range(4)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    store = DecisionStore(tmp_path / "ds")
    recs = store.records(band_digest(m), "bcast")
    assert len(recs) == len(sizes)
    assert sorted(r["nbytes"] for r in recs) == sorted(float(s) for s in sizes)


def test_torn_and_foreign_lines_are_skipped(tmp_path):
    m = _machine()
    store = DecisionStore(tmp_path / "ds")
    store.put_decision(m, "bcast", 64 * KiB, _config(), expected_time=1e-4)
    band = band_digest(m)
    shard = tmp_path / "ds" / band[:16] / "bcast" / "open.jsonl"
    with open(shard, "a") as fh:
        fh.write('{"key": "torn-write-from-a-dead-wri')  # no newline, torn
    again = DecisionStore(tmp_path / "ds")
    recs = again.records(band, "bcast")
    assert len(recs) == 1 and recs[0]["nbytes"] == float(64 * KiB)


def test_damaged_band_marker_hides_only_its_own_band(tmp_path):
    a, b = _machine(), shaheen2(num_nodes=2, ppn=2)
    store = DecisionStore(tmp_path / "ds")
    store.put_decision(a, "bcast", 64 * KiB, _config())
    store.put_decision(b, "bcast", 64 * KiB, _config())
    marker = tmp_path / "ds" / band_digest(b)[:16] / "BAND.json"
    for damage in (b"[1]", b'{"band": 7}', b"\xff\xfe", b'{"band": "tor'):
        marker.write_bytes(damage)
        assert DecisionStore(tmp_path / "ds").bands() == [band_digest(a)]
