"""Run store: key contract, append/read round-trip, torn-line tolerance."""

import json
from pathlib import Path

from repro.core.config import HanConfig
from repro.hardware.machines import shaheen2
from repro.obs.store import (
    RunStore,
    config_digest,
    run_key,
    summarize_measurement,
    summarize_point,
)
from repro.tuning.measure import measure_collective

KiB = 1024


def _machine():
    return shaheen2(num_nodes=2, ppn=2)


def test_run_key_ignores_seed_and_time():
    m = _machine()
    a = run_key(m, "bcast", 64 * KiB, HanConfig(fs=64 * KiB, seed=0))
    b = run_key(m, "bcast", 64 * KiB, HanConfig(fs=64 * KiB, seed=99))
    assert a == b  # seed is not part of the tuning identity
    assert a != run_key(m, "bcast", 128 * KiB, HanConfig(fs=64 * KiB))
    assert a != run_key(m, "reduce", 64 * KiB, HanConfig(fs=64 * KiB))
    assert a != run_key(m, "bcast", 64 * KiB, HanConfig(fs=128 * KiB))
    assert a != run_key(m, "bcast", 64 * KiB, HanConfig(fs=64 * KiB),
                        library="openmpi")
    assert a != run_key(m, "bcast", 64 * KiB, HanConfig(fs=64 * KiB),
                        extra={"plan": "noisy"})


def test_config_digest_stable_across_seeds():
    assert config_digest(HanConfig(fs=1, seed=0)) == \
        config_digest(HanConfig(fs=1, seed=7))
    assert config_digest(HanConfig(fs=1)) != config_digest(HanConfig(fs=2))
    assert config_digest(None) != config_digest(HanConfig(fs=1))


def test_store_append_read_round_trip(tmp_path):
    store = RunStore(tmp_path / "store")
    m = _machine()
    cfg = HanConfig(fs=64 * KiB)
    meas = measure_collective(m, "bcast", 64 * KiB, cfg)
    key = store.append(summarize_measurement(m, meas))
    store.append(summarize_measurement(m, meas))
    assert store.keys() == [key]
    runs = store.runs(key)
    assert len(runs) == 2 and len(store) == 2
    for doc in runs:
        assert doc["coll"] == "bcast"
        assert doc["time"] == meas.time
        assert doc["per_rank"] == list(meas.per_rank)
        assert doc["config_digest"] == config_digest(cfg)
        assert doc["source"] == "measure_collective"
        assert not doc["faulted"]
    assert store.latest(key) == runs[-1]


def test_store_rejects_keyless_docs(tmp_path):
    import pytest

    store = RunStore(tmp_path)
    with pytest.raises(ValueError):
        store.append({"coll": "bcast"})


def test_store_skips_torn_lines(tmp_path):
    store = RunStore(tmp_path)
    m = _machine()
    key = store.append(summarize_point(m, "bcast", 1024, 1e-4))
    (f,) = tmp_path.glob("*/open.jsonl")
    with open(f, "a") as fh:
        fh.write('{"truncated": ')  # dead writer mid-line
    assert len(store.runs(key)) == 1


def test_measure_collective_appends_on_cache_hit(tmp_path):
    from repro.tuning.cache import MeasurementCache

    store = RunStore(tmp_path / "store")
    cache = MeasurementCache()
    m = _machine()
    cfg = HanConfig(fs=64 * KiB)
    a = measure_collective(m, "bcast", 64 * KiB, cfg, cache=cache,
                           store=store)
    b = measure_collective(m, "bcast", 64 * KiB, cfg, cache=cache,
                           store=store)
    assert a == b
    assert cache.stats()["hits"] == 1
    # both the fresh measurement and the replay entered the history
    (key,) = store.keys()
    assert len(store.runs(key)) == 2


def test_store_lines_are_valid_json(tmp_path):
    store = RunStore(tmp_path)
    m = _machine()
    key = store.append(summarize_point(m, "allreduce", 2048, 2e-4,
                                       library="openmpi"))
    f = tmp_path / key[:2] / "open.jsonl"
    lines = f.read_text().splitlines()
    assert len(lines) == 1
    doc = json.loads(lines[0])
    assert doc["library"] == "openmpi"
    assert doc["schema_version"] == 1


# -- fleet-scale layout: shards, segments, compaction, tail -------------------


def _point(machine, coll, nbytes, time_s, wall):
    """A run summary with a pinned wall_time, for deterministic order."""
    doc = summarize_point(machine, coll, nbytes, time_s)
    doc["wall_time"] = float(wall)
    return doc


def _docs(machine, n=6):
    out = []
    for i in range(n):
        out.append(_point(machine, "bcast", 1024, 1e-3 + 1e-6 * i, wall=i))
        out.append(_point(machine, "allreduce", 2048, 2e-3 + 1e-6 * i,
                          wall=i))
    return out


def _segment_bytes(root):
    """{relative segment path: bytes} of every segment under a store."""
    root = Path(root)
    return {str(p.relative_to(root)): p.read_bytes()
            for p in root.glob("*/seg-*.jsonl")}


def test_compact_is_order_independent_and_byte_identical(tmp_path):
    m = _machine()
    docs = _docs(m)
    a = RunStore(tmp_path / "a")
    b = RunStore(tmp_path / "b")
    for doc in docs:
        a.append(doc)
    for doc in reversed(docs):
        b.append(doc)
        b.append(doc)  # exact duplicates must fold away
    a.compact()
    b.compact()
    segs_a, segs_b = _segment_bytes(a.root), _segment_bytes(b.root)
    assert segs_a and segs_a == segs_b
    for key in a.keys():
        assert a.runs(key) == b.runs(key)


def test_compact_preserves_history_and_is_idempotent(tmp_path):
    m = _machine()
    store = RunStore(tmp_path)
    for doc in _docs(m):
        store.append(doc)
    before = {key: runs for key, runs in store.groups()}
    res = store.compact()
    assert res["records"] == len(store) == sum(map(len, before.values()))
    assert {key: runs for key, runs in store.groups()} == before
    for key in before:
        assert store.latest(key) == before[key][-1]
    segs = _segment_bytes(store.root)
    store.compact()  # re-compacting an already-compact store is a no-op
    assert _segment_bytes(store.root) == segs


def test_compact_folds_later_appends_into_one_segment(tmp_path):
    m = _machine()
    store = RunStore(tmp_path)
    store.append(_point(m, "bcast", 1024, 1e-3, wall=0))
    store.compact()
    store.append(_point(m, "bcast", 1024, 1.1e-3, wall=1))
    store.compact()
    (key,) = store.keys()
    (seg,) = (tmp_path / key[:2]).glob("*.jsonl")  # one segment, no tail
    assert seg.name.startswith("seg-")
    assert len(store.runs(key)) == 2


def test_concurrent_appends_during_compact_lose_nothing(tmp_path):
    import threading

    m = _machine()
    docs = [_point(m, "bcast", 1024, 1e-3 + 1e-6 * i, wall=i)
            for i in range(120)]

    def writer(chunk):
        store = RunStore(tmp_path)  # own handle, own fds
        for doc in chunk:
            store.append(doc)

    threads = [threading.Thread(target=writer, args=(docs[i::3],))
               for i in range(3)]
    for t in threads:
        t.start()
    compactor = RunStore(tmp_path)
    for _ in range(8):
        compactor.compact()
    for t in threads:
        t.join()
    compactor.compact()
    store = RunStore(tmp_path)
    (key,) = store.keys()
    got = store.runs(key)
    assert len(got) == len(docs)
    assert sorted(d["wall_time"] for d in got) == \
        [d["wall_time"] for d in docs]


def test_segment_index_sidecars(tmp_path):
    m = _machine()
    store = RunStore(tmp_path)
    for doc in _docs(m):
        store.append(doc)
    store.compact()
    segs = list(store.root.glob("*/seg-*.jsonl"))
    assert segs
    for seg in segs:
        idx = json.loads(seg.with_suffix(".idx.json").read_text())
        assert idx["records"] == sum(map(len, idx["keys"].values()))
    # a lost sidecar is rebuilt transparently by a fresh handle
    expect = {key: runs for key, runs in store.groups()}
    for seg in segs:
        seg.with_suffix(".idx.json").unlink()
    fresh = RunStore(tmp_path)
    assert {key: runs for key, runs in fresh.groups()} == expect
    assert all(seg.with_suffix(".idx.json").exists() for seg in segs)


def test_legacy_per_group_layout_reads_and_compacts(tmp_path):
    m = _machine()
    doc = _point(m, "bcast", 1024, 1e-3, wall=0)
    key = doc["key"]
    legacy_dir = tmp_path / key[:2]
    legacy_dir.mkdir(parents=True)
    legacy = legacy_dir / f"{key}.jsonl"
    legacy.write_text(json.dumps(doc, sort_keys=True) + "\n")
    store = RunStore(tmp_path)
    assert store.keys() == [key]
    assert store.runs(key) == [doc]
    assert store.latest(key) == doc
    store.append(_point(m, "bcast", 1024, 1.1e-3, wall=1))
    store.compact()
    assert not legacy.exists()
    assert len(store.runs(key)) == 2


def test_runs_are_in_wall_time_order_across_files(tmp_path):
    m = _machine()
    store = RunStore(tmp_path)
    store.append(_point(m, "bcast", 1024, 3e-3, wall=2))
    store.compact()
    store.append(_point(m, "bcast", 1024, 1e-3, wall=0))  # back-dated
    store.append(_point(m, "bcast", 1024, 2e-3, wall=1))
    (key,) = store.keys()
    assert [d["wall_time"] for d in store.runs(key)] == [0.0, 1.0, 2.0]
    assert store.latest(key)["wall_time"] == 2.0


def test_tail_cursor_sees_each_record_once(tmp_path):
    m = _machine()
    store = RunStore(tmp_path)
    for i in range(3):
        store.append(_point(m, "bcast", 1024, 1e-3, wall=i))
    records, cur = store.tail()
    assert [d["wall_time"] for d in records] == [0.0, 1.0, 2.0]
    records, cur = store.tail(cur)
    assert records == []  # nothing new
    store.append(_point(m, "bcast", 1024, 1e-3, wall=3))
    store.append(_point(m, "allreduce", 2048, 2e-3, wall=4))
    records, cur = store.tail(cur)
    assert [d["wall_time"] for d in records] == [3.0, 4.0]
    store.compact()
    records, cur = store.tail(cur)
    assert records == []  # compaction moved bytes, not records
    store.append(_point(m, "bcast", 1024, 1e-3, wall=5))
    records, cur = store.tail(cur)
    assert [d["wall_time"] for d in records] == [5.0]


def test_tail_cursor_is_json_serializable(tmp_path):
    m = _machine()
    store = RunStore(tmp_path)
    store.append(_point(m, "bcast", 1024, 1e-3, wall=0))
    _records, cur = store.tail()
    revived = json.loads(json.dumps(cur))
    store.append(_point(m, "bcast", 1024, 1e-3, wall=1))
    records, _cur = store.tail(revived)
    assert [d["wall_time"] for d in records] == [1.0]


def test_merge_from_is_idempotent_union(tmp_path):
    m = _machine()
    a = RunStore(tmp_path / "a")
    b = RunStore(tmp_path / "b")
    docs = _docs(m, n=3)
    for doc in docs[: len(docs) // 2]:
        a.append(doc)
    for doc in docs:
        b.append(doc)
    a.merge_from(b)
    a.merge_from(b)  # duplicates collapse on read
    a.compact()
    b.compact()
    assert {k: r for k, r in a.groups()} == {k: r for k, r in b.groups()}
