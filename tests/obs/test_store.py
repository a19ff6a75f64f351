"""Run store: key contract, append/read round-trip, torn-line tolerance,
and the one read contract: each record read once, as a (doc, canonical
line) pair."""

import json
import shutil
import sys
from pathlib import Path

import pytest

from repro import segstore
from repro.core.config import HanConfig
from repro.hardware.machines import shaheen2
from repro.obs.insights import InsightEngine
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


# -- one read per record: (doc, canonical line) pairs --------------------------------


def _foreign(doc, spelling):
    """``doc`` as a writer that is not this store might spell it."""
    if spelling == "reordered":
        return json.dumps(dict(reversed(list(doc.items()))))
    if spelling == "compact":
        return json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return json.dumps(doc, sort_keys=True, ensure_ascii=False)


def _canonical_only(root, doc):
    store = RunStore(root)
    store.append(dict(doc))
    store.compact()
    return _segment_bytes(root)


@pytest.mark.parametrize("twin", ["segment", "open"])
@pytest.mark.parametrize("place", ["open", "pend", "legacy"])
@pytest.mark.parametrize("spelling", ["reordered", "compact", "unicode"])
def test_a_foreign_spelling_is_one_record_with_its_canonical_twin(
        tmp_path, spelling, place, twin):
    doc = _point(_machine(), "bcast", 1024, 1e-3, wall=7)
    doc["source"] = "mesuré ✓"  # ensure_ascii=False spells this apart
    key = doc["key"]
    assert _foreign(doc, spelling) != segstore.canonical_line(doc)
    store = RunStore(tmp_path / "store")
    store.append(dict(doc))
    if twin == "segment":
        store.compact()
    engine = InsightEngine()
    cursor = engine.follow(store)  # the twin is delivered first
    name = {"open": "open.jsonl", "pend": "pend-0a0b0c0d0e0f.jsonl",
            "legacy": f"{key}.jsonl"}[place]
    with open(store.root / key[:2] / name, "a", encoding="utf-8") as fh:
        fh.write(_foreign(doc, spelling) + "\n")

    engine.follow(store, cursor)  # tail or engine drops it as seen
    assert engine.records == 1
    assert store.tail()[0] == [doc]
    streamed = InsightEngine()
    streamed.follow(store)
    assert streamed.records == 1
    assert list(store.groups()) == [(key, [doc])]
    batch = InsightEngine()
    assert batch.ingest_store(store) == 1
    assert store.runs(key) == [doc]
    assert store.latest(key) == doc
    assert store.keys() == [key] and len(store) == 1
    assert store.compact()["records"] == 1
    assert _segment_bytes(store.root) == \
        _canonical_only(tmp_path / "canonical", doc)
    assert store.runs(key) == [doc]


@pytest.fixture
def canonical_calls(monkeypatch):
    """Counts calls of segstore.canonical_line from now on, wherever a
    module bound it."""
    calls = []
    real = segstore.canonical_line

    def counting(doc):
        calls.append(doc)
        return real(doc)

    for mod in list(sys.modules.values()):
        if getattr(mod, "canonical_line", None) is real:
            monkeypatch.setattr(mod, "canonical_line", counting)
    return calls


def test_each_read_record_is_canonicalized_at_most_once(
        tmp_path, canonical_calls):
    m = _machine()
    store = RunStore(tmp_path)
    engine = InsightEngine()
    docs = _docs(m)
    for doc in docs[:8]:
        store.append(doc)
    canonical_calls.clear()
    cursor = engine.follow(store)  # first sight: tail reads everything
    assert len(canonical_calls) == 8 == engine.records
    for doc in docs[8:]:
        store.append(doc)
    canonical_calls.clear()
    cursor = engine.follow(store, cursor)  # steady state: the new bytes
    assert len(canonical_calls) == len(docs) - 8
    canonical_calls.clear()
    engine.follow(store, cursor)  # idle
    assert canonical_calls == []

    store.compact()
    store.append(_point(m, "reduce", 4096, 3e-3, wall=0))  # an open tail
    canonical_calls.clear()
    assert len(store.keys()) == 3
    assert canonical_calls == []  # keys() needs no identity
    store.compact()
    canonical_calls.clear()
    batch = InsightEngine()
    assert batch.ingest_store(store) == len(docs) + 1
    assert canonical_calls == []  # segment lines are their own identity


def _two_shards(root):
    """A store with records in at least two shards, a stray file beside
    them, and the cursor of a follower that has read them all."""
    m = _machine()
    store = RunStore(root)
    docs = _docs(m, n=2) + [_point(m, "reduce", 4096, 3e-3, wall=0)]
    for doc in docs:
        store.append(doc)
    (store.root / "stray.txt").write_text("not a shard")
    shards = sorted({doc["key"][:2] for doc in docs})
    assert len(shards) >= 2
    victim = next(d for d in docs if d["key"][:2] == shards[0])
    survivor = next(d for d in docs if d["key"][:2] == shards[-1])
    cursor = store.tail()[1]
    store.append(_point(m, survivor["coll"], survivor["nbytes"], 5e-3,
                        wall=9))
    return store, victim["key"], cursor


def _doom(store, key, fate):
    shard = store.root / key[:2]
    shutil.rmtree(shard)
    if fate == "replaced":
        shard.write_text("a file where a shard was")


READERS = {
    "tail": lambda store, cursor: store.tail()[0],
    "tail-resume": lambda store, cursor: store.tail(cursor)[0],
    "groups": lambda store, cursor: list(store.groups()),
    "keys": lambda store, cursor: store.keys(),
    "len": lambda store, cursor: len(store),
}


@pytest.mark.parametrize("reader", sorted(READERS))
@pytest.mark.parametrize("fate", ["vanished", "replaced"])
def test_a_shard_that_goes_away_mid_walk_reads_as_gone(
        tmp_path, monkeypatch, reader, fate):
    read = READERS[reader]
    calm, key, cursor = _two_shards(tmp_path / "calm")
    _doom(calm, key, fate)
    want = read(calm, cursor)

    racing, key, cursor = _two_shards(tmp_path / "racing")
    listing = RunStore._shards

    def list_then_doom(self):
        shards = listing(self)  # the victim is still listed...
        _doom(self, key, fate)  # ...but gone before it is scanned
        return shards

    monkeypatch.setattr(RunStore, "_shards", list_then_doom)
    assert read(racing, cursor) == want
    monkeypatch.undo()
    assert racing.latest(key) is None
    assert racing.runs(key) == []


#: ``json.dumps`` of the cursors ``tail`` returned, as of commit
#: 3e3d173, for the store the test below builds: after its first four
#: records, and after two more and a compaction
PINNED_CURSORS = (
    r'{"schema": 1, "shards": {"ab": {"files": {"open.jsonl": 312}, '
    r'"mark": [3.0, "{\"coll\": \"bcast\", \"key\": \"ab01\", '
    r'\"schema_version\": 1, \"source\": \"pin\", \"time\": 0.004, '
    r'\"wall_time\": 3.0}"]}, "cd": {"files": {"open.jsonl": 104}, '
    r'"mark": [1.0, "{\"coll\": \"bcast\", \"key\": \"cd01\", '
    r'\"schema_version\": 1, \"source\": \"pin\", \"time\": 0.002, '
    r'\"wall_time\": 1.0}"]}}}',
    r'{"schema": 1, '
    r'"shards": {"ab": {"files": {"seg-1656b1c55762.jsonl": 312}, '
    r'"mark": [3.0, "{\"coll\": \"bcast\", \"key\": \"ab01\", '
    r'\"schema_version\": 1, \"source\": \"pin\", \"time\": 0.004, '
    r'\"wall_time\": 3.0}"]}, '
    r'"cd": {"files": {"seg-4118325d37a9.jsonl": 208}, "mark": [4.0, '
    r'"{\"coll\": \"bcast\", \"key\": \"cd01\", \"schema_version\": 1, '
    r'\"source\": \"pin\", \"time\": 0.005, \"wall_time\": 4.0}"]}, '
    r'"ef": {"files": {"seg-7ee65cbbcf27.jsonl": 104}, "mark": [5.0, '
    r'"{\"coll\": \"bcast\", \"key\": \"ef01\", \"schema_version\": 1, '
    r'\"source\": \"pin\", \"time\": 0.006, \"wall_time\": 5.0}"]}}}',
)


def _pin(store, key, i):
    store.append({"schema_version": 1, "key": key, "coll": "bcast",
                  "time": 1e-3 * (i + 1), "wall_time": float(i),
                  "source": "pin"})


def test_a_persisted_cursor_resumes_with_nothing_redelivered_or_skipped(
        tmp_path):
    store = RunStore(tmp_path)
    for i, key in enumerate(["ab01", "cd01", "ab02", "ab01"]):
        _pin(store, key, i)
    old, old_compacted = PINNED_CURSORS
    assert json.dumps(store.tail()[1]) == old  # the format is unchanged
    _pin(store, "cd01", 4)
    _pin(store, "ef01", 5)
    records, cursor = store.tail(json.loads(old))
    assert [d["wall_time"] for d in records] == [4.0, 5.0]
    store.compact()
    records, cursor = store.tail(cursor)
    assert records == [] and json.dumps(cursor) == old_compacted
    # an old cursor that predates the compaction resumes by its marks
    records, _cursor = store.tail(json.loads(old))
    assert [d["wall_time"] for d in records] == [4.0, 5.0]
    assert store.tail(json.loads(old_compacted))[0] == []
