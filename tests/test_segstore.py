"""The shard protocol (repro.segstore) and its two policies, one battery.

Crash consistency is checked once against the core and, where a store
is involved, parametrised over RunStore and DecisionStore alike.

``tests/fixtures/segstore`` was written by the code of commit e3b6da0,
the last one with two hand-copied stores: ``docs.json`` is the fixed
record set, ``runs/`` and ``decisions/`` are store directories that code
left behind (a segment plus a live tail per shard), ``expected.json`` is
what that code read back from them.  The byte pins below are the file
names and bytes the same code produced for the whole record set.
"""

import errno
import hashlib
import json
import shutil
import tempfile
import threading
from pathlib import Path

import pytest

from repro import segstore
from repro.obs.store import RunStore
from repro.serve.store import DecisionStore, point_key

FIXTURE = Path(__file__).parent / "fixtures" / "segstore"
DOCS = json.loads((FIXTURE / "docs.json").read_text())
EXPECTED = json.loads((FIXTURE / "expected.json").read_text())
BAND = DOCS["band"]

GARBAGE = (b'[1, 2]\n"str"\n\xff\xfe\n{"coll": "keyless"}\n{"key": 7}\n\n'
           b'{"key": "torn-by-a-dead-wri')


class Runs:
    """RunStore seen through the few calls the battery needs."""

    name = "runs"
    docs = DOCS["runs"]
    open = staticmethod(RunStore)

    @staticmethod
    def shard(root, doc):
        return Path(root) / doc["key"][:2]

    @staticmethod
    def read(store):
        return [doc for _key, runs in store.groups() for doc in runs]

    @staticmethod
    def survivors(docs):
        return list({segstore.canonical_line(d): d for d in docs}.values())

    @staticmethod
    def make(i):
        return {"schema_version": 1, "key": "ab01", "time": 1e-3,
                "wall_time": float(i)}


class Decisions:
    """DecisionStore seen through the same calls."""

    name = "decisions"
    docs = DOCS["decisions"]
    open = staticmethod(DecisionStore)

    @staticmethod
    def shard(root, doc):
        return Path(root) / doc["band"][:16] / doc["coll"]

    @staticmethod
    def read(store):
        return [rec for band in store.bands() for coll in store.colls(band)
                for rec in store.records(band, coll)]

    @staticmethod
    def survivors(docs):
        best = {}
        for d in docs:
            cur = best.get(d["key"])
            # newest wall_time wins, ties go to the smaller config_digest
            if cur is None or (d["wall_time"], cur["config_digest"]) > \
                    (cur["wall_time"], d["config_digest"]):
                best[d["key"]] = d
        return list(best.values())

    @staticmethod
    def make(i):
        nbytes = float(1024 + i)
        return {"schema_version": 1,
                "key": point_key(BAND, "bcast", 2, 2, nbytes), "band": BAND,
                "machine": "pin 2x2", "coll": "bcast", "n": 2, "p": 2,
                "nbytes": nbytes, "config": {"fs": 1},
                "config_digest": "aa", "wall_time": 1.0}


@pytest.fixture(params=[Runs, Decisions], ids=lambda kind: kind.name)
def kind(request):
    return request.param


def _lines(docs):
    return sorted(segstore.canonical_line(d) for d in docs)


def _fill(kind, root, docs=None):
    store = kind.open(root)
    for doc in (kind.docs if docs is None else docs):
        store.append(dict(doc))
    return store


def _tree(root):
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(Path(root).rglob("*")) if p.is_file()}


def _sha(blob):
    return hashlib.sha256(blob).hexdigest()


def _failing_mkstemp(code):
    def mkstemp(*args, **kwargs):
        raise OSError(code, "injected")
    return mkstemp


# -- the core, once ---------------------------------------------------------------


def test_torn_tail_is_left_unconsumed_and_picked_up_whole(tmp_path):
    f = tmp_path / "open.jsonl"
    segstore.append_line(f, '{"key": "a", "v": 1}')
    with open(f, "ab") as fh:
        fh.write(b'{"key": "b", ')  # writer died, or is mid-write
    docs, end = segstore.read_docs(f)
    assert docs == [{"key": "a", "v": 1}]
    assert end == len(b'{"key": "a", "v": 1}\n')
    with open(f, "ab") as fh:
        fh.write(b'"v": 2}\n')
    docs, end = segstore.read_docs(f, end)
    assert docs == [{"key": "b", "v": 2}]
    assert segstore.read_docs(f, end) == ([], end)


def test_reader_skips_everything_that_is_not_a_keyed_object(tmp_path):
    f = tmp_path / "open.jsonl"
    f.write_bytes(b'{"key": "good"}\n' + GARBAGE)
    assert segstore.read_docs(f)[0] == [{"key": "good"}]
    assert segstore.read_docs(tmp_path / "absent.jsonl") == ([], 0)


def test_append_line_creates_the_shard_directory(tmp_path):
    f = tmp_path / "band" / "coll" / "open.jsonl"
    segstore.append_line(f, '{"key": "a"}')
    segstore.append_line(f, '{"key": "b"}')
    assert f.read_bytes() == b'{"key": "a"}\n{"key": "b"}\n'


def test_write_atomic_raises_and_leaves_nothing_behind(tmp_path, monkeypatch):
    target = tmp_path / "doc.json"
    segstore.write_atomic(target, "old")

    def boom(src, dst):
        raise OSError(errno.EIO, "injected")

    monkeypatch.setattr(segstore.os, "replace", boom)
    with pytest.raises(OSError):
        segstore.write_atomic(target, "new")
    monkeypatch.undo()
    assert target.read_text() == "old"
    assert [p.name for p in tmp_path.iterdir()] == ["doc.json"]
    monkeypatch.setattr(segstore.tempfile, "mkstemp",
                        _failing_mkstemp(errno.ENOSPC))
    with pytest.raises(OSError):
        segstore.write_atomic(target, "new")
    assert target.read_text() == "old"


def _by_key(docs):
    """The simplest fold policy: every distinct line, in line order."""
    return sorted({(d["key"], segstore.canonical_line(d)) for d in docs},
                  key=lambda pair: pair[1])


def test_fold_drains_late_lines_of_a_stale_writer(tmp_path, monkeypatch):
    for i in range(3):
        segstore.append_line(tmp_path / "open.jsonl",
                             segstore.canonical_line({"key": "k", "i": i}))
    real = tempfile.mkstemp
    seen = []

    def stale_writer(*args, **kwargs):
        # the tail is a pend-* snapshot by now; a writer that opened it
        # before the rename still lands its line there
        (pend,) = tmp_path.glob("pend-*.jsonl")
        if not seen:
            with open(pend, "ab") as fh:
                fh.write(b'{"i": 9, "key": "k"}\n{"i": 0, "key": "k"}\n')
        seen.append(pend)
        return real(*args, **kwargs)

    monkeypatch.setattr(segstore.tempfile, "mkstemp", stale_writer)
    count, gone = segstore.fold(tmp_path, _by_key, sidecar=True)
    assert (count, gone) == (3, [seen[0]])
    # moved to the new tail: the new line once, the folded one not at all
    assert (tmp_path / "open.jsonl").read_bytes() == b'{"i": 9, "key": "k"}\n'
    assert segstore.fold(tmp_path, _by_key, sidecar=True)[0] == 4
    assert sorted(p.suffix for p in tmp_path.iterdir()) == [".json", ".jsonl"]


def test_fold_of_an_empty_shard_is_nothing(tmp_path):
    assert segstore.fold(tmp_path, _by_key) == (0, [])
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("damage", [
    None, b"", b"{not json", b"[1, 2]", b'{"keys": 5}', b"\xff\xfe"],
    ids=["missing", "empty", "malformed", "non-dict", "keys-not-dict",
         "non-utf8"])
def test_sidecar_is_rebuilt_from_its_segment(tmp_path, damage):
    for i in range(4):
        segstore.append_line(tmp_path / "open.jsonl", segstore.canonical_line(
            {"key": "ab"[i % 2], "i": i}))
    segstore.fold(tmp_path, _by_key, sidecar=True)
    (seg,) = tmp_path.glob("seg-*.jsonl")
    sidecar = segstore.index_path(seg)
    good = sidecar.read_bytes()
    if damage is None:
        sidecar.unlink()
    else:
        sidecar.write_bytes(damage)
    idx = segstore.load_index(seg)
    assert idx == json.loads(good) and idx["records"] == 4
    assert sidecar.read_bytes() == good


def test_sidecar_rebuild_is_best_effort_on_a_read_only_store(
        tmp_path, monkeypatch):
    store = _fill(Runs, tmp_path)
    store.compact()
    for sidecar in tmp_path.glob("*/*.idx.json"):
        sidecar.unlink()
    monkeypatch.setattr(segstore.tempfile, "mkstemp",
                        _failing_mkstemp(errno.EROFS))
    fresh = RunStore(tmp_path)
    assert _lines(Runs.read(fresh)) == _lines(Runs.survivors(Runs.docs))
    assert all(fresh.latest(key) for key in fresh.keys())
    assert not list(tmp_path.glob("*/*.idx.json"))


# -- both stores ------------------------------------------------------------------


def test_garbage_and_torn_lines_do_not_hide_good_records(kind, tmp_path):
    _fill(kind, tmp_path)
    want = _lines(kind.survivors(kind.docs))
    for shard in {kind.shard(tmp_path, doc) for doc in kind.docs}:
        with open(shard / "open.jsonl", "ab") as fh:
            fh.write(GARBAGE)
    fresh = kind.open(tmp_path)
    assert _lines(kind.read(fresh)) == want
    assert len(fresh) == len(want)
    fresh.compact()
    assert _lines(kind.read(kind.open(tmp_path))) == want


def test_decision_point_lookup_survives_garbage(tmp_path):
    docs = [Decisions.make(i) for i in range(3)]
    _fill(Decisions, tmp_path, docs)
    with open(Decisions.shard(tmp_path, docs[0]) / "open.jsonl", "ab") as fh:
        fh.write(GARBAGE)
    store = DecisionStore(tmp_path)
    assert store.get(BAND, "bcast", 2, 2, 1025.0) == docs[1]
    assert store.records(BAND, "bcast") == docs and len(store) == 3


def test_torn_tail_is_read_once_its_writer_finishes(kind, tmp_path):
    first, second = kind.make(0), kind.make(1)
    _fill(kind, tmp_path, [first])
    tail = kind.shard(tmp_path, first) / "open.jsonl"
    line = segstore.canonical_line(second).encode() + b"\n"
    with open(tail, "ab") as fh:
        fh.write(line[:20])
    assert kind.read(kind.open(tmp_path)) == [first]
    with open(tail, "ab") as fh:
        fh.write(line[20:])
    assert _lines(kind.read(kind.open(tmp_path))) == _lines([first, second])


def test_leftover_pend_snapshot_is_read_then_folded(kind, tmp_path):
    """A compaction killed after its rename leaves ``pend-*`` behind."""
    docs = [kind.make(i) for i in range(4)]
    _fill(kind, tmp_path, docs[:3])
    shard = kind.shard(tmp_path, docs[0])
    (shard / "open.jsonl").rename(shard / "pend-0123456789ab.jsonl")
    (shard / "tmpdeadbeef.tmp").write_bytes(b'{"key": "half a segm')
    _fill(kind, tmp_path, docs[3:])
    assert _lines(kind.read(kind.open(tmp_path))) == _lines(docs)
    kind.open(tmp_path).compact()
    left = sorted(p.name for p in shard.iterdir()
                  if p.suffix in (".jsonl", ".tmp"))
    assert len(left) == 2 and left[0].startswith("seg-")
    assert left[1] == "tmpdeadbeef.tmp"  # ignored, never read
    assert _lines(kind.read(kind.open(tmp_path))) == _lines(docs)


def test_refold_is_a_no_op(kind, tmp_path):
    store = _fill(kind, tmp_path)
    store.compact()
    once = _tree(tmp_path)
    assert store.compact()["records"] == len(kind.survivors(kind.docs))
    assert kind.open(tmp_path).compact()["records"] == len(
        kind.survivors(kind.docs))
    assert _tree(tmp_path) == once


def test_compact_raises_on_a_full_disk_and_loses_nothing(
        kind, tmp_path, monkeypatch):
    store = _fill(kind, tmp_path)
    want = _lines(kind.survivors(kind.docs))
    monkeypatch.setattr(segstore.tempfile, "mkstemp",
                        _failing_mkstemp(errno.ENOSPC))
    with pytest.raises(OSError) as err:
        store.compact()
    assert err.value.errno == errno.ENOSPC
    monkeypatch.undo()
    assert not list(tmp_path.rglob("seg-*"))
    assert _lines(kind.read(kind.open(tmp_path))) == want
    kind.open(tmp_path).compact()  # and the next one goes through
    assert _lines(kind.read(kind.open(tmp_path))) == want


def test_append_by_another_handle_during_compact_survives(
        kind, tmp_path, monkeypatch):
    docs = [kind.make(i) for i in range(5)]
    store = _fill(kind, tmp_path, docs[:4])
    real = tempfile.mkstemp
    fired = []

    def other_writer(*args, **kwargs):
        if not fired:  # between the fold's read and its unlink
            fired.append(True)
            kind.open(tmp_path).append(dict(docs[4]))
        return real(*args, **kwargs)

    monkeypatch.setattr(segstore.tempfile, "mkstemp", other_writer)
    store.compact()
    monkeypatch.undo()
    assert fired
    assert store.appends == 4  # callers' appends only
    assert _lines(kind.read(kind.open(tmp_path))) == _lines(docs)
    assert _lines(kind.read(store)) == _lines(docs)


def test_writers_racing_compactions_lose_nothing(kind, tmp_path):
    docs = [kind.make(i) for i in range(120)]

    def writer(chunk):
        store = kind.open(tmp_path)  # own handle, own fds
        for doc in chunk:
            store.append(dict(doc))

    threads = [threading.Thread(target=writer, args=(docs[i::3],))
               for i in range(3)]
    for t in threads:
        t.start()
    compactor = kind.open(tmp_path)
    for _ in range(8):
        compactor.compact()
    for t in threads:
        t.join(timeout=60)
    assert not any(t.is_alive() for t in threads)
    kind.open(tmp_path).compact()
    assert _lines(kind.read(kind.open(tmp_path))) == _lines(docs)
    assert len(list(tmp_path.rglob("*.jsonl"))) == 1


# -- on-disk compatibility with the hand-copied stores ------------------------------

PINNED_TAILS = {
    "decisions": {
        "5e5e5e5e5e5e5e5e/BAND.json":
            "378a9802979288f555185eed16dd04dc2c63b039e272d024dd2bdda4f1032f76",
        "5e5e5e5e5e5e5e5e/allreduce/open.jsonl":
            "50faf22d75008333182d56f2b8795a56773dc2362acb5b04ee7e0de80a9b2475",
        "5e5e5e5e5e5e5e5e/bcast/open.jsonl":
            "a6310f31fac484179865e6110299e915e060e8b04e709f544a8244a8ac9d2c71",
    },
    "runs": {
        "ab/open.jsonl":
            "916e6af5d90b0bbc2a4f9fb17fbf38ad0d75d1233b041a071dec21261b391cc5",
        "cd/open.jsonl":
            "cd4376bac938bce85724e3477a9a03dffab21310148f37e373a7883fe4a6c2be",
    },
}

#: every file of the compacted store: sidecars and markers by content,
#: segments by the digest their name abbreviates
PINNED_COMPACTED = {
    "decisions": {
        "5e5e5e5e5e5e5e5e/BAND.json":
            b'{"schema_version": 1, "band": "' + BAND.encode()
            + b'", "machine": "pin 2x2"}',
        "5e5e5e5e5e5e5e5e/allreduce/seg-50faf22d7500.jsonl":
            "50faf22d75008333182d56f2b8795a56773dc2362acb5b04ee7e0de80a9b2475",
        "5e5e5e5e5e5e5e5e/bcast/seg-5f54dc353fae.jsonl":
            "5f54dc353faeb53bd027916693b5e93b131735b0c07637c8b93e4429bf7cbff0",
    },
    "runs": {
        "ab/seg-ef9baeb9a17a.idx.json":
            b'{"keys": {"ab01": [0, 124, 247, 369], "ab02": [492]}, '
            b'"records": 5, "schema": 1}',
        "ab/seg-ef9baeb9a17a.jsonl":
            "ef9baeb9a17a5300ed393301736a539034423afbcb5c23828bdbaa6bdcabbeee",
        "cd/seg-f8e3ecfd6013.idx.json":
            b'{"keys": {"cd01": [0, 125], "cd02": [247]}, '
            b'"records": 3, "schema": 1}',
        "cd/seg-f8e3ecfd6013.jsonl":
            "f8e3ecfd6013d2a7d77c9c62dd05ff86162d296eff1ff6e5d790b3a2eb49b0a2",
    },
}


def _assert_pinned(root, name):
    want, got = PINNED_COMPACTED[name], _tree(root)
    assert sorted(got) == sorted(want)  # no file kind gained or lost
    for path, pin in want.items():
        assert (got[path] if isinstance(pin, bytes) else _sha(got[path])) \
            == pin, path


def test_same_records_same_file_names_and_bytes_as_before(kind, tmp_path):
    store = _fill(kind, tmp_path / "a")
    assert {path: _sha(blob) for path, blob in _tree(tmp_path / "a").items()} \
        == PINNED_TAILS[kind.name]
    store.compact()
    _assert_pinned(tmp_path / "a", kind.name)
    # any append order, duplicates included, folds to the same bytes
    _fill(kind, tmp_path / "b",
          list(reversed(kind.docs)) + kind.docs[:2]).compact()
    assert _tree(tmp_path / "b") == _tree(tmp_path / "a")


def test_a_directory_written_by_the_old_code_reads_unchanged(tmp_path):
    shutil.copytree(FIXTURE / "runs", tmp_path / "runs")
    shutil.copytree(FIXTURE / "decisions", tmp_path / "decisions")
    before = _tree(tmp_path)
    runs = RunStore(tmp_path / "runs")
    assert runs.keys() == EXPECTED["keys"]
    assert {key: runs.runs(key) for key in runs.keys()} == EXPECTED["runs"]
    assert {key: runs.latest(key) for key in runs.keys()} \
        == EXPECTED["latest"]
    assert runs.tail()[0] == EXPECTED["tail"]
    assert len(runs) == EXPECTED["len_runs"]
    decisions = DecisionStore(tmp_path / "decisions")
    assert decisions.bands() == EXPECTED["bands"] == [BAND]
    assert decisions.colls(BAND) == EXPECTED["colls"]
    assert {coll: decisions.records(BAND, coll)
            for coll in decisions.colls(BAND)} == EXPECTED["records"]
    assert len(decisions) == EXPECTED["len_decisions"]
    assert _tree(tmp_path) == before  # reading moved nothing
    # and folding it lands on the bytes the old code folded it to
    runs.compact()
    decisions.compact()
    _assert_pinned(tmp_path / "runs", "runs")
    _assert_pinned(tmp_path / "decisions", "decisions")


def test_lookup_table_save_is_atomic(tmp_path, monkeypatch):
    from repro.core.config import HanConfig
    from repro.tuning.lookup import LookupTable

    path = tmp_path / "table.json"
    old = LookupTable()
    old.put("bcast", 2, 2, 1024.0, HanConfig(fs=1024))
    old.save(path)
    new = LookupTable()
    new.put("bcast", 4, 4, 2048.0, HanConfig(fs=2048))

    def crash(src, dst):
        raise OSError(errno.EIO, "injected")

    monkeypatch.setattr(segstore.os, "replace", crash)
    with pytest.raises(OSError):
        new.save(path)
    monkeypatch.undo()
    assert LookupTable.load(path).entries == old.entries
    assert [p.name for p in tmp_path.iterdir()] == ["table.json"]
