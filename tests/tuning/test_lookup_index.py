"""Lookup table: per-collective index, staleness rebuild, integrity stamp."""

import json
import math

import pytest

from repro.core.config import HanConfig
from repro.tuning.lookup import LookupTable

KiB = 1024


def _table():
    table = LookupTable()
    for i, coll in enumerate(("bcast", "allreduce", "reduce")):
        for n in (2, 4):
            for k in range(4):
                table.put(coll, n, 2, (16 << (2 * k)) * KiB,
                          HanConfig(fs=(64 << i) * KiB))
    return table


def _brute_force(table, n, p, m, t):
    """The pre-index linear scan, as the equivalence oracle."""
    candidates = [k for k in table.entries if k[0] == t]
    if not candidates:
        return None

    def key_distance(k):
        _t, kn, kp, km = k
        dn = abs(math.log2(max(kn, 1)) - math.log2(max(n, 1)))
        dp = abs(math.log2(max(kp, 1)) - math.log2(max(p, 1)))
        dm = abs(math.log2(max(km, 1.0)) - math.log2(max(m, 1.0)))
        return (dn + dp, dm, kn, kp, km)

    return table.entries[min(candidates, key=key_distance)]


def test_indexed_decide_matches_linear_scan():
    table = _table()
    for t in ("bcast", "allreduce", "reduce"):
        for n in (1, 2, 3, 4, 16):
            for m in (1.0, 8 * KiB, 31 * KiB, 1024 * KiB, 2 ** 30):
                assert table.decide(n, 2, m, t) == _brute_force(
                    table, n, 2, m, t)


def test_candidates_are_scoped_to_the_collective():
    table = _table()
    assert len(table._candidates("bcast")) == 8
    assert len(table.entries) == 24
    # an unknown collective gets the default config, not a cross-coll hit
    from repro.core.han import HanModule

    assert table.decide(2, 2, 64 * KiB, "gather") == \
        HanModule.default_config(64 * KiB)


def test_index_rebuilds_after_direct_entries_mutation():
    table = _table()
    # legacy callers write entries directly; the index must notice
    table.entries[("gather", 2, 2, float(64 * KiB))] = HanConfig(fs=1 * KiB)
    assert table.decide(2, 2, 64 * KiB, "gather").fs == 1 * KiB
    # and stays consistent for further indexed puts
    table.put("gather", 4, 2, float(16 * KiB), HanConfig(fs=2 * KiB))
    assert table.decide(4, 2, 16 * KiB, "gather").fs == 2 * KiB


def test_put_same_key_twice_keeps_one_entry():
    table = LookupTable()
    table.put("bcast", 2, 2, 64 * KiB, HanConfig(fs=64 * KiB))
    table.put("bcast", 2, 2, 64 * KiB, HanConfig(fs=128 * KiB))
    assert len(table) == 1
    assert table.get("bcast", 2, 2, 64 * KiB).fs == 128 * KiB
    assert len(table._candidates("bcast")) == 1


def test_save_stamps_headers_and_round_trips(tmp_path):
    table = _table()
    path = tmp_path / "table.json"
    table.save(path)
    doc = json.loads(path.read_text())
    assert doc["version"] == 1
    assert doc["schema_version"] == 1
    assert doc["config_digest"]
    assert doc["table_digest"]
    loaded = LookupTable.load(path)
    assert loaded.entries == table.entries
    # decisions survive the round trip bit-identically
    for t in ("bcast", "allreduce"):
        for m in (1.0, 31 * KiB, 2 ** 30):
            assert loaded.decide(3, 2, m, t) == table.decide(3, 2, m, t)


def test_load_rejects_rows_that_contradict_the_stamp(tmp_path):
    table = _table()
    path = tmp_path / "table.json"
    table.save(path)
    doc = json.loads(path.read_text())
    doc["rows"][0]["config"]["fs"] = 1.0  # hand edit after stamping
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="table_digest"):
        LookupTable.load(path)


def test_load_tolerates_legacy_files_without_stamp(tmp_path):
    table = _table()
    path = tmp_path / "table.json"
    table.save(path)
    doc = json.loads(path.read_text())
    del doc["table_digest"]
    del doc["schema_version"]  # oldest files carry only "version"
    path.write_text(json.dumps(doc))
    assert LookupTable.load(path).entries == table.entries


def test_config_to_dict_is_public_and_seedless():
    cfg = HanConfig(fs=64 * KiB, imod="adapt", ibalg="chain", seed=7)
    d = cfg.to_dict()
    assert "seed" not in d
    assert HanConfig(**d) == cfg  # seed excluded from equality
