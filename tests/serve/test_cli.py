"""serve CLI: warm -> serve -> merge round trips and exit codes."""

import json

import pytest

from repro.core.config import HanConfig
from repro.serve.cli import main
from repro.serve.store import DecisionStore, band_digest, decision_record
from repro.serve.warm import parse_fleet

KiB = 1024

FLEET = "tiny_cluster:2x2"


def _warm(tmp_path, name="ds", fleet=FLEET):
    store = tmp_path / name
    assert main(["warm", "--fleet", fleet, "--colls", "bcast",
                 "--space", "quick", "--store", str(store)]) == 0
    return store


def test_parse_fleet():
    (a, b) = parse_fleet("tiny_cluster, shaheen2:4x8")
    assert (a.name, a.num_nodes, a.ppn) == ("tiny_cluster", 2, 2)
    assert (b.name, b.num_nodes, b.ppn) == ("shaheen2", 4, 8)
    with pytest.raises(ValueError):
        parse_fleet("no_such_preset")
    with pytest.raises(ValueError):
        parse_fleet("tiny_cluster:2by2")


def test_warm_then_serve_round_trip(tmp_path):
    store = _warm(tmp_path)
    machine = parse_fleet(FLEET)[0]
    band = band_digest(machine)
    recs = DecisionStore(store).records(band, "bcast")
    assert recs
    queries = tmp_path / "q.json"
    queries.write_text(json.dumps([
        {"coll": "bcast", "nbytes": recs[0]["nbytes"], "machine": FLEET},
        {"coll": "bcast", "nbytes": "1GB", "band": band, "commsize": 4},
    ]))
    out = tmp_path / "decisions.json"
    assert main(["serve", "--store", str(store), "--queries", str(queries),
                 "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["queries"] == 2
    assert doc["decisions"][0]["provenance"] == "exact"
    assert doc["decisions"][0]["config"] == recs[0]["config"]
    assert doc["decisions"][1]["provenance"] == "nearest"
    assert all(d["verdict"]["ok"] for d in doc["decisions"])


def test_serve_no_queries_exits_2(tmp_path):
    store = _warm(tmp_path)
    empty = tmp_path / "empty.json"
    empty.write_text("")
    assert main(["serve", "--store", str(store),
                 "--queries", str(empty)]) == 2


@pytest.mark.parametrize("text, where", [
    # JSONL: the bad query's line, blank lines counted
    ('{"coll": "bcast", "nbytes": 64, "machine": "tiny_cluster:2x2"}\n\n'
     '{"coll": "bcast", "nbytes": NaN, "machine": "tiny_cluster:2x2"}\n',
     "line 3: query nbytes must be a finite number >= 0, got nan"),
    ('[{"coll": "bcast", "nbytes": 64, "commsize": 4, "band": "ab"},'
     ' {"coll": "bcast", "nbytes": 64, "commsize": 16.5, "band": "ab"}]',
     "query 2: query commsize must be a positive integer, got 16.5"),
    ('{"coll": "bcast", "nbytes": -5.0, "commsize": 4, "band": "ab"}\n',
     "line 1: query nbytes must be a finite number >= 0, got -5.0"),
    ('{"coll": "bcast", "nbytes": 64, "commsize": 4, "band": "ab"}\n'
     '{"nbytes": 64, "commsize": 4, "band": "ab"}\n',
     "line 2: missing field 'coll'"),
    ('{"coll": "bcast", "nbytes": 64, "commsize": 4, "band": "ab"}\n'
     '{"coll": "bcast", "nbytes": 64,\n',
     "line 2: Expecting"),
    # a machine whose hardware band cannot be built (gpu_pod's two
    # fabric islands do not divide a one-rank band)
    ('{"coll": "bcast", "nbytes": 64, "machine": "gpu_pod:2x8"}\n',
     "line 1: query machine 'gpu_pod' has no hardware band: ppn=1"),
])
def test_serve_reports_a_bad_query_and_exits_2(tmp_path, capsys, text,
                                               where):
    queries = tmp_path / "q.jsonl"
    queries.write_text(text)
    assert main(["serve", "--store", str(tmp_path / "ds"),
                 "--queries", str(queries)]) == 2
    out, err = capsys.readouterr()
    assert f"bad query in {queries}: {where}" in err
    assert "Traceback" not in err and "served" not in out


def test_strict_refusal_exits_3(tmp_path):
    machine = parse_fleet(FLEET)[0]
    rec = decision_record(machine, "bcast", 64 * KiB,
                          HanConfig(fs=64 * KiB), expected_time=1e-4)
    rec["config_digest"] = "0" * 64
    store = DecisionStore(tmp_path / "bad")
    store.append(rec)
    queries = tmp_path / "q.json"
    queries.write_text(json.dumps(
        [{"coll": "bcast", "nbytes": 64 * KiB, "machine": FLEET}]))
    args = ["--store", str(tmp_path / "bad"), "--queries", str(queries)]
    assert main(["serve"] + args) == 0  # flagged but served
    assert main(["serve", "--strict"] + args) == 3  # refused


def test_merge_unions_shards_across_presets(tmp_path):
    # two machine presets -> two bands; plus a second shape of the
    # first preset contesting the same band
    a = _warm(tmp_path, "a", fleet="tiny_cluster:2x2,small_cluster:2x2")
    b = _warm(tmp_path, "b", fleet="tiny_cluster:2x4")
    merged = tmp_path / "merged"
    assert main(["merge", "--into", str(merged), str(a), str(b),
                 "--compact"]) == 0
    union_store = DecisionStore(tmp_path / "union")
    union_store.merge_from(DecisionStore(a))
    union_store.merge_from(DecisionStore(b))
    got = DecisionStore(merged)
    assert sorted(got.bands()) == sorted(union_store.bands())
    assert len(got.bands()) == 2
    # post-merge query results equal the pre-merge union: every stored
    # point of either source answers identically from the merged store
    from repro.serve.service import DecisionService, Query

    svc, ref = DecisionService(got), DecisionService(union_store)
    for band in union_store.bands():
        for coll in union_store.colls(band):
            for rec in union_store.records(band, coll):
                q = Query(coll, rec["nbytes"], commsize=rec["commsize"],
                          band=band)
                d, e = svc.decide(q), ref.decide(q)
                assert (d.config, d.provenance, d.expected_time,
                        d.source_key) == (e.config, e.provenance,
                                          e.expected_time, e.source_key)
