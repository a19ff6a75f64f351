"""A long-lived DecisionService answers like a fresh one after any store change.

The service re-indexes each changed point in place and drops only the
verdicts that read it; a fresh service over the same store derives
everything from scratch.  After every seeded mutation -- a new config
or a rescaled time at an existing point, a losing older record, a new
size or geometry, an operand put under a served composite, ``compact``
and ``refresh`` -- both must serve byte-identical documents.  A second
run does the same over commsizes below, above, between and on the
stored geometries, unknown bands, and shards that serve defaults until
their first record; a third puts records into bands that were unknown
when first queried, also after the service dropped its empty indexes;
a seeded property test holds the bisect geometry scan to a scan of
every geometry.
"""

import json
import random
from math import log2

from repro.core.config import HanConfig
from repro.hardware import shaheen2, small_cluster, stampede2, tiny_cluster
from repro.serve import service as service_mod
from repro.serve.service import _EPS, DecisionService, Query, _ShardIndex
from repro.serve.store import DecisionStore, band_digest

KiB = 1024

COLLS = ("allreduce", "reduce", "bcast", "scatter", "allgather")
CONFIGS = [HanConfig(fs=fs) for fs in (None, 16 * KiB, 64 * KiB, 256 * KiB)]
GEOMS = [(2, 2), (4, 2), (2, 4), (8, 2)]
SIZES = [float(2 ** k) * KiB for k in (2, 4, 6, 8)]
MUTATIONS = 200


def _time(coll: str, nbytes: float, scale: float) -> float:
    unit = {"allreduce": 2.0, "bcast": 1.0, "reduce": 1.1,
            "scatter": 0.6, "allgather": 0.7}[coll]
    return (2e-6 + nbytes / 5e9) * unit * scale


def _docs(svc: DecisionService, queries) -> list[str]:
    return [json.dumps(d.to_doc(), sort_keys=True)
            for d in svc.decide_batch(queries)]


def _assert_fresh(svc: DecisionService, store: DecisionStore, queries,
                  why) -> None:
    got, want = _docs(svc, queries), _docs(DecisionService(store), queries)
    bad = [i for i, (a, b) in enumerate(zip(got, want)) if a != b]
    assert not bad, (why, queries[bad[0]], got[bad[0]], want[bad[0]])


def _queries(machine, band: str, rng: random.Random) -> list[Query]:
    out = []
    for coll in COLLS:
        for n, p in GEOMS + [(16, 2)]:
            for m in SIZES + [3 * KiB, 1024 * KiB]:
                out.append(Query(coll, m, commsize=n * p, band=band))
        out.append(Query(coll, rng.choice(SIZES), machine=machine))
    return out


def test_incremental_service_matches_a_fresh_one(tmp_path):
    rng = random.Random(36)
    machine = tiny_cluster(num_nodes=2, ppn=2)
    band = band_digest(machine)
    store = DecisionStore(tmp_path / "decisions")
    # another process's writer: only a reload shows its lines
    other = DecisionStore(tmp_path / "decisions")
    clock = [1.0e9]
    # (coll, n, p, nbytes) -> wall_time of the stored winner
    points: dict[tuple, float] = {}

    def put(coll, n, p, m, config, t, wall=None, writer=store):
        if wall is None:
            clock[0] += 1.0
            wall = clock[0]
        writer.put_decision(machine, coll, m, config, expected_time=t,
                            n=n, p=p, wall_time=wall)
        key = (coll, n, p, m)
        points[key] = max(points.get(key, 0.0), wall)

    # bcast's operands start unstored: their shards fill up under a
    # service that has served them as defaults
    for coll in COLLS[:3]:
        for n, p in GEOMS[:2]:
            for m in SIZES[:3]:
                put(coll, n, p, m, rng.choice(CONFIGS),
                    _time(coll, m, rng.uniform(0.8, 1.2)))
    queries = _queries(machine, band, rng)
    svc = DecisionService(store)
    _assert_fresh(svc, store, queries, "before any mutation")

    kinds = ("config", "rescale", "losing", "size", "geometry", "operand",
             "compact", "refresh")
    seen = set()
    for step in range(MUTATIONS):
        kind = kinds[step % len(kinds)] if step < 2 * len(kinds) \
            else rng.choice(kinds)
        seen.add(kind)
        coll, n, p, m = rng.choice(sorted(points))
        if kind == "config":
            put(coll, n, p, m, rng.choice(CONFIGS),
                store.get(band, coll, n, p, m)["expected_time"])
        elif kind == "rescale":
            rec = store.get(band, coll, n, p, m)
            put(coll, n, p, m, HanConfig(**rec["config"]),
                rec["expected_time"] * rng.choice((0.3, 0.9, 1.1, 4.0)))
        elif kind == "losing":
            put(coll, n, p, m, rng.choice(CONFIGS), _time(coll, m, 9.0),
                wall=points[(coll, n, p, m)] - 0.5)
        elif kind == "size":
            put(coll, n, p, rng.choice(SIZES), rng.choice(CONFIGS),
                _time(coll, m, rng.uniform(0.5, 2.0)))
        elif kind == "geometry":
            n, p = rng.choice(GEOMS)
            put(coll, n, p, rng.choice(SIZES), rng.choice(CONFIGS),
                _time(coll, m, rng.uniform(0.5, 2.0)))
        elif kind == "operand":
            # an operand under a served composite: its bound moves
            served = [k for k in sorted(points)
                      if k[0] in ("allreduce", "bcast")]
            parent, n, p, m = rng.choice(served)
            op = {"allreduce": ("reduce", "bcast"),
                  "bcast": ("scatter", "allgather")}[parent]
            put(rng.choice(op), n, p, m, rng.choice(CONFIGS),
                _time(parent, m, rng.choice((0.2, 0.6, 1.0))))
        else:
            put(coll, n, p, m, rng.choice(CONFIGS),
                _time(coll, m, rng.uniform(0.5, 2.0)), writer=other)
            if kind == "compact":
                store.compact()
            else:
                store.refresh()
        _assert_fresh(svc, store, queries, (step, kind))
    assert seen == set(kinds)


#: commsizes 2, 4, 8 (twice), 16, 64: ties on one commsize, gaps with an
#: exact log2 midpoint (8 between 4 and 16 until 8 is stored, 32 between
#: 16 and 64) and room below and above
SCAN_GEOMS = [(2, 2), (8, 2), (4, 2), (2, 4), (1, 2), (16, 4)]
SCAN_COMMSIZES = (1, 2, 3, 4, 5, 6, 8, 10, 12, 16, 24, 32, 48, 64, 128, 4096)


def test_incremental_geometry_scan_and_defaults_match_a_fresh_service(
        tmp_path):
    rng = random.Random(37)
    machine = tiny_cluster(num_nodes=2, ppn=2)
    band = band_digest(machine)
    store = DecisionStore(tmp_path / "decisions")
    clock = [1.0e9]
    stored: dict[str, set] = {coll: set() for coll in COLLS}

    def put(coll, n, p, m):
        clock[0] += 1.0
        store.put_decision(machine, coll, m, rng.choice(CONFIGS),
                           expected_time=_time(coll, m, rng.uniform(0.8, 1.2)),
                           n=n, p=p, wall_time=clock[0])
        stored[coll].add((n, p))

    # two geometries, commsizes 4 and 16, in two collectives: the rest
    # serve defaults until a mutation gives them their first record
    for coll in COLLS[:2]:
        for n, p in SCAN_GEOMS[:2]:
            for m in SIZES[::2]:
                put(coll, n, p, m)
    queries = [Query(coll, m, commsize=c, band=band)
               for coll in COLLS for c in SCAN_COMMSIZES
               for m in (SIZES[0], SIZES[1], 1024 * KiB)]
    # bands with no shard at all: always defaults
    queries += [Query(coll, m, commsize=c, band=b)
                for b in ("0" * 64, "1" * 64) for coll in COLLS
                for c in (1, 4, 64) for m in (0.0, 64 * KiB, 8192 * KiB)]
    svc = DecisionService(store)
    _assert_fresh(svc, store, queries, "before any mutation")

    kinds = ("first", "geometry", "size", "first", "geometry", "compact")
    served = set()
    for step in range(36):
        kind = kinds[step % len(kinds)]
        empty = [c for c in COLLS if not stored[c]]
        if kind == "first" and empty:
            # the first record of a (band, coll) that was serving defaults
            put(empty[0], *rng.choice(SCAN_GEOMS), rng.choice(SIZES))
        elif kind == "geometry":
            coll = rng.choice([c for c in COLLS if stored[c]])
            fresh = [g for g in SCAN_GEOMS if g not in stored[coll]]
            put(coll, *(fresh or SCAN_GEOMS)[0], rng.choice(SIZES))
        elif kind == "compact":
            store.compact()
        else:
            coll = rng.choice([c for c in COLLS if stored[c]])
            put(coll, *rng.choice(sorted(stored[coll])), rng.choice(SIZES))
        _assert_fresh(svc, store, queries, (step, kind))
        served |= {d.provenance for d in svc.decide_batch(queries)}
    assert all(stored.values())
    assert served == {"exact", "nearest", "interpolated", "default"}


def test_puts_into_once_unknown_bands_are_served(tmp_path, monkeypatch):
    """A band first queried with nothing stored serves defaults; its
    first records are then answered from, and a composite's verdict that
    read an operand shard as empty is re-derived once the operand is
    stored -- also after a flood of unknown bands made the service drop
    its empty indexes."""
    # room for the 11 empty shards the queries name, not for the flood
    monkeypatch.setattr(service_mod, "_EMPTY_INDEXES_MAX", 16)
    machines = [tiny_cluster(num_nodes=2, ppn=2), small_cluster(),
                shaheen2(), stampede2()]
    bands = [band_digest(m) for m in machines]
    store = DecisionStore(tmp_path / "decisions")
    clock = [1.0e9]

    def put(b, coll, m, scale=1.0):
        clock[0] += 1.0
        store.put_decision(machines[b], coll, m, CONFIGS[b],
                           expected_time=_time(coll, m, scale),
                           n=2, p=2, wall_time=clock[0])

    # allreduce is stored in band 0, its operands nowhere yet
    for m in SIZES:
        put(0, "allreduce", m)
    queries = [Query(coll, m, commsize=4, band=b) for b in bands
               for coll in ("allreduce", "reduce", "bcast") for m in SIZES]
    svc = DecisionService(store)
    _assert_fresh(svc, store, queries, "before any put")
    flood = [Query("bcast", 64.0, commsize=4, band=f"{i:064x}")
             for i in range(20)]
    for step, (b, coll, scale) in enumerate([
        (1, "allreduce", 1.0), (0, "reduce", 0.2), (2, "bcast", 1.0),
        (0, "bcast", 0.2), (3, "reduce", 1.0),
    ]):
        if step % 2:
            svc.decide_batch(flood)  # drops the empty indexes, twice over
        for m in SIZES:
            put(b, coll, m, scale)
        _assert_fresh(svc, store, queries, (step, b, coll))
        docs = svc.decide_batch(
            [Query(coll, m, commsize=4, band=bands[b]) for m in SIZES])
        assert {d.provenance for d in docs} == {"exact"}
        assert [d.config for d in docs] == [CONFIGS[b]] * len(SIZES)


def test_bisect_geometry_scan_matches_a_linear_scan():
    """Seeded property: the bisect scan keeps exactly the geometries and
    the distance that a scan of every geometry keeps, duplicates of one
    commsize included."""
    rng = random.Random(3737)
    for _trial in range(300):
        idx = _ShardIndex(())
        geoms = {(rng.randint(1, 16), rng.choice((1, 2, 3, 4, 6, 8)))
                 for _ in range(rng.randint(1, 12))}
        for n, p in rng.sample(sorted(geoms), len(geoms)):
            idx.add({"n": n, "p": p, "nbytes": 64.0})
            for c in (1, 2, 3, 7, 12, 24, 48, 100, rng.randint(1, 200)):
                lc = log2(c)
                best = min(abs(log2(g) - lc) for g, _n, _p in idx.geoms)
                want = [(n, p) for g, n, p in idx.geoms
                        if abs(log2(g) - lc) <= best + _EPS]
                assert idx.nearest_geoms(c) == (want, best), (c, idx.geoms)
