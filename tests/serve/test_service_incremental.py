"""A long-lived DecisionService answers like a fresh one after any store change.

The service re-indexes each changed point in place and drops only the
verdicts that read it; a fresh service over the same store derives
everything from scratch.  After every seeded mutation -- a new config
or a rescaled time at an existing point, a losing older record, a new
size or geometry, an operand put under a served composite, ``compact``
and ``refresh`` -- both must serve byte-identical documents.
"""

import json
import random

from repro.core.config import HanConfig
from repro.hardware import tiny_cluster
from repro.serve.service import DecisionService, Query
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
