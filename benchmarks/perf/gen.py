"""Seeded input generators for the two store workloads.

Generators return plain JSON-able data and import nothing from the
program, so "same seed, same inputs" is a byte comparison of
``json.dumps`` and the program only ever receives generated inputs.  The
amount of work (records, queries, rounds) depends on the size table
alone, never on the seed; the seed picks values, orders and which
points carry the planted findings.
"""

from __future__ import annotations

import hashlib
import random

__all__ = ["SERVE_FULL", "SERVE_QUICK", "STORE_FULL", "STORE_QUICK",
           "serve_inputs", "store_inputs"]

KiB = 1024

#: relative cost of one collective in the synthetic time model; chosen so
#: allreduce <= reduce + bcast and bcast <= scatter + allgather hold with
#: a wide margin and every clean input is free of guideline findings
COLL_UNIT = {"bcast": 1.0, "reduce": 1.1, "allreduce": 1.6,
             "scatter": 0.7, "gather": 0.75, "allgather": 0.7}

#: (nodes, ppn) job shapes; commsizes are distinct so a query that names
#: only a commsize resolves to one geometry
GEOMETRIES = ((2, 4), (4, 4), (4, 8), (8, 8), (16, 8), (16, 16))

#: HanConfig field dicts the planted decisions draw from
CONFIG_POOL = tuple(
    {"fs": float(fs), "imod": "adapt", "smod": smod,
     "ibalg": alg, "iralg": alg}
    for fs in (128 * KiB, 512 * KiB, 1024 * KiB)
    for smod in ("sm", "solo")
    for alg in ("chain", "binomial")
)

SERVE_FULL = {
    "variants": 4, "colls": ("bcast", "reduce", "allreduce", "allgather"),
    "geometries": 6, "sizes": 16, "pool": 40_000,
    "read_batches": 100, "read_batch": 2_000,
    "churn_rounds": 40, "churn_batch": 1_000,
}
SERVE_QUICK = {
    "variants": 1, "colls": ("bcast", "reduce", "allreduce"),
    "geometries": 3, "sizes": 8, "pool": 2_000,
    "read_batches": 8, "read_batch": 500,
    "churn_rounds": 4, "churn_batch": 250,
}
STORE_FULL = {"sizes": 12, "configs": 3, "history": 12, "follow_every": 500,
              "presets": 5}
STORE_QUICK = {"sizes": 4, "configs": 1, "history": 6, "follow_every": 50,
               "presets": 2}


def _time_model(coll: str, nbytes: float, scale: float) -> float:
    return (2e-6 + nbytes / 5e9) * COLL_UNIT[coll] * scale


def serve_inputs(seed: int, presets: list[str], size: dict) -> dict:
    """Decisions, a query pool and churn writes for ``serve_mixed``.

    ``bands`` are ``[preset, variant]`` pairs (the workload derives one
    hardware band from each).  ``records`` rows are ``[band, coll, n, p,
    nbytes, config index, expected_time, wall_time]``.  ``queries`` rows
    are ``[kind, band or -1, coll, n, p, nbytes]`` with ``kind`` the
    provenance the service must answer with; ``unknown_bands`` are the
    digests the ``default`` queries name.  ``churn`` rows are indexes
    into ``records``: each round re-appends that decision unchanged with
    a newer ``wall_time``, so every index is dropped while the oracle
    stays valid.
    """
    rng = random.Random(f"serve-{seed}")
    bands = [[p, v] for p in presets for v in range(size["variants"])]
    geoms = GEOMETRIES[:size["geometries"]]
    sizes = [float(2 ** (10 + k)) for k in range(size["sizes"])]
    records = []
    for b in range(len(bands)):
        scale_b = rng.uniform(0.8, 1.2)
        for coll in size["colls"]:
            for g, (n, p) in enumerate(geoms):
                for nbytes in sizes:
                    records.append([
                        b, coll, n, p, nbytes,
                        rng.randrange(len(CONFIG_POOL)),
                        _time_model(coll, nbytes, scale_b * (1 + 0.15 * g)),
                        1.7e9 + len(records),
                    ])
    unknown = [hashlib.sha256(f"unknown-{seed}-{i}".encode()).hexdigest()
               for i in range(8)]
    queries = []
    for i in range(size["pool"]):
        kind = ("exact", "interpolated", "nearest", "default")[i % 4]
        b = rng.randrange(len(bands))
        coll = rng.choice(size["colls"])
        n, p = rng.choice(geoms)
        if kind == "exact":
            nbytes = rng.choice(sizes)
        elif kind == "interpolated":
            nbytes = rng.choice(sizes[:-1]) * rng.uniform(1.1, 1.9)
        elif kind == "nearest":  # outside the sampled range, either end
            shift = 2.0 ** rng.randint(1, 8)
            nbytes = sizes[-1] * shift if rng.random() < 0.5 \
                else sizes[0] / shift
        else:
            b = -1 - rng.randrange(len(unknown))
            nbytes = rng.choice(sizes)
        queries.append([kind, b, coll, n, p, nbytes])
    rng.shuffle(queries)
    churn = [rng.randrange(len(records)) for _ in range(size["churn_rounds"])]
    return {"bands": bands, "records": records, "queries": queries,
            "unknown_bands": unknown, "churn": churn}


def store_inputs(seed: int, presets: list[str], size: dict) -> dict:
    """Run summaries with planted findings for ``store_cycle``.

    ``points`` rows are ``[preset, coll, nbytes, config index]``, one per
    run-store group.  ``runs`` rows are ``[point, time, wall_time]`` in
    append order (shuffled).  Three groups end on a run 1.3x slower than
    their history (``regressions``: point indexes) and on one preset
    every allreduce run at the largest size costs 1.25x reduce + bcast
    (``violation``: ``[preset, nbytes]``).  Plants sit at the largest
    size on collectives whose slowdown cannot break another guideline,
    so exactly these four findings are expected and no other.
    """
    rng = random.Random(f"store-{seed}")
    presets = presets[:size["presets"]]
    colls = tuple(COLL_UNIT)
    sizes = [float(2 ** (10 + k)) for k in range(size["sizes"])]
    largest = sizes[-1]
    bad_preset = rng.choice(presets)
    points = [[preset, coll, nbytes, c]
              for preset in presets for coll in colls
              for nbytes in sizes for c in range(size["configs"])]
    candidates = [i for i, (_m, coll, nbytes, _c) in enumerate(points)
                  if nbytes == largest and coll in ("gather", "scatter")]
    regressions = sorted(rng.sample(candidates, 3))
    runs = []
    for i, (preset, coll, nbytes, c) in enumerate(points):
        scale = (1 + 0.1 * presets.index(preset)) * (1 + 0.005 * c)
        base = _time_model(coll, nbytes, scale)
        if coll == "allreduce" and nbytes == largest and preset == bad_preset:
            base = 1.25 * (_time_model("reduce", nbytes, scale)
                           + _time_model("bcast", nbytes, scale))
        for h in range(size["history"]):
            t = base * (1 + rng.uniform(-0.002, 0.002))
            if h == size["history"] - 1 and i in regressions:
                t = base * 1.3
            runs.append([i, t, 1.7e9 + 1000.0 * h + rng.random()])
    rng.shuffle(runs)
    return {"points": points, "runs": runs, "regressions": regressions,
            "violation": [bad_preset, largest]}
