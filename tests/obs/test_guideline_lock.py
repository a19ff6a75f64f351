"""Pin what the guideline catalog produces, byte for byte.

Served verdicts and measured-run insights judge the same relations
(``allreduce <= reduce + bcast``, ``bcast <= scatter + allgather``,
monotone time in message size).  This lock freezes their documents as
canonical JSON against a committed fixture:

- every serve-time validation scenario (integrity, finite time,
  monotone neighbours, composition), as ``Verdict.to_doc()``;
- one ``decide_batch`` over a small hand-built decision store (exact,
  nearest, interpolated and default answers, plus one strict refusal),
  as ``Decision.to_doc()``;
- ``guideline_insights`` and ``run_insights`` over fixed time tables;
- ``InsightEngine.guidelines()`` and the ``fleet_report`` findings over
  a crafted run store holding a warn dip, an error dip and a broken
  composition.

Every time in it is positive and finite.  Each document is one case,
``<part>/<name>`` or ``<part>/<list>/<index>``.  Nothing here simulates,
so all documents are made once per process, in about two seconds.
"""

from __future__ import annotations

import functools
import json
import tempfile
from pathlib import Path

import pytest

from tests import locks

KiB, MiB = 1024, 1024 * 1024


def _canon(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


# -- serve-time validation scenarios ------------------------------------------------


def _record(coll="bcast", nbytes=64 * KiB, expected_time=1e-4):
    from repro.core.config import HanConfig
    from repro.hardware import tiny_cluster
    from repro.serve.store import decision_record

    return decision_record(tiny_cluster(), coll, nbytes,
                           HanConfig(fs=64 * KiB),
                           expected_time=expected_time, wall_time=1.0)


def serve_scenarios() -> dict:
    """``name -> (answer, neighbors, composition_times)``."""
    from repro.obs.severity import ERROR_REL_EXCESS

    tampered = _record()
    tampered["config_digest"] = "0" * 64
    undecodable = _record()
    undecodable["config"]["imod"] = "not-a-module"
    allreduce = _record("allreduce", expected_time=5e-4)
    out = {
        "clean": (_record(), (), None),
        "tampered digest": (tampered, (), None),
        "undecodable config": (undecodable, (), None),
        "missing time": (_record(expected_time=None), (), None),
        "dip below smaller": (
            _record(nbytes=256 * KiB, expected_time=1e-4),
            (_record(nbytes=64 * KiB, expected_time=2e-4),), None),
        "small dip warns": (
            _record(nbytes=256 * KiB,
                    expected_time=1e-4 * (1.0 - ERROR_REL_EXCESS / 2)),
            (_record(nbytes=64 * KiB, expected_time=1e-4),), None),
        "above larger": (
            _record(nbytes=256 * KiB, expected_time=4e-4),
            (_record(nbytes=1 * MiB, expected_time=3e-4),), None),
        "consistent neighbors": (
            _record(nbytes=256 * KiB, expected_time=4e-4),
            (_record(nbytes=64 * KiB, expected_time=1e-4),
             _record(nbytes=1 * MiB, expected_time=1.6e-3)), None),
        "composition broken": (
            allreduce, (), {"reduce": 1e-4, "bcast": 1e-4}),
        "composition holds": (
            allreduce, (), {"reduce": 3e-4, "bcast": 3e-4}),
        "composition operand missing": (
            allreduce, (), {"reduce": 1e-4, "bcast": None}),
        "bcast composition warns": (
            _record(expected_time=2.1e-4), (),
            {"scatter": 1e-4, "allgather": 1e-4}),
    }
    for t in (0.0, -1e-4, float("inf"), float("nan")):
        out[f"served time {t!r}"] = (_record(expected_time=t), (), None)
    return out


def run_serve_scenarios() -> dict:
    from repro.serve import validate_decision

    return {
        name: _canon(validate_decision(
            answer, neighbors=neighbors,
            composition_times=comp).to_doc())
        for name, (answer, neighbors, comp) in serve_scenarios().items()
    }


# -- one decide_batch over a hand-built store ---------------------------------------


def run_decide_batch() -> list:
    from repro.core.config import HanConfig
    from repro.hardware import tiny_cluster
    from repro.serve import DecisionService, DecisionStore, Query

    machine = tiny_cluster(num_nodes=2, ppn=2)
    store = DecisionStore()

    def put(coll, nbytes, fs, t):
        store.put_decision(machine, coll, nbytes, HanConfig(fs=fs),
                           expected_time=t, wall_time=1.0)

    # bcast: 1 MiB dips below 256 KiB (error), 4 MiB sits fine
    for nbytes, t in ((64 * KiB, 1e-4), (256 * KiB, 4e-4),
                      (1 * MiB, 3e-4), (4 * MiB, 6.4e-3)):
        put("bcast", nbytes, 64 * KiB, t)
    # allreduce at 64 KiB breaks reduce + bcast; 256 KiB holds
    for nbytes, t in ((64 * KiB, 5e-4), (256 * KiB, 6e-4)):
        put("allreduce", nbytes, 128 * KiB, t)
    for nbytes, t in ((64 * KiB, 1e-4), (256 * KiB, 4e-4)):
        put("reduce", nbytes, 64 * KiB, t)
    # scatter: a warn-grade dip (4%) between two samples
    put("scatter", 64 * KiB, 64 * KiB, 2e-4)
    put("scatter", 1 * MiB, 64 * KiB, 1.92e-4)

    queries = [
        Query("bcast", 64 * KiB, machine=machine),           # exact
        Query("bcast", 1 * MiB, machine=machine),            # exact, dip
        Query("bcast", 512 * KiB, machine=machine),          # interpolated
        Query("bcast", 16 * MiB, machine=machine),           # nearest
        Query("bcast", 64 * KiB, machine=tiny_cluster(num_nodes=4,
                                                      ppn=2)),  # nearest
        Query("allreduce", 64 * KiB, machine=machine),       # composition
        Query("allreduce", 256 * KiB, machine=machine),
        Query("scatter", 1 * MiB, machine=machine),          # warn
        Query("gather", 64 * KiB, machine=machine),          # default
    ]
    lenient = DecisionService(store).decide_batch(queries)
    strict = DecisionService(store, strict=True).decide_batch(
        [Query("bcast", 1 * MiB, machine=machine)])
    return [_canon(d.to_doc()) for d in lenient + strict]


# -- measured-run insights ----------------------------------------------------------


TABLES = {
    "consistent": {
        ("bcast", 64 * KiB): 1e-4, ("bcast", 1 * MiB): 1e-3,
        ("reduce", 64 * KiB): 2e-4, ("reduce", 1 * MiB): 2e-3,
        ("allreduce", 64 * KiB): 2.5e-4, ("allreduce", 1 * MiB): 2.5e-3,
        ("scatter", 64 * KiB): 1e-4, ("scatter", 1 * MiB): 1e-3,
        ("allgather", 64 * KiB): 3e-4, ("allgather", 1 * MiB): 3e-3,
    },
    "broken": {
        ("bcast", 64 * KiB): 1e-4, ("bcast", 1 * MiB): 8e-5,
        ("bcast", 4 * MiB): 7.8e-5,
        ("reduce", 64 * KiB): 1e-4, ("reduce", 1 * MiB): 1e-3,
        ("allreduce", 64 * KiB): 2.16e-4, ("allreduce", 1 * MiB): 5e-3,
        ("scatter", 1 * MiB): 2e-5, ("allgather", 1 * MiB): 3e-5,
        ("gather", 64 * KiB): 4e-4, ("gather", 1 * MiB): 3.85e-4,
        ("gather", 4 * MiB): 4e-3,
    },
}


def _gauges(cpu, finish):
    return {"gauges": [
        {"name": "straggler.cpu_skew", "labels": [], "value": cpu},
        {"name": "straggler.finish_skew", "labels": [], "value": finish},
    ]}


def run_measured_insights() -> dict:
    from repro.obs.insights import guideline_insights, run_insights

    out = {name: [_canon(i.to_doc()) for i in guideline_insights(times)]
           for name, times in TABLES.items()}
    broken = TABLES["broken"]
    workload = {
        "han_times": broken,
        "rival_times": {
            ("bcast", 1 * MiB): {"openmpi": 5e-5},
            ("allreduce", 1 * MiB): {"openmpi": 1e-3},
            ("gather", 64 * KiB): {"openmpi": 5e-4},
        },
        "metrics": {
            ("bcast", 1 * MiB): _gauges(3.5, 1.01),
            ("reduce", 1 * MiB): _gauges(1.2, 1.0),
        },
    }
    out["run_insights"] = [_canon(i.to_doc())
                           for i in run_insights(workload)]
    return out


# -- the run-store engine and fleet findings ----------------------------------------


def _seed_store(store) -> None:
    from repro.hardware.machines import MACHINE_PRESETS
    from repro.obs.store import summarize_point

    wall = 0
    for preset, scale in (("shaheen2", 1.0), ("tiny_cluster", 1.5)):
        m = MACHINE_PRESETS[preset](num_nodes=2, ppn=2)
        rows = [
            ("bcast", 64 * KiB, 1e-4), ("bcast", 1 * MiB, 9.7e-5),  # warn
            ("bcast", 4 * MiB, 4e-4),
            ("reduce", 64 * KiB, 1e-4), ("reduce", 1 * MiB, 5e-4),
            ("allreduce", 64 * KiB, 1.9e-4),
            ("allreduce", 1 * MiB, 2e-3),  # breaks reduce + bcast
            ("gather", 64 * KiB, 3e-4), ("gather", 1 * MiB, 1e-4),  # error
        ]
        for coll, nbytes, t in rows:
            for rep in (0, 1):  # two runs per group: regression history
                doc = summarize_point(m, coll, nbytes, t * scale,
                                      source="lock")
                doc["wall_time"] = float(wall)
                wall += 1
                store.append(doc)
        if preset == "shaheen2":  # a later, slower run: a regression
            doc = summarize_point(m, "reduce", 1 * MiB, 2e-3, source="lock")
            doc["wall_time"] = float(wall)
            wall += 1
            store.append(doc)


def run_fleet(tmp_dir: Path) -> dict:
    from repro.obs.fleet import fleet_report
    from repro.obs.insights import InsightEngine
    from repro.obs.store import RunStore

    store = RunStore(tmp_dir / "runs")
    _seed_store(store)
    engine = InsightEngine()
    engine.ingest_store(store)
    report = fleet_report([RunStore(tmp_dir / "runs")])
    return {
        "guidelines": [_canon(i.to_doc()) for i in engine.guidelines()],
        "findings": [_canon(f) for f in report["findings"]],
    }


@functools.cache
def documents() -> dict:
    """Case id -> canonical JSON document, for every part of the lock."""
    out = {f"serve/{name}": doc for name, doc in run_serve_scenarios().items()}
    out.update((f"decide_batch/{i}", doc)
               for i, doc in enumerate(run_decide_batch()))
    with tempfile.TemporaryDirectory() as tmp:
        lists = {"insights": run_measured_insights(),
                 "fleet": run_fleet(Path(tmp))}
    for part, docs in lists.items():
        for name, items in docs.items():
            out.update((f"{part}/{name}/{i}", doc)
                       for i, doc in enumerate(items))
    return out


def cases() -> list[str]:
    return list(documents())


def run_case(key: str) -> str:
    return documents()[key]


# -- the tests ----------------------------------------------------------------------


def _pinned(part: str) -> list:
    """The documents of ``part`` in the fixture, in case order."""
    docs = locks.fixture("guideline")
    return [json.loads(docs[key]) for key in cases()
            if key.startswith(part + "/")]


@pytest.mark.parametrize("part", ("serve", "decide_batch", "insights",
                                  "fleet"))
def test_documents_are_pinned(part):
    locks.check("guideline", part + "/")


def test_decide_batch_covers_every_provenance():
    docs = _pinned("decide_batch")
    assert len(docs) == 10
    assert {d["provenance"] for d in docs} == {
        "exact", "nearest", "interpolated", "default"}
    assert sum(d["refused"] for d in docs) == 1
    grades = {c["severity"] for d in docs for c in d["verdict"]["checks"]}
    assert grades == {"ok", "warn", "error"}


def test_fleet_findings_cover_warn_error_and_composition():
    findings = _pinned("fleet/findings")
    grades = {f["grade"] for f in findings if f["kind"] == "guideline"}
    assert grades == {"warn", "error"}
    assert any(f["name"].startswith("allreduce<= reduce+bcast @1M")
               for f in findings)
