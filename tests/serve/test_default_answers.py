"""Default answers are shared, not rebuilt per query.

``HanModule.default_config`` hands out one of four frozen configs and
an empty shard index keeps its default verdict, so serving defaults
builds no ``HanConfig`` at all -- and every answer is byte-identical to
the per-call construction it replaced.  The empty indexes a service
keeps are bounded, so ever new unknown bands cannot grow it.
"""

import json

import pytest

from repro.core.config import HanConfig
from repro.core.han import HanModule
from repro.obs.insights import make_insight
from repro.serve import service as service_mod
from repro.serve.service import Decision, DecisionService, Query, verdict_from
from repro.serve.store import DecisionStore

KiB = 1024
MiB = 1024 * KiB

#: the default-size thresholds, with a byte either side of each
EDGES = [m + d for m in (64 * KiB, 512 * KiB, 4 * MiB) for d in (-1, 0, 1)]


def _built_per_call(nbytes: float) -> HanConfig:
    """The default config as it was built anew on every call."""
    if nbytes <= 64 * 1024:
        return HanConfig(fs=None, imod="libnbc", smod="sm")
    if nbytes <= 4 * 1024 * 1024:
        return HanConfig(
            fs=512 * 1024, imod="adapt",
            smod="sm" if nbytes <= 512 * 1024 else "solo",
            ibalg="binary", iralg="binary", ibs=256 * 1024, irs=256 * 1024)
    return HanConfig(fs=2 * 1024 * 1024, imod="adapt", smod="solo",
                     ibalg="chain", iralg="chain", ibs=512 * 1024,
                     irs=512 * 1024)


def _doc_built_per_call(coll, nbytes, commsize, band) -> str:
    verdict = verdict_from([make_insight(
        "default config", "record", True,
        f"no decisions stored for band {band[:12]}/{coll}")])
    decision = Decision(
        query=Query(coll, float(nbytes), commsize, None, band),
        config=_built_per_call(float(nbytes)), provenance="default",
        expected_time=None, verdict=verdict)
    return json.dumps(decision.to_doc(), sort_keys=True)


@pytest.mark.parametrize("nbytes", [0.0, 1.0] + EDGES + [64 * MiB])
def test_default_config_equals_the_per_call_construction(nbytes):
    got = HanModule.default_config(nbytes)
    assert got == _built_per_call(nbytes)
    assert got.to_dict() == _built_per_call(nbytes).to_dict()
    assert got is HanModule.default_config(nbytes)


def test_ten_thousand_default_answers_build_no_config(monkeypatch):
    svc = DecisionService(DecisionStore())
    bands = ["a" * 64, "b" * 64]
    colls = ("bcast", "allreduce", "reduce", "gather")
    sizes = [0.0, 1.0, 4 * KiB] + EDGES + [64 * MiB]
    queries = [Query(colls[i % 4], sizes[i % len(sizes)],
                     commsize=1 + i % 64, band=bands[i % 2])
               for i in range(10_000)]

    built = []
    post_init = HanConfig.__post_init__
    monkeypatch.setattr(HanConfig, "__post_init__",
                        lambda self: built.append(self) or post_init(self))
    decisions = svc.decide_batch(queries)
    monkeypatch.undo()

    assert not built
    assert {d.provenance for d in decisions} == {"default"}
    for q, d in zip(queries, decisions):
        assert json.dumps(d.to_doc(), sort_keys=True) == _doc_built_per_call(
            q.coll, q.nbytes, q.commsize, q.band)


def test_empty_indexes_of_unknown_bands_stay_bounded():
    svc = DecisionService(DecisionStore())
    bound = service_mod._EMPTY_INDEXES_MAX
    for i in range(10_000):
        d = svc.decide(Query("bcast", 64.0, commsize=4, band=f"{i:064x}"))
        assert d.provenance == "default"
        assert len(svc._empty) <= bound
    assert len(svc._empty) == 10_000 % bound
    assert not svc._indexes


def test_each_unknown_band_reuses_one_default_verdict():
    """The serve benchmark's shape: eight unknown bands, queried over
    and over in several collectives."""
    svc = DecisionService(DecisionStore())
    bands = [f"{i:064x}" for i in range(8)]
    colls = ("bcast", "allreduce", "reduce")
    queries = [Query(colls[i % 3], float(2 ** (i % 12)), commsize=16,
                     band=bands[i % 8]) for i in range(2_000)]
    verdicts = {}
    for q, d in zip(queries, svc.decide_batch(queries)):
        verdicts.setdefault((q.band, q.coll), set()).add(id(d.verdict))
    assert len(verdicts) == 24
    assert all(len(ids) == 1 for ids in verdicts.values())
    assert len(svc._empty) == 24
