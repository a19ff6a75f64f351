"""Literal cache-key digests: the key bytes may never drift.

A digest names an on-disk cache entry and a decision-store band
directory, so a change to how inputs are canonicalized (including the
per-machine rendering memo of ``digest``) must leave every key byte
where it was.  The literals below were computed before that memo
existed.
"""

from __future__ import annotations

from dataclasses import replace

from repro.core.config import HanConfig
from repro.faults import FaultPlan, OsNoise
from repro.hardware import shaheen2, tiny_cluster
from repro.obs.store import band_digest
from repro.tuning.cache import canonical, digest
from repro.tuning.parallel import MeasurePoint, TaskPoint

KiB = 1024

TASK_KEY = "0ff936bbbabdc63087947aa4c40faa408f951bf37205d77edcb0d560285132ea"
MEASURE_KEY = "257e41f2c2b7efb1724f296fabd83b5cd81225ac0a2828f8109096efb8d2ff8a"
BAND_KEY = "b8bd95945852b2d8ab969d58425da5faed6bc09a456416d5f335bf8e2e6c6035"


def task_point(machine) -> TaskPoint:
    return TaskPoint(machine=machine, coll="bcast", config=HanConfig(fs=512 * KiB),
                     seg_bytes=512 * KiB, warm_iters=6)


def test_task_point_key_is_pinned():
    machine = shaheen2(num_nodes=4, ppn=4)
    point = task_point(machine)
    assert point.cache_key() == TASK_KEY
    assert point.cache_key() == TASK_KEY  # a memoized machine rendering
    assert task_point(shaheen2(num_nodes=4, ppn=4)).cache_key() == TASK_KEY


def test_measure_point_with_fault_plan_key_is_pinned():
    point = MeasurePoint(
        machine=tiny_cluster(num_nodes=2, ppn=2), coll="allreduce",
        nbytes=64 * KiB, config=HanConfig(fs=64 * KiB, smod="solo"),
        fault_plan=FaultPlan(seed=7).add(OsNoise(amplitude=0.3)),
        trials=2, trial_offset=4,
    )
    assert point.cache_key() == MEASURE_KEY
    assert point.cache_key() == MEASURE_KEY


def test_band_digest_is_pinned():
    assert band_digest(shaheen2(num_nodes=4, ppn=4)) == BAND_KEY


def test_machine_memo_tracks_topo_params():
    """``topo_params`` is the one mutable field of a frozen spec: editing
    it in place after a digest must not be served the stale rendering."""
    machine = replace(shaheen2(num_nodes=4, ppn=4), topology="torus",
                      topo_params={"dims": [4]})
    before = digest("probe", machine=machine)
    assert digest("probe", machine=machine) == before
    machine.topo_params["dims"][0] = 2
    after = digest("probe", machine=machine)
    assert after != before
    fresh = replace(machine, topo_params={"dims": [2]})
    assert after == digest("probe", machine=fresh)
    assert canonical(machine)["topo_params"] == {"dims": [2]}
