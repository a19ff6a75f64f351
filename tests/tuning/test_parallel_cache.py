"""The parallel + cached tuning engine: digests, hits, equivalence."""

import json
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.core.config import HanConfig
from repro.faults import FaultPlan, OsNoise
from repro.hardware import tiny_cluster
from repro.tuning import (
    Autotuner,
    MeasurementCache,
    SearchSpace,
    measure_collective,
)
from repro.tuning.parallel import (
    MeasurePoint,
    TaskPoint,
    effective_workers,
    parallel_map,
    run_cached,
)

KiB = 1024


def machine():
    return tiny_cluster(num_nodes=2, ppn=2)


def config(**kw):
    return HanConfig(fs=64 * KiB, **kw)


def small_space():
    return SearchSpace(
        seg_sizes=(None, 64 * KiB),
        messages=(64 * KiB, 256 * KiB),
        adapt_algorithms=("chain",),
        inner_segs=(None,),
    )


def _key(nbytes=64 * KiB, cfg=None, mach=None, trials=1, trial_offset=0,
         plan=None, aggregate="median"):
    cfg = cfg or config()
    mach = mach or machine()
    return MeasurePoint(
        mach, "bcast", nbytes, cfg, fault_plan=plan, trials=trials,
        trial_offset=trial_offset, aggregate=aggregate,
    ).cache_key()


def _key_in_subprocess(_):
    return _key()


# -- digest stability ---------------------------------------------------------------


def test_digest_deterministic_and_sensitive():
    assert _key() == _key()
    assert _key(nbytes=128 * KiB) != _key()
    assert _key(cfg=config(smod="solo")) != _key()
    assert _key(mach=tiny_cluster(num_nodes=2, ppn=1)) != _key()
    assert _key(trials=3) != _key()
    assert _key(aggregate="min") != _key()


def test_digest_stable_across_processes():
    with ProcessPoolExecutor(max_workers=1) as pool:
        child = list(pool.map(_key_in_subprocess, [0]))[0]
    assert child == _key()


def test_noise_free_key_ignores_trial_bookkeeping():
    # without injectors, every trial realization is identical, so sweeps
    # that differ only in the running trial counter share cache entries
    assert _key(trial_offset=5) == _key(trial_offset=0)
    plan = FaultPlan(seed=1).add(OsNoise(amplitude=0.5))
    assert _key(plan=plan, trial_offset=5) != _key(plan=plan, trial_offset=0)
    assert _key(plan=plan) != _key()


def test_config_seed_enters_key_only_via_resolved_plan():
    # the seed is not a tuned parameter; without a plan it cannot change
    # the simulation, so it must not fragment the cache
    assert _key(cfg=config(seed=1)) == _key(cfg=config(seed=2))
    plan = FaultPlan().add(OsNoise(amplitude=0.5))  # seed resolves from config
    assert _key(cfg=config(seed=1), plan=plan) != _key(cfg=config(seed=2), plan=plan)


# -- cache behaviour ----------------------------------------------------------------


def test_cache_hit_replays_measurement_exactly(tmp_path):
    cache = MeasurementCache(tmp_path)
    cold = measure_collective(machine(), "bcast", 64 * KiB, config(), cache=cache)
    assert cache.stats()["misses"] == 1 and cache.stats()["stores"] == 1
    warm = measure_collective(machine(), "bcast", 64 * KiB, config(), cache=cache)
    assert cache.stats()["hits"] == 1
    assert warm == cold  # time, per_rank, sim_cost, spread — everything


def test_cache_persists_across_instances(tmp_path):
    a = MeasurementCache(tmp_path)
    cold = measure_collective(machine(), "bcast", 64 * KiB, config(), cache=a)
    b = MeasurementCache(tmp_path)  # fresh handle, e.g. a new process
    warm = measure_collective(machine(), "bcast", 64 * KiB, config(), cache=b)
    assert b.stats() == {
        "hits": 1, "misses": 0, "stores": 0, "hit_rate": 1.0, "persistent": True,
    }
    assert warm == cold
    assert len(b) == 1
    # entries are plain JSON on disk — inspectable, diffable
    files = list(tmp_path.glob("*/*.json"))
    assert len(files) == 1
    assert json.loads(files[0].read_text())["__kind__"] == "measure"


def test_memory_cache_without_path():
    cache = MeasurementCache()
    measure_collective(machine(), "bcast", 64 * KiB, config(), cache=cache)
    measure_collective(machine(), "bcast", 64 * KiB, config(), cache=cache)
    assert cache.stats()["hits"] == 1
    assert cache.stats()["persistent"] is False


def test_corrupt_cache_entry_is_a_miss(tmp_path):
    cache = MeasurementCache(tmp_path)
    measure_collective(machine(), "bcast", 64 * KiB, config(), cache=cache)
    for f in tmp_path.glob("*/*.json"):
        f.write_text("{ torn write")
    again = MeasurementCache(tmp_path)
    meas = measure_collective(machine(), "bcast", 64 * KiB, config(), cache=again)
    assert again.stats()["misses"] == 1  # fell back to simulating
    assert meas.time > 0


@pytest.mark.parametrize(
    "blob",
    (b"\xff\xfe\x00\x01not utf-8", b"[1,2,3]", b"null", b'{"x": 1'),
    ids=("not_utf8", "json_list", "json_null", "truncated"),
)
def test_unusable_cache_file_is_a_miss_and_not_an_entry(tmp_path, blob):
    cache = MeasurementCache(tmp_path)
    want = measure_collective(machine(), "bcast", 64 * KiB, config(), cache=cache)
    (bad,) = tmp_path.glob("*/*.json")
    # a second, healthy entry: entries() must skip the bad file, not stop at it
    measure_collective(machine(), "bcast", 128 * KiB, config(), cache=cache)
    bad.write_bytes(blob)
    again = MeasurementCache(tmp_path)
    assert again.get(bad.stem) is None
    assert bad.stem not in dict(again.entries())
    assert len(again) == 1
    meas = measure_collective(machine(), "bcast", 64 * KiB, config(), cache=again)
    assert meas == want  # re-simulated, and the file is healed
    assert json.loads(bad.read_text())["__kind__"] == "measure"
    assert len(again) == 2


# -- parallel equivalence -----------------------------------------------------------


def exhaustive_points():
    plan = FaultPlan(seed=7).add(OsNoise(amplitude=0.3))
    points, offset = [], 0
    for m in (64 * KiB, 256 * KiB):
        for cfg in small_space().configs():
            points.append(
                MeasurePoint(
                    machine=machine(), coll="allreduce", nbytes=m, config=cfg,
                    fault_plan=plan, trials=2, trial_offset=offset,
                )
            )
            offset += 2
    return points


def test_pool_results_identical_to_serial():
    points = exhaustive_points()
    serial = [p.run() for p in points]
    # cap_to_cores=False forces a real pool even on single-core CI boxes
    pooled = parallel_map(points, workers=2, cap_to_cores=False)
    assert pooled == serial


def test_task_points_pool_identical_to_serial():
    points = [
        TaskPoint(machine=machine(), coll="allreduce", config=cfg,
                  seg_bytes=64 * KiB, warm_iters=4)
        for cfg in small_space().configs()
        if cfg.fs is not None
    ]
    serial = [p.run() for p in points]
    pooled = parallel_map(points, workers=2, cap_to_cores=False)
    for s, p in zip(serial, pooled):
        assert TaskPoint.to_doc(s) == TaskPoint.to_doc(p)


def test_autotuner_parallel_and_cached_runs_bit_identical(tmp_path):
    plan = FaultPlan(seed=3).add(OsNoise(amplitude=0.4))

    def tune(**kw):
        return Autotuner(
            machine(), space=small_space(), fault_plan=plan, trials=2, **kw
        ).tune(colls=("allreduce",), method="exhaustive")

    serial = tune()
    parallel = tune(workers=2)
    cached_cold = tune(cache=MeasurementCache(tmp_path))
    cached_warm = tune(cache=MeasurementCache(tmp_path), workers=2)
    for other in (parallel, cached_cold, cached_warm):
        assert other.candidates == serial.candidates
        assert other.table.entries == serial.table.entries
        assert other.tuning_cost == serial.tuning_cost
        assert other.searches == serial.searches


def test_task_method_parallel_and_cached_runs_bit_identical(tmp_path):
    def tune(**kw):
        return Autotuner(machine(), space=small_space(), **kw).tune(
            colls=("allreduce",), method="task"
        )

    serial = tune()
    parallel = tune(workers=2)
    warm = tune(cache=MeasurementCache(tmp_path))
    warm2 = tune(cache=MeasurementCache(tmp_path))
    for other in (parallel, warm, warm2):
        assert other.candidates == serial.candidates
        assert other.table.entries == serial.table.entries
        assert other.tuning_cost == pytest.approx(serial.tuning_cost, rel=1e-12)


def test_zero_workers_is_the_serial_fallback():
    points = exhaustive_points()[:2]
    assert effective_workers(0, len(points)) == 0
    assert effective_workers(1, len(points)) == 1
    assert effective_workers(8, 1) == 1  # one point never needs a pool
    assert parallel_map(points, workers=0) == [p.run() for p in points]
    assert run_cached(points, workers=0) == [p.run() for p in points]


def test_run_cached_mixes_hits_and_misses_in_order():
    points = exhaustive_points()[:4]
    cache = MeasurementCache()
    # pre-warm only points 1 and 3
    for i in (1, 3):
        cache.put(points[i].cache_key(), points[i].to_doc(points[i].run()))
    results = run_cached(points, cache=cache)
    assert cache.stats()["hits"] == 2 and cache.stats()["misses"] == 2
    assert results == [p.run() for p in points]  # order preserved
