"""Interference-aware measurement: traffic plans in the digest contract."""

from repro.core.config import HanConfig
from repro.hardware import tiny_cluster
from repro.obs.store import RunStore, summarize_measurement
from repro.tenancy import TrafficPlan, traffic_preset
from repro.tenancy.scheduler import measure_interference
from repro.tuning import MeasurementCache, measure_collective
from repro.tuning.measure import resolve_traffic
from repro.tuning.parallel import MeasurePoint, run_cached

KiB = 1024


def _machine():
    return tiny_cluster(num_nodes=2, ppn=2)


def _config(**kw):
    kw.setdefault("fs", 64 * KiB)
    kw.setdefault("imod", "adapt")
    kw.setdefault("smod", "sm")
    kw.setdefault("ibalg", "chain")
    kw.setdefault("iralg", "chain")
    return HanConfig(**kw)


def _plan():
    return traffic_preset("allreduce_sweep").with_seed(11)


def _key(traffic=None, trial_offset=0, cfg=None):
    cfg = cfg or _config()
    return MeasurePoint(
        _machine(), "bcast", 256 * KiB, cfg, traffic_plan=traffic,
        trial_offset=trial_offset,
    ).cache_key()


# -- measurement under load ---------------------------------------------------------


def test_loaded_measurement_is_slower_and_deterministic():
    quiet = measure_collective(_machine(), "bcast", 256 * KiB, _config())
    loaded1 = measure_collective(
        _machine(), "bcast", 256 * KiB, _config(), traffic_plan=_plan()
    )
    loaded2 = measure_collective(
        _machine(), "bcast", 256 * KiB, _config(), traffic_plan=_plan()
    )
    assert loaded1.time > quiet.time
    assert loaded1 == loaded2  # bit-identical replay


def test_empty_plan_is_bit_identical_to_no_plan():
    quiet = measure_collective(_machine(), "bcast", 256 * KiB, _config())
    empty = measure_collective(
        _machine(), "bcast", 256 * KiB, _config(), traffic_plan=TrafficPlan(seed=3)
    )
    assert empty == quiet


def test_traffic_seed_resolves_from_config_seed():
    plan = traffic_preset("allreduce_sweep")  # seed=None
    a = measure_collective(
        _machine(), "bcast", 256 * KiB, _config(seed=11), traffic_plan=plan
    )
    b = measure_collective(
        _machine(), "bcast", 256 * KiB, _config(seed=11), traffic_plan=_plan()
    )
    assert a.time == b.time


def test_trials_see_independent_traffic_realizations():
    meas = measure_collective(
        _machine(), "bcast", 256 * KiB, _config(),
        traffic_plan=_plan(), trials=3,
    )
    again = measure_collective(
        _machine(), "bcast", 256 * KiB, _config(),
        traffic_plan=_plan(), trials=3,
    )
    assert meas.trial_times == again.trial_times
    # jittered tenant gaps differ per realization, so the trials must
    # not all collapse to one value
    assert len(set(meas.trial_times)) > 1


# -- digest contract ----------------------------------------------------------------


def test_traffic_enters_measurement_key_only_when_active():
    assert _key(traffic=_plan()) != _key()
    assert _key(traffic=TrafficPlan(seed=3)) == _key()  # tenant-less = quiet
    assert _key(traffic=_plan().with_seed(12)) != _key(traffic=_plan())
    assert _key(traffic=_plan(), trial_offset=1) != _key(traffic=_plan())
    assert _key(trial_offset=1) == _key()  # quiet: trial bookkeeping free


def test_config_seed_enters_key_only_via_resolved_traffic():
    plan = traffic_preset("allreduce_sweep")  # seed resolves from config
    assert _key(cfg=_config(seed=1)) == _key(cfg=_config(seed=2))
    assert _key(traffic=plan, cfg=_config(seed=1)) != _key(
        traffic=plan, cfg=_config(seed=2)
    )


def test_cache_never_aliases_loaded_and_quiet(tmp_path):
    cache = MeasurementCache(tmp_path)
    quiet = measure_collective(
        _machine(), "bcast", 256 * KiB, _config(), cache=cache
    )
    loaded = measure_collective(
        _machine(), "bcast", 256 * KiB, _config(), cache=cache,
        traffic_plan=_plan(),
    )
    assert cache.stats()["misses"] == 2  # distinct entries
    warm = measure_collective(
        _machine(), "bcast", 256 * KiB, _config(), cache=cache,
        traffic_plan=_plan(),
    )
    assert cache.stats()["hits"] == 1
    assert warm == loaded
    assert warm.time != quiet.time


def test_measure_point_carries_traffic(tmp_path):
    cache = MeasurementCache(tmp_path)
    points = [
        MeasurePoint(_machine(), "bcast", 256 * KiB, _config()),
        MeasurePoint(_machine(), "bcast", 256 * KiB, _config(),
                     traffic_plan=_plan()),
    ]
    assert points[0].cache_key() != points[1].cache_key()
    quiet, loaded = run_cached(points, cache=cache)
    assert loaded.time > quiet.time
    # keys hit the same entries measure_collective would write
    direct = measure_collective(
        _machine(), "bcast", 256 * KiB, _config(), cache=cache,
        traffic_plan=_plan(),
    )
    assert cache.stats()["hits"] == 1
    assert direct == loaded


# -- run-store provenance -----------------------------------------------------------


def test_store_separates_loaded_runs(tmp_path):
    store = RunStore(tmp_path / "store")
    quiet = measure_collective(
        _machine(), "bcast", 256 * KiB, _config(), store=store
    )
    loaded = measure_collective(
        _machine(), "bcast", 256 * KiB, _config(), store=store,
        traffic_plan=_plan(),
    )
    lines = [run for _, runs in store.groups() for run in runs]
    assert len(lines) == 2
    by_loaded = {bool(ln["loaded"]): ln for ln in lines}
    assert by_loaded[True]["key"] != by_loaded[False]["key"]
    assert by_loaded[True]["traffic_digest"]
    assert by_loaded[False]["traffic_digest"] is None
    assert by_loaded[True]["time"] == loaded.time
    assert by_loaded[False]["time"] == quiet.time


def test_summarize_measurement_traffic_digest_is_stable():
    meas = measure_collective(_machine(), "bcast", 256 * KiB, _config())
    plan = resolve_traffic(_plan(), _config())
    a = summarize_measurement(_machine(), meas, traffic=plan)
    b = summarize_measurement(_machine(), meas, traffic=plan)
    assert a["traffic_digest"] == b["traffic_digest"]
    other = summarize_measurement(
        _machine(), meas, traffic=plan.with_seed(99)
    )
    assert other["traffic_digest"] != a["traffic_digest"]


# -- the smoke helper ---------------------------------------------------------------


def test_measure_interference_reports_slowdown():
    out = measure_interference(
        _machine(), "bcast", 256 * KiB, _config(), _plan()
    )
    assert out["slowdown"] > 1.0
    assert out["loaded_time"] > out["solo_time"]
    again = measure_interference(
        _machine(), "bcast", 256 * KiB, _config(), _plan()
    )
    assert out == again
