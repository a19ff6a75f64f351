"""Repeated-trial measurement and confidence-aware selection."""

import pytest

from repro.core.config import HanConfig
from repro.faults import FaultPlan, FaultyMachineSpec, MessageJitter, OsNoise
from repro.hardware import tiny_cluster
from repro.tuning import Autotuner, SearchSpace, measure_collective
from repro.tuning.measure import run_once

KiB = 1024


def machine():
    return tiny_cluster(num_nodes=2, ppn=2)


def config(seed=None):
    return HanConfig(
        fs=64 * KiB, imod="adapt", smod="sm", ibalg="chain", iralg="chain",
        seed=seed,
    )


def noisy_plan(seed=None, amplitude=0.5):
    return FaultPlan(seed=seed).add(OsNoise(amplitude=amplitude))


# -- measure_collective ------------------------------------------------------------


def test_single_trial_without_plan_matches_legacy_shape():
    m = measure_collective(machine(), "allreduce", 64 * KiB, config())
    assert m.trial_times == (m.time,)
    assert m.spread == 0.0
    assert m.time == max(m.per_rank)


@pytest.mark.parametrize("injector", [None, OsNoise(0.05),
                                      MessageJitter(1e-6)])
def test_run_once_returns_plain_floats_in_every_mode(injector):
    m = machine()
    if injector is not None:
        m = FaultyMachineSpec.wrap(m, FaultPlan((injector,), seed=1))
    per_rank, cost, _ = run_once(m, "bcast", 64 * KiB)
    assert {type(t) for t in per_rank} == {float}
    assert type(cost) is float


def test_trials_collect_independent_samples_and_median():
    m = measure_collective(
        machine(), "allreduce", 64 * KiB, config(),
        fault_plan=noisy_plan(seed=5), trials=5,
    )
    assert len(m.trial_times) == 5
    assert len(set(m.trial_times)) == 5  # independent realizations
    ordered = sorted(m.trial_times)
    assert m.time == pytest.approx(ordered[2])  # the median
    assert m.spread > 0.0
    # sim_cost accounts for every repeated run
    one = measure_collective(
        machine(), "allreduce", 64 * KiB, config(), fault_plan=noisy_plan(seed=5)
    )
    assert m.sim_cost > one.sim_cost


def test_spread_centers_on_median_of_trials_not_headline():
    # the MAD must be computed around the median of the trial times; the
    # old code centered it on the headline aggregate, so aggregate="min"
    # reported an inflated spread for the very same samples
    import statistics

    results = {}
    for agg in ("median", "min", "mean"):
        m = measure_collective(
            machine(), "allreduce", 64 * KiB, config(),
            fault_plan=noisy_plan(seed=11), trials=5, aggregate=agg,
        )
        results[agg] = m
        center = statistics.median(m.trial_times)
        want = statistics.median(abs(x - center) for x in m.trial_times)
        assert m.spread == pytest.approx(want), agg
    # same seed, same samples -> same dispersion whatever the headline
    assert len({tuple(m.trial_times) for m in results.values()}) == 1
    assert len({m.spread for m in results.values()}) == 1


def test_median_rejects_a_straggler_outlier():
    # rare large straggler: most trials are clean, the median stays at
    # the clean time while min/mean react
    plan = FaultPlan(seed=0).add(OsNoise(amplitude=2.0, prob=0.1))
    clean = measure_collective(machine(), "allreduce", 64 * KiB, config())
    med = measure_collective(
        machine(), "allreduce", 64 * KiB, config(), fault_plan=plan, trials=5
    )
    worst = max(med.trial_times)
    assert med.time < worst  # the outlier did not become the verdict
    assert med.time == pytest.approx(clean.time, rel=0.35)


def test_plan_seed_resolves_from_config_seed():
    a = measure_collective(
        machine(), "allreduce", 64 * KiB, config(seed=123),
        fault_plan=noisy_plan(), trials=2,
    )
    b = measure_collective(
        machine(), "allreduce", 64 * KiB, config(seed=123),
        fault_plan=noisy_plan(), trials=2,
    )
    c = measure_collective(
        machine(), "allreduce", 64 * KiB, config(seed=321),
        fault_plan=noisy_plan(), trials=2,
    )
    assert a.trial_times == b.trial_times
    assert a.trial_times != c.trial_times


def test_trial_offset_shifts_realizations():
    a = measure_collective(
        machine(), "allreduce", 64 * KiB, config(),
        fault_plan=noisy_plan(seed=5), trials=3,
    )
    b = measure_collective(
        machine(), "allreduce", 64 * KiB, config(),
        fault_plan=noisy_plan(seed=5), trials=3, trial_offset=1,
    )
    assert a.trial_times[1:] == b.trial_times[:2]


def test_measure_validation():
    with pytest.raises(ValueError):
        measure_collective(machine(), "allreduce", 64 * KiB, config(), trials=0)
    with pytest.raises(ValueError):
        measure_collective(
            machine(), "allreduce", 64 * KiB, config(), aggregate="max"
        )


# -- Autotuner ---------------------------------------------------------------------


def small_space():
    return SearchSpace(
        seg_sizes=(64 * KiB,),
        messages=(128 * KiB,),
        adapt_algorithms=("chain", "binary"),
        inner_segs=(None,),
    )


def test_noisy_tuning_is_reproducible():
    plan = noisy_plan(seed=9)
    reports = [
        Autotuner(
            machine(), space=small_space(), fault_plan=plan, trials=3
        ).tune(colls=("allreduce",), method="exhaustive")
        for _ in range(2)
    ]
    c0 = reports[0].candidates[("allreduce", 128 * KiB)]
    c1 = reports[1].candidates[("allreduce", 128 * KiB)]
    assert c0 == c1


def test_confident_selection_penalizes_spread():
    tuner = Autotuner(
        machine(), space=small_space(), fault_plan=noisy_plan(seed=9),
        trials=3, selection="confident",
    )
    report = tuner.tune(colls=("allreduce",), method="exhaustive")
    assert report.table.get("allreduce", 2, 2, 128 * KiB) is not None
    # candidate list still carries the aggregated time per config
    cands = report.candidates[("allreduce", 128 * KiB)]
    assert len(cands) >= 2 and all(t > 0 for _c, t in cands)


def test_bad_selection_rejected():
    tuner = Autotuner(machine(), space=small_space(), selection="optimistic")
    with pytest.raises(ValueError):
        tuner.tune(colls=("allreduce",), method="exhaustive")


def test_noise_free_tuning_unchanged_by_new_knobs():
    base = Autotuner(machine(), space=small_space()).tune(
        colls=("allreduce",), method="exhaustive"
    )
    with_plan_obj = Autotuner(
        machine(), space=small_space(), fault_plan=FaultPlan(), trials=1
    ).tune(colls=("allreduce",), method="exhaustive")
    assert base.candidates == with_plan_obj.candidates
    assert base.tuning_cost == with_plan_obj.tuning_cost
