"""Serve-time guideline validation: integrity, monotonicity, composition."""

from repro.core.config import HanConfig
from repro.hardware import tiny_cluster
from repro.obs.severity import ERROR_REL_EXCESS
from repro.serve import validate_decision
from repro.serve.store import decision_record

KiB = 1024


def _record(nbytes=64 * KiB, expected_time=1e-4, **kw):
    return decision_record(
        tiny_cluster(), "bcast", nbytes, HanConfig(fs=64 * KiB),
        expected_time=expected_time, **kw)


def test_clean_record_passes():
    v = validate_decision(_record())
    assert v.ok and v.severity == "ok" and v.cost_seconds == 0.0
    assert any(c.name == "config integrity" for c in v.checks)
    assert any(c.name == "finite expected_time" for c in v.checks)


def test_tampered_config_digest_fails_closed():
    rec = _record()
    rec["config_digest"] = "0" * 64
    v = validate_decision(rec)
    assert not v.ok and v.severity == "error"
    (bad,) = [c for c in v.checks if not c.passed]
    assert bad.name == "config integrity"


def test_undecodable_config_fails_closed():
    rec = _record()
    rec["config"]["imod"] = "not-a-module"
    v = validate_decision(rec)
    assert not v.ok
    assert any(c.name == "config decodes" and not c.passed for c in v.checks)


def test_non_finite_time_is_an_error():
    for t in (0.0, -1e-4, float("inf"), float("nan")):
        v = validate_decision(_record(expected_time=t))
        assert not v.ok and v.severity == "error"


def test_missing_time_validates_integrity_only():
    v = validate_decision(_record(expected_time=None))
    assert v.ok
    assert all(c.name.startswith("config") for c in v.checks)


def test_monotonicity_dip_costs_seconds():
    # the served 256KB point is 2x faster than the stored 64KB point:
    # a larger message must not be cheaper than a smaller one
    answer = _record(nbytes=256 * KiB, expected_time=1e-4)
    neighbor = _record(nbytes=64 * KiB, expected_time=2e-4)
    v = validate_decision(answer, neighbors=[neighbor])
    assert not v.ok
    (bad,) = [c for c in v.checks if not c.passed]
    assert bad.grade == "error"  # 100% relative excess
    assert abs(bad.cost_seconds - 1e-4) < 1e-12
    assert abs(v.cost_seconds - 1e-4) < 1e-12


def test_small_dip_grades_warn_not_error():
    # dip beyond the monotone tolerance but below the error threshold
    tn = 1e-4
    t = tn * (1.0 - ERROR_REL_EXCESS / 2)  # ~5% dip
    v = validate_decision(
        _record(nbytes=256 * KiB, expected_time=t),
        neighbors=[_record(nbytes=64 * KiB, expected_time=tn)])
    assert not v.ok and v.severity == "warn"


def test_consistent_neighbors_pass():
    v = validate_decision(
        _record(nbytes=256 * KiB, expected_time=4e-4),
        neighbors=[_record(nbytes=64 * KiB, expected_time=1e-4),
                   _record(nbytes=1024 * KiB, expected_time=1.6e-3)])
    assert v.ok
    assert any(c.name == "monotone nbytes" and c.passed for c in v.checks)


def test_composition_bound_violation():
    rec = decision_record(
        tiny_cluster(), "allreduce", 64 * KiB, HanConfig(fs=64 * KiB),
        expected_time=5e-4)
    # allreduce must not exceed reduce + bcast at the same point
    v = validate_decision(
        rec, composition_times={"reduce": 1e-4, "bcast": 1e-4})
    assert not v.ok
    (bad,) = [c for c in v.checks if not c.passed]
    assert "allreduce <= reduce+bcast" == bad.name
    assert bad.grade == "error"
    assert abs(bad.cost_seconds - 3e-4) < 1e-12
    # within the bound (plus tolerance) it passes
    ok = validate_decision(
        rec, composition_times={"reduce": 3e-4, "bcast": 3e-4})
    assert ok.ok


def test_composition_skipped_without_operand_times():
    rec = decision_record(
        tiny_cluster(), "allreduce", 64 * KiB, HanConfig(fs=64 * KiB),
        expected_time=5e-4)
    v = validate_decision(rec, composition_times={"reduce": 1e-4,
                                                  "bcast": None})
    assert v.ok
    assert not any("allreduce <=" in c.name for c in v.checks)
