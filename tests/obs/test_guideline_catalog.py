"""One guideline catalog: served verdicts and measured-run insights agree.

Both paths judge ``allreduce <= reduce + bcast``, ``bcast <= scatter +
allgather`` and monotone time in message size through the same checks
of :mod:`repro.obs.insights`.  Two things are pinned here:

- one rule for corrupt times: a relation is judged only when every time
  in it is positive and finite, on either path, so a zero, negative or
  NaN time is skipped instead of passing as ``bound 0`` or grading an
  error at an infinite or astronomical cost;
- a differential property: on random ``(coll, nbytes) -> time`` tables,
  mixing sound and corrupt times, every served verdict flags a
  composition or a monotone dip exactly when ``guideline_insights``
  flags it, with the same grade and a bit-equal ``cost_seconds``.
"""

from __future__ import annotations

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import HanConfig
from repro.hardware import tiny_cluster
from repro.hardware.machines import MACHINE_PRESETS
from repro.obs.fleet import fleet_report
from repro.obs.insights import COMPOSITIONS, _fmt_bytes, guideline_insights
from repro.obs.severity import GRADE_RANK
from repro.obs.store import RunStore, summarize_point
from repro.serve import validate_decision
from repro.serve.store import decision_record

KiB, MiB = 1024, 1024 * 1024
NAN, INF = float("nan"), float("inf")
CORRUPT = (0.0, -0.0, -1.0, -1e-4, NAN, INF, -INF)


def _record(coll="allreduce", nbytes=64 * KiB, expected_time=5e-4):
    return decision_record(tiny_cluster(), coll, nbytes,
                           HanConfig(fs=64 * KiB),
                           expected_time=expected_time, wall_time=1.0)


# -- corrupt times are skipped, never judged ----------------------------------------


def test_served_composition_skips_corrupt_operand_times():
    for reduce_t, bcast_t in ((0.0, 0.0), (NAN, 1e-4), (-1.0, 1e-4)):
        v = validate_decision(_record(), composition_times={
            "reduce": reduce_t, "bcast": bcast_t})
        assert v.ok and v.severity == "ok"
        assert not any(c.name.startswith("allreduce <=") for c in v.checks)


def test_corrupt_larger_neighbor_does_not_grade_the_answer():
    answer = _record("bcast", 64 * KiB, 1e-4)
    for tn in (0.0, -1e-4, NAN, INF):
        v = validate_decision(
            answer, neighbors=[_record("bcast", 256 * KiB, tn)])
        assert v.ok and v.severity == "ok" and v.cost_seconds == 0.0
        assert not any(c.name.startswith("monotone") for c in v.checks)


def test_corrupt_neighbors_are_not_counted():
    v = validate_decision(
        _record("bcast", 256 * KiB, 4e-4),
        neighbors=[_record("bcast", 64 * KiB, 1e-4),
                   _record("bcast", 1 * MiB, 0.0)])
    (mono,) = [c for c in v.checks if c.name.startswith("monotone")]
    assert mono.passed
    assert mono.detail == "consistent with 1 shard neighbor(s)"


def test_measured_guidelines_skip_zero_time_operand():
    times = {
        ("allreduce", 1 * MiB): 1e-3, ("reduce", 1 * MiB): 0.0,
        ("bcast", 1 * MiB): 0.0,
        ("bcast", 64 * KiB): 1e-4, ("bcast", 4 * MiB): 2e-3,
    }
    checks = guideline_insights(times)
    assert all(math.isfinite(c.cost_seconds) for c in checks)
    assert all(c.passed for c in checks)
    assert not any(c.name.startswith("allreduce<=") for c in checks)
    (bcast,) = [c for c in checks if c.name == "bcast monotone in nbytes"]
    assert bcast.data["points"] == [[64 * KiB, 1e-4], [4 * MiB, 2e-3]]


def test_fleet_report_ranks_no_infinite_cost_first(tmp_path):
    store = RunStore(tmp_path)
    machine = MACHINE_PRESETS["shaheen2"](num_nodes=2, ppn=2)
    rows = (("allreduce", 1 * MiB, 3e-3), ("reduce", 1 * MiB, 0.0),
            ("bcast", 1 * MiB, 1e-3), ("gather", 64 * KiB, 3e-4),
            ("gather", 1 * MiB, 1e-4))
    for wall, (coll, nbytes, t) in enumerate(rows):
        doc = summarize_point(machine, coll, nbytes, t)
        doc["wall_time"] = float(wall)
        store.append(doc)
    findings = fleet_report([store])["findings"]
    assert all(math.isfinite(f["cost_seconds"]) for f in findings)
    # the one real violation leads: gather's 3x dip
    assert findings[0]["name"].startswith("gather monotone in nbytes")


# -- differential: served verdicts == measured-run insights -------------------------


COLLS = ("allreduce", "reduce", "bcast", "scatter", "allgather")
SIZES = (4 * KiB, 16 * KiB, 64 * KiB, 256 * KiB, 1 * MiB)

#: ratios around 1 hit every band: inside both tolerances, between the
#: monotone (2%) and composition (5%) tolerances, warn and error grades
_LADDER = (0.3, 0.5, 0.9, 0.93, 0.95, 0.96, 0.97, 0.975, 0.985, 0.99,
           1.0, 1.01, 1.03, 1.04, 1.06, 1.08, 1.2, 2.0)

times_st = st.one_of(
    st.sampled_from(_LADDER).map(lambda f: 1e-4 * f),
    st.sampled_from(_LADDER).map(lambda f: 2e-4 * f),
    st.floats(min_value=1e-7, max_value=1e-2),
    st.sampled_from(CORRUPT),
)

tables_st = st.dictionaries(
    st.tuples(st.sampled_from(COLLS), st.sampled_from(SIZES)),
    times_st, min_size=1, max_size=len(COLLS) * len(SIZES))


def _served(table: dict, coll: str, nbytes: int):
    """The served verdict of one table point, judged by its row."""
    row = [{"nbytes": float(nb), "expected_time": t}
           for (c, nb), t in table.items() if c == coll]
    comp = ({op: table.get((op, nbytes)) for op in COMPOSITIONS[coll]}
            if coll in COMPOSITIONS else None)
    return validate_decision(
        {"coll": coll, "nbytes": float(nbytes),
         "expected_time": table[(coll, nbytes)]},
        neighbors=row, composition_times=comp)


def _check(verdict, name):
    found = [c for c in verdict.checks if c.name == name]
    assert len(found) <= 1
    return found[0] if found else None


def _usable(t) -> bool:
    return 0.0 < t < math.inf


@settings(max_examples=300, deadline=None)
@given(tables_st)
def test_served_composition_matches_measured_insights(table):
    insights = {i.name: i for i in guideline_insights(table)}
    for (coll, nbytes) in sorted(table):
        if coll not in COMPOSITIONS:
            continue
        rhs = "+".join(COMPOSITIONS[coll])
        measured = insights.get(f"{coll}<= {rhs} @{_fmt_bytes(nbytes)}")
        served = _check(_served(table, coll, nbytes), f"{coll} <= {rhs}")
        assert (served is None) == (measured is None)
        if served is not None:
            assert served.passed == measured.passed
            assert served.grade == measured.grade
            assert served.cost_seconds == measured.cost_seconds


@settings(max_examples=300, deadline=None)
@given(tables_st)
def test_served_monotone_dips_match_measured_insights(table):
    insights = {i.name: i for i in guideline_insights(table)}
    for coll in COLLS:
        pts = sorted((nb, t) for (c, nb), t in table.items()
                     if c == coll and _usable(t))
        measured = insights.get(f"{coll} monotone in nbytes")
        assert (measured is None) == (len(pts) < 2)
        dip_costs, dip_grades = [], []
        for (na, a), (nb, b) in zip(pts, pts[1:]):
            # the pair alone, on both paths and from both ends
            (pair,) = guideline_insights({(coll, na): a, (coll, nb): b})
            up = _check(_served(table, coll, nb),
                        f"monotone nbytes (vs {float(na):g}B)")
            down = _check(_served(table, coll, na),
                          f"monotone nbytes (vs {float(nb):g}B)")
            assert (up is not None) == (down is not None) == (not pair.passed)
            if up is not None:
                for served in (up, down):
                    assert served.grade == pair.grade
                    assert served.cost_seconds == pair.cost_seconds
                dip_costs.append(up.cost_seconds)
                dip_grades.append(up.grade)
        if measured is not None:
            # the series check folds its adjacent dips: summed cost,
            # worst grade
            assert measured.passed == (not dip_costs)
            assert measured.cost_seconds == (sum(dip_costs)
                                             if dip_costs else 0.0)
            assert measured.grade == max(dip_grades, default="ok",
                                         key=GRADE_RANK.__getitem__)


@settings(max_examples=200, deadline=None)
@given(tables_st)
def test_corrupt_served_time_is_an_error_and_judges_nothing(table):
    for (coll, nbytes), t in sorted(table.items()):
        if _usable(t):
            continue
        v = _served(table, coll, nbytes)
        assert not v.ok and v.severity == "error"
        assert [c.name for c in v.checks] == ["finite expected_time"]
