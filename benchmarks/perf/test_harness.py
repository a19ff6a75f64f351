"""Tests of the benchmark harness itself (not tier-1; run explicitly):

    PYTHONPATH=src python -m pytest -q benchmarks/perf/test_harness.py

They exercise the tracer, the statistics and the generators on synthetic
inputs and never start a simulation.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import gen  # noqa: E402
from stats import compare_metric, summarize, tail_percentile  # noqa: E402
from tracing import ROOT, Tracer  # noqa: E402


class Clock:
    """A clock the test moves by hand."""

    def __init__(self):
        self.t = 0.0

    def __call__(self) -> float:
        return self.t


class Program:
    """Stands in for a class of the program: outer -> 2 x inner -> leaf."""

    def __init__(self, clock: Clock):
        self.clock = clock

    def outer(self):
        self.clock.t += 1.0
        self.inner()
        self.inner()
        self.clock.t += 0.5

    def inner(self):
        self.clock.t += 2.0
        self.leaf()

    def leaf(self):
        self.clock.t += 0.25

    def lazy(self):
        yield 1


def traced_program(fold_after=10_000):
    clock = Clock()
    tracer = Tracer(fold_after=fold_after, clock=clock)
    for attr in ("outer", "inner", "leaf"):
        tracer.wrap(Program, attr, f"program.{attr}")
    return clock, tracer, Program(clock)


def test_self_time_is_duration_minus_child_time():
    clock, tracer, program = traced_program()
    with tracer:
        tracer.begin_rep(0)
        clock.t += 0.1  # outside every wrapped callable
        program.outer()
        wall = tracer.end_rep()
    assert wall == pytest.approx(6.1)
    assert tracer.total_s(0, "program.outer") == pytest.approx(6.0)
    assert tracer.self_s(0, "program.outer") == pytest.approx(1.5)
    assert tracer.calls(0, "program.inner") == 2
    assert tracer.total_s(0, "program.inner") == pytest.approx(4.5)
    assert tracer.self_s(0, "program.inner") == pytest.approx(4.0)
    assert tracer.self_s(0, "program.leaf") == pytest.approx(0.5)
    assert tracer.self_s(0, ROOT) == pytest.approx(0.1)
    # self times of all layers plus the unattributed rest add up to the wall
    assert sum(t[2] for t in tracer.totals[0].values()) == pytest.approx(wall)


def test_spans_carry_name_interval_parent_and_repetition():
    clock, tracer, program = traced_program()
    with tracer:
        tracer.begin_rep(3)
        program.outer()
        tracer.end_rep()
    spans = {sid: (name, start, end, parent, rep)
             for sid, name, start, end, parent, rep in tracer.spans}
    assert {s[4] for s in spans.values()} == {3}
    by_name = {}
    for sid, span in spans.items():
        by_name.setdefault(span[0], []).append(sid)
    (root,), (outer,) = by_name[ROOT], by_name["program.outer"]
    assert spans[outer][3] == root and spans[root][3] is None
    assert all(spans[i][3] == outer for i in by_name["program.inner"])
    leaf_parents = sorted(spans[i][3] for i in by_name["program.leaf"])
    assert leaf_parents == sorted(by_name["program.inner"])
    first_inner = min(by_name["program.inner"], key=lambda i: spans[i][1])
    assert spans[first_inner][1:3] == (1.0, 3.25)
    doc = tracer.to_doc([3])
    assert len(doc["spans"]) == len(spans) and not doc["folded"]
    json.dumps(doc)  # what trace.json holds must be JSON-able


def test_hot_callable_is_folded_past_the_threshold_and_stays_folded():
    clock, tracer, program = traced_program(fold_after=5)
    with tracer:
        tracer.begin_rep(0)
        for _ in range(8):
            program.leaf()
        tracer.end_rep()
        tracer.begin_rep(1)
        program.leaf()
        program.inner()  # its leaf call folds under another parent
        tracer.end_rep()
    leaf_spans = [s for s in tracer.spans if s[1] == "program.leaf"]
    assert len(leaf_spans) == 5 and {s[5] for s in leaf_spans} == {0}
    assert tracer.folded[0] == {
        ("program.leaf", ROOT): [3, pytest.approx(0.75), pytest.approx(0.75)]}
    assert tracer.folded[1][("program.leaf", ROOT)][0] == 1
    assert tracer.folded[1][("program.leaf", "program.inner")][0] == 1
    # totals cover spans and folded calls alike
    assert tracer.calls(0, "program.leaf") == 8
    assert tracer.total_s(0, "program.leaf") == pytest.approx(2.0)
    assert tracer.calls(1, "program.leaf") == 2
    # a folded child still counts against its parent's self time
    assert tracer.self_s(1, "program.inner") == pytest.approx(2.0)


def test_generator_functions_are_counted_not_timed():
    tracer = Tracer(clock=Clock())
    original = Program.lazy
    with tracer:
        tracer.count(Program, "lazy", "program.lazy")
        tracer.begin_rep(0)
        assert list(Program(Clock()).lazy()) == [1]
        Program(Clock()).lazy()
        tracer.end_rep()
    assert tracer.calls(0, "program.lazy") == 2
    assert "program.lazy" not in tracer.totals[0]
    assert Program.lazy is original


def test_wrappers_are_removed_on_exit_and_on_error():
    originals = {a: vars(Program)[a] for a in ("outer", "inner", "leaf")}
    _clock, tracer, _program = traced_program()
    with tracer:
        assert vars(Program)["outer"] is not originals["outer"]
    assert {a: vars(Program)[a] for a in originals} == originals
    _clock, tracer, _program = traced_program()
    with pytest.raises(RuntimeError):
        with tracer:
            raise RuntimeError("boom")
    assert {a: vars(Program)[a] for a in originals} == originals


def test_calls_outside_a_repetition_run_untraced():
    clock, tracer, program = traced_program()
    with tracer:
        program.outer()
    assert tracer.spans == [] and clock.t == pytest.approx(6.0)


def test_tail_percentile_needs_ten_samples_beyond_it():
    assert tail_percentile(range(1100)) == (99.0, 1088)  # 11 beyond
    assert tail_percentile(range(1000)) == (99.0, 989)  # exactly 10 beyond
    assert tail_percentile(range(999)) == (95.0, 949)  # p99 leaves 9
    assert tail_percentile(range(200)) == (95.0, 189)
    assert tail_percentile(range(100)) == (90.0, 89)
    assert tail_percentile(range(40)) == (75.0, 29)
    assert tail_percentile(range(12)) is None
    assert tail_percentile(range(20_000))[0] == 99.9


def test_summarize_reports_median_quartiles_and_count():
    s = summarize([4.0, 1.0, 3.0, 2.0, 5.0])
    assert (s["value"], s["n"]) == (3.0, 5)
    assert s["q1"] < s["value"] < s["q3"]
    assert summarize([7.0]) == {"value": 7.0, "q1": 7.0, "q3": 7.0, "n": 1}


def metric(*samples):
    return {**summarize(samples), "samples": list(samples)}


def test_compare_marks_ok_regressed_and_unresolved():
    base = metric(1.00, 1.01, 0.99, 1.00)
    assert compare_metric(base, metric(1.02, 1.03, 1.02, 1.03),
                          "lower", 0.10)["verdict"] == "ok"
    assert compare_metric(base, metric(1.20, 1.21, 1.19, 1.20),
                          "lower", 0.10)["verdict"] == "regressed"
    # spread wider than the bound: undecided, unless every run is better
    noisy = metric(0.80, 1.00, 1.20, 1.40)
    assert compare_metric(noisy, metric(0.9, 1.1, 1.3, 1.5),
                          "lower", 0.10)["verdict"] == "unresolved"
    assert compare_metric(noisy, metric(0.5, 0.6, 0.7, 0.75),
                          "lower", 0.10)["verdict"] == "ok"
    # higher-is-better metrics regress downwards
    assert compare_metric(base, metric(0.80, 0.81, 0.80, 0.79),
                          "higher", 0.10)["verdict"] == "regressed"


PRESETS = ["alpha", "beta", "gamma", "delta", "epsilon"]


@pytest.mark.parametrize("make, size", [
    (gen.serve_inputs, gen.SERVE_QUICK),
    (gen.store_inputs, gen.STORE_QUICK),
])
def test_same_seed_same_bytes_other_seed_other_bytes(make, size):
    def blob(seed):
        return json.dumps(make(seed, PRESETS, size), sort_keys=True)

    assert blob(7) == blob(7)
    assert blob(7) != blob(8)


def test_the_seed_never_changes_the_amount_of_work():
    a = gen.serve_inputs(1, PRESETS, gen.SERVE_QUICK)
    b = gen.serve_inputs(2, PRESETS, gen.SERVE_QUICK)
    for key in ("bands", "records", "queries", "churn"):
        assert len(a[key]) == len(b[key])
    kinds = [q[0] for q in a["queries"]]
    assert {kinds.count(k) for k in set(kinds)} == {len(kinds) // 4}
    c = gen.store_inputs(1, PRESETS, gen.STORE_QUICK)
    d = gen.store_inputs(2, PRESETS, gen.STORE_QUICK)
    assert len(c["runs"]) == len(d["runs"]) and len(c["regressions"]) == 3
