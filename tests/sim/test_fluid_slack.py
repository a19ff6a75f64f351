"""The slack shortcuts change no bit: start lane, retire skip, closure cut.

A seeded corpus of slack-heavy schedules (mostly weight-1 capped flows,
double bus crossings, capacities near the sum of the caps that share
them, same-instant batches, a few weighted or uncapped flows, aborts and
rescales) runs under the production solver and under the global
re-solve oracle.  After *every* recompute both solvers' state is
snapshotted (each flow's rate, ``t_done``, ``remaining`` and
``drained_at``, and the load vector) and the two sequences must be
equal.  Four planted mutants of the slack rule, built by editing the
solver's source, must each be caught:

- ``weight``: weighted flows count as slack.  The kernel binds a
  weighted flow on an unsaturated resource: capacity 10 under A
  (weight 1, cap 5) and B (weight 9, cap 4) fills A at 1, not 5;
- ``multiplicity``: a double crossing counts its cap once;
- ``margin``: caps may sum to the whole capacity, where the kernel's
  residual can round a hair below the last cap;
- ``closure``: a dirty resource that a retirement left slack is not
  expanded, so the flows it freed keep their old rates.
"""

from __future__ import annotations

import inspect
import sys
import types

import numpy as np
import pytest

from repro.sim import fluid
from repro.sim.fluid import FluidSolver
from tests.sim.fluid_oracle import ReferenceSolver
from tests.sim.test_fluid_differential import run_schedule

INF = float("inf")


def make_slack_schedule(seed: int):
    """Same shape as ``test_fluid_differential.make_schedule``, biased
    towards flows the slack shortcuts take."""
    rng = np.random.default_rng([0x51AC, seed])
    nres = int(rng.integers(2, 7))
    caps = [float(c) for c in 10.0 ** rng.uniform(2.0, 3.0, nres)]
    flows = []
    for _ in range(int(rng.integers(4, 30))):
        # a coarse grid of start instants batches same-instant starts
        start = float(rng.integers(0, 12)) * 0.25
        nbytes = float(10.0 ** rng.uniform(1.0, 3.5))
        first = int(rng.integers(0, nres))
        kind = rng.random()
        if kind < 0.3:
            route = [first, first]  # a shared-memory copy: the bus twice
        elif kind < 0.7:
            route = [first]
        else:
            route = [first] + [int(r) for r in rng.integers(0, nres, 2)]
        share = float(rng.choice([0.05, 0.2, 0.3, 0.45, 0.5, 0.7]))
        rate_cap = caps[first] * share if rng.random() < 0.93 else INF
        weight = 1.0 if rng.random() < 0.85 else float(rng.uniform(0.25, 9.0))
        flows.append((start, nbytes, route, rate_cap, weight))
    cap_events = []
    for _ in range(int(rng.integers(0, 3))):
        t = float(rng.integers(0, 16)) * 0.25
        rid = int(rng.integers(0, nres))
        factor = 0.0 if rng.random() < 0.3 else float(rng.uniform(0.3, 2.0))
        cap_events.append((t, rid, caps[rid] * factor))
        if factor == 0.0:
            cap_events.append((t + 1.0, rid, caps[rid]))
    aborts = [(float(rng.integers(0, 16)) * 0.25, int(rng.integers(0, len(flows))))
              for _ in range(int(rng.integers(0, 3)))]
    probes = sorted(float(rng.uniform(0.0, 6.0)) for _ in range(2))
    return caps, flows, cap_events, aborts, probes


def crafted_schedules():
    """One schedule per mutant, each the smallest case it gets wrong."""
    return [
        # weight: capacity 10 under A (w 1, cap 5) and B (w 9, cap 4)
        ([10.0], [(0.0, 50.0, [0], 5.0, 1.0), (0.0, 50.0, [0], 4.0, 9.0)],
         [], [], []),
        # multiplicity: one copy crossing its bus twice at 0.7 of it
        ([100.0], [(0.0, 500.0, [0, 0], 70.0, 1.0)], [], [], []),
        # margin: caps 0.3 and 0.4 on a capacity of exactly 0.3 + 0.4,
        # whose residual after the first, 0.7 - 0.3, rounds below 0.4
        ([0.3 + 0.4], [(0.0, 1.0, [0], 0.3, 1.0), (0.0, 1.0, [0], 0.4, 1.0)],
         [], [], []),
        # closure: B leaves the bus at t = 1, and A, bound until then,
        # must speed up to its cap
        ([10.0], [(0.0, 100.0, [0], 8.0, 1.0), (0.0, 5.0, [0], 8.0, 1.0)],
         [], [], []),
    ]


CORPUS = crafted_schedules() + [make_slack_schedule(s) for s in range(160)]


def snapshot(solver: FluidSolver) -> tuple:
    flows = tuple((fid, f.rate, f.t_done, f.remaining, f.drained_at)
                  for fid, f in sorted(solver._flows.items()))
    return solver.engine.now, flows, solver._load.tobytes()


def recording(cls: type, sink: list) -> type:
    class Recording(cls):
        def _recompute(self):
            super()._recompute()
            sink.append(snapshot(self))

    return Recording


def trajectory(cls: type, schedule) -> tuple[list, list]:
    """(event log, state after every recompute) of one schedule."""
    snaps: list = []
    log = run_schedule(recording(cls, snaps), schedule)
    return log, snaps


def mismatch(cls: type, schedule) -> bool:
    return trajectory(cls, schedule) != trajectory(ReferenceSolver, schedule)


@pytest.mark.parametrize("index", range(len(CORPUS)))
def test_slack_shortcuts_match_a_full_resolve(index):
    schedule = CORPUS[index]
    got_log, got = trajectory(FluidSolver, schedule)
    want_log, want = trajectory(ReferenceSolver, schedule)
    assert len(got) == len(want)
    for i, (a, b) in enumerate(zip(got, want)):
        assert a == b, f"state after recompute {i} differs"
    assert got_log == want_log


def test_the_corpus_exercises_the_shortcuts():
    """Lane starts and retire skips are common, so the equality above is
    about the shortcuts, not about the full path alone."""
    counts = {"starts": 0, "lanes": 0, "retire seeds": 0, "skips": 0}

    class Counted(FluidSolver):
        def start_flow(self, *args, **kwargs):
            fid = super().start_flow(*args, **kwargs)
            if fid >= 0:
                counts["starts"] += 1
                counts["lanes"] += fid not in self._dirty_fids
            return fid

        def _resolve(self):
            retire_only = not self._dirty_fids and bool(self._dirty_rids)
            solved = self.kernel_flows_solved
            touched = super()._resolve()
            counts["retire seeds"] += retire_only
            counts["skips"] += retire_only and self.kernel_flows_solved == solved
            return touched

    for schedule in CORPUS:
        run_schedule(Counted, schedule)
    assert counts["lanes"] * 8 > counts["starts"], counts
    assert counts["skips"] * 4 > counts["retire seeds"], counts


def mutant_solver(monkeypatch, *edits: tuple[str, str]) -> type:
    """The solver class of a copy of ``repro.sim.fluid`` with ``edits``
    (each ``(old, new)``, every occurrence replaced) applied."""
    source = inspect.getsource(fluid)
    for old, new in edits:
        assert old in source, f"mutant edit no longer applies: {old!r}"
        source = source.replace(old, new)
    module = types.ModuleType("fluid_mutant")
    monkeypatch.setitem(sys.modules, module.__name__, module)
    exec(compile(source, "<fluid mutant>", "exec"), module.__dict__)
    return module.FluidSolver


MUTANTS = {
    "weight": [
        ("if flow.weight == 1.0 and flow.rate_cap < _INF:",
         "if flow.rate_cap < _INF:"),
        ("if f.weight == 1.0 and f.rate_cap < _INF:", "if f.rate_cap < _INF:"),
    ],
    "multiplicity": [
        ("for rid in flow.res_list:\n                cap_sum[rid]",
         "for rid in flow.res_unique:\n                cap_sum[rid]"),
        ("for rid in f.res_list:\n", "for rid in f.res_unique:\n"),
    ],
    "margin": [("_SLACK = 1.0 - 1e-9", "_SLACK = 1.0")],
    "closure": [
        ("        for rid in self._dirty_rids:\n"
         "            frontier |= res_flows[rid]\n",
         "        for rid in self._dirty_rids:\n"
         "            if unslack[rid] or cap_sum[rid] > slack_cap[rid]:\n"
         "                frontier |= res_flows[rid]\n"),
    ],
}


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_planted_slack_mutants_are_caught(name, monkeypatch):
    cls = mutant_solver(monkeypatch, *MUTANTS[name])
    assert any(mismatch(cls, s) for s in CORPUS), f"{name} survived the corpus"
