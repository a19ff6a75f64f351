"""Interned solve-memo keys: ids never alias, and sharing survives interning.

A memo key is ``(caps id, flow item id, ...)``: the ids name a capacity
vector and a flow's ``(route, rate_cap, weight)``.  Two properties keep
that sound and useful: an id held by a live solver across
``clear_fill_memo()`` can never select an entry stored for another
value, and equal values still meet under one id, so short-lived solvers
with the same machine keep sharing entries.
"""

from __future__ import annotations

import pytest

from repro.hardware import shaheen2
from repro.sim import fluid
from repro.sim.engine import Engine
from repro.sim.fluid import FluidSolver, clear_fill_memo, fill_memo_sizes
from repro.tuning import Autotuner, SearchSpace

KiB, MiB = 1024.0, 1024.0 * 1024.0


@pytest.fixture(autouse=True)
def _cold_memo():
    clear_fill_memo()
    yield
    clear_fill_memo()


def _solver_a(log: list, clear_at: float | None, second_solver):
    """Two flows share r0 from t=0; at t=2 a short third flow joins and
    retires, so the original pair is re-solved after ``clear_at``."""
    engine = Engine()
    solver = FluidSolver(engine)
    r0 = solver.add_resource(100.0)
    r1 = solver.add_resource(70.0)
    fids = {}

    def probe(tag):
        log.append((tag, engine.now, tuple(solver.flow_rate(fids[k]) for k in "ab")))

    fids["a"] = solver.start_flow(500.0, [r0, r1], lambda: log.append(("a", engine.now)),
                                  weight=1.5)
    fids["b"] = solver.start_flow(900.0, [r0], lambda: log.append(("b", engine.now)))
    engine.schedule_at(0.5, lambda: probe("t0"))
    if clear_at is not None:
        engine.schedule_at(clear_at, second_solver)
    engine.schedule_at(2.0, lambda: solver.start_flow(
        10.0, [r0], lambda: log.append(("c", engine.now)), rate_cap=40.0))
    engine.schedule_at(2.1, lambda: probe("t1"))
    engine.schedule_at(2.8, lambda: probe("t2"))
    engine.run()
    return solver


def _solver_b():
    """Different capacities, routes and weights, driven to completion: with
    ids drawn afresh after the clear it would intern the same id numbers
    as the first solver did before it, and store different rates there."""
    engine = Engine()
    solver = FluidSolver(engine)
    s0 = solver.add_resource(30.0)
    s1 = solver.add_resource(11.0)
    solver.start_flow(50.0, [s0], lambda: None, weight=3.0)
    solver.start_flow(50.0, [s0, s1], lambda: None, rate_cap=8.0)
    engine.run()
    assert solver.fill_cache_hits == 0


def test_cleared_ids_cannot_alias_a_live_solvers_entries(monkeypatch):
    monkeypatch.setenv("REPRO_FLUID_FILL_MEMO", "0")
    ref: list = []
    _solver_a(ref, None, None)

    monkeypatch.setenv("REPRO_FLUID_FILL_MEMO", "1")

    def clear_then_second_solver():
        clear_fill_memo()
        _solver_b()

    got: list = []
    _solver_a(got, 1.0, clear_then_second_solver)
    assert got == ref
    # the pair's rates before the third flow, beside it, and after it left
    probes = [entry[2] for entry in ref if entry[0].startswith("t")]
    assert probes[0] == probes[2] != probes[1]


def test_equal_capacity_vectors_share_entries():
    def run():
        engine = Engine()
        solver = FluidSolver(engine)
        r = solver.add_resource(100.0)
        s = solver.add_resource(40.0)
        solver.start_flow(300.0, [r, s], lambda: None)
        solver.start_flow(300.0, [r], lambda: None, weight=2.0)
        engine.run()
        return solver

    first = run()
    assert first.fill_cache_hits == 0
    second = run()  # a new solver: new flows, same capacities and routes
    assert second.fill_cache_hits > 0
    assert second.kernel_stats()["recomputes"] == first.kernel_stats()["recomputes"]


def test_warm_up_sweep_counts_are_pinned(monkeypatch):
    """The 4x4 warm-up task sweep of the perf benchmark: a keying change
    that loses sharing between its twelve solvers moves these counts."""
    solvers: list[FluidSolver] = []
    init = FluidSolver.__init__

    def registering(self, *args, **kwargs):
        init(self, *args, **kwargs)
        solvers.append(self)

    monkeypatch.setattr(FluidSolver, "__init__", registering)
    space = SearchSpace(seg_sizes=(512 * KiB,), messages=(64.0 * KiB, 1.0 * MiB),
                        adapt_algorithms=("chain",), inner_segs=(None,))
    report = Autotuner(shaheen2(num_nodes=4, ppn=4), space=space, warm_iters=6,
                       workers=0, cache=None).tune(("bcast",), "task")
    assert report.tuning_cost == 0.06576230678274436
    assert len(solvers) == 12
    assert sum(s.recomputes for s in solvers) == 727
    assert sum(s.kernel_flows_solved for s in solvers) == 2998
    assert sum(s.fill_cache_hits for s in solvers) == 372
    assert fill_memo_sizes() == (99, 0)


def test_ids_are_flat_ints_and_never_reissued():
    engine = Engine()
    solver = FluidSolver(engine)
    r = solver.add_resource(100.0)
    solver.start_flow(100.0, [r], lambda: None)
    solver.start_flow(100.0, [r, r], lambda: None)
    engine.run(until=0.1)
    (key,) = fluid._FILL_MEMO
    assert all(type(part) is int for part in key)
    clear_fill_memo()
    fresh = fluid._intern(fluid._ITEM_IDS, ("a fresh value",))
    assert fresh > max(key)
