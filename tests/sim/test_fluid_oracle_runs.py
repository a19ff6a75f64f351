"""Whole simulations under the test-side oracle solvers, bit for bit.

The quick ``scaling4096`` experiment (HAN bcast and allreduce, 1 MiB, 16x4)
and the perf benchmark's 4x4 warm-up task sweep (over bcast and
allreduce) run once with the production fluid solver, once under the
global re-solve oracle (``ReferenceSolver``) and once with the fill memo
bypassed (``NoMemoSolver``): simulated times, engine event counts,
tuning cost and winners must not move.  The oracle re-solves every flow
at every recompute without the memo, so a start lane, retire skip or
closure cut that changed a rate shows here on real collectives.
"""

from __future__ import annotations

import contextlib
import io

import pytest

from repro.experiments import scaling4096
from repro.hardware import shaheen2
from repro.sim.engine import Engine
from repro.sim.fluid import FluidSolver, clear_fill_memo
from repro.tuning import Autotuner, SearchSpace
from tests.sim.fluid_oracle import NoMemoSolver, ReferenceSolver, solver_class

KiB, MiB = 1024.0, 1024.0 * 1024.0


def scaling_quick() -> tuple:
    clear_fill_memo()
    with contextlib.redirect_stdout(io.StringIO()):
        out = scaling4096.run(scale="quick", save=False)
    return out["times"], out["events"]


def warm_up_sweep() -> tuple:
    clear_fill_memo()
    space = SearchSpace(seg_sizes=(512 * KiB,), messages=(64.0 * KiB, 1.0 * MiB),
                        adapt_algorithms=("chain",), inner_segs=(None,))
    events = Engine.events_total
    report = Autotuner(shaheen2(num_nodes=4, ppn=4), space=space, warm_iters=6,
                       workers=0, cache=None).tune(("bcast", "allreduce"), "task")
    winners = [(coll, n, p, m, cfg.key(), t)
               for coll, n, p, m, cfg, t in report.winners()]
    return report.tuning_cost, winners, Engine.events_total - events


@pytest.fixture(scope="module")
def production() -> dict:
    with solver_class(FluidSolver):
        return {"scaling": scaling_quick(), "sweep": warm_up_sweep()}


@pytest.mark.parametrize("cls", [ReferenceSolver, NoMemoSolver],
                         ids=["reference", "no_memo"])
@pytest.mark.parametrize("run", ["scaling", "sweep"])
def test_oracle_solver_leaves_the_simulation_unmoved(production, cls, run):
    with solver_class(cls):
        got = scaling_quick() if run == "scaling" else warm_up_sweep()
    assert got == production[run]
