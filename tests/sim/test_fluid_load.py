"""The instantaneous load vector is exact after every recompute.

The incremental solver refreshes ``_load`` only on the resources whose
flows changed rate, retired, aborted or were rescaled.  Over the whole
differential corpus (flat and fabric schedules) every recompute is
hooked and the vector compared, bit for bit, with a from-scratch
rebuild: each resource's incident rates summed from 0.0 in fid order.
Two planted mutants of the refresh show the check has teeth.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.sim.fluid import FluidSolver
from tests.sim.test_fluid_differential import (
    make_fabric_schedule,
    make_schedule,
    run_schedule,
)

CORPUS = [("flat", s) for s in range(200)] + [("fabric", s) for s in range(100)]
MAKERS = {"flat": make_schedule, "fabric": make_fabric_schedule}


def rebuilt_load(solver: FluidSolver) -> np.ndarray:
    load = np.zeros(solver.num_resources)
    for fid in sorted(solver._flows):
        f = solver._flows[fid]
        for rid in f.res_unique:
            load[rid] += f.rate
    return load


def load_mismatches(kind: str, seed: int, monkeypatch) -> tuple[int, int]:
    """(recomputes, recomputes leaving a load vector unlike the rebuild)."""
    counts = [0, 0]
    recompute = FluidSolver._recompute

    def checked(self):
        recompute(self)
        counts[0] += 1
        if self._load.tobytes() != rebuilt_load(self).tobytes():
            counts[1] += 1

    with monkeypatch.context() as m:
        m.setattr(FluidSolver, "_recompute", checked)
        run_schedule("incremental", MAKERS[kind](seed), memo=True, monkeypatch=m)
    return counts[0], counts[1]


@pytest.mark.parametrize("kind, seed", CORPUS)
def test_load_exact_after_every_recompute(kind, seed, monkeypatch):
    recomputes, bad = load_mismatches(kind, seed, monkeypatch)
    assert recomputes > 0
    assert bad == 0


_REFRESH = FluidSolver._refresh_load


def _skip_dirty_rids(self, changed, dirty_rids):
    """Mutant: refresh only the routes of re-rated flows, so a resource
    whose flows retired or aborted keeps its stale load."""
    return _REFRESH(self, changed, set())


def _set_order_sum(self, changed, dirty_rids):
    """Mutant: sum each resource's rates in set order, not fid order."""
    rids = set(dirty_rids)
    for f in changed:
        rids |= f.res_uset
    for rid in rids:
        acc = 0.0
        for fid in self._res_flows[rid]:
            acc += self._flows[fid].rate
        self._load[rid] = acc


@pytest.mark.parametrize("mutant", [_skip_dirty_rids, _set_order_sum])
def test_planted_refresh_mutants_are_caught(mutant, monkeypatch):
    monkeypatch.setattr(FluidSolver, "_refresh_load", mutant)
    caught = next(
        ((kind, seed) for kind, seed in CORPUS
         if load_mismatches(kind, seed, monkeypatch)[1]),
        None,
    )
    assert caught is not None, f"{mutant.__name__} survived the whole corpus"
