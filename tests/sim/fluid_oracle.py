"""Test-side fluid solvers: the global re-solve oracle and a memo-free solver.

:class:`ReferenceSolver` re-solves *every* flow with the vectorized
kernel at every recompute, finds due flows by scanning every horizon and
rebuilds the whole load vector: no component walk, no slack shortcut,
no fill memo.  The production solver must match it bit for bit
(``test_fluid_differential``, ``test_fluid_slack``).  A start-lane rate
it inherits is re-solved at the same instant's recompute, where a wrong
one would be corrected before any time passes, so the oracle's
trajectory is the global solve's either way.

:class:`NoMemoSolver` is the production solver with the process-wide
fill memo bypassed, so the kernels themselves, not replays of their
earlier output, are what a comparison sees.

:func:`solver_class` swaps either one in for every solver a simulation
builds (the fabric constructs them).
"""

from __future__ import annotations

import contextlib

import numpy as np

from repro.netsim import fabric
from repro.sim.fluid import FluidSolver


class ReferenceSolver(FluidSolver):
    """Global re-solve of every flow at every recompute (the oracle)."""

    def _recompute(self) -> None:
        self._recompute_pending = False
        self.recomputes += 1
        self._advance_accounting()
        now = self.engine.now
        due = sorted(
            (f for f in self._flows.values() if f.t_done <= now),
            key=lambda f: f.fid,
        )
        if due:
            self._retire(due)
        self._dirty_fids.clear()
        self._dirty_rids.clear()
        flows = list(self._flows.values())  # dict order is fid order
        if flows:
            self._apply_rates(flows, self._fill_vectorized(flows))
            self.kernel_flows_solved += len(flows)
        load = np.zeros(len(self._capacity))
        for f in flows:
            if f.resources.size:
                load[f.resources] += f.rate
        self._load[:] = load
        self._load_any = bool(flows)
        obs = self.engine.obs
        if obs is not None:
            self._sample_utilization(obs, None)
        else:
            self._obs_last_recorder = None
        self._schedule_next()


class NoMemoSolver(FluidSolver):
    """The production solver with the fill memo bypassed."""

    _progressive_fill = FluidSolver._fill


@contextlib.contextmanager
def solver_class(cls: type):
    """Build every simulation's fluid solver as ``cls`` inside the block."""
    saved = fabric.FluidSolver
    fabric.FluidSolver = cls
    try:
        yield
    finally:
        fabric.FluidSolver = saved
