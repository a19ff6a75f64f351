"""Discrete-event simulation substrate.

This package provides the generic simulation machinery the rest of the
reproduction is built on:

- :mod:`repro.sim.engine` -- a deterministic discrete-event engine whose
  simulated processes are plain Python generators (SimPy-style, but
  self-contained and tuned for the message volumes of collective
  communication simulation).
- :mod:`repro.sim.fluid` -- a max-min fair-share ("progressive filling")
  fluid bandwidth allocator used to model links, NICs and memory buses as
  shared resources.

Nothing in this package knows about MPI; it is a general substrate.
"""

from repro.sim.engine import (
    AllOf,
    AnyOf,
    DeadlockError,
    Engine,
    Join,
    SimEvent,
    SimProcess,
    Sleep,
    Spawn,
)
from repro.sim.fluid import FluidSolver, Flow

__all__ = [
    "AllOf",
    "AnyOf",
    "DeadlockError",
    "Engine",
    "Flow",
    "FluidSolver",
    "Join",
    "SimEvent",
    "SimProcess",
    "Sleep",
    "Spawn",
]
