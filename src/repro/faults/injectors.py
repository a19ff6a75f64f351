"""The fault injectors: seeded, deterministic platform perturbations.

Each injector is an immutable description; :meth:`Injector.install` arms
it on one live :class:`~repro.mpi.MPIRuntime` (fresh state per runtime,
so one injector instance can be reused across trials).  Capacity
injectors schedule :meth:`~repro.sim.fluid.FluidSolver.set_capacity`
calls on the engine; timing injectors return an overhead hook that the
owning :class:`~repro.faults.plan.FaultPlan` chains onto
``engine.overhead_hook``.

Targets for capacity injectors are ``(kind, *ids)`` tuples resolved by
:meth:`repro.netsim.fabric.Fabric.fault_resources`::

    ("link", 1, 2)   # interconnect link(s) on the node-1 -> node-2 route
    ("nic", 3)       # both NIC directions of node 3
    ("nic_tx", 3)    # transmit side only
    ("membus", 0)    # node 0's memory bus
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

__all__ = [
    "Injector",
    "LinkDegradation",
    "LinkFlap",
    "MessageJitter",
    "OsNoise",
    "RankSlowdown",
]

#: hook signature: (kind, who, duration) -> duration
OverheadHook = Callable[[str, int, float], float]


class Injector(ABC):
    """One deterministic perturbation of the simulated platform."""

    @abstractmethod
    def install(self, runtime, rng_seq) -> Optional[OverheadHook]:
        """Arm the injector on a live runtime.

        ``rng_seq`` is this injector's private ``numpy.random.SeedSequence``
        child (spawned by the plan); injectors that need randomness derive
        generators from it, deterministic ones ignore it.  Returns an
        overhead hook to chain, or ``None``.
        """


def _capacity_window(runtime, rids, factor, start, end) -> None:
    """Schedule capacity *= factor over [start, end) on the given resources.

    The pre-window capacities are captured at window entry and restored
    verbatim at window exit (a multiplicative restore would divide by
    zero for a dead link), so overlapping windows on the same resource
    compose as last-restore-wins.
    """
    solver = runtime.fabric.solver
    engine = runtime.engine
    saved: dict[int, float] = {}

    def enter() -> None:
        for r in rids:
            saved[r] = solver.capacity(r)
        # one batched rescale: the whole fault domain (e.g. every lane of
        # a trunk route) changes at the same instant with a single
        # accounting advance and one rate recompute
        solver.set_capacities((r, saved[r] * factor) for r in rids)

    def leave() -> None:
        solver.set_capacities((r, saved[r]) for r in rids)

    engine.schedule_at(start, enter)
    if math.isfinite(end):
        engine.schedule_at(end, leave)


def _resolve_target(fabric, target, symmetric: bool) -> Tuple[int, ...]:
    rids = fabric.fault_resources(*target)
    if symmetric and target[0] == "link":
        rids += fabric.fault_resources("link", target[2], target[1])
    if not rids:
        # e.g. a "link" target on a crossbar, which has no internal
        # links -- a silent no-op here would fake a fault-free pass
        raise ValueError(
            f"fault target {target!r} resolved to no hardware resources "
            "(crossbar-style topologies have no internal links; target "
            "the NICs instead)"
        )
    # order-preserving dedup (routes can share links)
    return tuple(dict.fromkeys(rids))


@dataclass(frozen=True)
class LinkDegradation(Injector):
    """Scale a hardware resource's capacity by ``factor`` over a window.

    ``factor=1`` is the identity (useful as an amplitude-zero control);
    ``factor=0`` is a dead resource for the window — use
    :class:`LinkFlap` for that intent.  ``end=inf`` makes the
    degradation permanent.  ``symmetric`` (link targets only) also
    degrades the reverse route.
    """

    target: tuple
    factor: float
    start: float = 0.0
    end: float = math.inf
    symmetric: bool = True

    def __post_init__(self) -> None:
        if self.factor < 0:
            raise ValueError(f"factor must be >= 0, got {self.factor}")
        if not (0 <= self.start <= self.end):
            raise ValueError(f"bad window [{self.start}, {self.end})")

    def install(self, runtime, rng_seq) -> None:
        if self.factor == 1.0:
            return None
        rids = _resolve_target(runtime.fabric, self.target, self.symmetric)
        _capacity_window(runtime, rids, self.factor, self.start, self.end)
        return None


@dataclass(frozen=True)
class LinkFlap(Injector):
    """Kill a resource's capacity over [start, end), then restore it.

    In-flight flows crossing the resource stall at rate zero for the
    window and resume with their remaining bytes when capacity returns;
    max-min fair shares re-converge at both edges.  ``end=inf`` is a
    permanent kill (the scenario HAN's degraded-mode fallback handles).
    """

    target: tuple
    start: float = 0.0
    end: float = math.inf
    symmetric: bool = True

    def install(self, runtime, rng_seq) -> None:
        rids = _resolve_target(runtime.fabric, self.target, self.symmetric)
        _capacity_window(runtime, rids, 0.0, self.start, self.end)
        return None


@dataclass(frozen=True)
class OsNoise(Injector):
    """Per-rank CPU progress-engine jitter (system noise / stragglers).

    Two components, both exponential (the classic heavy-ish-tailed OS
    detour model) and both exactly off at amplitude zero:

    - ``amplitude``: a per-*run* slowdown factor ``1 + amplitude * Exp(1)``
      drawn once per rank at install — node-level interference that
      persists for the whole run (the run-to-run variability of
      Cornebize & Legrand that flips naive tuning decisions);
    - ``per_op``: an extra ``1 + per_op * Exp(1)`` multiplier drawn per
      CPU request — fine-grained detours (daemons, IRQs).

    ``prob`` makes the run-level straggler *intermittent*: each rank is
    affected only with that probability (default 1 = always).  Rare
    large stragglers are the regime where one corrupted sample crowns
    the wrong autotuning winner and median-of-k restores it.  ``ranks``
    restricts the noise to a subset of world ranks.
    """

    amplitude: float = 0.1
    per_op: float = 0.0
    prob: float = 1.0
    ranks: Optional[tuple] = None

    def __post_init__(self) -> None:
        if self.amplitude < 0 or self.per_op < 0:
            raise ValueError("noise amplitudes must be >= 0")
        if not (0 <= self.prob <= 1):
            raise ValueError(f"prob must be in [0, 1], got {self.prob}")

    def install(self, runtime, rng_seq) -> Optional[OverheadHook]:
        if self.amplitude == 0.0 and self.per_op == 0.0:
            return None
        n = runtime.machine.num_ranks
        children = rng_seq.spawn(n + 1)
        factors = np.ones(n)
        if self.amplitude > 0.0:
            for r in range(n):
                if self.ranks is not None and r not in self.ranks:
                    continue
                rng = np.random.Generator(np.random.PCG64(children[r]))
                hit = self.prob >= 1.0 or rng.random() < self.prob
                if hit:
                    factors[r] = 1.0 + self.amplitude * rng.exponential()
        op_rng = np.random.Generator(np.random.PCG64(children[n]))
        per_op, ranks = self.per_op, self.ranks

        def hook(kind: str, who: int, duration: float) -> float:
            if kind != "cpu" or not (0 <= who < n):
                return duration
            if ranks is not None and who not in ranks:
                return duration
            duration *= factors[who]
            if per_op > 0.0:
                duration *= 1.0 + per_op * op_rng.exponential()
            return duration

        return hook


@dataclass(frozen=True)
class MessageJitter(Injector):
    """Perturb point-to-point data latency by ``+ Exp(amplitude)``.

    Only a payload's latency moves: an eager payload's when it is sent,
    a rendezvous payload's after the CTS.  The envelope, the CTS and
    the shared-memory copies of the intra-node modules keep their
    latency.  ``amplitude`` is the *mean* extra latency in seconds;
    zero is the exact identity.  ``ranks`` restricts jitter to messages *sent by*
    those world ranks.
    """

    amplitude: float = 0.0
    ranks: Optional[tuple] = None

    def __post_init__(self) -> None:
        if self.amplitude < 0:
            raise ValueError("amplitude must be >= 0")

    def install(self, runtime, rng_seq) -> Optional[OverheadHook]:
        if self.amplitude == 0.0:
            return None
        rng = np.random.Generator(np.random.PCG64(rng_seq))
        amplitude, ranks = self.amplitude, self.ranks

        def hook(kind: str, who: int, duration: float) -> float:
            if kind != "net_latency":
                return duration
            if ranks is not None and who not in ranks:
                return duration
            return duration + rng.exponential(amplitude)

        return hook


@dataclass(frozen=True)
class RankSlowdown(Injector):
    """Persistent straggler: one rank's CPU work takes ``factor`` x longer.

    Deterministic (no RNG) — the controlled-experiment counterpart of
    :class:`OsNoise`.  A time window confines the slowdown.
    """

    rank: int
    factor: float = 2.0
    start: float = 0.0
    end: float = math.inf

    def __post_init__(self) -> None:
        if self.factor < 1.0:
            raise ValueError(f"slowdown factor must be >= 1, got {self.factor}")

    def install(self, runtime, rng_seq) -> Optional[OverheadHook]:
        if self.factor == 1.0:
            return None
        engine = runtime.engine
        rank, factor, start, end = self.rank, self.factor, self.start, self.end

        def hook(kind: str, who: int, duration: float) -> float:
            if kind == "cpu" and who == rank and start <= engine.now < end:
                return duration * factor
            return duration

        return hook
