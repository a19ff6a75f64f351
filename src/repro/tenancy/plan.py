"""The TrafficPlan: a declarative, seedable schedule of tenant jobs.

Mirrors :class:`repro.faults.FaultPlan` deliberately — same immutability,
same ``seed`` / ``trial`` realization semantics, same entropy tree
(:mod:`repro.util.entropy`)::

    SeedSequence(seed, spawn_key=(trial,))
        ├── child 0  -> tenant 0's RNG stream (gap jitter)
        ├── child 1  -> tenant 1's RNG stream
        └── ...

so one ``(seed, trial)`` pair is one reproducible background-traffic
realization, and the fault and traffic subsystems can share a top-level
seed without their streams interfering (they spawn from *different*
plan roots).

A plan is plain data end to end: it digests through
:func:`repro.tuning.cache.canonical` for the measurement-key contract,
and round-trips through JSON (:meth:`TrafficPlan.to_doc` /
:meth:`TrafficPlan.from_doc`) for CLI ``--traffic-plan`` file specs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Tuple

from repro.core.config import HanConfig
from repro.util.entropy import entropy_children

__all__ = [
    "PATTERNS",
    "TRAFFIC_PRESETS",
    "TenantWorkload",
    "TrafficPlan",
    "load_traffic",
    "traffic_preset",
]

KiB, MiB = 1024, 1024 * 1024

#: the three background-traffic shapes a tenant can replay
PATTERNS = ("periodic", "bursty", "sweep")

#: collectives a tenant may drive (must accept ``op(comm, nbytes)`` or
#: ``op(comm, nbytes, root=...)`` on :class:`~repro.core.han.HanModule`)
ROOTED_COLLS = ("bcast", "reduce")


@dataclass(frozen=True)
class TenantWorkload:
    """One background tenant: a job replaying a collective pattern.

    ======== =========================================================
    field    meaning
    ======== =========================================================
    name     label for stats / metrics (must be unique within a plan)
    coll     HAN collective the tenant drives
    pattern  ``periodic`` (one op per interval), ``bursty`` (``burst``
             back-to-back ops per interval), ``sweep`` (interval ops
             cycling through ``sizes``)
    nbytes   message size (``periodic`` / ``bursty``)
    sizes    message-size cycle (``sweep``; overrides ``nbytes``)
    gap      mean idle time between iterations, simulated seconds
    jitter   fractional gap perturbation drawn from the tenant's seeded
             RNG stream: ``gap * (1 + jitter * U[-1, 1))``
    burst    ops per iteration (>= 2 only for ``bursty``)
    ranks    world ranks the tenant occupies (``None`` = all of them)
    config   the tenant's own :class:`HanConfig` (``None`` = default)
    root     root rank for rooted collectives
    max_ops  stop after this many collectives (0 = run until stopped)
    ======== =========================================================
    """

    name: str
    coll: str = "allreduce"
    pattern: str = "periodic"
    nbytes: float = 256 * KiB
    sizes: Tuple[float, ...] = ()
    gap: float = 0.0
    jitter: float = 0.0
    burst: int = 1
    ranks: Optional[Tuple[int, ...]] = None
    config: Optional[HanConfig] = None
    root: int = 0
    max_ops: int = 0

    def __post_init__(self) -> None:
        if self.pattern not in PATTERNS:
            raise ValueError(
                f"pattern must be one of {PATTERNS}, got {self.pattern!r}"
            )
        if self.pattern == "sweep" and len(self.sizes) < 2:
            raise ValueError("sweep tenants need at least two sizes")
        if self.pattern != "sweep" and self.sizes:
            raise ValueError("sizes is only meaningful for pattern='sweep'")
        if self.pattern == "bursty" and self.burst < 2:
            raise ValueError("bursty tenants need burst >= 2")
        if self.pattern != "bursty" and self.burst != 1:
            raise ValueError("burst != 1 is only meaningful for pattern='bursty'")
        if self.gap < 0 or self.jitter < 0:
            raise ValueError("gap and jitter must be >= 0")
        if self.nbytes <= 0:
            raise ValueError("nbytes must be positive")
        if any(s <= 0 for s in self.sizes):
            raise ValueError("every sweep size must be positive")
        if self.max_ops < 0:
            raise ValueError("max_ops must be >= 0")

    def size_cycle(self) -> Tuple[float, ...]:
        """The message sizes one iteration's ops cycle through."""
        return self.sizes if self.sizes else (self.nbytes,)


@dataclass(frozen=True)
class TrafficPlan:
    """An immutable set of tenant workloads plus the entropy to drive them.

    ``seed=None`` means "resolve later" — consumers that own a
    :class:`~repro.core.HanConfig` substitute ``config.seed`` (see
    ``tuning.measure``); a still-unresolved seed falls back to 0 so a
    bare plan stays deterministic.  ``trial`` selects one traffic
    realization; repeated-trial measurement re-installs the plan with
    ``for_trial(0..k-1)``, exactly like :class:`FaultPlan`.
    """

    tenants: Tuple[TenantWorkload, ...] = ()
    seed: Optional[int] = None
    trial: int = 0

    def __post_init__(self) -> None:
        names = [t.name for t in self.tenants]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate tenant names in {names}")

    def add(self, *tenants: TenantWorkload) -> "TrafficPlan":
        """Functional append (plans are immutable)."""
        return replace(self, tenants=self.tenants + tuple(tenants))

    def with_seed(self, seed: Optional[int]) -> "TrafficPlan":
        return replace(self, seed=seed)

    def for_trial(self, trial: int) -> "TrafficPlan":
        """The same tenants under the ``trial``-th traffic realization."""
        return replace(self, trial=int(trial))

    def resolve_seed(self, fallback: Optional[int]) -> "TrafficPlan":
        """Fill an unset seed from ``fallback`` (e.g. ``HanConfig.seed``)."""
        if self.seed is not None or fallback is None:
            return self
        return replace(self, seed=fallback)

    def tenant_children(self):
        """One entropy child per tenant, in tenant order (the shared tree)."""
        return entropy_children(self.seed, len(self.tenants), trial=self.trial)

    def describe(self) -> str:
        ten = ", ".join(
            f"{t.name}:{t.coll}/{t.pattern}" for t in self.tenants
        ) or "none"
        return f"TrafficPlan(seed={self.seed}, trial={self.trial}, [{ten}])"

    # -- JSON spec round-trip -----------------------------------------------------

    def to_doc(self) -> dict:
        """JSON-safe rendering (CLI file specs, result provenance)."""
        tenants = [
            {
                "name": t.name, "coll": t.coll, "pattern": t.pattern,
                "nbytes": t.nbytes, "sizes": list(t.sizes),
                "gap": t.gap, "jitter": t.jitter, "burst": t.burst,
                "ranks": None if t.ranks is None else list(t.ranks),
                "config": None if t.config is None else t.config.to_dict(),
                "root": t.root, "max_ops": t.max_ops,
            }
            for t in self.tenants
        ]
        return {
            "__kind__": "traffic_plan",
            "seed": self.seed,
            "trial": self.trial,
            "tenants": tenants,
        }

    @classmethod
    def from_doc(cls, doc: dict) -> "TrafficPlan":
        """Inverse of :meth:`to_doc` (tolerates a missing ``__kind__``)."""
        tenants = []
        for t in doc.get("tenants", ()):
            t = dict(t)
            cfg = t.get("config")
            if cfg is not None:
                t["config"] = HanConfig(**cfg)
            t["sizes"] = tuple(t.get("sizes") or ())
            ranks = t.get("ranks")
            t["ranks"] = None if ranks is None else tuple(ranks)
            tenants.append(TenantWorkload(**t))
        return cls(
            tenants=tuple(tenants),
            seed=doc.get("seed"),
            trial=int(doc.get("trial", 0)),
        )


# -- named presets (CLI --traffic-plan) ---------------------------------------------


def _allreduce_sweep() -> TrafficPlan:
    """One tenant sweeping allreduce sizes — the two-tenant smoke's load."""
    return TrafficPlan().add(
        TenantWorkload(
            name="bg-allreduce",
            coll="allreduce",
            pattern="sweep",
            sizes=(64 * KiB, 256 * KiB, 1 * MiB),
            gap=2e-5,
            jitter=0.5,
        )
    )


def _bcast_periodic() -> TrafficPlan:
    return TrafficPlan().add(
        TenantWorkload(
            name="bg-bcast",
            coll="bcast",
            pattern="periodic",
            nbytes=512 * KiB,
            gap=5e-5,
            jitter=0.25,
        )
    )


def _bursty_mix() -> TrafficPlan:
    """Two tenants: a bursty allreduce plus a steady periodic bcast."""
    return TrafficPlan().add(
        TenantWorkload(
            name="bg-bursty-allreduce",
            coll="allreduce",
            pattern="bursty",
            nbytes=256 * KiB,
            burst=3,
            gap=1e-4,
            jitter=0.5,
        ),
        TenantWorkload(
            name="bg-steady-bcast",
            coll="bcast",
            pattern="periodic",
            nbytes=128 * KiB,
            gap=2e-5,
        ),
    )


TRAFFIC_PRESETS = {
    "allreduce_sweep": _allreduce_sweep,
    "bcast_periodic": _bcast_periodic,
    "bursty_mix": _bursty_mix,
}


def traffic_preset(name: str) -> TrafficPlan:
    """A named background-traffic plan (see :data:`TRAFFIC_PRESETS`)."""
    try:
        return TRAFFIC_PRESETS[name]()
    except KeyError:
        raise ValueError(
            f"unknown traffic preset {name!r}; "
            f"want one of {sorted(TRAFFIC_PRESETS)}"
        ) from None


def load_traffic(spec: str, seed: Optional[int] = None) -> TrafficPlan:
    """A plan from a ``--traffic-plan`` spec: preset name or JSON file.

    The shared resolution rule for every CLI surface (``repro.tuning.cli``,
    the experiment drivers): preset names win, anything else must be a
    path to a :meth:`TrafficPlan.to_doc` JSON document.  ``seed``, when
    given, overrides the plan's own.
    """
    import json
    from pathlib import Path

    if spec in TRAFFIC_PRESETS:
        plan = TRAFFIC_PRESETS[spec]()
    else:
        path = Path(spec)
        if not path.exists():
            raise ValueError(
                f"traffic plan {spec!r} is neither a preset "
                f"({', '.join(sorted(TRAFFIC_PRESETS))}) nor a JSON file"
            )
        plan = TrafficPlan.from_doc(json.loads(path.read_text()))
    return plan.with_seed(seed) if seed is not None else plan
