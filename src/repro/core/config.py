"""HAN configuration: the autotuned parameters of paper Table II."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from operator import attrgetter
from typing import Optional

__all__ = ["HanConfig"]

#: the tuned parameters, in Table II order: the identity of a config
#: (:meth:`HanConfig.key`) and the fields of its JSON form
#: (:meth:`HanConfig.to_dict`)
_TUNED_FIELDS = ("fs", "imod", "smod", "ibalg", "iralg", "ibs", "irs")
_tuned = attrgetter(*_TUNED_FIELDS)


@dataclass(frozen=True)
class HanConfig:
    """One configuration of a HAN collective (the output of autotuning).

    Mirrors Table II of the paper:

    ======  =====================================================
    symbol  meaning
    ======  =====================================================
    fs      segment size in the HAN module (pipeline granularity)
    imod    submodule used for inter-node ('libnbc' or 'adapt')
    smod    submodule used for intra-node ('sm' or 'solo')
    ibalg   inter-node bcast algorithm, if the submodule supports
            choosing one (ADAPT: chain / binary / binomial)
    iralg   inter-node reduce algorithm, if supported
    ibs     inter-node bcast segment size, if supported
    irs     inter-node reduce segment size, if supported
    ======  =====================================================

    ``fs=None`` disables HAN-level segmentation (single segment).
    ``ibalg``/``ibs`` must be ``None`` for submodules without algorithm /
    segment support (Libnbc).

    ``seed`` is the single top-level entropy source of a run: every
    stochastic component (fault injectors, noise models) derives child
    generators from it via :meth:`seed_sequence` and
    ``numpy.random.SeedSequence.spawn`` — no module-level RNG state
    anywhere.  It is *not* a tuned parameter: it is excluded from
    equality, hashing and :meth:`key`, so two configs that differ only in
    seed are the same tuning decision.
    """

    fs: Optional[float] = 512 * 1024
    imod: str = "libnbc"
    smod: str = "sm"
    ibalg: Optional[str] = None
    iralg: Optional[str] = None
    ibs: Optional[float] = None
    irs: Optional[float] = None
    seed: Optional[int] = field(default=None, compare=False)

    def __post_init__(self) -> None:
        from repro.modules import INTER_MODULES, INTRA_MODULES

        if self.imod not in INTER_MODULES:
            raise ValueError(
                f"imod must be one of {sorted(INTER_MODULES)}, got {self.imod!r}"
            )
        if self.smod not in INTRA_MODULES:
            raise ValueError(
                f"smod must be one of {sorted(INTRA_MODULES)}, got {self.smod!r}"
            )
        if self.fs is not None and self.fs <= 0:
            raise ValueError("fs must be positive or None")
        if self.imod == "libnbc":
            for f in ("ibalg", "iralg", "ibs", "irs"):
                if getattr(self, f) is not None:
                    raise ValueError(
                        f"{f} is only supported by submodules with algorithm "
                        f"selection (ADAPT), not {self.imod!r}"
                    )

    def with_(self, **kw) -> "HanConfig":
        """Functional update (used heavily by the search loops)."""
        return replace(self, **kw)

    def seed_sequence(self) -> "object":
        """Root ``numpy.random.SeedSequence`` for this run.

        Stochastic components must spawn children from this (never share
        or re-seed ad hoc)::

            rng_a, rng_b = (np.random.Generator(np.random.PCG64(s))
                            for s in cfg.seed_sequence().spawn(2))
        """
        import numpy as np

        return np.random.SeedSequence(0 if self.seed is None else self.seed)

    def key(self) -> tuple:
        """Hashable identity used by lookup tables."""
        return _tuned(self)

    def to_dict(self) -> dict:
        """The tuned fields, JSON-ready (seed excluded)."""
        return dict(zip(_TUNED_FIELDS, _tuned(self)))

    def describe(self) -> str:
        parts = [f"fs={_fmt(self.fs)}", f"imod={self.imod}", f"smod={self.smod}"]
        if self.ibalg:
            parts.append(f"ibalg={self.ibalg}")
        if self.iralg:
            parts.append(f"iralg={self.iralg}")
        if self.ibs:
            parts.append(f"ibs={_fmt(self.ibs)}")
        if self.irs:
            parts.append(f"irs={_fmt(self.irs)}")
        return " ".join(parts)


def _fmt(n) -> str:
    if n is None:
        return "whole"
    n = float(n)
    for unit in ("B", "KB", "MB"):
        if n < 1024:
            return f"{n:g}{unit}"
        n /= 1024
    return f"{n:g}GB"
