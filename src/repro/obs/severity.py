"""PICO-style severity grading, shared by insights and serve verdicts.

PICO's key observation is that collective-performance findings are only
actionable when they are *quantified*: "allreduce violates its
composition bound" matters very differently at 2% and at 200% excess,
and an operator triaging thousands of findings needs them ranked by
damage, not listed pass/fail.  Every graded violation therefore carries:

- ``cost_seconds`` — the excess over the guideline bound, in seconds:
  how much wall time the violation costs per occurrence;
- ``cost_bytes``   — the bytes-equivalent of that excess at the point's
  achieved throughput (``nbytes / time * excess``): how much payload
  could have moved in the wasted time;
- ``grade``        — ``"warn"`` below :data:`ERROR_REL_EXCESS` relative
  excess, ``"error"`` at or above it (``"ok"`` when within tolerance).

The guideline catalog in :mod:`repro.obs.insights` grades every check
this way, for served decisions and measured runs alike, so a flagged
stored decision and a flagged measured run rank on one scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "ERROR_REL_EXCESS",
    "GRADE_RANK",
    "Severity",
    "grade_excess",
    "severity",
]

#: relative excess below this grades a violation "warn", above "error"
ERROR_REL_EXCESS = 0.10

#: grades ranked from harmless to worst (verdicts and findings order by it)
GRADE_RANK = {"ok": 0, "warn": 1, "error": 2}


def grade_excess(rel_excess: float) -> str:
    """``"warn"`` / ``"error"`` grade of one relative excess."""
    return "error" if rel_excess >= ERROR_REL_EXCESS else "warn"


@dataclass(frozen=True)
class Severity:
    """Quantified severity of one guideline violation."""

    grade: str  # "ok" | "warn" | "error"
    cost_seconds: float
    cost_bytes: float
    rel_excess: float

    @property
    def ok(self) -> bool:
        return self.grade == "ok"

    def to_doc(self) -> dict:
        return {
            "grade": self.grade,
            "cost_seconds": self.cost_seconds,
            "cost_bytes": self.cost_bytes,
            "rel_excess": self.rel_excess,
        }


#: the all-clear severity
OK = Severity(grade="ok", cost_seconds=0.0, cost_bytes=0.0, rel_excess=0.0)


def severity(time_s: float, bound_s: float, nbytes: float = 0.0,
             tol: float = 0.0) -> Severity:
    """Grade ``time_s`` against the guideline bound ``bound_s``.

    ``tol`` is the relative tolerance the check allows before it counts
    as a violation (a time within ``bound * (1 + tol)`` grades ``"ok"``);
    the *cost* is always measured against the bound itself, so two
    checks with different tolerances still rank on one damage scale.
    ``nbytes`` (when known) converts the excess into a bytes-equivalent
    at the point's achieved throughput.
    """
    if not (math.isfinite(time_s) and math.isfinite(bound_s)) \
            or bound_s <= 0.0:
        if time_s <= bound_s:
            return OK
        return Severity(grade="error", cost_seconds=float("inf"),
                        cost_bytes=float("inf"), rel_excess=float("inf"))
    if time_s <= bound_s * (1.0 + tol):
        return OK
    excess = time_s - bound_s
    rel = time_s / bound_s - 1.0
    cost_bytes = nbytes / time_s * excess if time_s > 0 and nbytes else 0.0
    return Severity(grade=grade_excess(rel), cost_seconds=excess,
                    cost_bytes=cost_bytes, rel_excess=rel)
