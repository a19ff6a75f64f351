"""Summary statistics and the two-run comparison rule.

Host times are summarized as a median with quartiles and a sample count;
a tail is reported at the highest percentile that still has at least ten
samples beyond it (choosing-metrics guide, section 1).  Comparing two
runs follows section 6 of the same guide: a metric whose run-to-run
spread is wider than its bound is *unresolved*, not unchanged.
"""

from __future__ import annotations

import math
import statistics
from typing import Optional, Sequence

__all__ = ["compare_metric", "summarize", "tail_percentile"]

#: percentiles a tail may be reported at, highest first
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)
#: samples that must lie beyond a reported percentile
TAIL_BEYOND = 10


def summarize(samples: Sequence[float]) -> dict:
    """Median, quartiles and count of ``samples`` (at least one)."""
    samples = list(samples)
    if len(samples) >= 2:
        # the same quartiles the acceptance check of the benchmark uses
        q1, _q2, q3 = statistics.quantiles(samples, n=4)
    else:
        q1 = q3 = samples[0]
    return {"value": statistics.median(samples), "q1": q1, "q3": q3,
            "n": len(samples)}


def tail_percentile(samples: Sequence[float]) -> Optional[tuple[float, float]]:
    """``(percentile, value)`` at the highest percentile with at least
    ten samples beyond it (nearest rank); None with too few samples."""
    ordered = sorted(samples)
    n = len(ordered)
    for p in TAIL_PERCENTILES:
        rank = math.ceil(round(p * n / 100.0, 9))  # 1-based nearest rank
        if n - rank >= TAIL_BEYOND:
            return p, ordered[rank - 1]
    return None


def compare_metric(a: dict, b: dict, better: str, bound: float) -> dict:
    """Verdict for one metric of one workload, run ``a`` against ``b``.

    ``a`` and ``b`` are metric entries (``value`` plus ``samples``).
    ``bound`` is the share of ``a``'s median by which ``b`` may be
    worse.  Verdicts: ``ok``, ``regressed``, ``unresolved``.
    """
    va, vb = a["value"], b["value"]
    sign = 1.0 if better == "lower" else -1.0
    worse = sign * (vb - va) / abs(va)  # > 0: b is worse
    sa = a.get("samples") or [va]
    sb = b.get("samples") or [vb]
    spread = max(_iqr(sa), _iqr(sb)) / abs(va)
    if spread > bound:
        all_better = max(sign * x for x in sb) < min(sign * x for x in sa)
        verdict = "ok" if all_better else "unresolved"
    else:
        verdict = "regressed" if worse > bound else "ok"
    return {"a": va, "b": vb, "rel": worse, "spread": spread,
            "bound": bound, "verdict": verdict}


def _iqr(samples: Sequence[float]) -> float:
    s = summarize(samples)
    return s["q3"] - s["q1"]
