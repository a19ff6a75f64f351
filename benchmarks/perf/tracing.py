"""Wall-clock spans around public callables, recorded from outside ``src/``.

The traced run of the benchmark replaces the public callables listed in
:mod:`layers` with timing wrappers (``setattr``, undone by
:meth:`Tracer.restore`).  Nothing inside the program is edited.

- A *span* is ``(id, name, start, end, parent id, repetition)``.  Spans
  live in memory and are written out once, when the run ends.
- *Self time* of a call is its duration minus the time its child calls
  cover.  It is computed on the way out of every call from a frame
  stack, so it is exact for folded calls too.
- *Folding*: a callable invoked more than ``fold_after`` times in one
  repetition stops producing spans and is summed into a
  ``(name, parent name)`` accumulator of ``[count, total_s, self_s]``
  instead; it stays folded for the rest of the run, so the measured
  repetitions after the warm-up hold no spans for hot callables at all.
- Generator functions return before their body runs, so they are wrapped
  *count only* (:meth:`Tracer.count`).

The clock reads taken between a child's exit and its parent's next
instruction are charged to the parent's self time: tracing overhead
lands on callers of hot callables.  ``bench.trace_overhead`` reports its
size.
"""

from __future__ import annotations

import functools
import time
from typing import Callable, Optional

__all__ = ["ROOT", "Tracer"]

#: name of the span that brackets one repetition; its self time is the
#: time spent outside every wrapped callable (``bench.unattributed_share``)
ROOT = "bench.repetition"


class Tracer:
    def __init__(self, fold_after: int = 10_000,
                 clock: Callable[[], float] = time.perf_counter):
        self.fold_after = fold_after
        self.clock = clock
        #: (id, name, start, end, parent id or None, repetition)
        self.spans: list[tuple] = []
        #: repetition -> (name, parent name) -> [count, total_s, self_s]
        self.folded: dict[int, dict[tuple[str, str], list]] = {}
        #: repetition -> name -> [calls, total_s, self_s], folded or not
        self.totals: dict[int, dict[str, list]] = {}
        #: repetition -> name -> calls of count-only callables
        self.counts: dict[int, dict[str, int]] = {}
        self.rep: Optional[int] = None
        self._hot: set[str] = set()
        self._seen: dict[str, int] = {}
        self._stack: list[list] = []  # frames: [name, span id, child_s]
        self._next_id = 0
        self._root_start = 0.0
        self._patched: list[tuple[object, str, object]] = []

    # -- installing and removing wrappers --------------------------------------

    def patch(self, owner, attr: str, replacement) -> None:
        """``setattr(owner, attr, replacement)``, undone by :meth:`restore`."""
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def wrap(self, owner, attr: str, name: str) -> None:
        """Time every call of ``owner.attr`` as a span called ``name``."""
        self.patch(owner, attr, self._timed(name, vars(owner)[attr]))

    def count(self, owner, attr: str, name: str) -> None:
        """Count calls of ``owner.attr`` (for generator functions)."""
        fn = vars(owner)[attr]

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if self.rep is not None:
                counts = self.counts[self.rep]
                counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        self.patch(owner, attr, counted)

    def restore(self) -> None:
        """Put every patched attribute back, last patch first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    # -- recording -------------------------------------------------------------

    def _timed(self, name: str, fn):
        stack, clock, leave = self._stack, self.clock, self._leave

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            if not stack:  # outside a repetition: run untraced
                return fn(*args, **kwargs)
            frame = [name, self._next_id, 0.0]
            self._next_id += 1
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                leave(frame, start, clock())

        return timed

    def _leave(self, frame: list, start: float, end: float) -> None:
        stack = self._stack
        stack.pop()
        name, sid, child_s = frame
        duration = end - start
        parent = stack[-1] if stack else None
        if parent is not None:
            parent[2] += duration
        rep = self.rep
        total = self.totals[rep].get(name)
        if total is None:
            total = self.totals[rep][name] = [0, 0.0, 0.0]
        total[0] += 1
        total[1] += duration
        total[2] += duration - child_s
        if name not in self._hot:
            seen = self._seen.get(name, 0) + 1
            self._seen[name] = seen
            if seen <= self.fold_after:
                self.spans.append((sid, name, start, end,
                                   None if parent is None else parent[1],
                                   rep))
                return
            self._hot.add(name)
        key = (name, parent[0] if parent is not None else "")
        acc = self.folded[rep].get(key)
        if acc is None:
            acc = self.folded[rep][key] = [0, 0.0, 0.0]
        acc[0] += 1
        acc[1] += duration
        acc[2] += duration - child_s

    def begin_rep(self, rep: int) -> None:
        """Open the root span of repetition ``rep``."""
        self.rep = rep
        self.folded[rep] = {}
        self.totals[rep] = {}
        self.counts[rep] = {}
        self._seen = {}
        frame = [ROOT, self._next_id, 0.0]
        self._next_id += 1
        self._stack.append(frame)
        self._root_start = self.clock()

    def end_rep(self) -> float:
        """Close the root span; returns the repetition's traced wall."""
        end = self.clock()
        self._leave(self._stack[-1], self._root_start, end)
        self.rep = None
        return end - self._root_start

    # -- reading ---------------------------------------------------------------

    def calls(self, rep: int, name: str) -> int:
        total = self.totals[rep].get(name)
        return total[0] if total else self.counts[rep].get(name, 0)

    def total_s(self, rep: int, name: str) -> float:
        total = self.totals[rep].get(name)
        return total[1] if total else 0.0

    def self_s(self, rep: int, name: str) -> float:
        total = self.totals[rep].get(name)
        return total[2] if total else 0.0

    def to_doc(self, reps) -> dict:
        """JSON document of the given repetitions (see README)."""
        reps = list(reps)
        keep = set(reps)
        return {
            "fold_after": self.fold_after,
            "repetitions": reps,
            "spans": [
                {"id": sid, "name": name, "start": start, "end": end,
                 "parent": parent, "rep": rep}
                for sid, name, start, end, parent, rep in self.spans
                if rep in keep
            ],
            "folded": [
                {"name": name, "parent": parent, "rep": rep,
                 "count": acc[0], "total_s": acc[1], "self_s": acc[2]}
                for rep in reps
                for (name, parent), acc in sorted(self.folded[rep].items())
            ],
            "totals": {
                str(rep): {
                    name: {"calls": t[0], "total_s": t[1], "self_s": t[2]}
                    for name, t in sorted(self.totals[rep].items())
                }
                for rep in reps
            },
            "counts": {str(rep): dict(sorted(self.counts[rep].items()))
                       for rep in reps},
        }
