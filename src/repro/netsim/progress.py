"""Per-rank serial progress server.

Open MPI (as benchmarked in the paper) runs single-threaded: one CPU
drives the MPI progress engine, so the software costs of concurrent
operations *serialize* even when their data transfers overlap perfectly
in hardware.  The paper calls this out explicitly (III-A2): "in
single-threaded MPI, `ib` and `sb` share the same CPU resource to
progress, which affects the performance of both when they are running
simultaneously".

:class:`ProgressServer` is a non-preemptive FIFO server: ``request(d)``
returns a :class:`SimEvent` that fires once ``d`` seconds of exclusive
CPU have been granted after all previously queued work.  Message
overheads, eager copies and reduction kernels all go through it, which is
what makes HAN's measured `sbib` cost exceed ``max(ib, sb)``.
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.sim.engine import Engine, SimEvent

__all__ = ["ProgressServer"]


class ProgressServer:
    """Serial FIFO work queue attached to one simulated rank."""

    __slots__ = (
        "engine", "name", "rank", "_busy_until", "busy_time", "jobs", "_ev_name"
    )

    def __init__(self, engine: Engine, name: str = "", rank: int = -1):
        self.engine = engine
        self.name = name
        # one request() per simulated message makes this a hot path at
        # paper scale; build the event name once instead of per call
        self._ev_name = f"progress:{name}"
        #: world rank this server belongs to (-1 when free-standing);
        #: passed to the engine's overhead hook so per-rank fault
        #: injectors (OS noise, stragglers) can target it
        self.rank = rank
        self._busy_until = 0.0
        # accounting (useful for utilization reports / debugging)
        self.busy_time = 0.0
        self.jobs = 0

    def _grant(self, duration: float, label: str, span_args) -> float:
        """FIFO-grant ``duration`` seconds of CPU; returns the end instant.

        The scheduling decision shared by every request flavor: the job
        starts when the server drains (or now, if idle) and holds the
        CPU exclusively until ``start + duration``.
        """
        if duration < 0:
            raise ValueError(f"negative duration {duration}")
        engine = self.engine
        if engine.overhead_hook is not None:
            duration = engine.overhead_hook("cpu", self.rank, duration)
            # clamped by comparison, not max(0.0, d), which turns a NaN
            # into 0.0: a NaN has to reach schedule_at() and be rejected
            if duration < 0:
                duration = 0.0
        now = engine.now
        start = self._busy_until
        if start < now:
            start = now
        end = start + duration
        self._busy_until = end
        self.busy_time += duration
        self.jobs += 1
        obs = engine.obs
        if obs is not None and duration > 0:
            # Both endpoints are known at request time (FIFO, non-
            # preemptive), so the spans are emitted complete up front.
            track = f"cpu:{self.name or self.rank}"
            sid = -1
            if start > now:
                # queued time is waiting, not work: separate category so
                # the exporter and the critical-path walk never mistake
                # it for busy CPU (it overlaps the prior job's busy span)
                sid = obs.complete(track, "queued", now, start,
                                   "wait", rank=self.rank)
            obs.complete(track, label, start, end, "cpu",
                         rank=self.rank, **span_args)
            # metrics plane: zero-wait jobs count too — the queue-wait
            # distribution is meaningless without its uncontended mass
            obs.cpu_job(self.rank, duration, start - now, sid=sid)
        return end

    def request(self, duration: float, label: str = "cpu", **span_args) -> SimEvent:
        """Queue ``duration`` seconds of CPU; the event fires when done.

        ``label`` and ``span_args`` only feed the observability layer
        (span name / extra attributes); they never affect timing.
        """
        ev = SimEvent(self.engine, self._ev_name)
        end = self._grant(duration, label, span_args)
        # succeed() with no argument delivers None to every waiter;
        # scheduling the bound method skips a per-request lambda
        self.engine.schedule_at(end, ev.succeed)
        return ev

    def request_call(
        self, duration: float, fn: Callable[[], None],
        label: str = "cpu", **span_args,
    ) -> None:
        """Like :meth:`request`, but fire ``fn()`` directly when done.

        The grant math, heap placement and sequence allocation are
        identical to ``request()`` — a caller switching from
        ``request(d).callbacks.append(f)`` to ``request_call(d, f)``
        gets a bit-identical schedule — it just skips the
        SimEvent/succeed machinery, which is pure overhead for the
        fire-and-forget continuations the message pipeline queues per
        send/recv (two per message at paper scale).
        """
        end = self._grant(duration, label, span_args)
        self.engine.schedule_at(end, fn)

    def request_burst(
        self, durations: Sequence[float], label: str = "cpu",
    ) -> list[SimEvent]:
        """Queue a back-to-back burst of jobs; one event per job.

        One :meth:`request` per duration, in order, except that a
        negative duration anywhere rejects the burst before any job is
        queued.
        """
        if any(d < 0 for d in durations):
            raise ValueError("negative duration in burst")
        return [self.request(d, label) for d in durations]

    @property
    def backlog(self) -> float:
        """Seconds of queued work not yet finished."""
        return max(0.0, self._busy_until - self.engine.now)
