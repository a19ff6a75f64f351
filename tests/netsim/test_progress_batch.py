"""Bit-identity of ``ProgressServer``'s other entry points with ``request``.

``request_call`` and ``request_burst`` must give the exact schedule a
loop of ``request`` calls gives, double for double: grant instants,
``busy_time``, ``jobs`` and the busy horizon.  ``request_call`` takes
its own grant path and is held to ``request`` on random durations with
zeros mixed in.  ``request_burst`` is a negative-duration check followed
by one ``request`` per duration, and these tests pin that it stays so:
equal to the loop at t = 0 and after an idle gap, one overhead-hook
call per job in order, nothing queued for an empty burst, and a
``ValueError`` for a burst holding a negative duration.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.netsim.progress import ProgressServer
from repro.sim.engine import Engine


def _durations(seed: int, n: int = 24) -> list[float]:
    rng = np.random.default_rng(seed)
    d = (10.0 ** rng.uniform(-8, -3, n)).tolist()
    # sprinkle exact zeros (zero-cost jobs are legal and common for
    # zero-byte control messages)
    for i in rng.choice(n, size=3, replace=False).tolist():
        d[i] = 0.0
    return d


def _run_sequential(durations, idle_start=0.0, hook=None):
    eng = Engine()
    eng.overhead_hook = hook
    srv = ProgressServer(eng, "s", rank=3)
    times: list[float] = []

    def submit() -> None:
        for d in durations:
            srv.request(d).callbacks.append(lambda _e: times.append(eng.now))

    eng.schedule_at(idle_start, submit)
    eng.run()
    return times, srv.busy_time, srv.jobs, srv._busy_until


def _run_call(durations, idle_start=0.0, hook=None):
    eng = Engine()
    eng.overhead_hook = hook
    srv = ProgressServer(eng, "s", rank=3)
    times: list[float] = []

    def submit() -> None:
        for d in durations:
            srv.request_call(d, lambda: times.append(eng.now))

    eng.schedule_at(idle_start, submit)
    eng.run()
    return times, srv.busy_time, srv.jobs, srv._busy_until


def _run_burst(durations, idle_start=0.0, hook=None):
    eng = Engine()
    eng.overhead_hook = hook
    srv = ProgressServer(eng, "s", rank=3)
    times: list[float] = []

    def submit() -> None:
        for ev in srv.request_burst(durations):
            ev.callbacks.append(lambda _e: times.append(eng.now))

    eng.schedule_at(idle_start, submit)
    eng.run()
    return times, srv.busy_time, srv.jobs, srv._busy_until


@pytest.mark.parametrize("seed", range(10))
def test_request_call_matches_request_bitwise(seed):
    d = _durations(seed)
    assert _run_call(d) == _run_sequential(d)


@pytest.mark.parametrize("seed", range(10))
def test_burst_matches_sequential_requests_bitwise(seed):
    d = _durations(seed)
    assert _run_burst(d) == _run_sequential(d)


def test_burst_after_idle_gap_starts_at_now():
    # server idle since t=0; burst submitted at t=5 must start there
    d = [0.25, 0.5]
    seq = _run_sequential(d, idle_start=5.0)
    assert seq[0] == [5.25, 5.75]
    assert _run_burst(d, idle_start=5.0) == seq


def test_burst_consults_overhead_hook_per_job():
    calls: list[tuple[str, int, float]] = []

    def hook(kind: str, rank: int, dur: float) -> float:
        calls.append((kind, rank, dur))
        return dur * 2.0

    d = [0.5, 0.25, 0.0]
    seq = _run_sequential(d, hook=hook)
    seq_calls, calls[:] = list(calls), []
    burst = _run_burst(d, hook=hook)
    assert burst == seq
    assert calls == seq_calls  # same (kind, rank, duration) sequence


def test_empty_burst_is_a_noop():
    eng = Engine()
    srv = ProgressServer(eng, "s")
    assert srv.request_burst([]) == []
    assert (srv.jobs, srv.busy_time) == (0, 0.0)


def test_negative_duration_in_burst_rejected():
    eng = Engine()
    srv = ProgressServer(eng, "s")
    with pytest.raises(ValueError, match="negative duration"):
        srv.request_burst([0.1, -0.1])
