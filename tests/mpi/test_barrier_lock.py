"""Pin the built-in barrier's exit schedule, bit for bit.

Every case records, in the order the ranks leave, each rank's exit as
``(rank, float.hex(instant))``, plus the engine events the run retired:

- world barriers on ``shaheen2`` 16x12, 32x16, 3x5, 1x7 and 5x1 and on
  ``stampede2`` 8x48 and 7x3 (power-of-two and odd sizes, one node, one
  rank per node);
- a barrier on a ``split`` sub-communicator;
- two back-to-back barriers entered after rank-skewed ``comm.compute``;
- ``TaskBench``'s ``"low"`` scope: the node-level communicators of
  ``build_hierarchy(world)``, entered straight after the splits.

Each case runs quiet (its key is the bare case name) and in the loud
run modes of ``tests/locks.py`` (key ``<mode>/<case>``): an identity
overhead hook, seeded ``OsNoise``, seeded ``MessageJitter``, a hook that
halves every ``net_latency``, and an attached ``ObsRecorder``, whose
records are pinned as ``obs_digest``.

Exit order is same-instant resume order, so the lock holds whichever
path a barrier takes to get there.
"""

from __future__ import annotations

import pytest

from tests import locks

WORLD = (
    ("shaheen2", 16, 12), ("shaheen2", 32, 16), ("shaheen2", 3, 5),
    ("shaheen2", 1, 7), ("shaheen2", 5, 1),
    ("stampede2", 8, 48), ("stampede2", 7, 3),
)


def _machine(name: str, nodes: int, ppn: int):
    from repro.hardware import shaheen2, stampede2

    return {"shaheen2": shaheen2, "stampede2": stampede2}[name](
        num_nodes=nodes, ppn=ppn
    )


def _world(comm, log):
    yield from comm.barrier()
    log.append((comm.rank, comm.now))


def _split(comm, log):
    sub = yield from comm.split(color=comm.rank % 3, key=-comm.rank)
    yield from sub.barrier()
    log.append((comm.rank, comm.now))


def _skewed(comm, log):
    for skew in (1e-6, 3e-7):
        yield from comm.compute(skew * (comm.rank % 5))
        yield from comm.barrier()
        log.append((comm.rank, comm.now))


def _low(comm, log):
    from repro.core.subcomms import build_hierarchy

    hier = yield from build_hierarchy(comm)
    yield from hier.low.barrier()
    log.append((comm.rank, comm.now))


PROGRAMS = {
    **{f"world/{m}/{n}x{p}": ((m, n, p), _world) for m, n, p in WORLD},
    "split/shaheen2/4x6": (("shaheen2", 4, 6), _split),
    "skewed/stampede2/3x5": (("stampede2", 3, 5), _skewed),
    "low/shaheen2/6x8": (("shaheen2", 6, 8), _low),
    "low/stampede2/3x5": (("stampede2", 3, 5), _low),
}
LOUD = ("hook", "noise", "jitter", "shrink", "obs")


def cases() -> list[str]:
    """Every case key: ``<case>`` (quiet) or ``<mode>/<case>``."""
    return [*PROGRAMS, *(f"{mode}/{key}" for mode in LOUD for key in PROGRAMS)]


def run_case(key: str) -> dict:
    """The exits (in exit order) and engine events of one case."""
    mode, _, name = key.partition("/")
    if mode not in LOUD:
        mode, name = "quiet", key
    spec, program = PROGRAMS[name]
    log: list = []
    _, runtime, rec = locks.run(_machine(*spec), program, log,
                                mode=locks.MODES[mode])
    out = {"exits": log, "events": runtime.engine.events}
    if rec is not None:
        out["obs"] = locks.obs_digest(rec)
    return out


@pytest.mark.parametrize("key", sorted(cases()))
def test_barrier_exits_are_pinned(key):
    assert locks.result("barrier", key) == locks.fixture("barrier")[key]
