"""Pin the exact schedules of the shared-memory calls and of HAN over
them, quiet and loud.

``test_shm_timing_lock`` pins every intra-node module on quiet runs.
This lock pins what it does not: every SM, SOLO and GPU collective and
HAN's bcast / allreduce over SM and SOLO, under every way a run can be
loud.  The grid is

- SM on one ``shaheen2`` node of 6 ranks: the six collectives x sizes
  0, 1 KiB, 8 KiB + 256 and 1 MiB x roots 0, 1 and ``size - 1`` for
  the rooted ones;
- HAN with ``smod="sm"`` on ``shaheen2`` 4x4 and 8x6: bcast (roots 0
  and ``size - 1``) and allreduce x the same sizes;
- run modes of ``tests/locks.py``: ``quiet``, ``hook`` (an identity
  overhead hook), ``noise`` (a seeded ``OsNoise`` fault plan),
  ``tenant`` (this lock's own background HAN allreduce sweep, killed
  when the foreground finishes) and ``obs`` (an ``ObsRecorder``; the
  case also pins its ``obs_digest``),

360 cases, and on top of them, in the same run modes:

- SM's scatter, alltoall and barrier on the same node;
- SOLO on the same node and GPU on one ``gpu_cluster`` node of 6
  ranks: all nine collectives, with the same sizes and roots;
- HAN with ``smod="solo"`` on the same two machines and collectives,

1,215 cases in all.  Ranks enter with a staggered skew, so arrival order is not
rank order.  Each case records every rank's exit time, the order in
which the ranks leave (same-instant resume order), ``engine.now``,
``engine.events`` and each rank's progress-server ``jobs`` and
``busy_time``.
"""

from __future__ import annotations

import pytest

from tests import locks

KiB, MiB = 1024, 1024 * 1024
SIZES = (0, 1 * KiB, 8 * KiB + 256, 1 * MiB)
SM_RANKS = 6
SM_ROOTED = ("bcast", "reduce", "gather")
SM_UNROOTED = ("allreduce", "allgather", "reduce_scatter")
HAN_MACHINES = {"4x4": (4, 4), "8x6": (8, 6)}
#: the widened grid: per module, the rooted and unrooted collectives
#: the first grid leaves out (every module also runs a barrier)
WIDE_ROOTED = {"sm": ("scatter",), "solo": (*SM_ROOTED, "scatter"),
               "gpu": (*SM_ROOTED, "scatter")}
WIDE_UNROOTED = {"sm": ("alltoall",), "solo": (*SM_UNROOTED, "alltoall"),
                 "gpu": (*SM_UNROOTED, "alltoall")}
#: the harness's run modes, with this lock's own tenant sweep
MODES = {name: locks.MODES[name]
         for name in ("quiet", "hook", "noise", "tenant", "obs")}
MODES["tenant"] = locks.Mode(traffic=locks.tenant(7, 1e-6))
#: per-rank entry skew (seconds), scaled by a scrambled rank index
SKEW = 0.25e-6


def cases():
    """Every case key: ``mode/target/coll/nbytes/root``, where target is
    ``sm``, ``solo``, ``gpu``, ``han-<nodes>x<ppn>`` (over SM) or
    ``han-solo-<nodes>x<ppn>``."""
    keys = []
    for mode in MODES:
        for coll in SM_ROOTED:
            for nbytes in SIZES:
                for root in (0, 1, SM_RANKS - 1):
                    keys.append(f"{mode}/sm/{coll}/{nbytes}/{root}")
        for coll in SM_UNROOTED:
            for nbytes in SIZES:
                keys.append(f"{mode}/sm/{coll}/{nbytes}/-")
        for mname, (nodes, ppn) in HAN_MACHINES.items():
            for nbytes in SIZES:
                for root in (0, nodes * ppn - 1):
                    keys.append(f"{mode}/han-{mname}/bcast/{nbytes}/{root}")
                keys.append(f"{mode}/han-{mname}/allreduce/{nbytes}/-")
    for mode in MODES:
        for mod in WIDE_ROOTED:
            for coll in WIDE_ROOTED[mod]:
                for nbytes in SIZES:
                    for root in (0, 1, SM_RANKS - 1):
                        keys.append(f"{mode}/{mod}/{coll}/{nbytes}/{root}")
            for coll in WIDE_UNROOTED[mod]:
                for nbytes in SIZES:
                    keys.append(f"{mode}/{mod}/{coll}/{nbytes}/-")
            keys.append(f"{mode}/{mod}/barrier/0/-")
        for mname, (nodes, ppn) in HAN_MACHINES.items():
            for nbytes in SIZES:
                for root in (0, nodes * ppn - 1):
                    keys.append(f"{mode}/han-solo-{mname}/bcast/{nbytes}/{root}")
                keys.append(f"{mode}/han-solo-{mname}/allreduce/{nbytes}/-")
    return keys


def run_case(key: str) -> dict:
    """What one case pins (see the module docstring)."""
    from repro.core import HanModule
    from repro.core.config import HanConfig
    from repro.hardware import gpu_cluster, shaheen2
    from repro.modules import make_module

    mode, target, coll, nbytes, root = key.split("/")
    nbytes = int(nbytes)
    if target == "gpu":
        machine = gpu_cluster(num_nodes=1, ppn=SM_RANKS)
        mod = make_module("gpu")
    elif target in ("sm", "solo"):
        machine = shaheen2(num_nodes=1, ppn=SM_RANKS)
        mod = make_module(target)
    else:
        smod, _, mname = target.removeprefix("han-").rpartition("-")
        nodes, ppn = HAN_MACHINES[mname]
        machine = shaheen2(num_nodes=nodes, ppn=ppn)
        mod = HanModule(config=HanConfig(smod=smod or "sm"))
    kw = {} if root == "-" else {"root": int(root)}
    order = []

    def prog(comm):
        size = comm.size
        yield from comm.compute(SKEW * ((3 * comm.rank + 1) % size))
        if coll == "barrier":
            yield from mod.barrier(comm)
        else:
            yield from getattr(mod, coll)(comm, nbytes, **kw)
        order.append(comm.rank)
        return comm.now

    exits, runtime, rec = locks.run(machine, prog, mode=MODES[mode])
    progress = runtime.fabric.progress
    out = {
        "now": runtime.engine.now,
        "events": runtime.engine.events,
        "exits": exits,
        "order": order,
        "jobs": [p.jobs for p in progress],
        "busy": [p.busy_time for p in progress],
    }
    if rec is not None:
        out["obs"] = locks.obs_digest(rec)
    return out


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize(
    "target",
    ["sm", *(f"han-{m}" for m in HAN_MACHINES), "solo", "gpu",
     *(f"han-solo-{m}" for m in HAN_MACHINES)],
)
def test_schedules_are_pinned(mode, target):
    locks.check("sm_call", f"{mode}/{target}/")
