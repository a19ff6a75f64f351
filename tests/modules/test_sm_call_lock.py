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
- run modes ``quiet``, ``hook`` (an identity overhead hook), ``noise``
  (a seeded ``OsNoise`` fault plan), ``tenant`` (a background HAN
  allreduce sweep, killed when the foreground finishes) and ``obs`` (an
  ``ObsRecorder``; the case also pins a digest of its spans),

360 cases, and on top of them, in the same run modes:

- SM's scatter, alltoall and barrier on the same node;
- SOLO on the same node and GPU on one ``gpu_cluster`` node of 6
  ranks: all nine collectives, with the same sizes and roots;
- HAN with ``smod="solo"`` on the same two machines and collectives,

1,215 cases in all.  Ranks enter with a staggered skew, so arrival order is not
rank order.  Each case records every rank's exit time, the order in
which the ranks leave (same-instant resume order), ``engine.now``,
``engine.events`` and each rank's progress-server ``jobs`` and
``busy_time``.  Floats are stored with ``float.hex``, so the comparison
is exact.

When a timing-model change is intentional, regenerate the fixture::

    PYTHONPATH=src python -m tests.modules.test_sm_call_lock
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

FIXTURE = Path(__file__).resolve().parent / "sm_call_lock.json"

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
MODES = ("quiet", "hook", "noise", "tenant", "obs")
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


def _identity(kind, who, duration):
    return duration


def _traffic():
    from repro.tenancy import TenantWorkload, TrafficPlan

    return TrafficPlan(seed=7).add(
        TenantWorkload(
            name="bg", coll="allreduce", pattern="sweep",
            sizes=(8, 4 * KiB, 256 * KiB), gap=1e-6, jitter=0.5,
        )
    )


def _span_digest(rec) -> str:
    """sha256 over every span and counter sample, in emission order."""
    h = hashlib.sha256()
    for s in rec.spans:
        args = sorted((k, repr(v)) for k, v in s.args.items())
        h.update(repr((s.sid, s.track, s.name, s.cat, s.t0.hex(),
                       s.t1.hex(), args)).encode())
    for c in rec.counters:
        h.update(repr((c.track, c.name, c.t.hex(), repr(c.value))).encode())
    return h.hexdigest()[:16]


def run_case(key: str) -> dict:
    """What one case pins (see the module docstring)."""
    from repro.core import HanModule
    from repro.core.config import HanConfig
    from repro.faults import FaultPlan, OsNoise
    from repro.faults.machine import FaultyMachineSpec
    from repro.hardware import gpu_cluster, shaheen2
    from repro.modules import make_module
    from repro.mpi import MPIRuntime
    from repro.obs import ObsRecorder
    from repro.sim.fluid import clear_fill_memo
    from repro.tenancy import TenantScheduler

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
    if mode == "noise":
        plan = FaultPlan(seed=3).add(OsNoise(amplitude=0.3, per_op=0.2))
        machine = FaultyMachineSpec.wrap(machine, plan)
    kw = {} if root == "-" else {"root": int(root)}
    clear_fill_memo()
    runtime = MPIRuntime(machine)
    if mode == "hook":
        runtime.engine.overhead_hook = _identity
    rec = ObsRecorder(runtime.engine).attach() if mode == "obs" else None
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

    if mode == "tenant":
        exits = TenantScheduler(runtime, _traffic()).run(prog)
    else:
        exits = runtime.run(prog)
    progress = runtime.fabric.progress
    out = {
        "now": runtime.engine.now.hex(),
        "events": runtime.engine.events,
        "exits": [t.hex() for t in exits],
        "order": order,
        "jobs": [p.jobs for p in progress],
        "busy": [p.busy_time.hex() for p in progress],
    }
    if rec is not None:
        out["spans"] = _span_digest(rec)
    return out


def compute_lock() -> dict:
    return {key: run_case(key) for key in cases()}


def _fixture() -> dict:
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_the_grid():
    assert sorted(_fixture()) == sorted(cases())
    assert len(cases()) == 1215


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize(
    "target",
    ["sm", *(f"han-{m}" for m in HAN_MACHINES), "solo", "gpu",
     *(f"han-solo-{m}" for m in HAN_MACHINES)],
)
def test_schedules_are_pinned(mode, target):
    want = _fixture()
    prefix = f"{mode}/{target}/"
    diffs = []
    for key in cases():
        if not key.startswith(prefix):
            continue
        got = run_case(key)
        if got != want[key]:
            diffs.append(f"  {key}: expected {want[key]!r}, got {got!r}")
    assert not diffs, "SHM call schedules moved:\n" + "\n".join(diffs)


def main() -> int:
    doc = compute_lock()
    lines = (f"{json.dumps(k)}: {json.dumps(doc[k])}" for k in sorted(doc))
    FIXTURE.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {FIXTURE} ({len(doc)} cases)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
