#!/usr/bin/env python
"""Fault injection walkthrough: a dead link and HAN's degraded mode.

Simulates a 5-node ring (1D torus) cluster whose link between nodes 2
and 3 dies, and shows the three layers of the fault subsystem working
together:

1. a :class:`~repro.faults.LinkFlap` window stalls an allreduce
   mid-flight and lets it resume — the fluid network re-converges at
   both edges of the outage;
2. a *permanent* kill wedges every hierarchical schedule crossing the
   link, so :class:`~repro.core.HanModule` with ``degraded_timeout``
   probes the inter-node fabric, detects the dead link and falls back
   to a flat star schedule routed around it (watch the task timeline);
3. seeded :class:`~repro.faults.OsNoise` makes run-to-run variability
   reproducible: same seed, same timings — different trial, different
   noise.

Run:  python examples/faulty_cluster.py
"""

import dataclasses

import numpy as np

from repro.core.han import HanModule
from repro.faults import FaultPlan, FaultyMachineSpec, LinkFlap, OsNoise
from repro.hardware import small_cluster
from repro.mpi import MPIRuntime
from repro.obs import ObsRecorder

KiB = 1024


def ring5(ppn=2):
    """5 nodes on a 1D torus: node i links only to its ring neighbors."""
    return dataclasses.replace(
        small_cluster(num_nodes=5, ppn=ppn),
        topology="torus", topo_params={"dims": (5,)},
    )


def allreduce_prog(han, nbytes, rec=None):
    def prog(comm):
        payload = np.full(int(nbytes // 8), float(comm.rank + 1))
        if rec is not None:
            task = rec.begin(f"rank{comm.rank}", "allreduce")
        out = yield from han.allreduce(comm, nbytes, payload=payload)
        if rec is not None:
            rec.end(task)
        return comm.now, float(out[0])
    return prog


def main():
    base = ring5()
    expect = sum(range(1, base.num_ranks + 1))

    # -- 1. a transient outage: stall and resume --------------------------
    print("1. transient outage (links 2<->3 dead for [0.2ms, 5ms))")
    healthy = MPIRuntime(base)
    t_healthy = max(t for t, _ in healthy.run(allreduce_prog(HanModule(), 256 * KiB)))
    flap = FaultPlan().add(LinkFlap(("link", 2, 3), start=0.2e-3, end=5e-3))
    rt = MPIRuntime(FaultyMachineSpec.wrap(base, flap))
    res = rt.run(allreduce_prog(HanModule(), 256 * KiB))
    t_flap = max(t for t, _ in res)
    assert all(v == expect for _, v in res)
    print(f"   healthy: {t_healthy * 1e3:7.3f} ms")
    print(f"   flapped: {t_flap * 1e3:7.3f} ms  "
          "(stalled across the window, then resumed -- still correct)\n")

    # -- 2. a permanent kill: degraded-mode fallback ----------------------
    print("2. permanent kill + degraded mode (probe timeout 2 ms)")
    kill = FaultPlan().add(LinkFlap(("link", 2, 3)))
    rt = MPIRuntime(FaultyMachineSpec.wrap(base, kill))
    # a plain span registry: not attached as ``engine.obs``, so only
    # the spans opened in allreduce_prog are recorded
    rec = ObsRecorder(rt.engine)
    han = HanModule(degraded_timeout=2e-3)
    res = rt.run(allreduce_prog(han, 256 * KiB, rec))
    assert all(v == expect for _, v in res)
    print(f"   completed in {max(t for t, _ in res) * 1e3:.3f} ms via the "
          "flat star fallback (sum still correct)")
    print("   task timeline (tail):")
    for sp in sorted(rec.spans, key=lambda sp: sp.t1)[-6:]:
        print(f"   {sp.t1 * 1e6:12.3f}us  {sp.track:20s} {sp.name}:end")
    span = next(sp for sp in rec.spans if sp.track == "rank0")
    print(f"   rank0 allreduce span: {span.t0 * 1e3:.3f} -> "
          f"{span.t1 * 1e3:.3f} ms "
          "(the first ~2 ms is the probe detecting the dead link)\n")

    # -- 3. seeded noise: reproducible variability ------------------------
    print("3. seeded OS noise (amplitude 0.3)")
    times = {}
    for label, trial in (("seed 7 / trial 0", 0), ("seed 7 / trial 0 again", 0),
                         ("seed 7 / trial 1", 1)):
        noisy = FaultPlan(seed=7, trial=trial).add(OsNoise(amplitude=0.3))
        rt = MPIRuntime(FaultyMachineSpec.wrap(base, noisy))
        res = rt.run(allreduce_prog(HanModule(), 256 * KiB))
        times[label] = max(t for t, _ in res)
        print(f"   {label:24s} {times[label] * 1e3:7.3f} ms")
    assert times["seed 7 / trial 0"] == times["seed 7 / trial 0 again"]
    assert times["seed 7 / trial 0"] != times["seed 7 / trial 1"]
    print("   same (seed, trial) reproduces exactly; a new trial is a "
          "fresh noise realization")


if __name__ == "__main__":
    main()
