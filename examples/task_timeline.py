#!/usr/bin/env python
"""Visualize HAN's task schedule — the living version of paper Figs 1/5.

Runs a pipelined hierarchical broadcast with tracing enabled and prints
an ASCII Gantt chart of the per-rank tasks: node leaders execute
``ib(0), sbib(1..u-1), sb(u-1)`` while other ranks run ``sb(i)`` streams,
with the inter-node broadcasts overlapping the intra-node ones.

Run:  python examples/task_timeline.py
"""

from repro.core import HanConfig
from repro.core.han import han_segments
from repro.core.subcomms import build_hierarchy
from repro.hardware import small_cluster
from repro.modules import make_module
from repro.mpi import MPIRuntime
from repro.obs import ObsRecorder

MiB = 1024 * 1024
CFG = HanConfig(fs=1 * MiB, imod="adapt", smod="solo",
                ibalg="chain", iralg="chain", ibs=512 * 1024)
NBYTES = 4 * MiB


def main():
    machine = small_cluster(num_nodes=3, ppn=3)
    runtime = MPIRuntime(machine)
    # used as a plain span registry: not attached, so the stack's own
    # instrumentation stays off and only the tasks below are recorded
    rec = ObsRecorder(runtime.engine)

    def prog(comm):
        hier = yield from build_hierarchy(comm)
        imod, smod = make_module(CFG.imod), make_module(CFG.smod)
        u, seg_bytes, _ = han_segments(NBYTES, CFG.fs, None)
        low, up = hier.low, hier.up
        me = f"rank{comm.rank}"
        if hier.local_rank == 0:
            task = rec.begin(me, "ib")
            req = imod.ibcast(up, seg_bytes[0], root=0,
                              algorithm=CFG.ibalg, segsize=CFG.ibs)
            yield from up.wait(req)
            rec.end(task)
            for i in range(1, u):
                task = rec.begin(me, "sbib")
                req = imod.ibcast(up, seg_bytes[i], root=0,
                                  algorithm=CFG.ibalg, segsize=CFG.ibs)
                yield from smod.bcast(low, seg_bytes[i - 1], root=0)
                yield from up.wait(req)
                rec.end(task)
            task = rec.begin(me, "sb")
            yield from smod.bcast(low, seg_bytes[u - 1], root=0)
            rec.end(task)
        else:
            for i in range(u):
                task = rec.begin(me, "sb")
                yield from smod.bcast(low, seg_bytes[i], root=0)
                rec.end(task)

    runtime.run(prog)
    assert rec.spans and not any(sp.open for sp in rec.spans)
    total = runtime.engine.now
    width = 72
    print(f"HAN bcast of {NBYTES >> 20} MiB, fs={CFG.fs >> 20} MiB "
          f"({han_segments(NBYTES, CFG.fs, None)[0]} segments), "
          f"{machine.num_nodes} nodes x {machine.ppn} ppn -- "
          f"total {total * 1e3:.3f} ms\n")
    glyph = {"ib": "I", "sbib": "B", "sb": "s"}
    for rank in range(machine.num_ranks):
        me = f"rank{rank}"
        line = [" "] * width
        for task, g in glyph.items():
            for sp in rec.spans:
                if sp.track != me or sp.name != task:
                    continue
                lo = int(sp.t0 / total * (width - 1))
                hi = max(lo + 1, int(sp.t1 / total * (width - 1)))
                for x in range(lo, min(hi, width)):
                    line[x] = g
        role = "leader" if rank % machine.ppn == 0 else "      "
        print(f"rank {rank:2d} {role} |{''.join(line)}|")
    print("\nI = ib(0)   B = sbib(i) (inter+intra overlapped)   s = sb(i)")
    print("Leaders stream sbib tasks; other ranks' sb(i) wait on each "
          "segment -- the schedule of paper Fig 1.")


if __name__ == "__main__":
    main()
