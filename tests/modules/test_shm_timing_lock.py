"""Pin the exact schedules of the shared-memory modules SM, SOLO and GPU.

Every case runs one collective of one intra-node module on a single node
and records each rank's exit time, the final ``engine.now`` and the
number of events the engine retired.  The grid is

- modules ``sm`` / ``solo`` / ``gpu``,
- fabrics ``flat`` (one NVLink island, ``gpu_cluster``) and ``pod``
  (two islands, ``gpu_pod``, so GPU calls span split fabrics),
- all nine collectives,
- sizes 3000 B, 64 KiB and 1 MB,
- roots 0 and ``size - 1`` for the rooted collectives,
- 6 and 8 ranks,

444 cases.  Ranks enter with a staggered skew, so the arrival order at
every rendezvous is fixed and not simply rank order.
"""

from __future__ import annotations

import pytest

from tests import locks

MODULES = ("sm", "solo", "gpu")
FABRICS = ("flat", "pod")
RANKS = (6, 8)
SIZES = (3000, 65536, 1_000_000)
ROOTED = ("bcast", "reduce", "gather", "scatter")
UNROOTED = ("allreduce", "allgather", "reduce_scatter", "alltoall")
#: per-rank entry skew (seconds), scaled by a scrambled rank index
SKEW = 0.25e-6


def _machine(fabric: str, ranks: int):
    from repro.hardware import gpu_cluster, gpu_pod

    preset = gpu_cluster if fabric == "flat" else gpu_pod
    return preset(num_nodes=1, ppn=ranks)


def cases():
    """Every case key: ``module/fabric/ranks/coll/nbytes/root``."""
    keys = []
    for mod in MODULES:
        for fabric in FABRICS:
            for ranks in RANKS:
                base = f"{mod}/{fabric}/{ranks}"
                for coll in ROOTED:
                    for nbytes in SIZES:
                        for root in (0, ranks - 1):
                            keys.append(f"{base}/{coll}/{nbytes}/{root}")
                for coll in UNROOTED:
                    for nbytes in SIZES:
                        keys.append(f"{base}/{coll}/{nbytes}/-")
                keys.append(f"{base}/barrier/0/-")
    return keys


def run_case(key: str) -> dict:
    """``engine.now``, ``engine.events`` and every rank's exit time."""
    from repro.modules import make_module

    mod_name, fabric, ranks, coll, nbytes, root = key.split("/")
    ranks, nbytes = int(ranks), int(nbytes)
    mod = make_module(mod_name)
    kw = {} if root == "-" else {"root": int(root)}

    def prog(comm):
        yield from comm.compute(SKEW * ((3 * comm.rank + 1) % ranks))
        if coll == "barrier":
            yield from mod.barrier(comm)
        else:
            yield from getattr(mod, coll)(comm, nbytes, **kw)
        return comm.now

    exits, runtime, _ = locks.run(_machine(fabric, ranks), prog)
    return {"now": runtime.engine.now, "events": runtime.engine.events,
            "exits": exits}


@pytest.mark.parametrize("mod_name", MODULES)
@pytest.mark.parametrize("fabric", FABRICS)
@pytest.mark.parametrize("ranks", RANKS)
def test_schedules_are_pinned(mod_name, fabric, ranks):
    locks.check("shm_timing", f"{mod_name}/{fabric}/{ranks}/")
