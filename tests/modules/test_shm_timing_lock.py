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
every rendezvous is fixed and not simply rank order.  The simulator is
deterministic and the fixture stores floats verbatim, so the comparison
is exact equality.

When a timing-model change is intentional, regenerate the fixture::

    PYTHONPATH=src python -m tests.modules.test_shm_timing_lock
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

FIXTURE = Path(__file__).resolve().parent / "shm_timing_lock.json"

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


def run_case(key: str) -> list:
    """``[engine.now, engine.events, [exit time per rank]]`` for one case."""
    from repro.modules import make_module
    from repro.mpi import MPIRuntime
    from repro.sim.fluid import clear_fill_memo

    mod_name, fabric, ranks, coll, nbytes, root = key.split("/")
    ranks, nbytes = int(ranks), int(nbytes)
    clear_fill_memo()
    runtime = MPIRuntime(_machine(fabric, ranks))
    mod = make_module(mod_name)
    kw = {} if root == "-" else {"root": int(root)}
    exits = [None] * ranks

    def prog(comm):
        yield from comm.compute(SKEW * ((3 * comm.rank + 1) % ranks))
        if coll == "barrier":
            yield from mod.barrier(comm)
        else:
            yield from getattr(mod, coll)(comm, nbytes, **kw)
        exits[comm.rank] = comm.now

    runtime.run(prog)
    return [runtime.engine.now, runtime.engine.events, exits]


def compute_lock() -> dict:
    return {key: run_case(key) for key in cases()}


def _fixture() -> dict:
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_the_grid():
    assert sorted(_fixture()) == sorted(cases())
    assert len(cases()) == 444


@pytest.mark.parametrize("mod_name", MODULES)
@pytest.mark.parametrize("fabric", FABRICS)
@pytest.mark.parametrize("ranks", RANKS)
def test_schedules_are_pinned(mod_name, fabric, ranks):
    want = _fixture()
    prefix = f"{mod_name}/{fabric}/{ranks}/"
    diffs = []
    for key in cases():
        if not key.startswith(prefix):
            continue
        got = run_case(key)
        if got != want[key]:
            diffs.append(f"  {key}: expected {want[key]!r}, got {got!r}")
    assert not diffs, "shared-memory schedules moved:\n" + "\n".join(diffs)


def main() -> int:
    doc = compute_lock()
    lines = (f"{json.dumps(k)}: {json.dumps(doc[k])}" for k in sorted(doc))
    FIXTURE.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {FIXTURE} ({len(doc)} cases)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
