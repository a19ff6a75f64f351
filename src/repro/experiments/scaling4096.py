"""Paper-scale run: HAN collectives at 4096 processes (256 nodes x 16).

The published evaluation runs up to 4096 processes; the incremental
fluid solver is what makes that geometry tractable in simulation (a
global solver re-solves every in-flight flow at every rate event).
This module times MPI_Bcast and MPI_Allreduce at 1 MiB on the full
geometry and reports both the simulated collective times and the
engine event count; the ``scale4096`` workload of
``benchmarks/perf/run.py`` pins both on every run, and
``tests/sim/test_fluid_oracle_runs.py`` bit-compares the quick
geometry under the global re-solve oracle.

Scales:

- ``quick``  -- 16 nodes x 4 ppn; seconds, used by the bench's ``--quick``,
- ``small``  -- 32 nodes x 8 ppn,
- ``medium`` -- 64 nodes x 16 ppn,
- ``paper``  -- 256 nodes x 16 ppn = 4096 processes.
"""

from __future__ import annotations

from repro.core.config import HanConfig
from repro.experiments.common import (
    fmt_time,
    main_wrapper,
    print_table,
    run_store,
    save_result,
)
from repro.hardware import shaheen2
from repro.sim.engine import Engine
from repro.tuning.measure import measure_collective

KiB, MiB = 1024, 1024 * 1024

GEOM = {
    "quick": (16, 4),
    "small": (32, 8),
    "medium": (64, 16),
    "paper": (256, 16),
}

COLLS = ("bcast", "allreduce")
NBYTES = 1 * MiB


def run(scale: str = "small", save: bool = True, store_dir=None) -> dict:
    """Time bcast + allreduce at (up to) 4096 simulated processes."""
    if scale not in GEOM:
        raise ValueError(
            f"unknown scale {scale!r}; want one of {tuple(GEOM)}"
        )
    nodes, ppn = GEOM[scale]
    machine = shaheen2(num_nodes=nodes, ppn=ppn)
    config = HanConfig(fs=512 * KiB)
    # an explicitly requested store dir is honored even under
    # --no-save; only the default results/store is save-gated
    store = run_store(store_dir) if (save or store_dir) else None
    out: dict = {
        "geometry": f"{machine.name} {nodes}x{ppn} "
                    f"({machine.num_ranks} processes)",
        "nbytes": NBYTES,
        "times": {},
        "events": {},
    }
    rows = []
    for coll in COLLS:
        ev0 = Engine.events_total
        m = measure_collective(machine, coll, NBYTES, config,
                               store=store, store_source="scaling4096")
        events = Engine.events_total - ev0
        # repr() keeps the full float; json round-trips it exactly, so
        # the bench's before/after bit-comparison stays meaningful.
        out["times"][coll] = m.time
        out["events"][coll] = events
        rows.append((coll, fmt_time(m.time), f"{events:,}"))
    print_table(
        f"Scaling: 1 MiB collectives at {machine.num_ranks} processes",
        ["collective", "simulated time", "engine events"],
        rows,
    )
    if save:
        save_result(f"scaling4096_{scale}", out, config=config)
    return out


if __name__ == "__main__":
    main_wrapper(run)
