"""Table III: ASP (parallel Floyd-Warshall) on Stampede2.

Paper setup: 1536 processes, 1M-row matrix (4MB row broadcasts), first
1536 iterations so every process roots once.  Paper results:

================  ==========  ============
library           comm ratio  HAN speedup
================  ==========  ============
HAN               46.41%      1.00x
Intel MPI         50.24%      1.08x
MVAPICH2          69.29%      1.80x
default Open MPI  81.77%      2.43x
================  ==========  ============
"""

from __future__ import annotations

from repro.apps import asp_run
from repro.comparators import OpenMPIHan, library_by_name
from repro.experiments.common import (
    geometry,
    main_wrapper,
    print_table,
    save_result,
    tuned_decision,
)

#: matrix rows: the paper's 1M rows (4MB broadcasts) at every scale --
#: the row size, not the rank count, determines the bcast regime
N_VERTICES = {"small": 1_000_000, "medium": 1_000_000, "paper": 1_000_000}


def run(scale: str = "small", save: bool = True) -> dict:
    """Regenerate Table III."""
    machine = geometry("stampede2", scale)
    n = N_VERTICES[scale]
    decide = tuned_decision(machine, colls=("bcast",), save=save)
    han = OpenMPIHan(decision_fn=decide)
    libs = [
        han,
        library_by_name("intelmpi"),
        library_by_name("mvapich2"),
        library_by_name("openmpi"),
    ]
    # Calibrate the FW-update rate so HAN sits at the paper's balance
    # point (46.41% communication); the other libraries' ratios and the
    # speedups then fall out of their broadcast costs (see
    # repro.apps.asp.calibrated_flops).
    from repro.apps import calibrated_flops

    flops = calibrated_flops(machine, han, n, target_comm_ratio=0.4641)
    results = {
        lib.name: asp_run(machine, lib, n_vertices=n, flops=flops)
        for lib in libs
    }
    han_total = results["han"].total_time
    rows = []
    out = {
        "machine": f"{machine.name} {machine.num_nodes}x{machine.ppn}",
        "n_vertices": n,
        "iterations": results["han"].iterations,
        "libraries": {},
    }
    for name, res in results.items():
        speedup = res.total_time / han_total
        rows.append(
            (
                name,
                f"{res.total_time * 1e3:.1f}ms",
                f"{res.comm_time * 1e3:.1f}ms",
                f"{res.comm_ratio * 100:.2f}%",
                f"{speedup:.2f}x",
            )
        )
        out["libraries"][name] = {
            "total_s": res.total_time,
            "comm_s": res.comm_time,
            "comm_ratio_pct": res.comm_ratio * 100,
            "han_speedup": speedup,
        }
    print_table(
        f"Table III: ASP, {machine.num_ranks} processes, "
        f"{n:,}-row matrix, first {results['han'].iterations} iterations",
        ["library", "total", "comm", "comm ratio", "HAN speedup"],
        rows,
    )
    print(
        "\npaper reference: comm ratios 46.41/50.24/69.29/81.77% "
        "(HAN/Intel/MVAPICH2/OMPI); speedups 1.08x/1.80x/2.43x"
    )
    print(
        "note: in this zero-noise simulator the default Open MPI flat "
        "chain pipelines across ASP iterations (wavefront), an idealised "
        "behaviour real 1536-rank systems do not sustain -- see "
        "EXPERIMENTS.md"
    )
    if save:
        save_result("table3_asp", out)
    return out


if __name__ == "__main__":
    main_wrapper(run)
