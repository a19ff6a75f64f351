"""Fig 15: Horovod (AlexNet, synthetic data) scaling on Stampede2.

Paper: due to a site configuration problem only Intel MPI, default Open
MPI and HAN ran; "increasing gains for HAN as the number of processes
increases, becoming 24.30% and 9.05% faster than default Open MPI and
Intel MPI on 1536 processes".
"""

from __future__ import annotations

from repro.apps import horovod_run
from repro.comparators import OpenMPIHan, library_by_name
from repro.experiments.common import (
    geometry,
    main_wrapper,
    print_table,
    save_result,
    tuned_decision,
)

#: (nodes, ppn) sweep per scale; paper sweeps up to 32x48 = 1536
SWEEPS = {
    "small": [(2, 12), (4, 12), (8, 12)],
    "medium": [(4, 16), (8, 16), (16, 16)],
    "paper": [(8, 48), (16, 48), (32, 48)],
}


def run(scale: str = "small", save: bool = True) -> dict:
    """Regenerate Fig 15 (Horovod throughput scaling)."""
    out = {"scale": scale, "points": []}
    rows = []
    for nodes, ppn in SWEEPS[scale]:
        machine = geometry("stampede2", "small").scaled(
            num_nodes=nodes, ppn=ppn
        )
        decide = tuned_decision(machine, colls=("allreduce",), save=save)
        libs = [
            OpenMPIHan(decision_fn=decide),
            library_by_name("intelmpi"),
            library_by_name("openmpi"),
        ]
        point = {"ranks": machine.num_ranks, "images_per_sec": {}}
        res = {lib.name: horovod_run(machine, lib, steps=1) for lib in libs}
        for name, r in res.items():
            point["images_per_sec"][name] = r.images_per_sec
        han = res["han"].images_per_sec
        rows.append(
            (
                machine.num_ranks,
                f"{han:.0f}",
                f"{res['intelmpi'].images_per_sec:.0f}",
                f"{res['openmpi'].images_per_sec:.0f}",
                f"{100 * (han / res['intelmpi'].images_per_sec - 1):+.1f}%",
                f"{100 * (han / res['openmpi'].images_per_sec - 1):+.1f}%",
            )
        )
        out["points"].append(point)
    print_table(
        "Fig 15: Horovod AlexNet throughput (images/s)",
        ["ranks", "HAN", "Intel MPI", "Open MPI", "HAN vs Intel",
         "HAN vs OMPI"],
        rows,
    )
    print(
        "\npaper reference at 1536 ranks: HAN +9.05% vs Intel MPI, "
        "+24.30% vs default Open MPI; gains grow with scale"
    )
    print(
        "note: the growth-with-scale trend needs paper-scale rank counts "
        "(flat-ring chunk collapse); at reduced scale HAN wins every "
        "point on allreduce cost -- see EXPERIMENTS.md"
    )
    if save:
        save_result("fig15_horovod", out)
    return out


if __name__ == "__main__":
    main_wrapper(run)
