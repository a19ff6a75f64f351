"""Fig 12: MPI_Bcast on Stampede2 (paper: 1536 processes).

Paper: "HAN outperforms every other tested MPI on both small and large
messages.  It achieves up to 1.15X, 2.28X, 5.35X speedup on small
messages, and up to 1.39X, 3.83X, 1.73X speedup on large messages
against Intel MPI, MVAPICH2 and default Open MPI, respectively."
"""

from __future__ import annotations

from repro.experiments.common import main_wrapper
from repro.experiments.machine_bench import bench_against_libraries


def run(scale: str = "small", save: bool = True, store_dir=None,
        workers: int = 0, cache_dir=None) -> dict:
    """Regenerate Fig 12."""
    return bench_against_libraries(
        fig="Fig 12",
        machine_name="stampede2",
        coll="bcast",
        rivals=["intelmpi", "mvapich2", "openmpi"],
        scale=scale,
        save=save,
        paper_note=(
            "HAN up to 1.15x/2.28x/5.35x (small) and 1.39x/3.83x/1.73x "
            "(large) vs Intel MPI / MVAPICH2 / default Open MPI"
        ),
        store_dir=store_dir,
        workers=workers, cache_dir=cache_dir,
    )


if __name__ == "__main__":
    main_wrapper(run)
