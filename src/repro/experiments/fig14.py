"""Fig 14: MPI_Allreduce on Stampede2 (paper: 1536 processes).

Paper: "HAN is the fastest when message size is between 4MB and 64MB.
Afterward, it delivers a similar performance as MVAPICH2 [multi-leader
allreduce], both significantly outperforming the others."
"""

from __future__ import annotations

from repro.experiments.common import main_wrapper
from repro.experiments.machine_bench import bench_against_libraries


def run(scale: str = "small", save: bool = True, store_dir=None,
        workers: int = 0, cache_dir=None) -> dict:
    """Regenerate Fig 14."""
    return bench_against_libraries(
        fig="Fig 14",
        machine_name="stampede2",
        coll="allreduce",
        rivals=["intelmpi", "mvapich2", "openmpi"],
        scale=scale,
        save=save,
        paper_note=(
            "HAN fastest 4..64MB; ties MVAPICH2 (multi-leader) above; both "
            "clearly beat Intel MPI and default Open MPI at large sizes"
        ),
        store_dir=store_dir,
        workers=workers, cache_dir=cache_dir,
    )


if __name__ == "__main__":
    main_wrapper(run)
