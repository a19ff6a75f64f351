"""Fig 13: MPI_Allreduce on Shaheen II (paper: 4096 processes).

Paper: significant improvement over default Open MPI everywhere; "HAN
shows better performance than Cray MPI after the message size is larger
than 2MB and eventually achieves up to 1.12X speedup"; on *small*
messages HAN lags because its small-message submodules (Libnbc, SM) lack
AVX reductions (paper IV-A2).
"""

from __future__ import annotations

from repro.experiments.common import main_wrapper
from repro.experiments.machine_bench import bench_against_libraries


def run(scale: str = "small", save: bool = True, store_dir=None,
        workers: int = 0, cache_dir=None) -> dict:
    """Regenerate Fig 13."""
    return bench_against_libraries(
        fig="Fig 13",
        machine_name="shaheen2",
        coll="allreduce",
        rivals=["openmpi", "craympi"],
        scale=scale,
        save=save,
        paper_note=(
            "HAN > default Open MPI everywhere; crossover vs Cray MPI near "
            "2MB, up to 1.12x beyond; HAN behind on small (no AVX in SM/"
            "Libnbc)"
        ),
        store_dir=store_dir,
        workers=workers, cache_dir=cache_dir,
    )


if __name__ == "__main__":
    main_wrapper(run)
