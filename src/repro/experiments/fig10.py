"""Fig 10: MPI_Bcast on Shaheen II (paper: 4096 processes).

Paper findings to reproduce in shape:

- HAN beats default Open MPI by up to 4.72x (small) / 7.35x (large);
- Cray MPI is slightly *faster* than HAN on small messages (better P2P,
  Fig 11);
- HAN beats Cray MPI by up to 2.32x on large messages (level overlap).
"""

from __future__ import annotations

from repro.experiments.common import main_wrapper
from repro.experiments.machine_bench import bench_against_libraries


def run(scale: str = "small", save: bool = True, trace_out: str = "",
        store_dir=None, decision_store=None, workers: int = 0,
        cache_dir=None) -> dict:
    """Regenerate Fig 10."""
    return bench_against_libraries(
        fig="Fig 10",
        machine_name="shaheen2",
        coll="bcast",
        rivals=["openmpi", "craympi"],
        scale=scale,
        save=save,
        paper_note=(
            "HAN up to 4.72x/7.35x vs default Open MPI (small/large); "
            "slightly slower than Cray MPI small, up to 2.32x faster large"
        ),
        trace_out=trace_out,
        store_dir=store_dir,
        workers=workers, cache_dir=cache_dir,
        decision_store=decision_store,
    )


if __name__ == "__main__":
    main_wrapper(run)
