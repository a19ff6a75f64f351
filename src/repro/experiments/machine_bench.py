"""Shared driver for the machine benchmark figures (Figs 10, 12, 13, 14)."""

from __future__ import annotations

from repro.bench import imb_run
from repro.comparators import OpenMPIHan, library_by_name
from repro.experiments.common import (
    bcast_sweep_sizes,
    fmt_bytes,
    geometry,
    print_table,
    run_store,
    save_result,
    tuned_decision,
)
from repro.tuning.cache import MeasurementCache

__all__ = ["bench_against_libraries"]


def bench_against_libraries(
    fig: str,
    machine_name: str,
    coll: str,
    rivals: list[str],
    scale: str,
    save: bool,
    paper_note: str,
    trace_out: str = "",
    store_dir=None,
    decision_store=None,
    workers: int = 0,
    cache_dir=None,
) -> dict:
    """``trace_out`` (a path) records the HAN sweep's first size as a
    Chrome trace; ``store_dir`` points the cross-run observatory every
    sweep point is appended to (default ``results/store``, ``"none"``
    disables); ``decision_store`` serves HAN's tuned decisions from a
    sharded :mod:`repro.serve` store instead of per-geometry JSON tables;
    ``workers`` and ``cache_dir`` give the points a process pool and a
    persistent measurement cache (see :func:`~repro.bench.imb_run`)."""
    machine = geometry(machine_name, scale)
    small, large = bcast_sweep_sizes(scale)
    sizes = small + large

    decide = tuned_decision(
        machine, colls=(coll,), workers=workers,
        decision_store=decision_store, save=save,
    )
    libs = [OpenMPIHan(decision_fn=decide)] + [
        library_by_name(r) for r in rivals
    ]
    # an explicitly requested store dir is honored even under
    # --no-save; only the default results/store is save-gated
    store = run_store(store_dir) if (save or store_dir) else None
    cache = MeasurementCache(cache_dir) if cache_dir else None
    results = {
        lib.name: imb_run(
            machine, lib, coll, sizes,
            trace_out=trace_out if lib.name == "han" else "",
            workers=workers, cache=cache, store=store,
            store_source=f"machine_bench.{fig.lower().replace(' ', '')}",
        )
        for lib in libs
    }

    han = results["han"]
    rows = []
    out_rows = {}
    for i, s in enumerate(sizes):
        row = [fmt_bytes(s)]
        entry = {}
        for lib in libs:
            t = results[lib.name].times[i]
            row.append(f"{t * 1e6:.1f}")
            entry[lib.name] = t
        for r in rivals:
            row.append(f"{results[r].times[i] / han.times[i]:.2f}x")
        rows.append(tuple(row))
        out_rows[fmt_bytes(s)] = entry
    headers = (
        ["message"]
        + [f"{lib.name}(us)" for lib in libs]
        + [f"HAN vs {r}" for r in rivals]
    )
    title = (
        f"{fig}: {coll} on {machine_name} "
        f"({machine.num_nodes} nodes x {machine.ppn} ppn = "
        f"{machine.num_ranks} ranks)"
    )
    print_table(title, headers, rows)

    # headline speedups over the small/large ranges, as the paper quotes
    summary = {}
    for r in rivals:
        sp = [results[r].times[i] / han.times[i] for i in range(len(sizes))]
        small_best = max(sp[: len(small)])
        large_best = max(sp[len(small):])
        summary[r] = {
            "max_speedup_small": small_best,
            "max_speedup_large": large_best,
        }
        print(
            f"HAN vs {r:10s}: up to {small_best:.2f}x (small msgs), "
            f"up to {large_best:.2f}x (large msgs)"
        )
    print(f"paper reference: {paper_note}")
    if cache is not None:
        print(f"measurement cache: {cache.hits} hits / {cache.misses} misses")

    out = {
        "figure": fig,
        "machine": f"{machine_name} {machine.num_nodes}x{machine.ppn}",
        "scale": scale,
        "coll": coll,
        "times_s": out_rows,
        "speedups": summary,
        "paper_note": paper_note,
    }
    if save:
        save_result(
            f"{fig.lower().replace(' ', '')}_{coll}_{machine_name}_{scale}", out
        )
    return out
