"""Shared infrastructure for the experiment drivers."""

from __future__ import annotations

import argparse
import inspect
import json
import time
from pathlib import Path
from typing import Optional, Sequence

from repro.hardware import shaheen2, stampede2
from repro.hardware.spec import MachineSpec
from repro.tuning import Autotuner, LookupTable, SearchSpace

__all__ = [
    "RESULT_HEADER_KEYS",
    "RESULT_SCHEMA_VERSION",
    "RESULTS_DIR",
    "bcast_sweep_sizes",
    "fmt_bytes",
    "geometry",
    "main_wrapper",
    "print_table",
    "run_store",
    "save_result",
    "strip_result_header",
    "tuned_decision",
]

RESULTS_DIR = Path(__file__).resolve().parents[3] / "results"

#: every ``results/*.json`` document carries this version plus a config
#: digest, so downstream tooling can tell at a glance whether two result
#: files are comparable.  Bump on incompatible layout changes.
RESULT_SCHEMA_VERSION = 1

#: provenance keys :func:`save_result` stamps onto every document —
#: consumers that diff or hash results (golden traces, regen scripts)
#: must ignore exactly these.
RESULT_HEADER_KEYS = frozenset(
    {"schema_version", "config_digest", "_generated"}
)


def strip_result_header(doc: dict) -> dict:
    """The document minus the provenance header (for content compares)."""
    return {k: v for k, v in doc.items() if k not in RESULT_HEADER_KEYS}


def run_store(store_dir: Optional[str] = None):
    """The cross-run observatory every experiment appends to.

    Defaults to ``results/store/``; pass ``store_dir="none"`` to disable
    (returns ``None``) — e.g. for throwaway runs that should not enter
    the regression history (``python -m repro.obs.cli regress``).
    """
    if store_dir == "none":
        return None
    from repro.obs.store import RunStore

    return RunStore(Path(store_dir) if store_dir else RESULTS_DIR / "store")

KiB, MiB = 1024, 1024 * 1024

#: machine geometries (nodes, ppn) per scale
GEOMETRY = {
    "shaheen2": {"small": (8, 8), "medium": (16, 16), "paper": (128, 32)},
    "stampede2": {"small": (8, 8), "medium": (16, 24), "paper": (32, 48)},
}


def geometry(machine_name: str, scale: str) -> MachineSpec:
    """The machine preset scaled for the requested experiment size."""
    try:
        nodes, ppn = GEOMETRY[machine_name][scale]
    except KeyError:
        raise ValueError(
            f"unknown machine/scale {machine_name!r}/{scale!r}"
        ) from None
    base = shaheen2 if machine_name == "shaheen2" else stampede2
    return base(num_nodes=nodes, ppn=ppn)


def bcast_sweep_sizes(scale: str) -> tuple[list[float], list[float]]:
    """(small-message, large-message) size sweeps, as in Figs 10-14.

    The paper splits the IMB range at 128 KB: "small messages up to 128K
    ... and large messages up to 128MB".
    """
    small = [2.0 ** k for k in range(6, 18)]  # 64 B .. 128 KB
    hi = 27 if scale == "paper" else 25  # 128 MB or 32 MB
    large = [2.0 ** k for k in range(18, hi + 1)]
    return small, large


def tuned_decision(
    machine: MachineSpec,
    colls: Sequence[str] = ("bcast", "allreduce"),
    cache_key: Optional[str] = None,
    space: Optional[SearchSpace] = None,
    workers: int = 0,
    decision_store=None,
    save: bool = True,
):
    """Autotune HAN (task method) for this machine, with result caching.

    Returns a decision function for :class:`HanModule` /
    :class:`OpenMPIHan`.  The lookup table is cached under ``results/``
    so repeated experiment runs skip the tuning step; ``save=False`` (an
    experiment run with ``--no-save``) still reads a cached table but
    writes none.

    ``decision_store`` (a directory or
    :class:`~repro.serve.store.DecisionStore`) switches the experiment
    onto the serving layer: decisions come from the store's shard for
    this machine's hardware band, which is warmed first if this job
    geometry has no decisions yet.  Unlike the per-geometry JSON tables,
    one warmed store answers every machine shape of the same band.
    """
    if decision_store is not None and decision_store != "none":
        from repro.serve.service import DecisionService
        from repro.serve.store import DecisionStore, band_digest
        from repro.serve.warm import warm_machine

        store = (decision_store if isinstance(decision_store, DecisionStore)
                 else DecisionStore(decision_store))
        band = band_digest(machine)
        missing = [
            coll for coll in colls
            if not any(r["n"] == machine.num_nodes and r["p"] == machine.ppn
                       for r in store.records(band, coll))
        ]
        if missing:
            warm_machine(machine, store, colls=missing, method="task+h",
                         space=space, workers=workers)
        return DecisionService(store).as_decision_fn(machine)

    key = cache_key or (
        f"tuning_{machine.name}_{machine.num_nodes}x{machine.ppn}_"
        + "_".join(sorted(colls))
    )
    path = RESULTS_DIR / f"{key}.json"
    if path.exists():
        return LookupTable.load(path).as_decision_fn()
    if space is None:
        space = SearchSpace(
            seg_sizes=(128 * KiB, 512 * KiB, 1 * MiB, 2 * MiB),
            messages=[2.0 ** k for k in range(10, 26, 2)],
            adapt_algorithms=("chain", "binary", "binomial"),
            inner_segs=(None, 512 * KiB),
        )
    tuner = Autotuner(machine, space=space, warm_iters=6, workers=workers)
    report = tuner.tune(colls=colls, method="task+h")
    if save:
        RESULTS_DIR.mkdir(exist_ok=True)
        report.table.save(path)
    return report.table.as_decision_fn()


def fmt_bytes(n: float) -> str:
    n = float(n)
    for unit in ("B", "KB", "MB", "GB"):
        if n < 1024:
            return f"{n:g}{unit}"
        n /= 1024
    return f"{n:g}TB"


def fmt_time(t: float) -> str:
    if t < 1e-3:
        return f"{t * 1e6:8.2f}us"
    if t < 1:
        return f"{t * 1e3:8.3f}ms"
    return f"{t:8.3f}s "


def print_table(title: str, headers: Sequence[str], rows) -> None:
    print(f"\n== {title} ==")
    widths = [
        max(len(str(h)), *(len(str(r[i])) for r in rows)) if rows else len(str(h))
        for i, h in enumerate(headers)
    ]
    line = "  ".join(str(h).ljust(w) for h, w in zip(headers, widths))
    print(line)
    print("-" * len(line))
    for r in rows:
        print("  ".join(str(c).ljust(w) for c, w in zip(r, widths)))


def save_result(name: str, payload: dict, config=None) -> Path:
    """Write one ``results/<name>.json`` with the provenance header.

    Every result document is stamped with ``schema_version`` and a
    ``config_digest`` (of the :class:`HanConfig` the experiment ran
    under; the null-config digest when the experiment sweeps configs) —
    see :data:`RESULT_HEADER_KEYS` for what readers must ignore.
    """
    from repro.obs.store import config_digest

    RESULTS_DIR.mkdir(exist_ok=True)
    payload = dict(payload)
    payload["schema_version"] = RESULT_SCHEMA_VERSION
    payload["config_digest"] = config_digest(config)
    payload["_generated"] = time.strftime("%Y-%m-%d %H:%M:%S")
    path = RESULTS_DIR / f"{name}.json"
    path.write_text(json.dumps(payload, indent=1, default=str))
    return path


def main_wrapper(run_fn, default_scale: str = "small"):
    """Standard CLI for an experiment module."""
    parser = argparse.ArgumentParser(description=run_fn.__doc__)
    parser.add_argument(
        "--scale",
        choices=("small", "medium", "paper"),
        default=default_scale,
        help="experiment geometry (see DESIGN.md on scale substitution)",
    )
    parser.add_argument("--no-save", action="store_true")
    accepted = inspect.signature(run_fn).parameters
    if "workers" in accepted:
        parser.add_argument(
            "--workers", type=int, default=0,
            help="measurement worker processes (0 = serial)",
        )
    if "cache_dir" in accepted:
        parser.add_argument(
            "--cache-dir", default=None,
            help="persistent measurement-cache directory",
        )
    if "trace_out" in accepted:
        parser.add_argument(
            "--trace-out", default="",
            help="write a Perfetto-loadable Chrome trace here "
                 "(see repro.obs)",
        )
    if "store_dir" in accepted:
        parser.add_argument(
            "--store-dir", default=None,
            help="run-store directory (default results/store; "
                 "'none' disables)",
        )
    if "decision_store" in accepted:
        parser.add_argument(
            "--decision-store", default=None,
            help="serve tuned decisions from this sharded decision-store "
                 "directory (see repro.serve; warmed on first use)",
        )
    if "traffic_plan" in accepted:
        parser.add_argument(
            "--traffic-plan", default=None,
            help="background tenant traffic while measuring: a preset "
                 "name or a TrafficPlan JSON file (see repro.tenancy)",
        )
        parser.add_argument(
            "--traffic-seed", type=int, default=None,
            help="override the traffic plan's seed",
        )
    if "allocation" in accepted:
        parser.add_argument(
            "--allocation", choices=("fixed", "bandit"), default="fixed",
            help="trial-budget strategy for tuning measurements "
                 "(bandit = successive halving; see repro.tuning)",
        )
    args = parser.parse_args()
    kwargs = {}
    if "workers" in accepted:
        kwargs["workers"] = args.workers
    if "cache_dir" in accepted:
        kwargs["cache_dir"] = args.cache_dir
    if "trace_out" in accepted:
        kwargs["trace_out"] = args.trace_out
    if "store_dir" in accepted:
        kwargs["store_dir"] = args.store_dir
    if "decision_store" in accepted:
        kwargs["decision_store"] = args.decision_store
    if "traffic_plan" in accepted:
        from repro.tenancy import load_traffic

        kwargs["traffic_plan"] = (
            load_traffic(args.traffic_plan, args.traffic_seed)
            if args.traffic_plan else None
        )
    if "allocation" in accepted:
        kwargs["allocation"] = args.allocation
    t0 = time.time()
    run_fn(scale=args.scale, save=not args.no_save, **kwargs)
    print(f"\n[done in {time.time() - t0:.1f}s wall]")
