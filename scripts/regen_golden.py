#!/usr/bin/env python
"""Regenerate the golden completion-time traces in ``tests/golden/``.

The golden file pins the exact simulated completion time of every HAN
collective on a fixed machine and configuration.  The simulator is
deterministic, so these are bit-exact expectations: any change —
intended tuning-model work or an accidental solver regression — shows
up as a diff in ``tests/golden/test_golden_traces.py``.

When a change is intentional, re-run this script and commit the result::

    python scripts/regen_golden.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

GOLDEN_PATH = (
    Path(__file__).resolve().parent.parent
    / "tests" / "golden" / "collectives.json"
)

KiB, MiB = 1024, 1024 * 1024

#: every collective measure_collective can time (barrier takes no bytes)
COLLS = (
    "bcast", "reduce", "allreduce", "gather", "scatter", "allgather",
    "reduce_scatter", "alltoall", "barrier",
)
SIZES = (64 * KiB, 1 * MiB)


def golden_config():
    from repro.core.config import HanConfig

    return HanConfig(fs=512 * KiB)


def _suites():
    """The golden suites: (machine, geometry, config) per fabric preset.

    ``shaheen2`` is the original flat-node CPU suite; ``gpu_pod`` runs
    the same collectives on split-NVLink accelerator nodes with
    ``smod="gpu"``, so its traces pin the island/node/network schedules
    (the island-level leader composite as HAN's intra stage).
    """
    from repro.core.config import HanConfig
    from repro.hardware import gpu_pod, shaheen2

    return {
        "shaheen2": (shaheen2, (4, 4), golden_config()),
        "gpu_pod": (gpu_pod, (2, 8), HanConfig(fs=512 * KiB, smod="gpu")),
    }


def _suite_traces(machine, config) -> dict:
    from repro.tuning.measure import measure_collective

    traces = {}
    for coll in COLLS:
        sizes = (0,) if coll == "barrier" else SIZES
        for nbytes in sizes:
            m = measure_collective(machine, coll, nbytes, config)
            traces[f"{coll}/{nbytes}"] = {
                "time": m.time,
                "sim_cost": m.sim_cost,
            }
    return traces


def compute_golden() -> dict:
    """The full golden document: per-suite traces keyed ``"<coll>/<nbytes>"``.

    Floats are stored verbatim (json round-trips Python floats through
    repr), so the comparison in the regression test is exact equality.
    The returned document is pure content — the provenance header
    (``schema_version`` / ``config_digest``, see
    ``repro.experiments.common.RESULT_HEADER_KEYS``) is stamped only on
    the written file and ignored by the golden test, so regenerating
    with an unchanged timing model is a no-op diff.
    """
    suites = {}
    for name, (preset, (nodes, ppn), config) in _suites().items():
        machine = preset(num_nodes=nodes, ppn=ppn)
        suites[name] = {
            "machine": f"{machine.name} {nodes}x{ppn}",
            "config": repr(config),
            "traces": _suite_traces(machine, config),
        }
    return {"suites": suites}


def main() -> int:
    from repro.experiments.common import RESULT_SCHEMA_VERSION
    from repro.obs.store import config_digest

    doc = compute_golden()
    doc["schema_version"] = RESULT_SCHEMA_VERSION
    doc["config_digest"] = config_digest(golden_config())
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(doc, indent=2) + "\n")
    total = sum(len(s["traces"]) for s in doc["suites"].values())
    print(
        f"wrote {GOLDEN_PATH} ({total} traces across "
        f"{len(doc['suites'])} suites)"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
