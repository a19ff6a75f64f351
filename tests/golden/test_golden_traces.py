"""Golden traces: exact measured times of every HAN collective.

Each suite runs ``measure_collective`` for all nine collectives (the
barrier at 0 B, the others at 64 KiB and 1 MiB) on one machine and
configuration, and pins the headline ``time`` and the ``sim_cost``:

- ``shaheen2`` 4x4, the flat-node CPU suite;
- ``gpu_pod`` 2x8 with ``smod="gpu"``: split-NVLink accelerator nodes,
  so the island / node / network schedules (the island-level leader
  composite as HAN's intra stage) are pinned too.

A suite's own case pins its machine geometry and configuration, and
``header`` the provenance a result file carries (``schema_version``,
``config_digest`` of the shaheen2 configuration).
"""

from __future__ import annotations

import pytest

from tests import locks

KiB, MiB = 1024, 1024 * 1024
#: every collective measure_collective can time (barrier takes no bytes)
COLLS = (
    "bcast", "reduce", "allreduce", "gather", "scatter", "allgather",
    "reduce_scatter", "alltoall", "barrier",
)
SIZES = (64 * KiB, 1 * MiB)
SUITES = ("shaheen2", "gpu_pod")


def _suite(name: str):
    """``(machine, geometry, config)`` of one suite."""
    from repro.core.config import HanConfig
    from repro.hardware import gpu_pod, shaheen2

    if name == "shaheen2":
        return shaheen2(num_nodes=4, ppn=4), "4x4", HanConfig(fs=512 * KiB)
    return (gpu_pod(num_nodes=2, ppn=8), "2x8",
            HanConfig(fs=512 * KiB, smod="gpu"))


def cases() -> list[str]:
    """Every case key: ``header``, ``<suite>`` and
    ``<suite>/<coll>/<nbytes>``."""
    keys = ["header"]
    for suite in SUITES:
        keys.append(suite)
        for coll in COLLS:
            keys += [f"{suite}/{coll}/{nbytes}"
                     for nbytes in ((0,) if coll == "barrier" else SIZES)]
    return keys


def run_case(key: str) -> dict:
    from repro.experiments.common import RESULT_SCHEMA_VERSION
    from repro.obs.store import config_digest
    from repro.tuning.measure import measure_collective

    if key == "header":
        return {"schema_version": RESULT_SCHEMA_VERSION,
                "config_digest": config_digest(_suite("shaheen2")[2])}
    suite, _, rest = key.partition("/")
    machine, geometry, config = _suite(suite)
    if not rest:
        return {"machine": f"{machine.name} {geometry}",
                "config": repr(config)}
    coll, nbytes = rest.split("/")
    m = measure_collective(machine, coll, int(nbytes), config)
    return {"time": m.time, "sim_cost": m.sim_cost}


@pytest.mark.parametrize("part", ["header", *SUITES])
def test_collective_times_match_golden(part):
    locks.check("golden", part)
