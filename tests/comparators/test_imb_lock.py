"""Pin what the IMB sweep reports, bit for bit.

The lock covers one-size ``imb_run`` calls on ``shaheen2`` 4x4 and
``stampede2`` 4x4, for every registry library and every collective it
implements, at 4 KiB and 1 MiB, with root 0 and, for the rooted
collectives, the off-leader root 13: the reported max-over-ranks time of
each call (140 cases).  HAN runs without a decision function, so every
size takes ``HanModule.default_config``.

A second test pins the sweep protocol: every size of a multi-size
``imb_run`` is its own measured run, so the sweep reports exactly what
the one-size calls report.
"""

from __future__ import annotations

import pytest

from tests import locks

KiB = 1024
MACHINES = ("shaheen2", "stampede2")
LIBRARIES = ("openmpi", "han", "craympi", "intelmpi", "mvapich2")
ROOTED = ("bcast", "reduce", "gather", "scatter")
UNROOTED = ("allreduce", "allgather", "alltoall", "barrier")
SIZES = (4 * KiB, 1024 * KiB)
#: a rank that is not its node's leader on a 4x4 machine
OFF_ROOT = 13


def _machine(name: str):
    from repro.hardware import shaheen2, stampede2

    return {"shaheen2": shaheen2, "stampede2": stampede2}[name](
        num_nodes=4, ppn=4
    )


def cases() -> list[str]:
    """Every case key: ``machine/library/coll/nbytes/root``."""
    from repro.comparators import library_by_name

    keys = []
    for machine in MACHINES:
        for name in LIBRARIES:
            lib = library_by_name(name)
            for coll in ROOTED + UNROOTED:
                if getattr(lib, coll, None) is None:
                    continue
                roots = (0, OFF_ROOT) if coll in ROOTED else (0,)
                keys += [f"{machine}/{name}/{coll}/{nbytes}/{root}"
                         for nbytes in SIZES for root in roots]
    return keys


def run_case(key: str) -> float:
    """The time one-size ``imb_run`` reports for ``key``."""
    from repro.bench import imb_run
    from repro.comparators import library_by_name

    machine, name, coll, nbytes, root = key.split("/")
    res = imb_run(_machine(machine), library_by_name(name), coll,
                  [float(nbytes)], root=int(root))
    return res.times[0]


@pytest.mark.parametrize("machine", MACHINES)
def test_imb_times_are_pinned(machine):
    locks.check("imb", machine + "/")


@pytest.mark.parametrize("name", ("han", "craympi"))
def test_sweep_is_its_one_size_calls(name):
    from repro.bench import imb_run
    from repro.comparators import library_by_name

    machine = _machine("shaheen2")
    sizes = [4.0 * KiB, 64.0 * KiB, 1024.0 * KiB]
    sweep = imb_run(machine, library_by_name(name), "bcast", sizes)
    single = [imb_run(machine, library_by_name(name), "bcast", [s]).times[0]
              for s in sizes]
    assert sweep.sizes == tuple(sizes)
    assert list(sweep.times) == single
