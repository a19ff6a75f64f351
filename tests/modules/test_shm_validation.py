"""Bad arguments to a shared-memory collective raise a ValueError.

Every rank of the call checks its ``root`` and ``nbytes`` before it
touches the shared state, so an out-of-range root neither returns
``None`` everywhere nor deadlocks, and a negative, NaN or infinite size
is refused instead of simulated.  The message names the module, the
collective, the argument and the value.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.hardware import gpu_cluster
from repro.modules import make_module
from repro.mpi import MPIRuntime

MODULES = ("sm", "solo", "gpu")

CASES = {
    "reduce-root-past-size": ("reduce", dict(nbytes=1024, root=7), "root", "7"),
    "bcast-negative-root": ("bcast", dict(nbytes=1024, root=-1), "root", "-1"),
    "bcast-negative-nbytes": ("bcast", dict(nbytes=-5), "nbytes", "-5"),
    "bcast-nan-nbytes": ("bcast", dict(nbytes=math.nan), "nbytes", "nan"),
    "bcast-inf-nbytes": ("bcast", dict(nbytes=math.inf), "nbytes", "inf"),
}


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("mod_name", MODULES)
def test_bad_argument_raises_value_error(mod_name, case):
    coll, kwargs, arg, value = CASES[case]
    mod = make_module(mod_name)

    def prog(comm):
        yield from getattr(mod, coll)(comm, **kwargs)

    runtime = MPIRuntime(gpu_cluster(num_nodes=1, ppn=4))
    with pytest.raises(ValueError) as info:
        runtime.run(prog)
    msg = str(info.value)
    assert mod_name in msg and coll in msg and arg in msg and value in msg, msg


@pytest.mark.parametrize("coll", ["bcast", "scatter"])
@pytest.mark.parametrize("mod_name", MODULES)
def test_payload_off_the_root_raises_value_error(mod_name, coll):
    # rank 1 enters with no payload before rank 2 brings one: rank 2 must
    # not take rank 1's reader steps without its own check
    mod = make_module(mod_name)

    def prog(comm):
        payload = np.ones(128) if comm.rank in (0, 2) else None
        yield from getattr(mod, coll)(comm, 1024, root=0, payload=payload)

    runtime = MPIRuntime(gpu_cluster(num_nodes=1, ppn=4))
    with pytest.raises(ValueError, match="payload may only be supplied"):
        runtime.run(prog)


@pytest.mark.parametrize("mod_name", MODULES)
def test_valid_edges_still_run(mod_name):
    # the last rank as root and an empty message are both legal
    mod = make_module(mod_name)

    def prog(comm):
        yield from mod.reduce(comm, 1024, root=comm.size - 1)
        yield from mod.bcast(comm, 0, root=0)

    runtime = MPIRuntime(gpu_cluster(num_nodes=1, ppn=4))
    runtime.run(prog)
    assert runtime.engine.now > 0
