"""Pin HAN's observed phase spans byte for byte.

A traced bcast + allreduce + reduce (rooted off the layer-0 leaders so
every task stream and the island composite's delivery hop run) is
exported as a Chrome trace and hashed.  The digests were taken from the
implementation that spelled out every phase span inline in
``core/han.py``, before the span helpers replaced that bookkeeping; any
drift in span names, order, arguments or timing changes them.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.core import HanConfig, HanModule
from repro.hardware import gpu_pod, shaheen2
from repro.mpi import MPIRuntime
from repro.obs import ObsRecorder, chrome_trace

KiB = 1024

CASES = {
    "shaheen2_4x4": (
        lambda: shaheen2(num_nodes=4, ppn=4),
        HanConfig(fs=64 * KiB, imod="adapt", smod="sm", ibalg="binary",
                  iralg="binary", ibs=32 * KiB, irs=32 * KiB),
        "0e7a26a820c3d8d04c492f51e1efcef453ae7044a0c8f7bc345cd73f0f934586",
    ),
    "gpu_pod_2x8": (
        lambda: gpu_pod(num_nodes=2, ppn=8),
        HanConfig(fs=64 * KiB, imod="adapt", smod="gpu", ibalg="binary",
                  iralg="binary", ibs=32 * KiB, irs=32 * KiB),
        "82c940dad5fe5cfe0699ebcf456640cd11b70e185f3d51b110153a07b90f9bf9",
    ),
}


def traced_digest(machine, config) -> str:
    runtime = MPIRuntime(machine)
    han = HanModule(config=config)
    nbytes = 256 * KiB
    root = machine.ppn + machine.ppn // 2 + 1  # node 1, off every leader

    def prog(comm):
        yield from han.bcast(comm, nbytes, root=root)
        yield from han.allreduce(comm, nbytes)
        yield from han.reduce(comm, nbytes, root=root)

    rec = ObsRecorder(runtime.engine)
    with rec:
        runtime.run(prog)
    doc = chrome_trace(rec.run_record())
    blob = json.dumps(doc, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


@pytest.mark.parametrize("case", sorted(CASES))
def test_chrome_trace_digest_pinned(case):
    make_machine, config, want = CASES[case]
    assert traced_digest(make_machine(), config) == want
