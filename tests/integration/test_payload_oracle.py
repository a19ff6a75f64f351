"""Every collective x every module x every fabric, element-exact vs numpy.

Payloads are integer-valued float64 arrays (seeded per rank), so SUM
reductions are exact in IEEE double regardless of the reduction order an
algorithm picks — the comparison is ``assert_array_equal``, not a
tolerance check.

The matrix axes:

- **module**: han, han3 (HAN with the group level), gpu (device transport), tuned,
  libnbc, sm, solo;
- **fabric**: ``flat`` single-domain nodes vs ``pod`` split-NVLink
  nodes (the ``gpu_pod`` preset, ``fabric_domains=2``) — on pod the HAN
  modules run with ``smod="gpu"``, engaging the fabric/node/network
  composite;
- **seed**: three independent payload realizations.

Support is an *explicit registry*: a (module, collective, fabric) pair
absent from ``SUPPORTED`` must raise :class:`NotSupportedError`, and a
pair that starts succeeding without being registered fails the test
loudly — implementing a new collective forces updating the matrix.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import HanConfig
from repro.modules import NotSupportedError
from tests.colls.helpers import (
    FABRICS,
    make_test_module,
    run_module_collective,
)

SIZE = 8
NELEMS = 96  # divisible by SIZE -> clean scatter/gather blocks
BLOCK = NELEMS // SIZE

MODULES = ("han", "han3", "gpu", "tuned", "libnbc", "sm", "solo")
SEEDS = (1, 2, 3)
COLLS = (
    "bcast", "reduce", "allreduce", "gather", "scatter", "allgather",
    "reduce_scatter", "alltoall", "barrier",
)

_ALL9 = dict.fromkeys(COLLS, FABRICS)

#: (module -> collective -> fabrics) with verified payload oracles.
#: Adding a collective to a module REQUIRES registering it here — the
#: matrix asserts NotSupportedError for every unregistered pair.
SUPPORTED = {
    "han": dict(_ALL9),
    "han3": dict(_ALL9),
    "gpu": dict(_ALL9),
    "tuned": dict(_ALL9),
    "libnbc": {"bcast": FABRICS, "reduce": FABRICS, "barrier": FABRICS},
    "sm": dict(_ALL9),
    "solo": dict(_ALL9),
}

_UNSUPPORTED = "NOT_SUPPORTED"


def payload_for(seed: int, rank: int, n: int = NELEMS) -> np.ndarray:
    """Integer-valued float64 data: SUM is order-independent and exact."""
    rng = np.random.default_rng([seed, rank])
    return rng.integers(-50, 50, n).astype(np.float64)


def matrix_module(module_name: str, fabric: str):
    """The module under test, fabric-configured for the HAN family."""
    config = None
    if module_name in ("han", "han3") and fabric == "pod":
        # ride the device transport intra-node so the split-NVLink
        # fabric composite (fabric/node/network 3-level) is exercised
        config = HanConfig(fs=None, imod="libnbc", smod="gpu")
    return make_test_module(module_name, config=config)


def _guard(gen_fn):
    """Program wrapper translating NotSupportedError into a sentinel."""

    def prog(comm):
        try:
            out = yield from gen_fn(comm)
        except NotSupportedError:
            return _UNSUPPORTED
        return out

    return prog


def _run_matrix(module_name, fabric, coll, gen_fn):
    results, _ = run_module_collective(
        module_name, SIZE, _guard(gen_fn), fabric=fabric
    )
    supported = fabric in SUPPORTED[module_name].get(coll, ())
    hit = [r is _UNSUPPORTED for r in results]
    if not supported:
        assert all(hit), (
            f"{module_name}.{coll} on {fabric} ran without "
            "NotSupportedError but is not in SUPPORTED — register the "
            "new (module, collective, fabric) pair and add its oracle"
        )
        return None
    assert not any(hit), (
        f"{module_name}.{coll} on {fabric} raised NotSupportedError "
        "but is registered as supported"
    )
    return results


def _check(module_name, fabric, coll, seed):
    """Build payloads, run the collective, compare against numpy."""
    mod = matrix_module(module_name, fabric)
    blocks = [payload_for(seed, r) for r in range(SIZE)]
    small = [payload_for(seed, r, BLOCK) for r in range(SIZE)]

    if coll == "bcast":
        data = blocks[0]
        results = _run_matrix(module_name, fabric, coll, lambda comm: mod.bcast(
            comm, nbytes=data.nbytes,
            payload=data if comm.rank == 0 else None,
        ))
        if results is None:
            return
        for rank, out in enumerate(results):
            np.testing.assert_array_equal(out, data, err_msg=f"rank {rank}")

    elif coll == "reduce":
        want = np.sum(blocks, axis=0)
        results = _run_matrix(module_name, fabric, coll, lambda comm: mod.reduce(
            comm, nbytes=blocks[0].nbytes, payload=blocks[comm.rank],
        ))
        if results is None:
            return
        np.testing.assert_array_equal(results[0], want)

    elif coll == "allreduce":
        want = np.sum(blocks, axis=0)
        results = _run_matrix(module_name, fabric, coll, lambda comm: mod.allreduce(
            comm, nbytes=blocks[0].nbytes, payload=blocks[comm.rank],
        ))
        if results is None:
            return
        for rank, out in enumerate(results):
            np.testing.assert_array_equal(out, want, err_msg=f"rank {rank}")

    elif coll == "gather":
        want = np.concatenate(small)
        results = _run_matrix(module_name, fabric, coll, lambda comm: mod.gather(
            comm, nbytes=small[0].nbytes, payload=small[comm.rank],
        ))
        if results is None:
            return
        np.testing.assert_array_equal(results[0], want)

    elif coll == "scatter":
        full = np.concatenate(small)
        results = _run_matrix(module_name, fabric, coll, lambda comm: mod.scatter(
            comm, nbytes=full.nbytes,
            payload=full if comm.rank == 0 else None,
        ))
        if results is None:
            return
        for rank, out in enumerate(results):
            np.testing.assert_array_equal(out, small[rank],
                                          err_msg=f"rank {rank}")

    elif coll == "allgather":
        want = np.concatenate(small)
        results = _run_matrix(module_name, fabric, coll, lambda comm: mod.allgather(
            comm, nbytes=small[0].nbytes, payload=small[comm.rank],
        ))
        if results is None:
            return
        for rank, out in enumerate(results):
            np.testing.assert_array_equal(out, want, err_msg=f"rank {rank}")

    elif coll == "reduce_scatter":
        want = np.sum(blocks, axis=0)
        results = _run_matrix(
            module_name, fabric, coll, lambda comm: mod.reduce_scatter(
                comm, nbytes=blocks[0].nbytes, payload=blocks[comm.rank],
            )
        )
        if results is None:
            return
        for rank, out in enumerate(results):
            np.testing.assert_array_equal(
                out, want[rank * BLOCK:(rank + 1) * BLOCK],
                err_msg=f"rank {rank}",
            )

    elif coll == "alltoall":
        results = _run_matrix(module_name, fabric, coll, lambda comm: mod.alltoall(
            comm, nbytes=blocks[0].nbytes / SIZE, payload=blocks[comm.rank],
        ))
        if results is None:
            return
        for rank, out in enumerate(results):
            want = np.concatenate(
                [blocks[s].reshape(SIZE, BLOCK)[rank] for s in range(SIZE)]
            )
            np.testing.assert_array_equal(out, want, err_msg=f"rank {rank}")

    else:
        raise AssertionError(f"no oracle for collective {coll!r}")


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("fabric", FABRICS)
@pytest.mark.parametrize("module_name", MODULES)
@pytest.mark.parametrize("coll", [c for c in COLLS if c != "barrier"])
def test_payload_matrix(coll, module_name, fabric, seed):
    _check(module_name, fabric, coll, seed)


@pytest.mark.parametrize("fabric", FABRICS)
@pytest.mark.parametrize("module_name", MODULES)
def test_barrier_no_early_exit(module_name, fabric):
    """No payload to compare; the oracle is the synchronization itself."""
    mod = matrix_module(module_name, fabric)
    entries, exits = {}, {}

    def body(comm):
        yield from comm.compute(0.05 * comm.rank)
        entries[comm.rank] = comm.now
        yield from mod.barrier(comm)
        exits[comm.rank] = comm.now

    if _run_matrix(module_name, fabric, "barrier", body) is None:
        return
    assert min(exits.values()) >= max(entries.values())


def test_supported_registry_is_exhaustive():
    """Every matrix module has a registry row; rows only name known colls."""
    assert set(SUPPORTED) == set(MODULES)
    for module_name, row in SUPPORTED.items():
        unknown = set(row) - set(COLLS)
        assert not unknown, f"{module_name}: unknown collectives {unknown}"
        for coll, fabrics in row.items():
            assert set(fabrics) <= set(FABRICS), (module_name, coll)
