"""One harness for the timing locks.

A lock pins what a grid of simulations produces, bit for bit, against a
committed fixture.  Each lock is a test module listed in :data:`LOCKS`
that defines ``cases()`` (every case id) and ``run_case(key)`` (what
that case pins: a dict of fields, or one value).  This module holds
what they share:

- the run-mode table (:data:`MODES`, :class:`Mode`, :func:`run`): quiet,
  tenant traffic, an identity overhead hook, seeded ``OsNoise``, seeded
  ``MessageJitter``, a hook that halves every ``net_latency``, and an
  ``ObsRecorder`` in ``full`` (``obs``) or ``metrics`` mode;
- one canonical form and digest (:func:`canon`, :func:`digest`,
  :func:`obs_digest`);
- the fixture schema (:func:`pin`, :func:`dumps`): one line per case id,
  floats as ``float.hex``, a list field longer than :data:`HEAD`
  entries stored as ``{"n", "head", "sha"}``;
- a per-process cache (:func:`result`, counted in :data:`RUNS`), so a
  case that a lock and a battery both read is simulated once, and
  :func:`check`, which holds cases to their entries.  Planted-mutant
  and property tests call :func:`fresh` instead.

Regenerate fixtures only for an intended timing-model change, then let
``scripts/lock_diff.py`` list every field that moved::

    PYTHONPATH=src python -m tests.locks --regen [lock ...]
    python scripts/lock_diff.py HEAD tests/mpi/lifecycle_lock.json ...
"""

from __future__ import annotations

import argparse
import collections
import dataclasses
import functools
import hashlib
import importlib
import json
from pathlib import Path

import numpy as np

TESTS = Path(__file__).resolve().parent
KiB = 1024

#: lock name -> (test module, fixture under tests/)
LOCKS = {
    "lifecycle": ("tests.mpi.test_lifecycle_lock", "mpi/lifecycle_lock.json"),
    "barrier": ("tests.mpi.test_barrier_lock", "mpi/barrier_lock.json"),
    "sm_call": ("tests.modules.test_sm_call_lock",
                "modules/sm_call_lock.json"),
    "shm_timing": ("tests.modules.test_shm_timing_lock",
                   "modules/shm_timing_lock.json"),
    "imb": ("tests.comparators.test_imb_lock", "comparators/imb_lock.json"),
    "guideline": ("tests.obs.test_guideline_lock",
                  "obs/guideline_lock.json"),
    "measure": ("tests.tuning.test_measure_lock",
                "tuning/measure_lock.json"),
    "golden": ("tests.golden.test_golden_traces", "golden/collectives.json"),
}


# -- run modes ------------------------------------------------------------------------


def identity(kind, who, duration):
    return duration


def shrink(kind, who, duration):
    return duration * 0.5 if kind == "net_latency" else duration


def noise(seed: int = 3):
    from repro.faults import FaultPlan, OsNoise

    return FaultPlan(seed=seed).add(OsNoise(amplitude=0.3, per_op=0.2))


def jitter(seed: int = 5):
    from repro.faults import FaultPlan, MessageJitter

    return FaultPlan(seed=seed).add(MessageJitter(amplitude=5e-7))


def tenant(seed: int, gap: float, sizes=(8, 4 * KiB, 256 * KiB)):
    """A background HAN allreduce sweep over ``sizes``."""
    from repro.tenancy import TenantWorkload, TrafficPlan

    return TrafficPlan(seed=seed).add(TenantWorkload(
        name="bg", coll="allreduce", pattern="sweep", sizes=sizes, gap=gap,
        jitter=0.5,
    ))


@dataclasses.dataclass(frozen=True)
class Mode:
    """What makes a run loud: a fault plan on the machine, an overhead
    hook, an obs recorder (its mode) and tenant traffic."""

    plan: object = None
    hook: object = None
    record: str | None = None
    traffic: object = None


MODES = {
    "quiet": Mode(),
    "tenant": Mode(traffic=tenant(11, 2e-6)),
    "hook": Mode(hook=identity),
    "noise": Mode(plan=noise()),
    "jitter": Mode(plan=jitter()),
    "shrink": Mode(hook=shrink),
    "obs": Mode(record="full"),
    "metrics": Mode(record="metrics"),
}


def run(machine, program, *args, mode: Mode = MODES["quiet"], profile=None):
    """``(per-rank results, runtime, recorder or None)`` of one fresh run
    of ``program(comm, *args)`` on ``machine`` in run mode ``mode``."""
    from repro.faults.machine import FaultyMachineSpec
    from repro.mpi import MPIRuntime
    from repro.obs import ObsRecorder
    from repro.sim.fluid import clear_fill_memo
    from repro.tenancy import TenantScheduler

    if mode.plan is not None:
        machine = FaultyMachineSpec.wrap(machine, mode.plan)
    clear_fill_memo()
    runtime = MPIRuntime(machine, profile)
    if mode.hook is not None:
        runtime.engine.overhead_hook = mode.hook
    rec = None
    if mode.record is not None:
        rec = ObsRecorder(runtime.engine, mode=mode.record).attach()
    try:
        if mode.traffic is not None:
            results = TenantScheduler(runtime, mode.traffic).run(program,
                                                                 *args)
        else:
            results = runtime.run(program, *args)
    finally:
        if rec is not None:
            rec.detach()
    return results, runtime, rec


# -- canonical form --------------------------------------------------------------------


def canon(value):
    """``value`` with every float as ``float.hex`` and every array as
    its dtype, shape and bytes: a form ``repr`` pins exactly."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, np.ndarray):
        return ("ndarray", value.dtype.str, value.shape,
                hashlib.sha256(value.tobytes()).hexdigest())
    if isinstance(value, (list, tuple)):
        return [canon(v) for v in value]
    if isinstance(value, dict):
        return sorted((repr(k), canon(v)) for k, v in value.items())
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return [type(value).__name__,
                *(canon(getattr(value, f.name))
                  for f in dataclasses.fields(value))]
    return value


def digest(value) -> str:
    return hashlib.sha256(repr(canon(value)).encode()).hexdigest()[:16]


def obs_digest(rec) -> str:
    """A digest of every span, counter sample and message record, in
    emission order, and of the metrics registry (whose histogram
    exemplars follow span-end order)."""
    return digest([rec.spans, rec.counters, list(rec.messages.values()),
                   rec.metrics.to_doc()])


# -- the fixture schema ----------------------------------------------------------------

#: entries a list field keeps in the fixture; a longer one is digested
HEAD = 4


def _plain(value):
    """``value`` as JSON: floats as ``float.hex``, tuples as lists."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    return value


def pin(case):
    """The fixture form of what a case pins.  A case is one value or a
    dict of fields; a list field longer than :data:`HEAD` entries (a
    per-rank list) becomes its length, its first entries and a digest
    of the whole list."""
    if not isinstance(case, dict):
        return _plain(case)
    out = {}
    for field, value in case.items():
        value = _plain(value)
        if isinstance(value, list) and len(value) > HEAD:
            value = {"n": len(value), "head": value[:HEAD],
                     "sha": digest(value)}
        out[field] = value
    return out


def dumps(doc: dict) -> str:
    """A fixture's text: one line per case id, in sorted order."""
    lines = (json.dumps({k: doc[k]}, separators=(",", ":"))[1:-1]
             for k in sorted(doc))
    return "{\n" + ",\n".join(lines) + "\n}\n"


def fixture_path(lock: str) -> Path:
    return TESTS / LOCKS[lock][1]


@functools.cache
def fixture(lock: str) -> dict:
    return json.loads(fixture_path(lock).read_text())


# -- running cases ---------------------------------------------------------------------


def module(lock: str):
    return importlib.import_module(LOCKS[lock][0])


def fresh(lock: str, key: str):
    """What case ``key`` of ``lock`` pins, from a run of its own."""
    return pin(module(lock).run_case(key))


#: (lock, case id) -> runs :func:`result` made in this process
RUNS: collections.Counter = collections.Counter()


@functools.cache
def result(lock: str, key: str):
    """What case ``key`` of ``lock`` pins, run once per process."""
    RUNS[lock, key] += 1
    return fresh(lock, key)


def check(lock: str, prefix: str) -> None:
    """Assert that every case of ``lock`` whose id starts with
    ``prefix`` (one at least) gives its fixture entry."""
    want = fixture(lock)
    keys = [key for key in module(lock).cases() if key.startswith(prefix)]
    assert keys, f"no case of {lock} starts with {prefix!r}"
    diffs = [f"  {key}: expected {want.get(key)!r}, got {got!r}"
             for key in keys if (got := result(lock, key)) != want.get(key)]
    assert not diffs, f"the {lock} lock moved:\n" + "\n".join(diffs)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Regenerate lock fixtures.")
    ap.add_argument("--regen", nargs="*", metavar="lock", required=True,
                    help=f"locks to rewrite (default: all of {list(LOCKS)})")
    args = ap.parse_args(argv)
    unknown = sorted(set(args.regen) - set(LOCKS))
    if unknown:
        ap.error(f"unknown lock(s) {unknown}; choose from {list(LOCKS)}")
    for lock in args.regen or LOCKS:
        doc = {key: fresh(lock, key) for key in module(lock).cases()}
        fixture_path(lock).write_text(dumps(doc))
        print(f"wrote {fixture_path(lock)} ({len(doc)} cases)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
