"""Pin what the measurement harness produces, bit for bit.

Two things are locked against a committed fixture:

- ``measure_collective`` over all nine collectives on ``shaheen2`` 4x4
  (host shared memory) and ``gpu_pod`` 2x8 (GPU module over two NVLink
  islands per node), at root 0 and, for the rooted collectives, at the
  off-leader root 13: the headline ``time``, the per-rank profile, the
  ``sim_cost`` and the number of engine events the measurement retired
  (26 cases);
- the recorded sample run of the observability CLI
  (``record --coll bcast --nbytes 1M --machine small_cluster --nodes 2
  --ppn 4``): its meta, its metrics document, and the count and
  content digest of its spans and messages.

Every case starts from a cleared fill memo (which also drops the start
gate's barrier schedules), so the event counts do not depend on test
order.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import pytest

from tests import locks

KiB = 1024
MACHINES = ("shaheen2", "gpu_pod")
ROOTED = ("bcast", "reduce", "gather", "scatter")
UNROOTED = ("allreduce", "allgather", "reduce_scatter", "alltoall", "barrier")
#: a rank that is not its node's leader on both machines (16 ranks each)
OFF_ROOT = 13
NBYTES = 512 * KiB
CLI_SAMPLE = ["record", "--coll", "bcast", "--nbytes", "1M",
              "--machine", "small_cluster", "--nodes", "2", "--ppn", "4"]


def _setup(machine: str):
    from repro.core.config import HanConfig
    from repro.hardware import gpu_pod, shaheen2

    if machine == "shaheen2":
        return shaheen2(num_nodes=4, ppn=4), HanConfig(fs=256 * KiB)
    return gpu_pod(num_nodes=2, ppn=8), HanConfig(fs=256 * KiB, smod="gpu")


def cases() -> list[str]:
    """Every case key: ``machine/coll/root``, and ``cli_sample``."""
    keys = ["cli_sample"]
    for machine in MACHINES:
        for coll in ROOTED:
            keys += [f"{machine}/{coll}/0", f"{machine}/{coll}/{OFF_ROOT}"]
        keys += [f"{machine}/{coll}/0" for coll in UNROOTED]
    return keys


def run_case(key: str) -> dict:
    """The headline ``time``, ``per_rank``, ``sim_cost`` and engine
    ``events`` of one measurement, or the CLI sample run."""
    from repro.sim.engine import Engine
    from repro.sim.fluid import clear_fill_memo
    from repro.tuning.measure import measure_collective

    if key == "cli_sample":
        with tempfile.TemporaryDirectory() as tmp:
            return run_cli_sample(Path(tmp))
    machine, coll, root = key.split("/")
    spec, config = _setup(machine)
    clear_fill_memo()
    events = Engine.events_total
    meas = measure_collective(spec, coll, NBYTES, config, root=int(root))
    return {"time": meas.time, "per_rank": meas.per_rank,
            "sim_cost": meas.sim_cost, "events": Engine.events_total - events}


def run_cli_sample(tmp_dir: Path) -> dict:
    """The CLI sample run, reduced to what the fixture pins."""
    import contextlib
    import io

    from repro.obs import cli
    from repro.obs import export as ex
    from repro.sim.fluid import clear_fill_memo

    out = tmp_dir / "sample.jsonl"
    clear_fill_memo()
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main([*CLI_SAMPLE, "--out", str(out)]) == 0
    record = ex.load_jsonl(str(out))
    return {
        "meta": record.meta,
        "metrics": record.metrics,
        "spans": [len(record.spans), locks.digest(record.spans)],
        "messages": [len(record.messages), locks.digest(record.messages)],
    }


@pytest.mark.parametrize("part", [*MACHINES, "cli_sample"])
def test_measurements_are_pinned(part):
    locks.check("measure", part)


def _by_hand(spec, config, coll: str, root: int) -> tuple:
    """The measured program written out: barrier, then the collective."""
    from repro.core.han import HanModule
    from repro.mpi.runtime import MPIRuntime

    han = HanModule(config=config)
    durations = {}

    def prog(comm):
        yield from comm.barrier()
        start = comm.now
        yield from getattr(han, coll)(comm, NBYTES, root=root)
        durations[comm.rank] = comm.now - start

    MPIRuntime(spec).run(prog)
    return tuple(durations[r] for r in sorted(durations))


@pytest.mark.parametrize("machine", MACHINES)
@pytest.mark.parametrize("coll", ("gather", "scatter"))
def test_gather_scatter_time_the_root_they_are_given(machine, coll):
    from repro.tuning.measure import measure_collective

    spec, config = _setup(machine)
    at_root = measure_collective(spec, coll, NBYTES, config, root=OFF_ROOT)
    at_zero = measure_collective(spec, coll, NBYTES, config, root=0)
    assert at_root.per_rank != at_zero.per_rank
    assert at_root.per_rank == _by_hand(spec, config, coll, OFF_ROOT)


def test_adapt_barrier_measures():
    """The HAN barrier is measurable under an ADAPT config."""
    from repro.core.config import HanConfig
    from repro.hardware import shaheen2
    from repro.tuning.measure import measure_collective

    spec = shaheen2(num_nodes=2, ppn=2)
    adapt = measure_collective(spec, "barrier", 0,
                               HanConfig(fs=None, imod="adapt"))
    libnbc = measure_collective(spec, "barrier", 0, HanConfig(fs=None))
    assert adapt.time > 0
    assert adapt.per_rank == libnbc.per_rank
