"""IMB-style collective benchmark.

A loop over message sizes, like IMB's ``-msglog`` sweeps, where every
size is one measured run of :func:`repro.tuning.measure.run_once` on a
fresh simulated job: start barrier, the collective, and the maximum time
across ranks -- "the maximum value reported by Intel MPI Benchmark (IMB)
and OSU Benchmark" (paper III-A2).  HAN and every rival library are
timed by that one program, so the sweep shares the measurement cache,
the worker pool and the run store with the autotuner.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.comparators import MPILibrary, OpenMPIHan
from repro.hardware.spec import MachineSpec
from repro.tuning.parallel import MeasurePoint, run_cached

__all__ = ["IMBResult", "imb_run"]


@dataclass(frozen=True)
class IMBResult:
    library: str
    machine: str
    coll: str
    sizes: tuple[float, ...]
    times: tuple[float, ...]  # max across ranks, per size

    def time_at(self, size: float) -> float:
        return self.times[self.sizes.index(size)]

    def speedup_over(self, other: "IMBResult") -> dict[float, float]:
        """other.time / my.time per size (>1 means this library wins)."""
        return {
            s: other.time_at(s) / t for s, t in zip(self.sizes, self.times)
        }


def imb_run(
    machine: MachineSpec,
    library: MPILibrary,
    coll: str,
    sizes,
    root: int = 0,
    iterations: int = 1,
    trace_out: str = "",
    *,
    workers: int = 0,
    cache=None,
    store=None,
    store_source: str = "imb",
) -> IMBResult:
    """Time ``library``'s ``coll`` at every size in ``sizes``.

    Each size is one :class:`~repro.tuning.parallel.MeasurePoint`: HAN
    (an :class:`OpenMPIHan`) under the configuration it picks at that
    size (``HanModule.resolve_config``), any other library by registry
    name.  :func:`~repro.tuning.parallel.run_cached` resolves them, so
    ``cache`` replays points it has seen and ``workers`` fans out the
    rest; ``store`` gets one line per size, tagged ``store_source``.

    ``trace_out`` writes a Perfetto-loadable Chrome trace of the first
    size's run (which then always simulates) to the given path.
    """
    points = [_point(machine, library, coll, s, root, iterations)
              for s in sizes]
    meas = run_cached(points[1:] if trace_out else points,
                      workers=workers, cache=cache)
    if trace_out and points:
        meas.insert(0, points[0].run(trace_out))
    if store is not None:
        for point, m in zip(points, meas):
            point.log(store, m, store_source)
    return IMBResult(
        library=library.name,
        machine=machine.name,
        coll=coll,
        sizes=tuple(float(s) for s in sizes),
        times=tuple(m.time for m in meas),
    )


def _point(machine, library, coll, nbytes, root, iterations) -> MeasurePoint:
    """The measured run of one sweep size."""
    if not isinstance(library, OpenMPIHan):
        return MeasurePoint(machine, coll, nbytes, None, root, iterations,
                            library=library.name)
    # HAN resolves its barrier's configuration at zero bytes
    config = library.resolve_config(
        machine.num_nodes, machine.ppn, 0 if coll == "barrier" else nbytes, coll
    )
    return MeasurePoint(machine, coll, nbytes, config, root, iterations)
