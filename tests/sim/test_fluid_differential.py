"""Differential fuzzing: incremental fluid solver vs the reference mode.

Each seed builds one random flow schedule — random topology sizes,
routes (duplicate resource ids allowed), weights, rate caps, mid-flight
capacity rescales (including zero-capacity dead windows), and aborts —
and replays it under both solver modes.  Every observable is compared
with exact ``==``: completion instants, abort instants, sampled flow
rates, and the busy-time / served-bytes accounting integrals.

The reference mode always runs with the progressive-fill memo disabled,
so it is the pure re-solve-everything oracle.  The incremental side runs
with the memo for most seeds and without it for a subset, exercising
both the memo path and the raw per-component kernel.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.sim.engine import Engine
from repro.sim.fluid import FluidSolver


def make_schedule(seed: int):
    """Purely rng-derived schedule; identical floats for every replay."""
    rng = np.random.default_rng(seed)
    nres = int(rng.integers(2, 10))
    caps = [float(c) for c in 10.0 ** rng.uniform(2.0, 5.0, nres)]

    flows = []
    for _ in range(int(rng.integers(3, 25))):
        start = float(rng.uniform(0.0, 5.0))
        nbytes = float(10.0 ** rng.uniform(1.0, 5.0))
        route = [int(r) for r in rng.integers(0, nres, int(rng.integers(1, 5)))]
        rate_cap = (
            float(10.0 ** rng.uniform(2.0, 5.0))
            if rng.random() < 0.5
            else float("inf")
        )
        weight = float(rng.uniform(0.25, 4.0)) if rng.random() < 0.5 else 1.0
        flows.append((start, nbytes, route, rate_cap, weight))

    cap_events = []
    for _ in range(int(rng.integers(0, 6))):
        t = float(rng.uniform(0.0, 8.0))
        rid = int(rng.integers(0, nres))
        if rng.random() < 0.3:
            # dead window: capacity to zero, restored later — in-flight
            # flows must stall (no RuntimeError) and resume exactly
            cap_events.append((t, rid, 0.0))
            cap_events.append((t + float(rng.uniform(0.5, 2.0)), rid, caps[rid]))
        else:
            cap_events.append((t, rid, caps[rid] * float(rng.uniform(0.3, 2.0))))

    aborts = [
        (float(rng.uniform(0.0, 6.0)), int(rng.integers(0, len(flows))))
        for _ in range(int(rng.integers(0, 4)))
    ]
    probes = sorted(float(rng.uniform(0.0, 10.0)) for _ in range(3))
    return caps, flows, cap_events, aborts, probes


def make_fabric_schedule(seed: int):
    """Fabric-tier topology: nodes carrying *two* NVLink-island resources
    plus a PCIe bridge, wired to a shared network resource.

    Mirrors the resource layout ``netsim.fabric`` builds for
    ``fabric_domains=2`` presets (``gpu_pod``): intra-island flows touch
    one resource, cross-island flows ride island -> bridge -> island,
    and inter-node flows stack island, bridge, and network.  Same
    reproducibility contract as :func:`make_schedule` — purely
    rng-derived, identical floats on every replay.
    """
    rng = np.random.default_rng([0xFAB, seed])
    nnodes = int(rng.integers(1, 4))
    caps = []
    islands, bridges = [], []  # resource ids per node
    for _ in range(nnodes):
        a, b, pcie = len(caps), len(caps) + 1, len(caps) + 2
        caps += [
            float(10.0 ** rng.uniform(4.0, 5.5)),  # island 0 (nvlink)
            float(10.0 ** rng.uniform(4.0, 5.5)),  # island 1 (nvlink)
            float(10.0 ** rng.uniform(3.0, 4.5)),  # pcie bridge
        ]
        islands.append((a, b))
        bridges.append(pcie)
    net = len(caps)
    caps.append(float(10.0 ** rng.uniform(3.5, 5.0)))

    flows = []
    for _ in range(int(rng.integers(4, 25))):
        start = float(rng.uniform(0.0, 5.0))
        nbytes = float(10.0 ** rng.uniform(1.0, 5.0))
        src = int(rng.integers(0, nnodes))
        kind = rng.random()
        if kind < 0.4:  # intra-island
            route = [islands[src][int(rng.integers(0, 2))]]
        elif kind < 0.7:  # cross-island within the node
            route = [islands[src][0], bridges[src], islands[src][1]]
        else:  # inter-node: island -> bridge -> net -> bridge -> island
            dst = int(rng.integers(0, nnodes))
            route = [
                islands[src][int(rng.integers(0, 2))], bridges[src], net,
                bridges[dst], islands[dst][int(rng.integers(0, 2))],
            ]
        rate_cap = (
            float(10.0 ** rng.uniform(3.0, 5.0))
            if rng.random() < 0.5
            else float("inf")
        )
        weight = float(rng.uniform(0.25, 4.0)) if rng.random() < 0.5 else 1.0
        flows.append((start, nbytes, route, rate_cap, weight))

    cap_events = []
    for _ in range(int(rng.integers(0, 5))):
        t = float(rng.uniform(0.0, 8.0))
        rid = int(rng.integers(0, len(caps)))
        if rng.random() < 0.3:
            # dead island/bridge window, restored later
            cap_events.append((t, rid, 0.0))
            cap_events.append((t + float(rng.uniform(0.5, 2.0)), rid, caps[rid]))
        else:
            cap_events.append((t, rid, caps[rid] * float(rng.uniform(0.3, 2.0))))

    aborts = [
        (float(rng.uniform(0.0, 6.0)), int(rng.integers(0, len(flows))))
        for _ in range(int(rng.integers(0, 4)))
    ]
    probes = sorted(float(rng.uniform(0.0, 10.0)) for _ in range(3))
    return caps, flows, cap_events, aborts, probes


def run_schedule(mode: str, schedule, memo: bool, monkeypatch):
    monkeypatch.setenv("REPRO_FLUID_FILL_MEMO", "1" if memo else "0")
    caps, flows, cap_events, aborts, probes = schedule
    engine = Engine()
    solver = FluidSolver(engine, mode=mode)
    rids = [solver.add_resource(c, name=f"r{i}") for i, c in enumerate(caps)]

    log: list = []
    fid_of: dict[int, int] = {}

    for i, (start, nbytes, route, rate_cap, weight) in enumerate(flows):
        def launch(i=i, nbytes=nbytes, route=route, rate_cap=rate_cap,
                   weight=weight):
            fid_of[i] = solver.start_flow(
                nbytes,
                route,
                lambda i=i: log.append(("done", i, engine.now)),
                rate_cap=rate_cap,
                weight=weight,
            )
        engine.schedule_at(start, launch)

    for t, rid, cap in cap_events:
        engine.schedule_at(
            t, lambda rid=rid, cap=cap: solver.set_capacity(rid, cap)
        )

    for t, i in aborts:
        def abort(i=i):
            fid = fid_of.get(i)
            if fid is not None:
                solver.abort_flow(fid)
                log.append(("abort", i, engine.now))
        engine.schedule_at(t, abort)

    for t in probes:
        def probe():
            solver.sync_accounting()
            log.append((
                "probe",
                engine.now,
                tuple(solver.flow_rate(fid_of.get(i, -1))
                      for i in range(len(flows))),
                tuple((solver.busy_time(r), solver.served_bytes(r))
                      for r in rids),
            ))
        engine.schedule_at(t, probe)

    engine.run()
    solver.sync_accounting()
    log.append((
        "final",
        engine.now,
        solver.active_flows,
        tuple((solver.busy_time(r), solver.served_bytes(r)) for r in rids),
    ))
    return log


@pytest.mark.parametrize("seed", range(200))
def test_incremental_matches_reference(seed, monkeypatch):
    schedule = make_schedule(seed)
    ref = run_schedule("reference", schedule, memo=False,
                       monkeypatch=monkeypatch)
    inc = run_schedule("incremental", schedule, memo=True,
                       monkeypatch=monkeypatch)
    assert inc == ref


@pytest.mark.parametrize("seed", range(100))
def test_fabric_incremental_matches_reference(seed, monkeypatch):
    """Fabric-tier routes (two-island nodes) are bit-identical too."""
    schedule = make_fabric_schedule(seed)
    ref = run_schedule("reference", schedule, memo=False,
                       monkeypatch=monkeypatch)
    inc = run_schedule("incremental", schedule, memo=True,
                       monkeypatch=monkeypatch)
    assert inc == ref


@pytest.mark.parametrize("seed", range(0, 100, 10))
def test_fabric_incremental_kernel_without_memo(seed, monkeypatch):
    """Fabric corpus against the raw kernel (memo off on both sides)."""
    schedule = make_fabric_schedule(seed)
    ref = run_schedule("reference", schedule, memo=False,
                       monkeypatch=monkeypatch)
    inc = run_schedule("incremental", schedule, memo=False,
                       monkeypatch=monkeypatch)
    assert inc == ref


@pytest.mark.parametrize("seed", range(0, 200, 8))
def test_incremental_kernel_without_memo(seed, monkeypatch):
    """Same comparison with the solve memo disabled on both sides.

    Guarantees the per-component kernel itself — not memo replay of an
    earlier kernel output — reproduces the reference bit-for-bit.
    """
    schedule = make_schedule(seed)
    ref = run_schedule("reference", schedule, memo=False,
                       monkeypatch=monkeypatch)
    inc = run_schedule("incremental", schedule, memo=False,
                       monkeypatch=monkeypatch)
    assert inc == ref


@pytest.mark.parametrize("seed", range(0, 300, 3))
def test_scalar_kernel_matches_vectorized(seed):
    """The two fill kernels, head to head on one whole schedule's flows
    (dead and rescaled resources, duplicate rids, caps, weights, and a
    capped flow that crosses no resource), bit for bit."""
    make = make_fabric_schedule if seed % 2 else make_schedule
    caps, flows, cap_events, _aborts, _probes = make(seed)
    solver = FluidSolver(Engine(), mode="reference")
    for cap in caps:
        solver.add_resource(cap)
    for _t, rid, cap in cap_events[:2]:
        solver.set_capacity(rid, cap)
    for _start, nbytes, route, rate_cap, weight in flows:
        solver.start_flow(nbytes, route, lambda: None, rate_cap=rate_cap,
                          weight=weight)
    solver.start_flow(50.0, [], lambda: None, rate_cap=123.0)
    solver.sync_accounting()  # sizes the capacity array the numpy kernel reads
    everything = list(solver._flows.values())
    scalar = np.asarray(solver._fill_scalar(everything))
    vectorized = np.asarray(solver._fill_vectorized(everything))
    assert scalar.tobytes() == vectorized.tobytes()
    assert scalar[-1] == 123.0
