"""Unit + property tests for the max-min fluid bandwidth solver."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Engine, FluidSolver


def make():
    eng = Engine()
    net = FluidSolver(eng)
    return eng, net


def record_completion(times, eng, key):
    def cb():
        times[key] = eng.now

    return cb


def test_single_flow_duration_is_bytes_over_capacity():
    eng, net = make()
    r = net.add_resource(100.0)  # 100 B/s
    done = {}
    net.start_flow(1000.0, [r], record_completion(done, eng, "f"))
    eng.run()
    assert done["f"] == pytest.approx(10.0)


def test_two_flows_share_fairly():
    eng, net = make()
    r = net.add_resource(100.0)
    done = {}
    net.start_flow(1000.0, [r], record_completion(done, eng, "a"))
    net.start_flow(1000.0, [r], record_completion(done, eng, "b"))
    eng.run()
    # Each gets 50 B/s -> 20 s.
    assert done["a"] == pytest.approx(20.0)
    assert done["b"] == pytest.approx(20.0)


def test_short_flow_finishes_then_long_flow_speeds_up():
    eng, net = make()
    r = net.add_resource(100.0)
    done = {}
    net.start_flow(500.0, [r], record_completion(done, eng, "short"))
    net.start_flow(1500.0, [r], record_completion(done, eng, "long"))
    eng.run()
    # Both at 50 B/s until t=10 when short ends (500 B); long then has
    # 1000 B left at 100 B/s -> finishes at t=20.
    assert done["short"] == pytest.approx(10.0)
    assert done["long"] == pytest.approx(20.0)


def test_rate_cap_limits_single_flow():
    eng, net = make()
    r = net.add_resource(100.0)
    done = {}
    net.start_flow(100.0, [r], record_completion(done, eng, "f"), rate_cap=10.0)
    eng.run()
    assert done["f"] == pytest.approx(10.0)


def test_capped_flow_leaves_bandwidth_for_others():
    eng, net = make()
    r = net.add_resource(100.0)
    done = {}
    net.start_flow(100.0, [r], record_completion(done, eng, "capped"), rate_cap=10.0)
    net.start_flow(900.0, [r], record_completion(done, eng, "free"))
    eng.run()
    # capped runs at 10, free gets 90 -> both end at t=10.
    assert done["capped"] == pytest.approx(10.0)
    assert done["free"] == pytest.approx(10.0)


def test_multi_resource_bottleneck():
    eng, net = make()
    wide = net.add_resource(100.0)
    narrow = net.add_resource(10.0)
    done = {}
    net.start_flow(100.0, [wide, narrow], record_completion(done, eng, "f"))
    eng.run()
    assert done["f"] == pytest.approx(10.0)


def test_duplicate_resource_counts_double():
    # A flow listing the same resource twice consumes 2x bandwidth per byte
    # (how intra-node copy-in + copy-out over one memory bus is modelled).
    eng, net = make()
    bus = net.add_resource(100.0)
    done = {}
    net.start_flow(100.0, [bus, bus], record_completion(done, eng, "f"))
    eng.run()
    assert done["f"] == pytest.approx(2.0)


def test_weighted_sharing():
    eng, net = make()
    r = net.add_resource(90.0)
    done = {}
    net.start_flow(600.0, [r], record_completion(done, eng, "w2"), weight=2.0)
    net.start_flow(600.0, [r], record_completion(done, eng, "w1"), weight=1.0)
    eng.run()
    # w2 gets 60 B/s (ends t=10), w1 gets 30 B/s until t=10 (300 B done)
    # then 90 B/s for remaining 300 B -> ends t=10+300/90.
    assert done["w2"] == pytest.approx(10.0)
    assert done["w1"] == pytest.approx(10.0 + 300.0 / 90.0)


def test_zero_byte_flow_completes_immediately():
    eng, net = make()
    r = net.add_resource(1.0)
    done = {}
    net.start_flow(0.0, [r], record_completion(done, eng, "z"))
    eng.run()
    assert done["z"] == 0.0
    assert net.active_flows == 0


def test_flow_without_resources_needs_cap_or_completes():
    eng, net = make()
    done = {}
    net.start_flow(100.0, [], record_completion(done, eng, "inf"))
    eng.run()
    assert done["inf"] == 0.0  # unconstrained -> instantaneous
    net.start_flow(100.0, [], record_completion(done, eng, "capped"), rate_cap=10.0)
    eng.run()
    assert done["capped"] == pytest.approx(10.0)


def test_abort_flow_frees_bandwidth():
    eng, net = make()
    r = net.add_resource(100.0)
    done = {}
    fid = net.start_flow(10000.0, [r], record_completion(done, eng, "dead"))
    net.start_flow(1000.0, [r], record_completion(done, eng, "live"))

    def killer():
        from repro.sim import Sleep

        yield Sleep(5.0)
        net.abort_flow(fid)

    eng.spawn(killer())
    eng.run()
    assert "dead" not in done
    # live: 50 B/s for 5 s (250 B), then 100 B/s for 750 B -> t = 12.5
    assert done["live"] == pytest.approx(12.5)


@pytest.mark.parametrize("mode", ["incremental", "reference"])
def test_capped_flow_without_resources_beside_a_routed_flow(mode):
    """Started in the same instant as a routed flow, a capped flow that
    crosses no resource used to be left at rate 0: a stall error in the
    incremental mode, a late finish (1.2 s) in the reference one."""
    eng = Engine()
    net = FluidSolver(eng, mode=mode)
    r = net.add_resource(100.0)
    done = {}
    net.start_flow(100.0, [r], record_completion(done, eng, "routed"))
    net.start_flow(100.0, [], record_completion(done, eng, "capped"),
                   rate_cap=500.0)
    eng.run()
    assert done == {"routed": 1.0, "capped": 0.2}


def test_unknown_resource_rejected():
    eng, net = make()
    with pytest.raises(IndexError):
        net.start_flow(10.0, [99], lambda: None)


def test_bad_capacity_rejected():
    _, net = make()
    with pytest.raises(ValueError):
        net.add_resource(0.0)
    with pytest.raises(ValueError):
        net.add_resource(-5.0)


def test_negative_bytes_rejected():
    eng, net = make()
    r = net.add_resource(1.0)
    with pytest.raises(ValueError):
        net.start_flow(-1.0, [r], lambda: None)


NAN = float("nan")


def one_byte_flow_time(**kw):
    """Completion instant of a 1 B flow on a 1 B/s resource (valid: 1 s)."""
    eng, net = make()
    r = net.add_resource(1.0)
    done = {}
    net.start_flow(kw.pop("nbytes", 1.0), [r],
                   record_completion(done, eng, "f"), **kw)
    eng.run()
    return done["f"]


def test_valid_one_byte_flow_takes_one_second():
    assert one_byte_flow_time() == 1.0


@pytest.mark.parametrize("arg, value", [
    ("nbytes", NAN),
    ("weight", NAN),
    ("weight", 0.0),
    ("weight", -1.0),
    ("weight", float("inf")),
    ("rate_cap", -5.0),
    ("rate_cap", NAN),
    ("rate_cap", 0.0),
])
def test_bad_flow_argument_rejected_at_the_call(arg, value):
    """Each of these used to be accepted: the flow finished at t = 0.0
    with no error (or, for a negative cap, raised a misleading stall)."""
    with pytest.raises(ValueError, match=rf"{arg} must be .*got {value!r}"):
        one_byte_flow_time(**{arg: value})


def test_nan_capacity_resource_rejected():
    _, net = make()
    with pytest.raises(ValueError, match=r"capacity must be > 0, got nan"):
        net.add_resource(NAN)
    assert net.num_resources == 0


@pytest.mark.parametrize("mode", ["incremental", "reference"])
def test_nan_capacity_rescale_rejected_mid_flow(mode):
    """set_capacity(r, nan) mid-flow used to end the flow at the rescale
    instant; now it raises, and the flow keeps its 1 s schedule."""
    eng = Engine()
    net = FluidSolver(eng, mode=mode)
    r = net.add_resource(1.0)
    done, errors = {}, []
    net.start_flow(1.0, [r], record_completion(done, eng, "f"))

    def rescale():
        with pytest.raises(ValueError, match=r"capacity must be >= 0, got nan"):
            net.set_capacity(r, NAN)
        errors.append(eng.now)

    eng.schedule(0.5, rescale)
    eng.run()
    assert errors == [0.5]
    assert done["f"] == 1.0
    assert net.capacity(r) == 1.0


def test_nan_capacity_factor_rejected():
    _, net = make()
    r = net.add_resource(1.0)
    with pytest.raises(ValueError, match=r"factor must be >= 0, got nan"):
        net.scale_capacity(r, NAN)


def test_parking_lot_topology_max_min():
    # Classic max-min example: flow A crosses r1 and r2; flow B only r1;
    # flow C only r2.  r1 = r2 = 100.  Max-min: all get 50.
    eng, net = make()
    r1 = net.add_resource(100.0)
    r2 = net.add_resource(100.0)
    done = {}
    net.start_flow(500.0, [r1, r2], record_completion(done, eng, "A"))
    net.start_flow(500.0, [r1], record_completion(done, eng, "B"))
    net.start_flow(500.0, [r2], record_completion(done, eng, "C"))
    eng.run(until=9.999)
    # before any completion all three run at 50 B/s
    assert done == {}
    eng.run()
    assert done["A"] == pytest.approx(10.0)


def test_staggered_arrivals():
    eng, net = make()
    r = net.add_resource(100.0)
    done = {}

    def starter():
        from repro.sim import Sleep

        net.start_flow(1000.0, [r], record_completion(done, eng, "first"))
        yield Sleep(5.0)
        net.start_flow(250.0, [r], record_completion(done, eng, "second"))

    eng.spawn(starter())
    eng.run()
    # first: 100 B/s for 5 s (500 B), then 50 B/s with second.
    # second (250 B at 50 B/s) ends at t=10; first has 250 B left
    # -> full rate again, ends 12.5.
    assert done["second"] == pytest.approx(10.0)
    assert done["first"] == pytest.approx(12.5)


@settings(max_examples=60, deadline=None)
@given(
    caps=st.lists(st.floats(1.0, 1e6), min_size=1, max_size=5),
    flows=st.lists(
        st.tuples(
            st.floats(1.0, 1e5),  # bytes
            st.data(),
        ),
        min_size=1,
        max_size=8,
    ),
)
def test_property_all_flows_complete_and_capacity_respected(caps, flows):
    """Every flow completes in finite time, no faster than physics allows."""
    eng, net = make()
    rids = [net.add_resource(c) for c in caps]
    done = {}
    specs = []
    for i, (nbytes, data) in enumerate(flows):
        route = data.draw(
            st.lists(st.sampled_from(rids), min_size=1, max_size=3), label="route"
        )
        net.start_flow(nbytes, route, record_completion(done, eng, i))
        specs.append((nbytes, route))
    eng.run()
    assert len(done) == len(flows)
    for i, (nbytes, route) in enumerate(specs):
        # Lower bound: a flow alone can't beat its tightest resource
        # (accounting for duplicate-resource multiplicity).
        best = min(
            net.capacity(r) / route.count(r) for r in set(route)
        )
        assert done[i] >= nbytes / best - 1e-6


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 10),
    cap=st.floats(10.0, 1e4),
    nbytes=st.floats(1.0, 1e4),
)
def test_property_equal_flows_finish_together(n, cap, nbytes):
    """n identical flows over one resource all finish at n*bytes/cap."""
    eng, net = make()
    r = net.add_resource(cap)
    done = {}
    for i in range(n):
        net.start_flow(nbytes, [r], record_completion(done, eng, i))
    eng.run()
    expect = n * nbytes / cap
    for i in range(n):
        assert done[i] == pytest.approx(expect, rel=1e-9)


def test_utilization_reports_busy_fraction():
    eng, net = make()
    r = net.add_resource(100.0)
    net.start_flow(1000.0, [r], lambda: None)
    eng.run(until=1.0)
    util = net.utilization()
    assert util[0] == pytest.approx(1.0)


def test_conservation_total_bytes():
    # Sum over flows of rate*dt must equal bytes injected.
    eng, net = make()
    r = net.add_resource(123.0)
    done = {}
    total = 0.0
    for i, b in enumerate([100.0, 300.0, 50.0, 777.0]):
        net.start_flow(b, [r], record_completion(done, eng, i))
        total += b
    end = eng.run()
    # Single shared resource at full utilisation the whole time:
    assert end == pytest.approx(total / 123.0)


def test_time_integrated_accounting_basics():
    eng, net = make()
    r = net.add_resource(100.0, name="link")
    done = {}
    net.start_flow(500.0, [r], record_completion(done, eng, "f"))
    eng.run()
    net.sync_accounting()
    assert net.resource_name(r) == "link"
    assert net.busy_time(r) == pytest.approx(5.0)
    assert net.served_bytes(r) == pytest.approx(500.0)
    # flow ran 0..5 at full rate; at horizon=now (5 s) utilization is 1
    assert net.mean_utilization(r) == pytest.approx(1.0)
    assert net.mean_utilization(r, horizon=10.0) == pytest.approx(0.5)


def test_accounting_counts_busy_not_instantaneous():
    """utilization() is instantaneous (zero after the flow ends);
    busy_time() integrates, so it keeps the history."""
    eng, net = make()
    r = net.add_resource(100.0)
    net.start_flow(200.0, [r], lambda: None)
    eng.run()
    assert net.utilization()[0] == 0.0  # nothing in flight *now*
    net.sync_accounting()
    assert net.busy_time(r) == pytest.approx(2.0)  # ...but it was busy


def test_accounting_exact_across_mid_flow_capacity_rescale():
    """The busy/served integrals must use the *old* rates for time
    before a rescale and the new rates after it."""
    eng, net = make()
    r = net.add_resource(100.0, name="link")
    done = {}
    net.start_flow(1000.0, [r], record_completion(done, eng, "f"))
    # At t=2 (200 B drained) halve the capacity: the remaining 800 B
    # drain at 50 B/s -> completion at t = 2 + 16 = 18.
    eng.schedule(2.0, lambda: net.set_capacity(r, 50.0))
    eng.run()
    assert done["f"] == pytest.approx(18.0)
    net.sync_accounting()
    assert net.busy_time(r) == pytest.approx(18.0)
    assert net.served_bytes(r) == pytest.approx(1000.0)
    # mean_utilization uses the *current* capacity (50 B/s) over 18 s
    assert net.mean_utilization(r) == pytest.approx(1000.0 / (50.0 * 18.0))


def test_accounting_idle_gap_not_counted_busy():
    eng, net = make()
    r = net.add_resource(100.0)
    done = {}
    net.start_flow(100.0, [r], record_completion(done, eng, "a"))  # 0..1
    # second flow starts after a 2-second idle gap
    eng.schedule(
        3.0,
        lambda: net.start_flow(100.0, [r], record_completion(done, eng, "b")),
    )
    eng.run()
    assert done["a"] == pytest.approx(1.0)
    assert done["b"] == pytest.approx(4.0)
    net.sync_accounting()
    assert net.busy_time(r) == pytest.approx(2.0)  # 0..1 and 3..4
    assert net.served_bytes(r) == pytest.approx(200.0)


def test_accounting_zero_capacity_stall_not_busy():
    """A flow stalled on a dead resource accrues no busy time."""
    eng, net = make()
    r = net.add_resource(100.0)
    done = {}
    net.start_flow(200.0, [r], record_completion(done, eng, "f"))
    eng.schedule(1.0, lambda: net.set_capacity(r, 0.0))  # die at t=1
    eng.schedule(5.0, lambda: net.set_capacity(r, 100.0))  # revive at t=5
    eng.run()
    # 100 B by t=1, stall 1..5, last 100 B in 5..6
    assert done["f"] == pytest.approx(6.0)
    net.sync_accounting()
    assert net.busy_time(r) == pytest.approx(2.0)
    assert net.served_bytes(r) == pytest.approx(200.0)


def test_flow_rate_after_completion_returns_zero():
    """Regression: polling a completed fid used to raise KeyError."""
    eng, net = make()
    r = net.add_resource(100.0)
    done = {}
    fid = net.start_flow(100.0, [r], record_completion(done, eng, "f"))
    eng.run()
    assert done["f"] == pytest.approx(1.0)
    assert net.flow_rate(fid) == 0.0
    assert net.flow_remaining(fid) == 0.0
    # aborted and instantaneous (-1) pseudo-fids answer 0.0 too
    fid2 = net.start_flow(100.0, [r], lambda: None)
    net.abort_flow(fid2)
    assert net.flow_rate(fid2) == 0.0
    assert net.flow_rate(-1) == 0.0


@pytest.mark.parametrize("mode", ["incremental", "reference"])
def test_zero_capacity_stall_and_resume_rates(mode):
    """set_capacity(0) stalls in-flight flows at rate 0 (no stall error);
    restoring the capacity resumes them and they finish exactly."""
    eng = Engine()
    net = FluidSolver(eng, mode=mode)
    r = net.add_resource(100.0)
    done = {}
    fid = net.start_flow(300.0, [r], record_completion(done, eng, "f"))
    rates = {}

    def probe(key):
        def cb():
            rates[key] = net.flow_rate(fid)

        return cb

    eng.schedule(0.5, probe("before"))
    eng.schedule(1.0, lambda: net.set_capacity(r, 0.0))
    eng.schedule(2.0, probe("stalled"))
    eng.schedule(3.0, lambda: net.set_capacity(r, 50.0))
    eng.schedule(3.5, probe("resumed"))
    eng.run()
    assert rates == {"before": 100.0, "stalled": 0.0, "resumed": 50.0}
    # 100 B by t=1, stall 1..3, 200 B at 50 B/s -> done at t=7
    assert done["f"] == pytest.approx(7.0)


@pytest.mark.parametrize("mode", ["incremental", "reference"])
def test_flow_started_on_dead_resource_waits_for_revival(mode):
    eng = Engine()
    net = FluidSolver(eng, mode=mode)
    r = net.add_resource(100.0)
    done = {}
    eng.schedule(0.0, lambda: net.set_capacity(r, 0.0))
    eng.schedule(
        1.0, lambda: net.start_flow(100.0, [r], record_completion(done, eng, "f"))
    )
    eng.schedule(4.0, lambda: net.set_capacity(r, 100.0))
    eng.run()
    assert done["f"] == pytest.approx(5.0)
