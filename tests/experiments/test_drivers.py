"""Smoke tests for the experiment drivers (cheap ones run end-to-end)."""

import json

import pytest

import repro.experiments.common as common
from repro.experiments import EXPERIMENTS
from repro.experiments.common import (
    bcast_sweep_sizes,
    fmt_bytes,
    geometry,
    save_result,
)


def test_experiment_registry_importable():
    import importlib

    for name in EXPERIMENTS:
        mod = importlib.import_module(f"repro.experiments.{name}")
        assert callable(mod.run)


def test_geometry_scales():
    m = geometry("shaheen2", "paper")
    assert m.num_ranks == 4096
    m = geometry("stampede2", "paper")
    assert m.num_ranks == 1536
    small = geometry("shaheen2", "small")
    assert small.num_ranks < 128
    with pytest.raises(ValueError):
        geometry("summit", "small")


def test_bcast_sweep_ranges():
    small, large = bcast_sweep_sizes("small")
    assert small[0] == 64 and small[-1] == 128 * 1024
    assert large[0] == 256 * 1024
    _small_p, large_p = bcast_sweep_sizes("paper")
    assert large_p[-1] == 128 * 1024 * 1024  # the paper's 128MB ceiling


def test_fmt_bytes():
    assert fmt_bytes(512) == "512B"
    assert fmt_bytes(4096) == "4KB"
    assert fmt_bytes(4 * 1024 * 1024) == "4MB"


def test_save_result_writes_json(tmp_path, monkeypatch):
    monkeypatch.setattr(common, "RESULTS_DIR", tmp_path)
    path = save_result("unit_test", {"x": 1})
    doc = json.loads(path.read_text())
    assert doc["x"] == 1
    assert "_generated" in doc


def test_fig11_runs_end_to_end(tmp_path, monkeypatch):
    monkeypatch.setattr(common, "RESULTS_DIR", tmp_path)
    from repro.experiments import fig11

    out = fig11.run(save=True)
    assert (tmp_path / "fig11_netpipe.json").exists()
    mid = [r for r in out["rows"] if 16 * 1024 <= r["size"] <= 512 * 1024]
    assert all(r["cray_over_openmpi"] > 1.2 for r in mid)


def test_fig03_runs_end_to_end(tmp_path, monkeypatch):
    monkeypatch.setattr(common, "RESULTS_DIR", tmp_path)
    from repro.experiments import fig03

    out = fig03.run(save=True)
    for label, pct in out["tail_spread_pct"].items():
        assert pct < 25.0, label


def test_main_wrapper_wires_traffic_and_allocation(monkeypatch, capsys):
    from repro.tenancy import TrafficPlan

    seen = {}

    def run_fn(scale="small", save=True, traffic_plan=None,
               allocation="fixed"):
        """stub experiment"""
        seen.update(scale=scale, save=save, traffic_plan=traffic_plan,
                    allocation=allocation)

    monkeypatch.setattr(
        "sys.argv",
        ["prog", "--no-save", "--traffic-plan", "allreduce_sweep",
         "--traffic-seed", "11", "--allocation", "bandit"],
    )
    common.main_wrapper(run_fn)
    assert isinstance(seen["traffic_plan"], TrafficPlan)
    assert seen["traffic_plan"].seed == 11
    assert seen["allocation"] == "bandit"
    assert seen["save"] is False


def test_main_wrapper_traffic_defaults_to_none(monkeypatch, capsys):
    seen = {}

    def run_fn(scale="small", save=True, traffic_plan=None,
               allocation="fixed"):
        """stub experiment"""
        seen.update(traffic_plan=traffic_plan, allocation=allocation)

    monkeypatch.setattr("sys.argv", ["prog", "--no-save"])
    common.main_wrapper(run_fn)
    assert seen["traffic_plan"] is None
    assert seen["allocation"] == "fixed"


def test_tuned_decision_caches(tmp_path, monkeypatch):
    monkeypatch.setattr(common, "RESULTS_DIR", tmp_path)
    from repro.tuning import SearchSpace

    machine = geometry("shaheen2", "small").scaled(num_nodes=2, ppn=2)
    space = SearchSpace(
        seg_sizes=(256 * 1024,),
        messages=(1024 * 1024,),
        adapt_algorithms=("binary",),
        inner_segs=(None,),
    )
    fn1 = common.tuned_decision(machine, colls=("bcast",), space=space,
                                cache_key="t1")
    assert (tmp_path / "t1.json").exists()
    fn2 = common.tuned_decision(machine, colls=("bcast",), cache_key="t1")
    cfg1 = fn1(2, 2, 1024 * 1024, "bcast")
    cfg2 = fn2(2, 2, 1024 * 1024, "bcast")
    assert cfg1 == cfg2


def test_tuned_decision_no_save_writes_nothing(tmp_path, monkeypatch):
    """``--no-save`` tunes in memory: no table is left under results/,
    and an existing table is still read."""
    monkeypatch.setattr(common, "RESULTS_DIR", tmp_path / "results")
    from repro.tuning import SearchSpace

    machine = geometry("shaheen2", "small").scaled(num_nodes=2, ppn=2)
    space = SearchSpace(
        seg_sizes=(256 * 1024,),
        messages=(1024 * 1024,),
        adapt_algorithms=("binary",),
        inner_segs=(None,),
    )
    fn = common.tuned_decision(machine, colls=("bcast",), space=space,
                               save=False)
    assert not (tmp_path / "results").exists()
    saved = common.tuned_decision(machine, colls=("bcast",), space=space,
                                  cache_key="t1")
    cached = common.tuned_decision(machine, colls=("bcast",), cache_key="t1",
                                   save=False)
    assert [p.name for p in (tmp_path / "results").iterdir()] == ["t1.json"]
    cfgs = {f(2, 2, 1024 * 1024, "bcast") for f in (fn, saved, cached)}
    assert len(cfgs) == 1


@pytest.mark.parametrize("name, result", [
    ("fig06", "fig06_ib_ir_overlap"),
    ("fig11", "fig11_netpipe"),
])
def test_committed_paper_results_are_current(name, result):
    """The committed ``results/*.json`` are what the code produces now
    (provenance header aside), so the paper record cannot go stale."""
    import importlib

    fresh = importlib.import_module(f"repro.experiments.{name}").run(
        save=False
    )
    committed = json.loads((common.RESULTS_DIR / f"{result}.json").read_text())
    # the same JSON round trip save_result applies
    fresh = json.loads(json.dumps(fresh, default=str))
    assert fresh == common.strip_result_header(committed)
