"""Smoke tests for ``python -m repro.tuning.cli``."""

import json

import pytest

from repro.tenancy import traffic_preset
from repro.tuning.cli import main


def test_run_serial_and_warm_cache(tmp_path, capsys):
    cache = tmp_path / "cache"
    table = tmp_path / "table.json"
    argv = [
        "run", "--machine", "tiny", "--nodes", "2", "--ppn", "2",
        "--colls", "bcast", "--method", "task", "--space", "small",
        "--cache", str(cache), "--out", str(table),
    ]
    assert main(argv) == 0
    cold = capsys.readouterr().out
    assert "hit rate" in cold and table.exists()
    doc = json.loads(table.read_text())
    assert doc["version"] == 1 and doc["rows"]

    assert main(argv) == 0  # second run replays entirely from the cache
    warm = capsys.readouterr().out
    assert "0 misses" in warm
    # decisions don't depend on the cache: identical table both times
    assert json.loads(table.read_text()) == doc


def test_run_defaults_to_preset_geometry(capsys):
    assert main(["run", "--machine", "tiny", "--colls", "bcast",
                 "--method", "task"]) == 0
    assert "tiny_cluster 2x2" in capsys.readouterr().out


def test_run_with_workers(capsys):
    assert main(["run", "--machine", "tiny", "--colls", "bcast",
                 "--method", "exhaustive", "--workers", "2"]) == 0
    assert "workers=2" in capsys.readouterr().out


def test_no_cache_forces_cold_run(tmp_path, capsys):
    argv = ["run", "--machine", "tiny", "--colls", "bcast", "--method", "task",
            "--cache", str(tmp_path / "c")]
    assert main(argv) == 0
    capsys.readouterr()
    assert main(argv + ["--no-cache"]) == 0
    assert "cache:" not in capsys.readouterr().out


def test_inspect(tmp_path, capsys):
    cache = tmp_path / "cache"
    main(["run", "--machine", "tiny", "--colls", "bcast", "--method", "task",
          "--cache", str(cache)])
    capsys.readouterr()
    assert main(["inspect", "--cache", str(cache)]) == 0
    out = capsys.readouterr().out
    assert "entries" in out and "taskbench: " in out


def test_inspect_missing_cache(tmp_path, capsys):
    assert main(["inspect", "--cache", str(tmp_path / "nope")]) == 1


def test_run_under_traffic_with_bandit_allocation(capsys):
    argv = ["run", "--machine", "tiny", "--colls", "bcast",
            "--method", "exhaustive", "--trials", "3",
            "--allocation", "bandit",
            "--traffic-plan", "allreduce_sweep", "--traffic-seed", "11"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "exhaustive/bandit" in out
    assert "traffic=allreduce_sweep" in out
    assert "trials_spent=" in out


def test_run_accepts_traffic_plan_json_file(tmp_path, capsys):
    doc = traffic_preset("bcast_periodic").with_seed(5).to_doc()
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(doc))
    assert main(["run", "--machine", "tiny", "--colls", "bcast",
                 "--method", "exhaustive", "--traffic-plan", str(path)]) == 0
    assert f"traffic={path}" in capsys.readouterr().out


def test_unknown_traffic_plan_is_a_clean_error(capsys):
    with pytest.raises(SystemExit, match="neither a preset"):
        main(["run", "--machine", "tiny", "--colls", "bcast",
              "--traffic-plan", "no_such_preset"])


def test_bandit_subcommand_writes_gated_artifact(tmp_path, capsys):
    out = tmp_path / "bandit.json"
    assert main(["bandit", "--machine", "tiny", "--nodes", "2", "--ppn", "2",
                 "--colls", "bcast", "--trials", "4", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["passed"] is True
    assert doc["gates"]["savings_ok"] and doc["gates"]["agreement_ok"]
    assert doc["trials_spent"]["bandit"] < doc["trials_spent"]["fixed"]
    assert doc["savings_pct"] >= doc["gates"]["min_savings_pct"]
    assert doc["truth_agreement"]["bandit"] >= doc["truth_agreement"]["fixed"]
    assert doc["scenario"]["seed"] == 2026


def test_bandit_gate_failure_is_exit_one(tmp_path, capsys):
    # an impossible savings bar: even a perfect bandit can't save 99.9%
    assert main(["bandit", "--machine", "tiny", "--nodes", "2", "--ppn", "2",
                 "--colls", "bcast", "--trials", "2", "--min-savings", "0.999",
                 "--out", str(tmp_path / "b.json")]) == 1

