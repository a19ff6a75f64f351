"""The machine-benchmark driver (Figs 10, 12, 13, 14) on a tiny geometry.

The driver times HAN and its rivals through the one measured run, so
its store lines, cache and worker knobs are those of every other
measurement.  The geometry, the size sweep and the tuning step are
shrunk so one sweep takes well under a second.
"""

import pytest

import repro.experiments.machine_bench as mb
from repro.core.han import HanModule
from repro.hardware import shaheen2
from repro.obs.store import RunStore, run_key

MACHINE = shaheen2(num_nodes=2, ppn=4)
SIZES = (4096.0, 262144.0)
RIVALS = ["openmpi", "craympi"]


@pytest.fixture(autouse=True)
def tiny_geometry(monkeypatch):
    monkeypatch.setattr(mb, "geometry", lambda name, scale: MACHINE)
    monkeypatch.setattr(mb, "bcast_sweep_sizes",
                        lambda scale: ([SIZES[0]], [SIZES[1]]))
    # no decision function: HAN takes its default configuration
    monkeypatch.setattr(mb, "tuned_decision", lambda *a, **kw: None)


def sweep(**kw) -> dict:
    return mb.bench_against_libraries(
        fig="Fig 10", machine_name="shaheen2", coll="bcast", rivals=RIVALS,
        scale="small", save=False, paper_note="", **kw,
    )


def test_store_lines_keep_their_keys(tmp_path):
    sweep(store_dir=str(tmp_path))
    store = RunStore(tmp_path)
    want = {
        run_key(MACHINE, "bcast", nbytes, None, library=name): name
        for name in RIVALS for nbytes in SIZES
    }
    # HAN's lines are keyed by the configuration each size resolved to
    want.update({
        run_key(MACHINE, "bcast", nbytes, HanModule.default_config(nbytes)):
        "han" for nbytes in SIZES
    })
    assert sorted(store.keys()) == sorted(want)
    for key, name in want.items():
        (line,) = store.runs(key)
        assert line["library"] == name
        assert line["source"] == "machine_bench.fig10"


def test_cache_dir_makes_a_rerun_simulate_nothing(tmp_path, capsys):
    first = sweep(cache_dir=str(tmp_path))
    assert "measurement cache: 0 hits / 6 misses" in capsys.readouterr().out
    again = sweep(cache_dir=str(tmp_path))
    assert "measurement cache: 6 hits / 0 misses" in capsys.readouterr().out
    assert again["times_s"] == first["times_s"]
