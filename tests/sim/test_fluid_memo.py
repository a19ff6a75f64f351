"""The progressive-fill memo: generational eviction and the safety property.

The memo is a pure accelerator — a cold or warm memo never changes a
simulation result, only how fast it is produced.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.sim.fluid as fluid
from repro.sim.fluid import clear_fill_memo, fill_memo_sizes
from tests.sim.test_fluid_differential import make_schedule, run_schedule


@pytest.fixture(autouse=True)
def _isolated_memo():
    clear_fill_memo()
    yield
    # rotation rebinds the module globals, so restore by assignment
    fluid._FILL_MEMO = {}
    fluid._FILL_MEMO_OLD = {}


def _key(i: int) -> tuple:
    # shape of a real memo key: (caps id, flow item id, ...), all interned
    return (1000 + i, 7, 8 + i)


def _value(i: int) -> np.ndarray:
    return np.asarray([1.5 * i, 2.25 * i + 0.125], dtype=np.float64)


# -- generational rotation ----------------------------------------------------


def test_rotation_ages_the_current_generation(monkeypatch):
    monkeypatch.setattr(fluid, "_FILL_MEMO_MAX", 8)  # rotate at 4 entries
    for i in range(4):
        fluid._fill_memo_store(_key(i), _value(i))
    assert fill_memo_sizes() == (4, 0)
    fluid._fill_memo_store(_key(4), _value(4))  # triggers the rotation
    assert fill_memo_sizes() == (1, 4)
    # total footprint is bounded by _FILL_MEMO_MAX, never unbounded
    for i in range(5, 40):
        fluid._fill_memo_store(_key(i), _value(i))
        cur, old = fill_memo_sizes()
        assert cur + old <= 8


def test_old_generation_hits_are_promoted(monkeypatch):
    monkeypatch.setattr(fluid, "_FILL_MEMO_MAX", 8)
    for i in range(5):  # 5th store rotates: 0..3 become the old generation
        fluid._fill_memo_store(_key(i), _value(i))
    assert fill_memo_sizes() == (1, 4)
    got = fluid._fill_memo_get(_key(2))
    assert np.array_equal(got, _value(2))
    # the hit was promoted into the current generation (hot entries
    # never age out) and stays served from there
    assert fill_memo_sizes() == (2, 4)
    assert fluid._FILL_MEMO[_key(2)] is got


def test_miss_returns_none():
    assert fluid._fill_memo_get(_key(99)) is None


# -- the safety property ------------------------------------------------------


def test_warm_memo_replay_is_bit_identical(monkeypatch):
    schedule = make_schedule(7)
    cold = run_schedule("incremental", schedule, memo=True,
                        monkeypatch=monkeypatch)
    cur, old = fill_memo_sizes()
    assert cur + old > 0  # the run actually populated the memo
    warm = run_schedule("incremental", schedule, memo=True,
                        monkeypatch=monkeypatch)
    assert warm == cold
