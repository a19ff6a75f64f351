"""The lock harness (``tests/locks.py``): every fixture holds exactly its
lock's cases in the one schema, the schema pins what it stores, the
cache runs a case once, and regeneration rewrites an unchanged lock
byte for byte."""

from __future__ import annotations

import pytest

from tests import locks

#: cases per lock
COUNTS = {"lifecycle": 2051, "barrier": 66, "sm_call": 1215,
          "shm_timing": 444, "imb": 140, "guideline": 71, "measure": 27,
          "golden": 37}


@pytest.mark.parametrize("lock", locks.LOCKS)
def test_fixture_covers_the_cases(lock):
    cases = locks.module(lock).cases()
    assert len(set(cases)) == len(cases) == COUNTS[lock]
    assert sorted(locks.fixture(lock)) == sorted(cases)


@pytest.mark.parametrize("lock", locks.LOCKS)
def test_fixture_is_in_the_one_schema(lock):
    """One sorted line per case, no bare float and no list longer than
    the head: pinning an entry again leaves it as it is."""
    doc = locks.fixture(lock)
    assert locks.dumps(doc) == locks.fixture_path(lock).read_text()
    assert [key for key, case in doc.items() if locks.pin(case) != case] == []


def test_pin_keeps_floats_exact_and_digests_long_lists():
    exits = [0.5, 0.1, 1.0, 2.0, 3.0]
    got = locks.pin({"now": 0.1, "events": 7, "exits": exits,
                     "jobs": (1, 2, 3, 4)})
    assert got == {
        "now": "0x1.999999999999ap-4", "events": 7,
        "exits": {"n": 5, "head": [x.hex() for x in exits[:4]],
                  "sha": locks.digest(exits)},
        "jobs": [1, 2, 3, 4],
    }
    assert locks.pin(0.1) == "0x1.999999999999ap-4"
    # the digest covers the entries past the head
    moved = locks.pin({"exits": [*exits[:4], 3.0000000000000004]})
    assert moved["exits"]["head"] == got["exits"]["head"]
    assert moved["exits"]["sha"] != got["exits"]["sha"]


def test_result_runs_a_case_once():
    key = "sm/flat/6/barrier/0/-"
    first = locks.result("shm_timing", key)
    assert locks.result("shm_timing", key) is first
    assert locks.RUNS["shm_timing", key] == 1
    assert locks.fresh("shm_timing", key) == first


def test_regen_rewrites_an_unchanged_lock_byte_for_byte(tmp_path,
                                                         monkeypatch):
    want = locks.fixture_path("guideline").read_text()
    monkeypatch.setattr(locks, "TESTS", tmp_path)
    (tmp_path / "obs").mkdir()
    assert locks.main(["--regen", "guideline"]) == 0
    assert (tmp_path / "obs" / "guideline_lock.json").read_text() == want


def test_regen_refuses_an_unknown_lock():
    with pytest.raises(SystemExit):
        locks.main(["--regen", "lifecycle", "nonesuch"])
