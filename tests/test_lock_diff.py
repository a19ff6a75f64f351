"""``scripts/lock_diff.py``'s verdict on planted old / new fixture pairs:
only ``events`` may move, and only down, over the same case ids."""

from __future__ import annotations

import importlib.util
from pathlib import Path

from tests import locks

_spec = importlib.util.spec_from_file_location(
    "lock_diff", Path(__file__).resolve().parents[1] / "scripts" / "lock_diff.py")
lock_diff = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(lock_diff)

OLD = {
    "quiet/a": locks.pin({"now": 1.5, "events": 40,
                          "exits": [0.5, 0.75, 1.0, 1.25, 1.5]}),
    "quiet/b": locks.pin({"now": 2.5, "events": 12, "exits": [2.5, 2.5]}),
    "imb/c": locks.pin(3e-5),
}


def _with(key, **fields):
    new = dict(OLD)
    new[key] = {**OLD[key], **locks.pin(fields)}
    return new


def test_nothing_moved():
    ok, lines = lock_diff.verdict(OLD, dict(OLD))
    assert ok and lines == ["3 cases, nothing moved"]


def test_events_may_go_down():
    ok, lines = lock_diff.verdict(OLD, _with("quiet/a", events=39))
    assert ok
    assert "  events: 1 down, 0 up, total 40 -> 39" in lines


def test_events_may_not_go_up():
    ok, lines = lock_diff.verdict(OLD, _with("quiet/b", events=13))
    assert not ok
    assert "  events: 0 down, 1 up, total 12 -> 13" in lines


def test_a_moved_digested_field_is_named_with_both_heads():
    new = _with("quiet/a", exits=[0.5, 0.75, 1.0, 1.25, 1.75])
    ok, lines = lock_diff.verdict(OLD, new)
    assert not ok
    assert lines[0] == "3 cases, exits moved in 1"
    head = [x.hex() for x in (0.5, 0.75, 1.0, 1.25)]
    was, now = OLD["quiet/a"]["exits"]["sha"], new["quiet/a"]["exits"]["sha"]
    assert lines[1] == (f"    quiet/a exits: n=5 head={head!r} sha={was} -> "
                        f"n=5 head={head!r} sha={now}")


def test_a_moved_value_case_fails():
    ok, lines = lock_diff.verdict(OLD, {**OLD, "imb/c": locks.pin(3.1e-5)})
    assert not ok and lines[0] == "3 cases, value moved in 1"


def test_case_ids_must_match():
    new = {key: case for key, case in OLD.items() if key != "quiet/b"}
    ok, lines = lock_diff.verdict(OLD, new)
    assert not ok and lines[0] == "case ids differ (-1 +0)"
