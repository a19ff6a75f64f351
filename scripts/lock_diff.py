"""List every field a regenerated lock fixture moved against a git revision.

The lock fixtures (``tests/locks.py``: one line per case id, floats as
``float.hex``, a long per-rank list as ``{"n", "head", "sha"}``) map a
case id to a dict of pinned fields or to one pinned value.  After a
regeneration this prints, per fixture, how many cases each field moved
in, and for a count field (``events``) how many went up and down; a
moved field is shown with both sides of its first move (both heads for
a digested list), and ``-v`` lists every moved case.  It exits 1 when a
field other than ``events`` moved, a count went up, or the case ids
differ::

    python scripts/lock_diff.py HEAD~1 tests/mpi/lifecycle_lock.json \\
        tests/mpi/barrier_lock.json tests/modules/sm_call_lock.json
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path


def _fields(case) -> dict:
    """A case's pinned fields (a case that is not a dict is one field)."""
    return case if isinstance(case, dict) else {"value": case}


def _show(value) -> str:
    """A pinned value; a digested list as its length and head."""
    if isinstance(value, dict) and value.keys() == {"n", "head", "sha"}:
        return f"n={value['n']} head={value['head']!r} sha={value['sha']}"
    return repr(value)


def diff(old: dict, new: dict) -> dict[str, list[tuple[str, object, object]]]:
    """field -> ``(case, old value, new value)`` of every case it moved in."""
    moved: dict[str, list] = {}
    for key in sorted(old.keys() & new.keys()):
        was, now = _fields(old[key]), _fields(new[key])
        for field in sorted(was.keys() | now.keys()):
            a, b = was.get(field), now.get(field)
            if a != b:
                moved.setdefault(field, []).append((key, a, b))
    return moved


def verdict(old: dict, new: dict, verbose: bool = False) -> tuple[bool, list[str]]:
    """Whether ``new`` may replace ``old`` (only ``events`` moved, and
    only down, over the same case ids), and the report lines."""
    ok = old.keys() == new.keys()
    lines = [] if ok else [
        f"case ids differ (-{len(old.keys() - new.keys())} "
        f"+{len(new.keys() - old.keys())})"]
    moved = diff(old, new)
    lines.append(f"{len(new)} cases, " + (
        ", ".join(f"{f} moved in {len(c)}" for f, c in moved.items())
        or "nothing moved"))
    for field, changes in moved.items():
        counts = [(a, b) for _, a, b in changes
                  if isinstance(a, int) and isinstance(b, int)]
        if len(counts) == len(changes):
            up = sum(b > a for a, b in counts)
            lines.append(f"  {field}: {len(changes) - up} down, {up} up, "
                         f"total {sum(a for a, _ in counts)} -> "
                         f"{sum(b for _, b in counts)}")
            ok &= up == 0
        ok &= field == "events"
        for key, a, b in changes if verbose else changes[:1]:
            lines.append(f"    {key} {field}: {_show(a)} -> {_show(b)}")
    return ok, lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("rev", help="git revision holding the old fixtures")
    ap.add_argument("fixtures", nargs="+", type=Path)
    ap.add_argument("-v", "--verbose", action="store_true")
    args = ap.parse_args(argv)
    ok = True
    for path in args.fixtures:
        old = json.loads(subprocess.run(
            ["git", "show", f"{args.rev}:{path.as_posix()}"],
            check=True, capture_output=True, text=True,
        ).stdout)
        good, lines = verdict(old, json.loads(path.read_text()), args.verbose)
        ok &= good
        for line in lines:
            print(line if line.startswith(" ") else f"{path}: {line}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
