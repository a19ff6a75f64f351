"""networkx is a validation-only dependency: the simulator never imports it.

``Topology.to_networkx`` imports it on its first call, so a process that
only simulates, tunes or serves pays neither its import time nor its
memory.  Checked in a fresh interpreter, where no other test can have
imported it first.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

PROGRAM = """
import sys
import repro.tuning, repro.serve, repro.obs.fleet, repro.experiments.scaling4096
print("networkx" in sys.modules)
"""


def test_simulator_imports_leave_networkx_out():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", PROGRAM], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"

