"""HAN: the Hierarchical AutotuNed collective communication framework.

This is the paper's primary contribution (section III): hierarchical
collective operations expressed as sequences of *tasks*, where each task
combines fine-grained collective operations from interchangeable
submodules --

- inter-node level: non-blocking collectives from `libnbc` or `adapt`,
- intra-node level: shared-memory collectives from `sm` or `solo`,

with a pipelining technique (segments of size `fs`) that overlaps the
levels.  Further hardware levels (NVLink islands, topology groups) are
levels of the same :class:`Hierarchy`, each turned into a collective
module by :class:`LeaderComposite`.  The per-collective configuration
(Table II) lives in :class:`~repro.core.config.HanConfig`; the autotuner
that fills it is :mod:`repro.tuning`.
"""

from repro.core.config import HanConfig
from repro.core.subcomms import Hierarchy, Level, build_hierarchy
from repro.core.composite import LeaderComposite
from repro.core.han import HanModule

__all__ = [
    "HanConfig",
    "HanModule",
    "Hierarchy",
    "LeaderComposite",
    "Level",
    "build_hierarchy",
]
