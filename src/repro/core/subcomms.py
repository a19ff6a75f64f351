"""HAN's communicator hierarchy: the node level and the levels around it.

HAN uses the only portable MPI-3.1 hierarchy probe,
``MPI_Comm_split_type(COMM_TYPE_SHARED)``, to group processes by node
(paper section III), then builds one *up* (inter-node) communicator per
local rank layer -- the j-th process of every node belongs to up-comm
layer j.  This is how Open MPI's coll/han supports arbitrary broadcast
roots without relocation: the inter-node stage of a collective rooted at
a process with local rank j simply runs on layer j.

Machines with more hardware levels than that (the paper's future work)
add them as further :class:`Level` entries of the same
:class:`Hierarchy`: NVLink islands inside a node, topology groups inside
a layer.  :mod:`repro.core.composite` turns any such level into a
collective module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from repro.mpi.communicator import Communicator
from repro.mpi.constants import UNDEFINED

__all__ = ["Hierarchy", "Level", "build_hierarchy"]

_CACHE_ATTR = "_han_hierarchy"
_LAYOUT_ATTR = "_han_group_layouts"


def _group_layout(runtime, group: tuple) -> tuple[int, dict]:
    """Node layout of a communicator group, shared across its ranks.

    Returns ``(num_nodes, positions)`` where ``positions`` maps a world
    rank to its ``(node position, local rank)`` pair.  Every rank of a
    communicator asks the same question about the same group, so the
    answer is computed once per distinct group and cached on the runtime
    — without this, P ranks each doing an O(P) scan makes hierarchy
    construction O(P^2) per runtime, which dominates paper-scale setup.
    """
    cache = getattr(runtime, _LAYOUT_ATTR, None)
    if cache is None:
        cache = {}
        setattr(runtime, _LAYOUT_ATTR, cache)
    # keyed by identity, not value: hashing a 4096-tuple on every lookup
    # is an O(P) cost per call.  Group tuples are interned per cid on the
    # runtime, so identity hits are the norm; the stored (group, layout)
    # pair keeps the keyed tuple alive, which keeps id() unambiguous.
    hit = cache.get(id(group))
    if hit is not None and hit[0] is group:
        return hit[1]
    fabric = runtime.fabric
    members_by_node: dict[int, list[int]] = {}
    for w in group:
        members_by_node.setdefault(fabric.node_of(w), []).append(w)
    positions: dict[int, tuple[int, int]] = {}
    for node_pos, node in enumerate(sorted(members_by_node)):
        for local, w in enumerate(sorted(members_by_node[node])):
            positions[w] = (node_pos, local)
    layout = (len(members_by_node), positions)
    cache[id(group)] = (group, layout)
    return layout


@dataclass(frozen=True, slots=True)
class Level:
    """One level of the hierarchy, seen from one rank.

    ``outer`` is the communicator the level partitions, ``comm`` my group
    within it and ``leaders`` the communicator of the groups' leaders --
    the first rank of every group, ordered by ``outer`` rank; ``None`` on
    ranks that lead nothing.  ``color`` maps any world rank to its group,
    so every rank can place every other one without communicating.

    The node level is HAN's own and the one exception to "first rank
    leads": every local rank leads its *layer* (section III's arbitrary-
    root scheme), so its ``leaders`` is my layer comm on every rank.
    """

    name: str
    outer: Communicator
    comm: Communicator
    leaders: Communicator | None
    color: Callable[[int], int]


@dataclass
class Hierarchy:
    """One rank's view of the hierarchy: its levels, innermost first.

    Always present is the ``node`` level (``low`` = all ranks of my node,
    ``up`` = my local-rank layer across nodes).  Around it, only on
    machines that have them: the ``island`` level inside the node
    (``NodeSpec.fabric_domains > 1``: my NVLink island plus the island
    leaders of my node) and, when requested, the ``group`` level inside
    my layer (my topology group's nodes plus the group leaders).  The
    network is what the outermost level's leaders span.
    """

    parent: Communicator
    levels: tuple[Level, ...]

    def __post_init__(self) -> None:
        node = self.level("node")
        self.low: Communicator = node.comm  # intra-node (all ranks of my node)
        self.up: Communicator = node.leaders  # inter-node, my local-rank layer
        # parent rank -> (node position, local rank); built lazily once.
        self._pos_cache: dict[int, tuple[int, int]] = {}

    def level(self, name: str) -> Level | None:
        """The named level, or ``None`` when this machine lacks it."""
        for lv in self.levels:
            if lv.name == name:
                return lv
        return None

    @property
    def local_rank(self) -> int:
        return self.low.rank

    @property
    def local_size(self) -> int:
        return self.low.size

    @property
    def num_nodes(self) -> int:
        return self.up.size

    def _positions(self, parent_rank: int) -> tuple[int, int]:
        hit = self._pos_cache.get(parent_rank)
        if hit is not None:
            return hit
        world = self.parent.group[parent_rank]
        _, positions = _group_layout(self.parent.runtime, self.parent.group)
        pos = positions[world]
        self._pos_cache[parent_rank] = pos
        return pos

    def up_rank_of(self, parent_rank: int) -> int:
        """Position of ``parent_rank``'s node within the up communicators.

        Valid because every layer orders its members by node identically.
        """
        return self._positions(parent_rank)[0]

    def local_rank_of(self, parent_rank: int) -> int:
        """Local (intra-node) rank of any rank of the parent communicator."""
        return self._positions(parent_rank)[1]


def build_hierarchy(comm: Communicator, groups: bool = False):
    """Collectively build (and cache) the HAN hierarchy for ``comm``.

    ``groups=True`` adds the topology-group level (see
    :func:`_with_groups`) on top of the plain hierarchy, which it shares.

    Raises ``ValueError`` (on every rank) if nodes carry unequal process
    counts -- HAN requires a homogeneous layout for its layer scheme,
    matching the paper's evaluation setup.
    """
    attr = _CACHE_ATTR + ("_groups" if groups else "")
    hier = getattr(comm, attr, None)
    if hier is not None:
        return hier
    if groups:
        base = yield from build_hierarchy(comm)
        hier = yield from _with_groups(comm, base)
        setattr(comm, attr, hier)
        return hier
    low = yield from comm.split_type_shared()
    # layer = my local rank; order layers by node via the parent rank
    up = yield from comm.split(color=low.rank, key=comm.rank)
    fabric = comm.runtime.fabric
    levels = []
    # island level: on split-NVLink nodes, my island plus its leaders.
    # Splits are instantaneous in simulated time, so flat-machine
    # schedules are unaffected by this block never running there.
    domain = fabric.fabric_domain_of
    if fabric.fabric_domains > 1 and len({domain(w) for w in low.group}) > 1:
        fab = yield from low.split(color=domain(comm.world_rank), key=low.rank)
        fleaders = yield from low.split(
            color=0 if fab.rank == 0 else UNDEFINED, key=low.rank
        )
        levels.append(Level("island", low, fab, fleaders, domain))
    levels.append(Level("node", comm, low, up, fabric.node_of))
    hier = Hierarchy(parent=comm, levels=tuple(levels))
    # homogeneity check: every layer must have one member per node
    num_nodes, _ = _group_layout(comm.runtime, comm.group)
    if up.size != num_nodes or low.size * up.size != comm.size:
        raise ValueError(
            "HAN requires the same number of processes on every node "
            f"(got {comm.size} ranks over {num_nodes} nodes, layer "
            f"{low.rank} has {up.size} members)"
        )
    setattr(comm, attr, hier)
    return hier


def _group_color(comm: Communicator) -> Callable[[int], int]:
    """World rank -> topology group (dragonfly group / fat-tree edge).

    Structureless fabrics get synthesized groups of ~sqrt(N) nodes.
    """
    topo = comm.runtime.fabric.topo
    group_of = getattr(topo, "group_of", None) or getattr(topo, "edge_of", None)
    if group_of is None:
        per = max(1, math.ceil(math.sqrt(comm.runtime.machine.num_nodes)))

        def group_of(node: int) -> int:
            return node // per

    node_of = comm.runtime.fabric.node_of
    return lambda world: group_of(node_of(world))


def _with_groups(comm: Communicator, base: Hierarchy):
    """``base`` plus the group level inside my layer, where it exists.

    The level crosses a dragonfly's global links (or a fat tree's upper
    switches) once per group instead of once per node.  It only exists
    with at least two groups of at least two nodes; otherwise ``base``
    itself is returned and no split is made.
    """
    up = base.up
    color = _group_color(comm)
    n_groups = len({color(w) for w in up.group})
    if n_groups < 2 or n_groups == up.size:
        return base
    mid = yield from up.split(color=color(comm.world_rank), key=up.rank)
    top = yield from up.split(
        color=0 if mid.rank == 0 else UNDEFINED, key=up.rank
    )
    return Hierarchy(
        parent=comm, levels=base.levels + (Level("group", up, mid, top, color),)
    )
