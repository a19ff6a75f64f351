"""Topology interface shared by all interconnect models."""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, Tuple

if TYPE_CHECKING:
    import networkx as nx

__all__ = ["Link", "Topology"]


@dataclass(frozen=True)
class Link:
    """One unidirectional inter-switch link.

    ``capacity`` is in bytes/s.  ``hops`` is always 1; the name fields are
    for debugging and for the networkx export used in validation tests.
    """

    lid: int
    src: str
    dst: str
    capacity: float


class Topology(ABC):
    """A routed interconnect connecting ``num_nodes`` compute nodes.

    Subclasses populate ``self.links`` at construction time and implement
    :meth:`_route`.  Routes are memoised -- routing is on the per-message
    hot path of the simulator.
    """

    def __init__(self, num_nodes: int, link_bw: float):
        if num_nodes < 1:
            raise ValueError("num_nodes must be >= 1")
        if link_bw <= 0:
            raise ValueError("link_bw must be positive")
        self.num_nodes = num_nodes
        self.link_bw = link_bw
        self.links: list[Link] = []
        self._route_cached = lru_cache(maxsize=None)(self._route)

    # -- construction helpers -------------------------------------------------

    def _add_link(self, src: str, dst: str, capacity: float) -> int:
        lid = len(self.links)
        self.links.append(Link(lid=lid, src=src, dst=dst, capacity=capacity))
        return lid

    # -- public API ------------------------------------------------------------

    def route(self, src_node: int, dst_node: int) -> Tuple[int, ...]:
        """Link ids crossed by a message from ``src_node`` to ``dst_node``.

        Empty tuple for ``src == dst`` or when the topology has no internal
        links on the path (NIC-to-NIC contention is modelled separately by
        the transport layer).
        """
        if not (0 <= src_node < self.num_nodes and 0 <= dst_node < self.num_nodes):
            raise IndexError(
                f"node out of range: {src_node}->{dst_node} with "
                f"{self.num_nodes} nodes"
            )
        if src_node == dst_node:
            return ()
        return self._route_cached(src_node, dst_node)

    @abstractmethod
    def _route(self, src_node: int, dst_node: int) -> Tuple[int, ...]:
        """Compute the (uncached) route; src != dst guaranteed."""

    def hop_count(self, src_node: int, dst_node: int) -> int:
        """Number of inter-switch hops (0 for same node / direct)."""
        return len(self.route(src_node, dst_node))

    # -- validation support ------------------------------------------------------

    def to_networkx(self) -> nx.DiGraph:
        """Export the switch-level link graph for validation tests."""
        import networkx as nx  # heavy, and only validation exports need it

        g = nx.DiGraph()
        for link in self.links:
            g.add_edge(link.src, link.dst, lid=link.lid, capacity=link.capacity)
        return g

    def validate_route(self, src_node: int, dst_node: int) -> bool:
        """Check the route is a connected walk in the link graph."""
        lids = self.route(src_node, dst_node)
        for a, b in zip(lids, lids[1:]):
            if self.links[a].dst != self.links[b].src:
                return False
        return True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<{type(self).__name__} nodes={self.num_nodes} "
            f"links={len(self.links)}>"
        )
