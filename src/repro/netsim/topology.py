"""Network topology: nodes, links, routing, failures.

A :class:`Topology` is an undirected multigraph-free graph of named nodes.
Each edge carries a :class:`Link` with a capacity in bytes/s and a one-way
latency in seconds.  Nodes and links can be failed and repaired; routing
(shortest path by latency, tie-broken by hop count deterministically) only
uses healthy elements, which is how the redundant-router failover of the
LSDF backbone is expressed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Optional

import networkx as nx


class NoRouteError(Exception):
    """No healthy path exists between two nodes."""


@dataclass
class Link:
    """A bidirectional network link.

    Attributes
    ----------
    a, b:
        Endpoint node names (stored in sorted order).
    capacity:
        Usable capacity in bytes/s, shared by both directions (fluid model).
    latency:
        One-way propagation + forwarding latency in seconds.
    up:
        Health flag; failed links are excluded from routing.
    """

    a: str
    b: str
    capacity: float
    latency: float = 0.0005
    up: bool = True
    tags: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.capacity <= 0:
            raise ValueError(f"link {self.a}<->{self.b}: capacity must be > 0")
        if self.latency < 0:
            raise ValueError("link latency must be >= 0")
        if self.a == self.b:
            raise ValueError("self-loop links are not allowed")
        if self.b < self.a:
            self.a, self.b = self.b, self.a

    @property
    def key(self) -> tuple[str, str]:
        """Canonical (sorted) endpoint pair identifying this link."""
        return (self.a, self.b)

    def __hash__(self) -> int:
        return hash(self.key)

    def __repr__(self) -> str:  # pragma: no cover
        state = "up" if self.up else "DOWN"
        return f"<Link {self.a}<->{self.b} {self.capacity:.3g} B/s {state}>"


class Topology:
    """A named-node graph with failable links and nodes and cached routing."""

    def __init__(self) -> None:
        self._graph = nx.Graph()
        self._links: dict[tuple[str, str], Link] = {}
        self._node_up: dict[str, bool] = {}
        self._node_attrs: dict[str, dict] = {}
        self._route_cache: dict[tuple[str, str], list[Link]] = {}
        self._epoch = 0  # bumped on any failure/repair/structure change
        # Healthy-subgraph view, rebuilt at most once per epoch (a cache
        # miss on any route would otherwise rebuild the whole nx.Graph).
        self._healthy: Optional[nx.Graph] = None
        #: Route-cache hit/miss tallies (plain ints: the network layer
        #: exposes them as telemetry gauges; keeping them raw here avoids a
        #: registry dependency in the pure-graph layer).
        self.route_cache_hits = 0
        self.route_cache_misses = 0

    # -- construction -----------------------------------------------------
    def add_node(self, name: str, **attrs: Any) -> None:
        """Add a named node (idempotent; attrs merge)."""
        self._graph.add_node(name)
        self._node_up.setdefault(name, True)
        self._node_attrs.setdefault(name, {}).update(attrs)
        self._invalidate()

    def add_link(
        self, a: str, b: str, capacity: float, latency: float = 0.0005, **tags: Any
    ) -> Link:
        """Connect two nodes (adding them if needed) with a new link."""
        self.add_node(a)
        self.add_node(b)
        link = Link(a, b, capacity, latency, tags=dict(tags))
        if link.key in self._links:
            raise ValueError(f"duplicate link {a}<->{b}")
        self._links[link.key] = link
        self._graph.add_edge(link.a, link.b)
        self._invalidate()
        return link

    # -- inspection ---------------------------------------------------------
    @property
    def nodes(self) -> list[str]:
        """All node names, sorted."""
        return sorted(self._graph.nodes)

    @property
    def links(self) -> list[Link]:
        """All links, in insertion order."""
        return list(self._links.values())

    def node_attrs(self, name: str) -> dict:
        """Attribute dict of a node."""
        return self._node_attrs[name]

    def has_node(self, name: str) -> bool:
        """Whether a node of this name exists."""
        return name in self._node_up

    def link_between(self, a: str, b: str) -> Link:
        """The link connecting two adjacent nodes."""
        key = (a, b) if a < b else (b, a)
        return self._links[key]

    def node_is_up(self, name: str) -> bool:
        """Health flag of a node."""
        return self._node_up[name]

    @property
    def epoch(self) -> int:
        """Monotonic counter bumped on any topology/health change."""
        return self._epoch

    # -- failures -----------------------------------------------------------
    def fail_node(self, name: str) -> None:
        """Mark a node failed; routes through it become unavailable."""
        if name not in self._node_up:
            raise KeyError(name)
        self._node_up[name] = False
        self._invalidate()

    def repair_node(self, name: str) -> None:
        """Bring a failed node back."""
        if name not in self._node_up:
            raise KeyError(name)
        self._node_up[name] = True
        self._invalidate()

    def fail_link(self, a: str, b: str) -> None:
        """Mark a link failed."""
        self.link_between(a, b).up = False
        self._invalidate()

    def repair_link(self, a: str, b: str) -> None:
        """Bring a failed link back."""
        self.link_between(a, b).up = True
        self._invalidate()

    def _invalidate(self) -> None:
        self._route_cache.clear()
        self._healthy = None
        self._epoch += 1

    # -- routing -------------------------------------------------------------
    def _healthy_subgraph(self) -> nx.Graph:
        """The healthy-elements-only graph, cached until the next epoch bump."""
        g = self._healthy
        if g is None:
            g = nx.Graph()
            for node, up in self._node_up.items():
                if up:
                    g.add_node(node)
            for link in self._links.values():
                if link.up and self._node_up[link.a] and self._node_up[link.b]:
                    g.add_edge(link.a, link.b, weight=link.latency + 1e-9)
            self._healthy = g
        return g

    def route(self, src: str, dst: str) -> list[Link]:
        """Links on the healthy min-latency path from ``src`` to ``dst``.

        Returns an empty list when ``src == dst``.  Raises
        :class:`NoRouteError` when no healthy path exists.  Results are
        cached per ``(src, dst)`` pair until the next epoch bump, so an
        unchanged topology never re-runs :meth:`_find_route`.
        """
        if src == dst:
            return []
        key = (src, dst) if src < dst else (dst, src)
        cached = self._route_cache.get(key)
        if cached is not None:
            self.route_cache_hits += 1
            return cached
        self.route_cache_misses += 1
        links = self._find_route(src, dst)
        self._route_cache[key] = links
        return links

    def _find_route(self, src: str, dst: str) -> list[Link]:
        """Uncached min-latency pathfinding over the healthy subgraph.

        This is the shortest-path computation :meth:`route` memoizes.
        ``tests/netsim/test_differential.py`` calls it directly to prove
        cached answers never go stale across epoch bumps.
        """
        if src == dst:
            return []
        if not self._node_up.get(src, False) or not self._node_up.get(dst, False):
            raise NoRouteError(f"endpoint down: {src if not self._node_up.get(src) else dst}")
        g = self._healthy_subgraph()
        try:
            path = nx.shortest_path(g, src, dst, weight="weight")
        except (nx.NetworkXNoPath, nx.NodeNotFound) as exc:
            raise NoRouteError(f"no healthy route {src} -> {dst}") from exc
        return [self.link_between(u, v) for u, v in zip(path, path[1:])]

    def path_latency(self, links: Iterable[Link]) -> float:
        """Sum of one-way latencies along a route."""
        return sum(link.latency for link in links)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Topology nodes={len(self._node_up)} links={len(self._links)}>"
