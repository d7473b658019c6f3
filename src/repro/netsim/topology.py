"""Network topology: nodes, links, routing, failures.

A :class:`Topology` is an undirected multigraph-free graph of named nodes.
Each edge carries a :class:`Link` with a capacity in bytes/s and a one-way
latency in seconds.  Nodes and links can be failed and repaired; routing
(shortest path by latency, tie-broken by hop count deterministically) only
uses healthy elements, which is how the redundant-router failover of the
LSDF backbone is expressed.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Any, Iterable, Optional

#: ``{node: {neighbour: weight}}`` — an undirected weighted graph.
Adjacency = dict[str, dict[str, float]]


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
        if not self.capacity > 0:  # NaN too
            raise ValueError(f"link {self.a}<->{self.b}: capacity must be > 0")
        if not self.latency >= 0:
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


def _shortest_path(adj: Adjacency, source: str, target: str
                   ) -> Optional[list[str]]:
    """Min-weight node path from ``source`` to ``target`` (both in ``adj``,
    distinct), or ``None`` when they are not connected.

    A port of networkx 3.x ``bidirectional_dijkstra`` for non-negative
    weights: the forward and backward searches alternate, one counter
    breaks heap ties by push order, and neighbours are visited in ``adj``
    insertion order, so equal-weight ties resolve exactly as networkx
    resolves them (``tests/netsim/test_routing_oracle.py`` checks it).
    """
    dists = ({}, {})                          # settled distance per node
    seen = ({source: 0}, {target: 0})         # best tentative distance
    preds = ({source: None}, {target: None})  # search-tree parent
    fringe = ([(0, 0, source)], [(0, 1, target)])
    push = itertools.count(2)
    best, meet = None, None
    direction = 1
    while fringe[0] and fringe[1]:
        direction = 1 - direction
        dist, _, v = heapq.heappop(fringe[direction])
        settled = dists[direction]
        if v in settled:
            continue
        settled[v] = dist
        if v in dists[1 - direction]:
            forward, node = [], meet
            while node is not None:
                forward.append(node)
                node = preds[0][node]
            backward, node = [], preds[1][meet]
            while node is not None:
                backward.append(node)
                node = preds[1][node]
            return forward[::-1] + backward
        reached, opposite = seen[direction], seen[1 - direction]
        for w, cost in adj[v].items():
            length = dist + cost
            if w in settled or (w in reached and length >= reached[w]):
                continue
            reached[w] = length
            heapq.heappush(fringe[direction], (length, next(push), w))
            preds[direction][w] = v
            if w in opposite:
                total = length + opposite[w]
                if best is None or total < best:
                    best, meet = total, w
    return None


class Topology:
    """A named-node graph with failable links and nodes and cached routing."""

    def __init__(self) -> None:
        self._links: dict[tuple[str, str], Link] = {}
        self._node_up: dict[str, bool] = {}
        self._node_attrs: dict[str, dict] = {}
        self._route_cache: dict[tuple[str, str], list[Link]] = {}
        self._epoch = 0  # bumped on any failure/repair/structure change
        # Healthy-subgraph view, rebuilt at most once per epoch (a cache
        # miss on any route would otherwise rebuild the whole adjacency).
        self._healthy: Optional[Adjacency] = None
        #: Route-cache hit/miss tallies (plain ints: the network layer
        #: exposes them as telemetry gauges; keeping them raw here avoids a
        #: registry dependency in the pure-graph layer).
        self.route_cache_hits = 0
        self.route_cache_misses = 0

    # -- construction -----------------------------------------------------
    def add_node(self, name: str, **attrs: Any) -> None:
        """Add a named node (idempotent; attrs merge)."""
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
        self._invalidate()
        return link

    # -- inspection ---------------------------------------------------------
    @property
    def nodes(self) -> list[str]:
        """All node names, sorted."""
        return sorted(self._node_up)

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
    def _healthy_subgraph(self) -> Adjacency:
        """The healthy-elements-only graph, cached until the next epoch bump.

        Nodes, then links, enter in insertion order: the order neighbours
        are visited in, and so how equal-latency ties break.
        """
        adj = self._healthy
        if adj is None:
            adj = {node: {} for node, up in self._node_up.items() if up}
            for link in self._links.values():
                if link.up and self._node_up[link.a] and self._node_up[link.b]:
                    weight = link.latency + 1e-9
                    adj[link.a][link.b] = weight
                    adj[link.b][link.a] = weight
            self._healthy = adj
        return adj

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
        path = _shortest_path(self._healthy_subgraph(), src, dst)
        if path is None:
            raise NoRouteError(f"no healthy route {src} -> {dst}")
        return [self.link_between(u, v) for u, v in zip(path, path[1:])]

    def path_latency(self, links: Iterable[Link]) -> float:
        """Sum of one-way latencies along a route."""
        return sum(link.latency for link in links)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Topology nodes={len(self._node_up)} links={len(self._links)}>"
