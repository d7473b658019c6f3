"""Differential: ``Topology._find_route`` against networkx.

Routing is a port of networkx 3.x ``bidirectional_dijkstra`` over a plain
adjacency dict; networkx itself is a test-only dependency and serves here
as the oracle.  Random topologies use small integer latencies so that
equal-latency ties are common, nodes are created in a shuffled order so
that insertion order differs from name order, and random node and link
failures and repairs change the healthy subgraph between checks.  The
oracle graph is built the way routing used to build its ``nx.Graph``:
healthy nodes, then healthy links, each in insertion order.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netsim import NoRouteError, Topology

nx = pytest.importorskip("networkx")


@st.composite
def _scenario(draw):
    n = draw(st.integers(min_value=2, max_value=9))
    order = draw(st.permutations([f"n{i}" for i in range(n)]))
    pairs = [(a, b) for i, a in enumerate(order) for b in order[i + 1:]]
    links = draw(st.lists(st.sampled_from(pairs), unique=True,
                          max_size=min(len(pairs), 16)))
    latencies = draw(st.lists(st.integers(min_value=1, max_value=3),
                              min_size=len(links), max_size=len(links)))
    events = draw(st.lists(
        st.tuples(st.sampled_from(["fail_node", "repair_node",
                                   "fail_link", "repair_link"]),
                  st.integers(min_value=0, max_value=10**6)),
        max_size=8))
    return order, list(zip(links, latencies)), events


def _build(order, links) -> Topology:
    topo = Topology()
    for name in order:
        topo.add_node(name)
    for (a, b), latency in links:
        topo.add_link(a, b, capacity=1.0, latency=float(latency))
    return topo


def _oracle_graph(topo: Topology, order):
    g = nx.Graph()
    for name in order:
        if topo.node_is_up(name):
            g.add_node(name)
    for link in topo.links:
        if link.up and topo.node_is_up(link.a) and topo.node_is_up(link.b):
            g.add_edge(link.a, link.b, weight=link.latency + 1e-9)
    return g


def _apply(topo: Topology, order, event) -> None:
    kind, pick = event
    if kind.endswith("_node"):
        getattr(topo, kind)(order[pick % len(order)])
    elif topo.links:
        link = topo.links[pick % len(topo.links)]
        getattr(topo, kind)(link.a, link.b)


def _check_every_pair(topo: Topology, order) -> None:
    g = _oracle_graph(topo, order)
    for src in order:
        for dst in order:
            if src == dst:
                continue
            try:
                path = nx.shortest_path(g, src, dst, weight="weight")
            except (nx.NetworkXNoPath, nx.NodeNotFound):
                with pytest.raises(NoRouteError):
                    topo._find_route(src, dst)
                continue
            expected = [topo.link_between(u, v).key
                        for u, v in zip(path, path[1:])]
            assert [link.key for link in topo._find_route(src, dst)] == expected


@settings(max_examples=300, deadline=None)
@given(_scenario())
def test_routes_equal_networkx_under_failures_and_repairs(scenario):
    order, links, events = scenario
    topo = _build(order, links)
    _check_every_pair(topo, order)
    for event in events:
        _apply(topo, order, event)
        _check_every_pair(topo, order)


def test_equal_latency_tie_follows_link_insertion_order():
    """Two equal-latency two-hop routes: the one whose links were added
    first wins, as in networkx — not the one whose names sort first."""
    topo = Topology()
    topo.add_link("src", "z", capacity=1.0, latency=1.0)
    topo.add_link("z", "dst", capacity=1.0, latency=1.0)
    topo.add_link("src", "a", capacity=1.0, latency=1.0)
    topo.add_link("a", "dst", capacity=1.0, latency=1.0)
    via = [link.key for link in topo._find_route("src", "dst")]
    assert via == [("src", "z"), ("dst", "z")]
    order = ["src", "z", "dst", "a"]
    _check_every_pair(topo, order)
