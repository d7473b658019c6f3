"""Tests for topology, links, routing and failures."""

import pytest

from repro.netsim import Link, NoRouteError, Topology


def _chain() -> Topology:
    topo = Topology()
    topo.add_link("a", "b", capacity=100.0, latency=0.001)
    topo.add_link("b", "c", capacity=100.0, latency=0.001)
    return topo


class TestLink:
    def test_endpoints_canonicalised(self):
        link = Link("z", "a", capacity=1.0)
        assert link.key == ("a", "z")

    def test_validation(self):
        with pytest.raises(ValueError):
            Link("a", "b", capacity=0.0)
        with pytest.raises(ValueError):
            Link("a", "b", capacity=1.0, latency=-1.0)
        with pytest.raises(ValueError):
            Link("a", "a", capacity=1.0)

    @pytest.mark.parametrize("field", ["capacity", "latency"])
    def test_nan_rejected(self, field):
        with pytest.raises(ValueError):
            Link("a", "b", **{"capacity": 1.0, field: float("nan")})


class TestTopology:
    def test_duplicate_link_rejected(self):
        topo = _chain()
        with pytest.raises(ValueError):
            topo.add_link("b", "a", capacity=1.0)

    def test_route_simple_chain(self):
        topo = _chain()
        route = topo.route("a", "c")
        assert [l.key for l in route] == [("a", "b"), ("b", "c")]

    def test_route_to_self_is_empty(self):
        assert _chain().route("a", "a") == []

    def test_route_prefers_low_latency(self):
        topo = Topology()
        topo.add_link("a", "b", capacity=1.0, latency=0.010)
        topo.add_link("a", "m", capacity=1.0, latency=0.001)
        topo.add_link("m", "b", capacity=1.0, latency=0.001)
        route = topo.route("a", "b")
        assert [l.key for l in route] == [("a", "m"), ("b", "m")]

    def test_failed_link_rerouted(self):
        topo = Topology()
        topo.add_link("a", "b", capacity=1.0, latency=0.001)
        topo.add_link("a", "m", capacity=1.0, latency=0.005)
        topo.add_link("m", "b", capacity=1.0, latency=0.005)
        assert len(topo.route("a", "b")) == 1
        topo.fail_link("a", "b")
        assert len(topo.route("a", "b")) == 2
        topo.repair_link("a", "b")
        assert len(topo.route("a", "b")) == 1

    def test_failed_node_blocks_route(self):
        topo = _chain()
        topo.fail_node("b")
        with pytest.raises(NoRouteError):
            topo.route("a", "c")
        topo.repair_node("b")
        assert len(topo.route("a", "c")) == 2

    def test_failed_endpoint_raises(self):
        topo = _chain()
        topo.fail_node("a")
        with pytest.raises(NoRouteError):
            topo.route("a", "c")

    def test_unknown_node_raises(self):
        topo = _chain()
        with pytest.raises(KeyError):
            topo.fail_node("zzz")

    def test_epoch_bumps_on_changes(self):
        topo = _chain()
        before = topo.epoch
        topo.fail_link("a", "b")
        assert topo.epoch > before

    def test_path_latency(self):
        topo = _chain()
        assert topo.path_latency(topo.route("a", "c")) == pytest.approx(0.002)

    def test_node_attrs(self):
        topo = Topology()
        topo.add_node("r1", kind="router")
        assert topo.node_attrs("r1")["kind"] == "router"

    def test_nodes_sorted(self):
        topo = _chain()
        assert topo.nodes == ["a", "b", "c"]
