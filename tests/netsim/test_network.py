"""Tests for the fluid flow engine."""

import pytest

from repro.simkit import Simulator
from repro.simkit.units import GB, PB, gbit_per_s
from repro.netsim import Network, NoRouteError, Topology


def _line(capacity=100.0) -> Topology:
    topo = Topology()
    topo.add_link("a", "b", capacity=capacity, latency=0.0)
    topo.add_link("b", "c", capacity=capacity, latency=0.0)
    return topo


class TestSingleFlow:
    def test_duration_is_size_over_capacity(self, sim):
        net = Network(sim, _line(capacity=100.0))
        ev = net.transfer("a", "c", 1000.0)
        sim.run()
        assert ev.value.duration == pytest.approx(10.0)
        assert ev.value.mean_rate == pytest.approx(100.0)

    def test_latency_added_once(self, sim):
        topo = Topology()
        topo.add_link("a", "b", capacity=100.0, latency=0.5)
        net = Network(sim, topo)
        ev = net.transfer("a", "b", 1000.0)
        sim.run()
        assert ev.value.duration == pytest.approx(10.5)

    def test_zero_bytes_completes_at_latency(self, sim):
        topo = Topology()
        topo.add_link("a", "b", capacity=100.0, latency=0.25)
        net = Network(sim, topo)
        ev = net.transfer("a", "b", 0.0)
        sim.run()
        assert ev.value.duration == pytest.approx(0.25)

    def test_local_transfer_instant(self, sim):
        net = Network(sim, _line())
        ev = net.transfer("a", "a", 1e9)
        sim.run()
        assert ev.value.duration == pytest.approx(0.0)

    def test_negative_size_rejected(self, sim):
        net = Network(sim, _line())
        with pytest.raises(ValueError):
            net.transfer("a", "b", -1.0)

    def test_paper_claim_1pb_over_10gbs(self, sim):
        """Slide 11: '15 days to transfer 1 PB over ideal 10Gb/s link' —
        ideal arithmetic gives 9.26 days; the paper's 15 days corresponds
        to ~62% link efficiency (E6 sweeps this)."""
        topo = Topology()
        topo.add_link("x", "y", capacity=gbit_per_s(10.0), latency=0.0)
        net = Network(sim, topo)
        ev = net.transfer("x", "y", 1 * PB)
        sim.run()
        assert ev.value.duration / 86400 == pytest.approx(9.259, rel=1e-3)

    def test_efficiency_scales_duration(self):
        sim = Simulator()
        topo = Topology()
        topo.add_link("x", "y", capacity=gbit_per_s(10.0))
        net = Network(sim, topo, efficiency=0.62)
        ev = net.transfer("x", "y", 1 * PB)
        sim.run()
        assert ev.value.duration / 86400 == pytest.approx(9.259 / 0.62, rel=1e-2)

    @pytest.mark.parametrize("nbytes, weight", [
        (float("nan"), 1.0), (100.0, float("nan")), (100.0, 0.0)])
    def test_bad_size_or_weight_raises_at_the_call(self, sim, nbytes, weight):
        # A NaN size used to "complete" and turn bytes_delivered into NaN;
        # a bad weight only failed later, inside the scheduled solve.
        net = Network(sim, _line())
        with pytest.raises(ValueError):
            net.transfer("a", "c", nbytes, weight=weight)
        sim.run()
        assert net.flow_count == 0 and net.bytes_delivered.value == 0.0

    @pytest.mark.parametrize("nbytes, weight", [
        (float("inf"), 1.0), (100.0, float("inf"))])
    def test_infinite_size_or_weight_raises_at_the_call(self, sim, nbytes,
                                                        weight):
        # An infinite size never completed, and an infinite weight stalled
        # every other flow on its links: sim.run() returned with them in
        # flight.
        net = Network(sim, _line())
        with pytest.raises(ValueError, match="finite"):
            net.transfer("a", "c", nbytes, weight=weight)
        sim.run()
        assert net.flow_count == 0 and net.bytes_delivered.value == 0.0

    def test_bad_efficiency_rejected(self, sim):
        with pytest.raises(ValueError):
            Network(sim, _line(), efficiency=0.0)

    def test_bad_sharing_rejected(self, sim):
        with pytest.raises(ValueError):
            Network(sim, _line(), sharing="bogus")


class TestSharing:
    def test_two_flows_share_fairly(self, sim):
        net = Network(sim, _line(capacity=100.0))
        e1 = net.transfer("a", "c", 1000.0)
        e2 = net.transfer("a", "c", 1000.0)
        sim.run()
        # Both at 50 B/s -> 20 s each.
        assert e1.value.duration == pytest.approx(20.0)
        assert e2.value.duration == pytest.approx(20.0)

    def test_rate_recovers_after_completion(self, sim):
        net = Network(sim, _line(capacity=100.0))
        short = net.transfer("a", "c", 500.0)
        long = net.transfer("a", "c", 1500.0)
        sim.run()
        # Shared at 50 B/s until short finishes at t=10; long then runs at
        # 100 B/s for its remaining 1000 B -> total 20 s.
        assert short.value.duration == pytest.approx(10.0)
        assert long.value.duration == pytest.approx(20.0)

    def test_weighted_flow_gets_more(self, sim):
        net = Network(sim, _line(capacity=90.0))
        heavy = net.transfer("a", "c", 900.0, weight=2.0)
        light = net.transfer("a", "c", 900.0, weight=1.0)
        sim.run()
        assert heavy.value.duration < light.value.duration

    def test_staggered_arrival(self, sim):
        net = Network(sim, _line(capacity=100.0))
        results = {}

        def late_start():
            yield sim.timeout(5.0)
            ev = net.transfer("a", "c", 500.0)
            results["late"] = (yield ev)

        first = net.transfer("a", "c", 1000.0)
        sim.process(late_start())
        sim.run()
        # First runs alone 0-5 (500 B done), shares 5-15 (another 500 B),
        # finishing at 15; late flow shares 5-15 and finishes with it.
        assert first.value.duration == pytest.approx(15.0)
        assert results["late"].duration == pytest.approx(10.0)

    def test_equal_split_model_is_slower_on_asymmetric_load(self):
        def run(sharing):
            sim = Simulator()
            topo = Topology()
            topo.add_link("a", "b", capacity=10.0, latency=0.0)
            topo.add_link("b", "c", capacity=4.0, latency=0.0)
            net = Network(sim, topo, sharing=sharing)
            only_ab = net.transfer("a", "b", 100.0)
            cross = net.transfer("a", "c", 100.0)
            sim.run()
            return only_ab.value.duration

        # Under max-min, the a->b flow reclaims what the cross flow can't use.
        assert run("maxmin") < run("equal")

    def test_active_flow_accounting(self, sim):
        net = Network(sim, _line())
        net.transfer("a", "c", 1000.0)
        assert net.flow_count == 1
        sim.run()
        assert net.flow_count == 0
        assert net.bytes_delivered.value == pytest.approx(1000.0)


class TestFailures:
    def _redundant(self):
        topo = Topology()
        topo.add_link("src", "r1", capacity=100.0, latency=0.001)
        topo.add_link("src", "r2", capacity=100.0, latency=0.002)
        topo.add_link("r1", "dst", capacity=100.0, latency=0.001)
        topo.add_link("r2", "dst", capacity=100.0, latency=0.002)
        return topo

    def test_failover_to_redundant_router(self, sim):
        net = Network(sim, self._redundant())
        ev = net.transfer("src", "dst", 2000.0)

        def chaos():
            yield sim.timeout(10.0)
            net.fail_node("r1")

        sim.process(chaos())
        sim.run()
        result = ev.value
        assert result.reroutes == 1
        # 1000 B at 100 B/s before and after failover: ~20 s total.
        assert result.duration == pytest.approx(20.0, abs=0.1)

    def test_no_route_fails_transfer_event(self, sim):
        topo = Topology()
        topo.add_link("a", "b", capacity=10.0)
        net = Network(sim, topo)
        topo.fail_link("a", "b")

        def proc():
            try:
                yield net.transfer("a", "b", 100.0)
            except NoRouteError:
                return "refused"

        p = sim.process(proc())
        sim.run()
        assert p.value == "refused"
        assert net.failed_flows == 1

    def test_midflight_total_failure_fails_flow(self, sim):
        topo = Topology()
        topo.add_link("a", "b", capacity=10.0)
        net = Network(sim, topo)

        def proc():
            try:
                yield net.transfer("a", "b", 1000.0)
            except NoRouteError:
                return ("lost", sim.now)

        p = sim.process(proc())

        def chaos():
            yield sim.timeout(5.0)
            net.fail_link("a", "b")

        sim.process(chaos())
        sim.run()
        assert p.value == ("lost", 5.0)

    def test_repair_restores_capacity(self, sim):
        net = Network(sim, self._redundant())
        net.fail_node("r1")
        net.repair_node("r1")
        ev = net.transfer("src", "dst", 1000.0)
        sim.run()
        assert ev.value.duration == pytest.approx(10.0, abs=0.1)


class TestIncrementalEngine:
    """PR 5: batched solves, solve skipping and the isinf horizon fix."""

    def test_same_instant_arrivals_batch_into_one_solve(self, sim):
        net = Network(sim, _line(capacity=100.0))
        events = [net.transfer("a", "c", 1000.0) for _ in range(4)]
        sim.run(until=0.0)  # processes the one deferred solve at t=0
        assert int(net.solves.value) == 1
        assert int(net.rebalances.value) == 1
        sim.run()
        # All four shared 25 B/s throughout.
        for ev in events:
            assert ev.value.duration == pytest.approx(40.0)

    def test_noop_topology_event_skips_the_solve(self, sim):
        topo = _line(capacity=100.0)
        # A spare link no route uses: failing it changes nothing.
        topo.add_link("b", "d", capacity=100.0, latency=0.0)
        net = Network(sim, topo)
        ev = net.transfer("a", "c", 1000.0)

        def chaos():
            yield sim.timeout(5.0)
            net.fail_link("b", "d")

        sim.process(chaos())
        sim.run()
        assert int(net.solves_skipped.value) == 1
        # The skipped solve still rescheduled the completion timer.
        assert ev.value.duration == pytest.approx(10.0)

    def test_all_zero_rates_cancel_timer_instead_of_t_inf(self, sim, monkeypatch):
        # Regression for the `horizon is float("inf")` identity bug: an
        # all-zero-rate solution must cancel the timer (flows stall until
        # the next event), not schedule one at t=inf and spin forever.
        from repro.netsim import network as network_module

        def stalled(flow_links, capacities, weights=None):
            return {fid: 0.0 for fid in flow_links}

        monkeypatch.setitem(network_module.SHARING_MODELS, "stall", stalled)
        net = Network(sim, _line(), sharing="stall")
        net.transfer("a", "c", 1000.0)
        sim.run()  # must drain: no timer at t=inf
        assert net.flow_count == 1  # stalled in flight, not completed
        assert sim.now < float("inf")

    def test_rate_visible_after_batched_solve(self, sim):
        net = Network(sim, _line(capacity=100.0))
        ev = net.transfer("a", "c", 1000.0)
        fid = next(iter(net._flows))
        sim.run(until=0.0)
        assert net.current_rate(fid) == pytest.approx(100.0)
        sim.run()
        assert ev.value.duration == pytest.approx(10.0)

    def test_failover_reroute_solves_once(self, sim):
        topo = Topology()
        topo.add_link("src", "r1", capacity=100.0, latency=0.001)
        topo.add_link("src", "r2", capacity=100.0, latency=0.002)
        topo.add_link("r1", "dst", capacity=100.0, latency=0.001)
        topo.add_link("r2", "dst", capacity=100.0, latency=0.002)
        net = Network(sim, topo)
        ev = net.transfer("src", "dst", 2000.0)

        def chaos():
            yield sim.timeout(10.0)
            net.fail_node("r1")

        sim.process(chaos())
        sim.run()
        assert ev.value.reroutes == 1
        # Arrival solve + failover solve + completion pass; the failover
        # changed the path so nothing was skipped.
        assert int(net.solves_skipped.value) == 0
        assert int(net.solves.value) >= 2


def _squeeze(sim, topo, during=None):
    """Two background flows at 50 B/s, then from t=1 a short flow of weight
    3 that squeezes the a->c one to 25 B/s on a-b (the b->c one takes the
    freed 75 B/s) until it leaves (15 B at 75 B/s: t=1.2).  ``during(net)``
    runs at t=1.1, while it is in flight.  Returns the network and the
    background rates (fid -> rate) before and after the visit."""
    net = Network(sim, topo)
    net.transfer("a", "c", 1e6)
    net.transfer("b", "c", 1e6)
    sim.run(until=1.0)
    before = {fid: net.current_rate(fid) for fid in net._flows}
    short = net.transfer("a", "b", 15.0, weight=3.0)
    sim.run(until=1.1)
    assert [net.current_rate(fid) for fid in before] == [25.0, 75.0]
    if during is not None:
        during(net)
    sim.run(until=2.0)
    assert short.value.finished == pytest.approx(1.2)
    return net, before, {fid: net.current_rate(fid) for fid in net._flows}


class TestRestoredFlowSet:
    """When the flows have the paths and weights, in order, of the solution
    the current one replaced (a departure undid an arrival, or a new flow
    took a departed one's place), the engine reuses its rates instead of
    solving."""

    def test_short_visit_restores_rates_without_a_solve(self, sim):
        net, before, after = _squeeze(sim, _line(capacity=100.0))
        assert after == before  # bit for bit, not approx
        # Background arrival solve + the visitor's arrival solve; its
        # departure reused the first solution.
        assert int(net.solves.value) == 2
        assert int(net.solves_skipped.value) == 1
        assert int(net.rebalances.value) == 3

    @pytest.mark.parametrize("weight, squeezed, finished, solves, skipped", [
        # The same problem again: no solve on arrival or departure.
        (3.0, [25.0, 75.0], 2.2, 2, 3),
        # Another weight is another problem.
        (1.0, [50.0, 50.0], 2.3, 3, 2),
    ])
    def test_next_visit_on_the_same_path(self, sim, weight, squeezed,
                                         finished, solves, skipped):
        net, before, _after = _squeeze(sim, _line(capacity=100.0))
        visit = net.transfer("a", "b", 15.0, weight=weight)
        sim.run(until=2.1)
        assert [net.current_rate(fid) for fid in before] == squeezed
        sim.run(until=3.0)
        assert visit.value.finished == pytest.approx(finished)
        assert int(net.solves.value) == solves
        assert int(net.solves_skipped.value) == skipped

    def test_link_failure_during_the_visit_forces_a_solve(self, sim):
        topo = _line(capacity=100.0)
        topo.add_link("b", "d", capacity=100.0, latency=0.0)  # spare
        net, before, after = _squeeze(
            sim, topo, during=lambda net: net.fail_link("b", "d"))
        assert after == before
        # The reroute kept every path (its pass is the one skip), but it
        # forgot both solutions, so the departure solved again.
        assert int(net.solves.value) == 3
        assert int(net.solves_skipped.value) == 1
        assert int(net.rebalances.value) == 4
