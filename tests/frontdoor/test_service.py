"""Tests for the :class:`FrontDoor` service layer."""

import pytest

from repro.adal import AdalClient, BackendRegistry, FaultyBackend, MemoryBackend
from repro.frontdoor import BULK, INTERACTIVE, FrontDoor, TenantSpec
from repro.resilience import RetryPolicy
from repro.telemetry.hub import TelemetryHub


def _door(sim, failure_rate=0.0, tenants=None, **kwargs):
    registry = BackendRegistry()
    backend = MemoryBackend()
    if failure_rate:
        backend = FaultyBackend(backend, failure_rate=failure_rate,
                                rng=sim.random.spawn("faults"))
    registry.register("s", backend)
    hub = TelemetryHub.for_sim(sim)
    client = AdalClient(registry, telemetry=hub)
    tenants = tenants or (TenantSpec("t", weight=1.0, rate_limit=None),)
    return FrontDoor(sim, client, tenants=tenants, **kwargs)


def _submit(door, n=1, op="get", tenant="t", **kwargs):
    out = []
    for i in range(n):
        request = door.make_request(tenant, op, f"adal://s/{tenant}/o{i}",
                                    **kwargs)
        out.append((request, door.submit(request)))
    return out


class TestServing:
    def test_every_submission_reaches_one_terminal_outcome(self, sim):
        door = _door(sim)
        _submit(door, n=6, nbytes=1e6)
        sim.run()
        acct = door.accounting()
        assert acct["submitted"] == 6
        assert acct["terminal"]["served"] == 6
        assert acct["queued"] == 0
        assert acct["in_flight"] == 0
        assert acct["silent_loss"] == 0

    def test_latency_covers_the_service_time_model(self, sim):
        door = _door(sim, workers=1, service_overhead=0.05,
                     service_bandwidth=50e6)
        _submit(door, n=1, nbytes=50e6)   # 0.05 + 1.0 s of bytes
        sim.run()
        reg = TelemetryHub.for_sim(sim).registry
        [(_labels, latency)] = reg.samples("frontdoor.latency_seconds")
        assert latency.percentile(50) == pytest.approx(1.05)

    def test_goodput_counts_full_responses_only(self, sim):
        door = _door(sim)
        _submit(door, n=2, nbytes=1000.0)
        sim.run()
        reg = TelemetryHub.for_sim(sim).registry
        assert reg.total("frontdoor.goodput_bytes_total") == 2000.0

    def test_unknown_tenant_rejected_at_request_build(self, sim):
        door = _door(sim)
        with pytest.raises(ValueError, match="tenant"):
            door.make_request("ghost", "get", "adal://s/x")

    def test_worker_count_validated(self, sim):
        with pytest.raises(ValueError, match="workers"):
            _door(sim, workers=0)


class TestAdmission:
    def test_rate_limit_rejections_are_terminal(self, sim):
        door = _door(sim, tenants=(TenantSpec("t", rate_limit=1.0),))
        results = [ok for _r, ok in _submit(door, n=5)]
        # Burst defaults to 2 s of refill: two admitted, three refused.
        assert results == [True, True, False, False, False]
        reg = TelemetryHub.for_sim(sim).registry
        assert reg.value("frontdoor.rejected_total",
                         tenant="t", reason="rate_limited") == 3.0
        assert door.accounting()["silent_loss"] == 0

    def test_queue_full_rejections(self, sim):
        door = _door(sim, queue_capacity=2)
        results = [ok for _r, ok in _submit(door, n=4)]
        assert results == [True, True, False, False]
        reg = TelemetryHub.for_sim(sim).registry
        assert reg.value("frontdoor.rejected_total",
                         tenant="t", reason="queue_full") == 2.0

    def test_brownout_rejects_writes_but_serves_reads(self, sim):
        door = _door(sim)
        for _ in range(60):               # sustained overload signal
            door.core.brownout.observe(10.0)
        assert door.core.brownout.rejects_writes()
        [(put, put_ok)] = _submit(door, op="put", nbytes=10.0)
        [(get, get_ok)] = _submit(door, op="get")
        assert not put_ok and get_ok
        sim.run()
        assert put.outcome == "rejected"
        assert get.outcome in ("served", "served_degraded")

    def test_metadata_only_tier_serves_degraded(self, sim):
        door = _door(sim)
        for _ in range(200):
            door.core.brownout.observe(50.0)
        assert door.core.brownout.metadata_only()
        [(get, ok)] = _submit(door, op="get", nbytes=1e9)
        assert ok
        sim.run()
        assert get.outcome == "served_degraded"
        # Degraded responses skip the byte payload: only overhead elapsed.
        reg = TelemetryHub.for_sim(sim).registry
        [(_labels, latency)] = reg.samples("frontdoor.latency_seconds")
        assert latency.percentile(50) == pytest.approx(door.service_overhead)

    def test_naive_arm_skips_every_defence(self, sim):
        door = _door(sim, enabled=False,
                     tenants=(TenantSpec("t", rate_limit=1.0),))
        for _ in range(60):
            door.core.brownout.observe(10.0)
        results = [ok for _r, ok in _submit(door, n=5, op="put", nbytes=1.0)]
        assert all(results)               # no rate limit, no brownout


class TestDeadlines:
    def test_fail_fast_when_budget_cannot_cover_service(self, sim):
        door = _door(sim, service_overhead=0.05)
        [(request, ok)] = _submit(door, budget=0.01)
        assert ok
        sim.run()
        assert request.outcome == "timed_out"
        assert sim.now == 0.0             # no worker time burned
        assert door.accounting()["in_flight"] == 0

    def test_naive_arm_burns_a_worker_slot_on_expired_work(self, sim):
        door = _door(sim, enabled=False, service_overhead=0.05)
        [(request, ok)] = _submit(door, budget=0.01)
        assert ok
        sim.run()
        assert request.outcome == "timed_out"
        assert sim.now == pytest.approx(0.05)   # the collapse fuel

    def test_backoff_never_outlives_the_budget(self, sim):
        door = _door(
            sim, failure_rate=1.0, workers=1,
            retry_policy=RetryPolicy(max_attempts=5, base_delay=10.0,
                                     jitter=0.0))
        [(request, ok)] = _submit(door, budget=5.0)
        assert ok
        sim.run()
        # First attempt fails; a 10 s backoff would overshoot the 5 s
        # budget, so the door stops instead of sleeping past the caller.
        assert request.outcome == "timed_out"
        assert door.stats()["backend_retries"] == 1


class TestFailures:
    def test_retries_exhausted_requests_are_dead_lettered(self, sim):
        door = _door(
            sim, failure_rate=1.0, workers=1,
            retry_policy=RetryPolicy(max_attempts=3, base_delay=0.1,
                                     jitter=0.0))
        [(request, ok)] = _submit(door, budget=1000.0)
        assert ok
        sim.run()
        assert request.outcome == "dead_lettered"
        assert door.dlq.depth == 1
        assert door.stats()["backend_retries"] == 3
        assert door.accounting()["silent_loss"] == 0

    def test_transient_faults_absorbed_by_retries(self, sim):
        door = _door(
            sim, failure_rate=0.3, workers=2,
            retry_policy=RetryPolicy(max_attempts=6, base_delay=0.1,
                                     jitter=0.0))
        _submit(door, n=20, budget=1000.0)
        sim.run()
        acct = door.accounting()
        assert acct["terminal"]["served"] == 20
        assert acct["silent_loss"] == 0


class TestFlush:
    def test_flush_sheds_queued_work_with_typed_events(self, sim):
        door = _door(sim)
        requests = [r for r, _ok in _submit(door, n=3, priority=BULK)]
        flushed = door.flush_queue()
        assert flushed == 3
        assert all(r.outcome == "shed" for r in requests)
        events = TelemetryHub.for_sim(sim).bus.tail(10, kind="frontdoor.shed")
        assert len(events) == 3
        assert {e.subject for e in events} == {"t"}
        assert door.accounting()["silent_loss"] == 0

    def test_on_terminal_observer_sees_every_outcome(self, sim):
        seen = []
        door = _door(sim, on_terminal=lambda r, o: seen.append(o))
        _submit(door, n=2, priority=INTERACTIVE)
        sim.run()
        assert seen == ["served", "served"]
