"""Tests for token buckets, fair queueing, the shed controller and the
admission core both doors share."""

import pytest

from repro.adal import AdalClient, BackendRegistry
from repro.adal.wire import WireServer
from repro.frontdoor import (
    BATCH,
    BULK,
    INTERACTIVE,
    NO_SHED_FLOOR,
    REJECT_REASONS,
    AdmissionCore,
    AdmissionQueue,
    Deadline,
    FrontDoor,
    Request,
    ShedController,
    TenantSpec,
    TokenBucket,
)
from repro.metadata.store import MetadataStore
from repro.telemetry.events import INFO, WARNING, EventBus


class Clock:
    """A hand-cranked clock."""

    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


@pytest.fixture
def clock():
    return Clock()


def _request(tenant, clock, priority=BATCH, budget=1e9, seq=0, op="get"):
    return Request(tenant=tenant, op=op, url=f"adal://s/{tenant}/x",
                   nbytes=0.0, priority=priority,
                   deadline=Deadline(clock.now, budget),
                   submitted=clock.now, seq=seq)


class TestTokenBucket:
    def test_unlimited_when_rate_is_none(self, clock):
        bucket = TokenBucket(clock, rate=None)
        assert all(bucket.try_take() for _ in range(1000))

    def test_rate_must_be_positive(self, clock):
        with pytest.raises(ValueError, match="rate"):
            TokenBucket(clock, rate=0.0)

    def test_burst_defaults_to_two_seconds_of_refill(self, clock):
        assert TokenBucket(clock, rate=10.0).burst == 20.0

    def test_exhausts_then_refills_on_the_clock(self, clock):
        bucket = TokenBucket(clock, rate=1.0, burst=2.0)
        assert bucket.try_take()
        assert bucket.try_take()
        assert not bucket.try_take()
        clock.now = 1.0
        assert bucket.try_take()
        assert not bucket.try_take()

    def test_refill_capped_at_burst(self, clock):
        bucket = TokenBucket(clock, rate=10.0, burst=3.0)
        for _ in range(3):
            assert bucket.try_take()
        clock.now = 1000.0
        assert bucket.tokens == 3.0


class TestShedController:
    def test_validation(self):
        with pytest.raises(ValueError):
            ShedController(target=0.0, interval=1.0)
        with pytest.raises(ValueError):
            ShedController(target=1.0, interval=0.0)

    def test_escalates_one_class_per_interval(self, clock):
        shed = ShedController(target=0.5, interval=2.0)
        shed.observe(1.0, now=0.0)
        assert not shed.shedding
        shed.observe(1.0, now=2.0)
        assert shed.shed_floor == BULK          # bulk now shed
        shed.observe(1.0, now=4.0)
        assert shed.shed_floor == BATCH         # batch too
        shed.observe(1.0, now=6.0)
        assert shed.shed_floor == BATCH         # never the interactive class
        assert shed.should_shed(_request("t", clock, priority=BULK))
        assert shed.should_shed(_request("t", clock, priority=BATCH))
        assert not shed.should_shed(_request("t", clock, priority=INTERACTIVE))

    def test_sub_target_sojourn_resets_instantly(self, clock):
        shed = ShedController(target=0.5, interval=2.0)
        shed.observe(1.0, now=0.0)
        shed.observe(1.0, now=2.0)
        assert shed.shedding
        shed.observe(0.1, now=2.5)
        assert not shed.shedding
        assert shed.shed_floor == NO_SHED_FLOOR


class TestAdmissionQueue:
    def _queue(self, clock, tenants=None, capacity=4, **kwargs):
        return AdmissionQueue(clock, tenants or {"a": 1.0, "b": 1.0},
                              capacity=capacity, **kwargs)

    def test_validation(self, clock):
        with pytest.raises(ValueError, match="capacity"):
            self._queue(clock, capacity=0)
        with pytest.raises(ValueError, match="weight"):
            self._queue(clock, tenants={"a": 0.5})

    def test_per_tenant_capacity_bound(self, clock):
        queue = self._queue(clock, capacity=2)
        assert queue.offer(_request("a", clock))
        assert queue.offer(_request("a", clock))
        assert not queue.offer(_request("a", clock))   # a is full
        assert queue.offer(_request("b", clock))       # b unaffected
        assert queue.depth == 3
        assert queue.tenant_depth("a") == 2

    def test_weighted_fair_dequeue_ratio(self, clock):
        queue = AdmissionQueue(clock, {"heavy": 3.0, "light": 1.0},
                               capacity=100)
        for seq in range(40):
            queue.offer(_request("heavy", clock, seq=seq))
            queue.offer(_request("light", clock, seq=seq))
        first16 = [queue.pop().tenant for _ in range(16)]
        # Start-time fair queueing serves 3 heavy per light.
        assert first16.count("heavy") == 12
        assert first16.count("light") == 4

    def test_priority_classes_drain_most_urgent_first(self, clock):
        queue = self._queue(clock, tenants={"a": 1.0})
        queue.offer(_request("a", clock, priority=BULK, seq=1))
        queue.offer(_request("a", clock, priority=INTERACTIVE, seq=2))
        queue.offer(_request("a", clock, priority=BATCH, seq=3))
        assert [queue.pop().seq for _ in range(3)] == [2, 3, 1]

    def test_idle_tenant_banks_no_burst(self, clock):
        """A tenant that was idle re-joins at the current virtual time; it
        must not be owed an unbounded catch-up burst."""
        queue = self._queue(clock, tenants={"a": 1.0, "b": 1.0},
                            capacity=100)
        for seq in range(20):
            queue.offer(_request("a", clock, seq=seq))
        for _ in range(10):                      # a alone advances vtime
            queue.pop()
        for seq in range(10):                    # b wakes up late
            queue.offer(_request("b", clock, seq=seq))
        next10 = [queue.pop().tenant for _ in range(10)]
        # Fair interleave from here on, not 10 b's in a row.
        assert next10.count("b") == 5

    def test_expired_requests_fail_fast_via_on_drop(self, clock):
        drops = []
        queue = self._queue(clock, on_drop=lambda r, why: drops.append(why))
        queue.offer(_request("a", clock, budget=5.0))
        clock.now = 10.0
        queue.offer(_request("a", clock, budget=5.0, seq=1))
        popped = queue.pop()
        assert popped is not None and popped.seq == 1
        assert drops == ["expired"]

    def test_naive_arm_hands_expired_requests_to_workers(self, clock):
        queue = self._queue(clock, fail_fast_expired=False)
        queue.offer(_request("a", clock, budget=5.0))
        clock.now = 10.0
        assert queue.pop() is not None   # the server "doesn't know"

    def test_shed_controller_drops_at_the_floor(self, clock):
        drops = []
        shed = ShedController(target=0.5, interval=1.0)
        queue = self._queue(clock, shed=shed,
                            on_drop=lambda r, why: drops.append(why),
                            capacity=100)
        for seq in range(4):
            queue.offer(_request("a", clock, priority=BULK, seq=seq))
            queue.offer(_request("a", clock, priority=INTERACTIVE, seq=seq))
        clock.now = 5.0   # every queued request now has sojourn 5 > target
        served = [queue.pop() for _ in range(4)]
        # Interactive drains first, priming the controller without shedding.
        assert all(r.priority == INTERACTIVE for r in served)
        clock.now = 6.5   # past the escalation interval: bulk backlog is shed
        assert queue.pop() is None
        assert drops == ["shed"] * 4

    def test_drain_returns_everything(self, clock):
        queue = self._queue(clock)
        for seq in range(3):
            queue.offer(_request("a", clock, seq=seq))
        queue.offer(_request("b", clock, seq=9))
        drained = queue.drain()
        assert len(drained) == 4
        assert queue.depth == 0
        assert queue.pop() is None

    def test_peak_depth_high_water_mark(self, clock):
        queue = self._queue(clock)
        for seq in range(3):
            queue.offer(_request("a", clock, seq=seq))
        queue.pop()
        queue.pop()
        assert queue.depth == 1
        assert queue.peak_depth == 3


class TestAdmissionCore:
    """The shared admission decision, on a hand-cranked clock."""

    def _core(self, clock, enabled=True, capacity=1, drops=None):
        bus = EventBus(clock)
        core = AdmissionCore(
            clock, (TenantSpec("a", rate_limit=1.0, burst=1.0),
                    TenantSpec("b", rate_limit=None)),
            enabled=enabled, queue_capacity=capacity, codel_target=0.5,
            codel_interval=2.0, brownout_target=1.0, bus=bus,
            subject="door-x", is_write=lambda request: request.op == "put",
            on_drop=lambda request, why: (drops if drops is not None
                                          else []).append(why))
        return core, bus

    @pytest.mark.parametrize(
        "enabled, brownout, tokens, room, op, expected", [
            # Each gate on its own.
            (True, True, True, True, "put", "brownout"),
            (True, True, True, True, "get", None),   # reads pass brownout
            (True, False, False, True, "get", "rate_limited"),
            (True, False, True, False, "get", "queue_full"),
            (True, False, True, True, "put", None),
            # Admission order: the earlier gate answers.
            (True, True, False, False, "put", "brownout"),
            (True, False, False, False, "get", "rate_limited"),
            # The disabled arm: only the queue bound refuses.
            (False, True, False, True, "put", None),
            (False, True, False, False, "put", "queue_full"),
        ])
    def test_decision_table(self, clock, enabled, brownout, tokens, room,
                            op, expected):
        core, _bus = self._core(clock, enabled=enabled)
        while brownout and not core.brownout.rejects_writes():
            core.brownout.observe(10.0)
        if not tokens:
            assert core.buckets["a"].try_take()
        if not room:
            assert core.queue.offer(_request("a", clock))
        depth = core.queue.depth
        reason = core.admit(_request("a", clock, op=op, seq=1))
        assert reason == expected
        assert reason is None or reason in REJECT_REASONS
        assert core.queue.depth == depth + (reason is None)

    def test_balance_identity_through_every_exit(self, clock):
        drops = []
        core, _bus = self._core(clock, capacity=4, drops=drops)
        received = answered = 0

        def loss():
            return core.books(received, answered)["silent_loss"]

        for tenant, budget in (("a", 5.0), ("b", 1e9), ("b", 1e9)):
            assert core.admit(_request(tenant, clock, budget=budget)) is None
            received += 1
            assert loss() == 0
        assert core.admit(_request("a", clock)) == "rate_limited"
        received += 1
        answered += 1                      # the refusal is its own answer
        assert core.books(received, answered) == {
            "queued": 3, "in_flight": 0, "silent_loss": 0}
        clock.now = 10.0
        popped = core.queue.pop()          # a's expired request drops first
        assert popped.tenant == "b" and drops == ["expired"]
        assert core.books(received, answered) == {
            "queued": 1, "in_flight": 2, "silent_loss": 0}
        for _ in (popped, "the dropped one"):
            core.settle()
            answered += 1
            assert loss() == 0
        drained = core.drain()
        assert len(drained) == 1 and core.in_flight == 1
        assert loss() == 0
        for _ in drained:
            core.settle()
            answered += 1
        assert core.books(received, answered) == {
            "queued": 0, "in_flight": 0, "silent_loss": 0}

    def test_one_brownout_event_per_tier_change(self, clock):
        core, bus = self._core(clock)
        tiers = [core.brownout.tier]
        for delay in [10.0] * 4 + [0.0] * 12:
            core.brownout.observe(delay)
            tiers.append(core.brownout.tier)
        changes = [(old, new) for old, new in zip(tiers, tiers[1:])
                   if old != new]
        assert changes == [(0, 1), (1, 2), (2, 1), (1, 0)]
        events = bus.events(kind="frontdoor.brownout")
        assert [(e.data["old"], e.data["new"]) for e in events] == [
            ("normal", "no_writes"), ("no_writes", "metadata_only"),
            ("metadata_only", "no_writes"), ("no_writes", "normal")]
        assert {e.subject for e in events} == {"door-x"}
        assert [e.severity for e in events] == [WARNING, WARNING, INFO, INFO]

    def test_values_each_driver_pins_on_the_core(self, sim):
        # The controller settings are module constants of each driver, not
        # constructor knobs; these are the values they hand the core.
        door = FrontDoor(sim, AdalClient(BackendRegistry()),
                         tenants=(TenantSpec("t"),))
        core = door.core
        assert (core.shed.target, core.shed.interval) == (0.5, 2.0)
        assert core.brownout.target == 1.0
        assert core.queue.capacity == 256 and core.enabled
        breakers = door.breakers
        assert (breakers.failure_threshold, breakers.reset_timeout,
                breakers.probe_timeout) == (6, 20.0, 10.0)
        assert door.dlq.capacity == 512
        assert [door.make_request("t", "get", "adal://s/x",
                                  priority=p).deadline.budget
                for p in (INTERACTIVE, BATCH, BULK)] == [4.0, 15.0, 60.0]
        server = WireServer(MetadataStore())
        core = server.core
        assert (core.shed.target, core.shed.interval) == (0.25, 1.0)
        assert core.brownout.target == 0.5
        assert core.queue.capacity == 1024 and core.enabled
        assert (server.high_water, server.low_water) == (768, 256)
