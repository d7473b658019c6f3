"""Tests for the event loop (Simulator) and basic process semantics."""

import pytest

from repro.simkit import Event, Interrupt, SimkitError, Simulator, StopSimulation


def test_clock_starts_at_zero():
    assert Simulator().now == 0.0


def test_clock_custom_start():
    assert Simulator(start=100.0).now == 100.0


def test_timeout_advances_clock(sim):
    def proc():
        yield sim.timeout(5.0)
        return sim.now

    p = sim.process(proc())
    sim.run()
    assert p.value == 5.0
    assert sim.now == 5.0


def test_timeout_carries_value(sim):
    def proc():
        got = yield sim.timeout(1.0, value="payload")
        return got

    p = sim.process(proc())
    sim.run()
    assert p.value == "payload"


def test_negative_timeout_rejected(sim):
    with pytest.raises(ValueError):
        sim.timeout(-1.0)


def test_run_until_time_stops_clock_exactly(sim):
    def proc():
        while True:
            yield sim.timeout(3.0)

    sim.process(proc())
    sim.run(until=10.0)
    assert sim.now == 10.0


def test_run_until_time_with_no_events_advances_clock(sim):
    sim.run(until=42.0)
    assert sim.now == 42.0


def test_run_until_past_raises(sim):
    def proc():
        yield sim.timeout(5.0)

    sim.process(proc())
    sim.run()
    with pytest.raises(SimkitError):
        sim.run(until=1.0)


def test_run_until_event_returns_value(sim):
    def proc():
        yield sim.timeout(2.0)
        return "done"

    p = sim.process(proc())
    result = sim.run(until=p)
    assert result == "done"
    assert sim.now == 2.0


def test_run_until_event_never_triggered_raises(sim):
    orphan = sim.event()

    def proc():
        yield sim.timeout(1.0)

    sim.process(proc())
    with pytest.raises(SimkitError):
        sim.run(until=orphan)


def test_events_ordered_by_time_then_fifo(sim):
    order = []

    def proc(name, delay):
        yield sim.timeout(delay)
        order.append(name)

    sim.process(proc("b", 2.0))
    sim.process(proc("a", 1.0))
    sim.process(proc("c", 2.0))  # same time as b: FIFO
    sim.run()
    assert order == ["a", "b", "c"]


def test_process_return_value_propagates_through_join(sim):
    def inner():
        yield sim.timeout(1.0)
        return 42

    def outer():
        value = yield sim.process(inner())
        return value * 2

    p = sim.process(outer())
    sim.run()
    assert p.value == 84


def test_yield_already_processed_event_resumes_immediately(sim):
    done = sim.event()
    done.succeed("early")

    def late():
        yield sim.timeout(5.0)
        value = yield done
        return (sim.now, value)

    p = sim.process(late())
    sim.run()
    assert p.value == (5.0, "early")


def test_unhandled_process_exception_surfaces():
    sim = Simulator()

    def bad():
        yield sim.timeout(1.0)
        raise RuntimeError("boom")

    sim.process(bad())
    with pytest.raises(RuntimeError, match="boom"):
        sim.run()


def test_joined_process_failure_is_rethrown_in_parent(sim):
    def bad():
        yield sim.timeout(1.0)
        raise ValueError("inner")

    def parent():
        try:
            yield sim.process(bad())
        except ValueError as exc:
            return f"caught {exc}"

    p = sim.process(parent())
    sim.run()
    assert p.value == "caught inner"


def test_yielding_non_event_raises_into_process(sim):
    def bad():
        yield 42

    def parent():
        try:
            yield sim.process(bad())
        except SimkitError:
            return "typed error"

    p = sim.process(parent())
    sim.run()
    assert p.value == "typed error"


def test_stop_simulation_halts_run(sim):
    def stopper():
        yield sim.timeout(3.0)
        raise StopSimulation()

    def forever():
        while True:
            yield sim.timeout(1.0)

    sim.process(forever())
    sim.process(stopper())
    sim.run()
    assert sim.now == 3.0


def test_call_at_runs_function(sim):
    hits = []
    sim.call_at(7.5, lambda: hits.append(sim.now))
    sim.run()
    assert hits == [7.5]


def test_call_at_past_raises(sim):
    def proc():
        yield sim.timeout(5.0)

    sim.process(proc())
    sim.run()
    with pytest.raises(SimkitError):
        sim.call_at(1.0, lambda: None)


# NaN compares false against every bound: a guard written `x < bound`
# lets it through and the clock ends up at NaN.
_NAN = float("nan")


def test_nan_timeout_rejected(sim):
    with pytest.raises(ValueError):
        sim.timeout(_NAN)
    with pytest.raises(SimkitError):
        sim.event().succeed(delay=_NAN)
    assert sim.queue_empty


def test_call_at_nan_rejected(sim):
    hits = []
    with pytest.raises(SimkitError):
        sim.call_at(_NAN, lambda: hits.append(sim.now))
    sim.run()
    assert hits == [] and sim.now == 0.0


def test_run_until_nan_rejected(sim):
    def daemon():
        for _ in range(100):  # bounded, so a regression fails, not hangs
            yield sim.timeout(1.0)

    sim.process(daemon())
    with pytest.raises(SimkitError):
        sim.run(until=_NAN)
    assert sim.now == 0.0


def test_infinite_times_stay_legal(sim):
    hits = []
    sim.call_at(float("inf"), lambda: hits.append(sim.now))
    sim.run(until=float("inf"))
    assert hits == [float("inf")]


def test_event_cannot_trigger_twice(sim):
    ev = sim.event()
    ev.succeed(1)
    with pytest.raises(SimkitError):
        ev.succeed(2)
    with pytest.raises(SimkitError):
        ev.fail(RuntimeError())


def test_event_fail_requires_exception(sim):
    with pytest.raises(TypeError):
        sim.event().fail("not an exception")


def test_failed_event_value_raises(sim):
    ev = sim.event()
    ev.fail(ValueError("x"))
    with pytest.raises(ValueError):
        _ = ev.value


def test_peek_and_queue_empty(sim):
    assert sim.queue_empty
    assert sim.peek() == float("inf")
    sim.timeout(3.0)
    assert not sim.queue_empty
    assert sim.peek() == 3.0


def test_step_on_empty_queue_raises(sim):
    with pytest.raises(SimkitError):
        sim.step()


class TestInterrupt:
    def test_interrupt_wakes_sleeper(self, sim):
        def sleeper():
            try:
                yield sim.timeout(100.0)
            except Interrupt as intr:
                return ("interrupted", intr.cause, sim.now)

        target = sim.process(sleeper())

        def killer():
            yield sim.timeout(5.0)
            target.interrupt("reason")

        sim.process(killer())
        sim.run()
        assert target.value == ("interrupted", "reason", 5.0)

    def test_interrupt_finished_process_raises(self, sim):
        def quick():
            yield sim.timeout(1.0)

        target = sim.process(quick())

        def late():
            yield sim.timeout(2.0)
            with pytest.raises(SimkitError):
                target.interrupt()

        sim.process(late())
        sim.run()

    def test_interrupted_process_can_resume_waiting(self, sim):
        def sleeper():
            try:
                yield sim.timeout(100.0)
            except Interrupt:
                yield sim.timeout(3.0)  # handles and keeps going
                return sim.now

        target = sim.process(sleeper())

        def killer():
            yield sim.timeout(5.0)
            target.interrupt()

        sim.process(killer())
        sim.run()
        assert target.value == 8.0

    def test_uncaught_interrupt_fails_process(self, sim):
        def sleeper():
            yield sim.timeout(100.0)

        target = sim.process(sleeper())

        def killer():
            yield sim.timeout(1.0)
            target.interrupt()

        sim.process(killer())
        with pytest.raises(Interrupt):
            sim.run()


class TestConditions:
    def test_all_of_waits_for_all(self, sim):
        def worker(delay, value):
            yield sim.timeout(delay)
            return value

        a = sim.process(worker(1.0, "a"))
        b = sim.process(worker(4.0, "b"))

        def waiter():
            results = yield sim.all_of([a, b])
            return (sim.now, sorted(results.values()))

        p = sim.process(waiter())
        sim.run()
        assert p.value == (4.0, ["a", "b"])

    def test_any_of_fires_on_first(self, sim):
        def worker(delay, value):
            yield sim.timeout(delay)
            return value

        a = sim.process(worker(1.0, "fast"))
        b = sim.process(worker(9.0, "slow"))

        def waiter():
            results = yield sim.any_of([a, b])
            return (sim.now, list(results.values()))

        p = sim.process(waiter())
        sim.run()
        assert p.value == (1.0, ["fast"])

    def test_any_of_empty_rejected(self, sim):
        with pytest.raises(ValueError):
            sim.any_of([])

    def test_any_of_races_a_timer(self, sim):
        """A Timeout is born triggered; the race must still resolve at the
        earliest *fire* time, not instantly at construction."""

        def worker():
            yield sim.timeout(2.0)
            return "worker"

        def waiter():
            timer = sim.timeout(30.0)
            results = yield sim.any_of([sim.process(worker()), timer])
            return (sim.now, list(results.values()))

        p = sim.process(waiter())
        sim.run()
        assert p.value == (2.0, ["worker"])

    def test_any_of_timer_wins(self, sim):
        def worker():
            yield sim.timeout(60.0)
            return "slow"

        def waiter():
            timer = sim.timeout(1.5, value="deadline")
            results = yield sim.any_of([sim.process(worker()), timer])
            return (sim.now, list(results.values()))

        p = sim.process(waiter())
        sim.run()
        assert p.value == (1.5, ["deadline"])

    def test_all_of_failure_propagates(self, sim):
        def bad():
            yield sim.timeout(1.0)
            raise RuntimeError("part failed")

        def good():
            yield sim.timeout(5.0)

        a, b = sim.process(bad()), sim.process(good())

        def waiter():
            try:
                yield sim.all_of([a, b])
            except RuntimeError:
                return "caught"

        p = sim.process(waiter())
        sim.run()
        assert p.value == "caught"

    def test_all_of_with_already_failed_event(self, sim):
        dead = sim.event()
        dead.fail(ValueError("pre-failed"))
        ok = sim.timeout(1.0)

        def waiter():
            yield sim.timeout(2.0)  # ensure `dead` is already processed
            try:
                yield sim.all_of([dead, ok])
            except ValueError:
                return "caught"

        # Consume the failure so the bare event doesn't crash the loop.
        def consumer():
            try:
                yield dead
            except ValueError:
                pass

        sim.process(consumer())
        p = sim.process(waiter())
        sim.run()
        assert p.value == "caught"

    def test_all_of_empty_triggers_immediately(self, sim):
        def waiter():
            yield sim.timeout(1.0)
            result = yield sim.all_of([])
            return (sim.now, result)

        p = sim.process(waiter())
        sim.run()
        assert p.value == (1.0, {})


def test_determinism_same_seed_same_trace():
    def run_once():
        sim = Simulator(seed=99)
        log = []

        def proc(name):
            for _ in range(5):
                yield sim.timeout(sim.random.exponential(2.0))
                log.append((round(sim.now, 9), name))

        sim.process(proc("x"))
        sim.process(proc("y"))
        sim.run()
        return log

    assert run_once() == run_once()


def test_close_ends_every_live_process_and_empties_the_queue():
    from repro.simkit import Store

    sim = Simulator()
    store = Store(sim)
    cleaned = []

    def blocked(name):
        try:
            yield store.get()  # nothing is ever put: blocked for good
        finally:
            cleaned.append(name)

    def ticking():
        while True:
            yield sim.timeout(1.0)

    def brief():
        yield sim.timeout(0.1)

    for name in ("a", "b"):
        sim.process(blocked(name))
    ticker = sim.process(ticking())
    sim.run(until=3.5)
    finished = sim.process(brief())
    sim.run(until=4.0)
    assert finished.processed and finished not in sim._processes
    sim.close()
    sim.close()  # idempotent
    assert cleaned == ["a", "b"]
    assert not sim._processes and not sim._queue
    sim.run()  # returns at once: nothing is queued
    assert sim.now == 4.0
    assert ticker.is_alive  # closed, never triggered


class TestHotPathKernel:
    """PR 5 kernel optimizations: lazy names, Callback events, fast run loop."""

    def test_timeout_name_is_lazy_and_stable(self, sim):
        timeout = sim.timeout(3.5)
        assert timeout.name == "Timeout(3.5)"
        assert timeout.name == "Timeout(3.5)"

    def test_event_name_remains_settable(self, sim):
        ev = sim.event(name="before")
        assert ev.name == "before"
        ev.name = "after"
        assert ev.name == "after"
        assert "after" in repr(ev)

    def test_call_at_name_formats_lazily(self, sim):
        ev = sim.call_at(2.0, lambda: None)
        assert ev.name == "call_at(2)"
        sim.run()
        assert ev.processed and ev.ok

    def test_call_at_priority_orders_same_instant_work(self, sim):
        from repro.simkit.events import LOW

        order = []
        sim.call_at(1.0, lambda: order.append("low"), priority=LOW)
        sim.call_at(1.0, lambda: order.append("normal"))
        sim.call_at(2.0, lambda: order.append("later"))
        sim.run()
        assert order == ["normal", "low", "later"]

    def test_call_at_event_still_supports_callbacks(self, sim):
        hits = []
        ev = sim.call_at(1.0, lambda: hits.append("fn"))
        ev.callbacks.append(lambda _e: hits.append("cb"))
        sim.run()
        # fn runs first (the Callback's own action), then appended callbacks.
        assert hits == ["fn", "cb"]

    def test_traced_run_matches_untraced_fast_path(self):
        def run(with_hook):
            sim = Simulator(seed=3)
            trace = []
            if with_hook:
                sim.trace_hooks.append(
                    lambda when, prio, seq, ev: trace.append((when, ev.name or ""))
                )
            out = []

            def proc():
                for i in range(5):
                    yield sim.timeout(0.5 + i)
                    out.append(sim.now)
                return "done"

            p = sim.process(proc())
            sim.run()
            return out, p.value, trace

        traced_out, traced_val, trace = run(True)
        fast_out, fast_val, _ = run(False)
        # The inlined no-hook loop and the step()-based traced loop must
        # execute identical event logic.
        assert traced_out == fast_out
        assert traced_val == fast_val == "done"
        assert trace  # the hook actually observed events

    def test_events_scheduled_counter(self, sim):
        before = sim.events_scheduled
        sim.timeout(1.0)
        sim.timeout(2.0)
        assert sim.events_scheduled == before + 2

    def test_failed_event_still_surfaces_in_fast_loop(self, sim):
        ev = sim.event(name="boom")
        ev.fail(RuntimeError("kaput"))
        with pytest.raises(RuntimeError, match="kaput"):
            sim.run()
