"""The event queue's order, checked against a ``sorted()`` oracle.

The kernel's pending events are a plain :mod:`heapq` list of
``(time, priority, tie, seq, event)`` entries.  Every trace in the repo
rests on its pop order being exactly ``sorted((time, priority, seq))``:
same-instant ties in insertion order, priorities deciding within an
instant, infinite timestamps last.  These tests drive a real
:class:`Simulator` and compare the order its loop dispatches events in
with a reference that re-sorts a plain list before every pop.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.trace import TraceRecorder, first_divergence
from repro.simkit import SimkitError, Simulator
from repro.simkit.events import LOW, NORMAL, URGENT

_INF = float("inf")


# -- randomized dispatch order vs sorted() ----------------------------------

# One scheduled event: how it is made, its delay, its priority, and the
# (delay, priority) of the child it schedules when dispatched, if any.
_EVENT = st.tuples(
    st.sampled_from(["timeout", "succeed", "call_at"]),
    st.integers(min_value=0, max_value=7),
    st.sampled_from([URGENT, NORMAL, LOW]),
    st.none() | st.tuples(st.integers(min_value=0, max_value=7),
                          st.sampled_from([URGENT, NORMAL, LOW])),
)


def _reference_order(pool, plan):
    """The dispatch order as ``(time, priority, seq)``, computed by
    re-sorting a plain list before every pop."""
    pending = []
    seq = 0
    for kind, slot, priority, child in plan:
        seq += 1
        if kind == "timeout":
            priority = NORMAL
        elif kind == "call_at":
            priority = LOW
        pending.append((pool[slot], priority, seq, child))
    order = []
    while pending:
        pending = sorted(pending)
        when, priority, this, child = pending.pop(0)
        order.append((when, priority, this))
        if child is not None:
            seq += 1
            pending.append((when + pool[child[0]], child[1], seq, None))
    return order


@given(pool=st.lists(st.sampled_from([0.0, 0.25, 1.0, 1.5, 3.0, 1e9, _INF]),
                     min_size=8, max_size=8),
       plan=st.lists(_EVENT, min_size=1, max_size=60))
@settings(max_examples=150, deadline=None)
def test_dispatch_order_matches_sorted_reference(pool, plan):
    """Random delays from a small pool (exact ties, zero, far-future and
    infinite ones), all three priorities, ``call_at(..., LOW)``, and
    children scheduled mid-run: the loop dispatches in exactly
    ``sorted((time, priority, seq))`` order."""
    sim = Simulator(seed=0)
    seen = []
    sim.trace_hooks.append(
        lambda when, priority, seq, _event: seen.append((when, priority, seq)))

    def spawn(child):
        if child is not None:
            sim.event().succeed(delay=pool[child[0]], priority=child[1])

    for kind, slot, priority, child in plan:
        if kind == "timeout":
            event = sim.timeout(pool[slot])
        elif kind == "succeed":
            event = sim.event().succeed(delay=pool[slot], priority=priority)
        else:
            sim.call_at(pool[slot], lambda child=child: spawn(child),
                        priority=LOW)
            continue
        event.callbacks.append(lambda _event, child=child: spawn(child))
    sim.run()
    assert seen == _reference_order(pool, plan)
    assert sim.queue_empty and sim.peek() == _INF


# -- kernel-level twin runs ------------------------------------------------

def _twin_workload(sim: Simulator) -> None:
    """A workload touching the ordering-sensitive kernel features: timer
    chains, exact same-instant ties, priorities, cancellation (an
    interrupted process abandoning a pending timer) and far-future events
    that never fire inside the horizon."""
    from repro.simkit import Interrupt

    def ticker(period, count):
        for _ in range(count):
            yield sim.timeout(period)

    def interruptee():
        try:
            yield sim.timeout(100.0)
        except Interrupt:
            # The abandoned timer entry still pops from the queue (there
            # is no remove); only its callback is inert.
            yield sim.timeout(0.5)

    def sleeper():
        yield sim.timeout(1e12)  # far beyond every stop horizon

    for i in range(5):
        sim.process(ticker(0.25 * (i + 1), 20))
        sim.process(ticker(0.25 * (i + 1), 20))  # exact ties with the twin
    victim = sim.process(interruptee())

    def canceller():
        yield sim.timeout(2.0)
        victim.interrupt("cancelled")

    sim.process(canceller())
    sim.process(sleeper())
    sim.event(name="hi").succeed(delay=3.0, priority=0)
    sim.event(name="lo").succeed(delay=3.0, priority=LOW)


def test_kernel_twin_traces_identical():
    traces = []
    for _ in range(2):
        sim = Simulator(seed=42)
        recorder = TraceRecorder().install(sim)
        _twin_workload(sim)
        sim.run(until=40.0)
        traces.append(recorder)
    assert first_divergence(*traces) is None
    assert traces[0].digest() == traces[1].digest()
    assert len(traces[0]) > 100


# -- queue edges -------------------------------------------------------------

def test_empty_pop_raises_and_peek_is_inf():
    """A queue drained by the loop, and one emptied by ``close()``, both
    read as empty: ``peek()`` is ``inf`` and ``step()`` refuses."""
    sim = Simulator()
    for empty in (sim.run, sim.close):
        sim.timeout(1.0)
        assert sim.peek() == sim.now + 1.0
        empty()
        assert sim.queue_empty and sim.peek() == _INF
        with pytest.raises(SimkitError):
            sim.step()


def test_infinite_entries_pop_last():
    sim = Simulator()
    first = sim.timeout(_INF)
    finite = sim.timeout(3.0)
    second = sim.timeout(_INF)
    assert sim.peek() == 3.0
    sim.step()
    assert finite.processed and sim.now == 3.0
    order = []
    sim.trace_hooks.append(lambda when, _p, _s, event: order.append(event))
    sim.run()
    assert order == [first, second] and sim.now == _INF
