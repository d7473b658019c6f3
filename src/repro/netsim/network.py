"""The fluid flow engine.

A :class:`Network` turns ``transfer(src, dst, nbytes)`` calls into
:class:`Flow` objects that share link bandwidth according to the configured
sharing model (max-min fair by default).  Whenever the flow set or the
topology changes, rates are recomputed and the next flow completion is
rescheduled — the classic event-driven fluid simulation.

The engine keeps the solver inputs — the ``flow -> link keys`` map, the
``link -> capacity`` map and the per-flow weights — as persistent
structures maintained as flows arrive and leave, instead of rebuilding them
on every event.  Rate solves triggered by same-instant arrivals are
additionally *batched*: N transfers starting at one simulation time trigger
one deferred solve, not N, and a solve is skipped entirely when nothing
about the flow set changed (e.g. a topology epoch bump whose reroute
produced identical paths) or when the flows have the paths and weights of
the solution the current one replaced (a departure undid an arrival, or a
new flow took a departed one's place).  The naive rebuild-everything-per-event
network the seed repo shipped lives on as a test-side oracle
(``tests/netsim/reference.py``); the differential tests prove this engine
produces identical completion times (``tests/netsim/test_differential.py``).

Failures: when a router/link on a flow's path fails, the flow is rerouted
over the surviving topology (this is how the paper's redundant routers are
exercised); if no route remains, the flow's completion event *fails* with
:class:`NoRouteError`, which the initiating process may catch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.simkit.core import Simulator
from repro.simkit.events import LOW, Event
from repro.simkit.monitor import TimeWeighted
from repro.telemetry.hub import TelemetryHub
from repro.netsim.fairshare import _fill, equal_split_rates, maxmin_rates
from repro.netsim.topology import Link, NoRouteError, Topology

_COMPLETE_EPS_BYTES = 1e-3

SHARING_MODELS: dict[str, Callable] = {
    "maxmin": maxmin_rates,
    "equal": equal_split_rates,
}


class NetworkError(Exception):
    """Generic network-level failure."""


@dataclass
class TransferResult:
    """Outcome of a completed transfer, the value of the flow's done event."""

    src: str
    dst: str
    nbytes: float
    started: float
    finished: float
    reroutes: int = 0

    @property
    def duration(self) -> float:
        """Wall-clock (simulated) seconds from start to completion."""
        return self.finished - self.started

    @property
    def mean_rate(self) -> float:
        """Average achieved rate in bytes/s."""
        return self.nbytes / self.duration if self.duration > 0 else float("inf")


@dataclass
class Flow:
    """An in-flight transfer."""

    fid: int
    src: str
    dst: str
    nbytes: float
    remaining: float
    links: list[Link]
    done: Event
    weight: float = 1.0
    rate: float = 0.0
    started: float = 0.0
    reroutes: int = 0
    name: Optional[str] = None
    tags: dict = field(default_factory=dict)

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<Flow #{self.fid} {self.src}->{self.dst} "
            f"{self.remaining:.3g}/{self.nbytes:.3g}B @{self.rate:.3g}B/s>"
        )


class Network:
    """Event-driven fluid network over a :class:`Topology`.

    Parameters
    ----------
    sim:
        The simulator.
    topology:
        Node/link graph; may be mutated (failures) during the run, but call
        :meth:`notify_topology_changed` afterwards so in-flight flows react.
    sharing:
        ``"maxmin"`` (default) or ``"equal"`` — see
        :mod:`repro.netsim.fairshare`.
    efficiency:
        Fraction of nominal link capacity actually usable by payload
        (protocol overhead, TCP dynamics).  The paper's "15 days for 1 PB
        over an *ideal* 10 Gb/s link" corresponds to ``efficiency < 1``;
        E6 sweeps this.
    """

    def __init__(
        self,
        sim: Simulator,
        topology: Topology,
        sharing: str = "maxmin",
        efficiency: float = 1.0,
    ):
        if sharing not in SHARING_MODELS:
            raise ValueError(f"unknown sharing model {sharing!r}")
        if not (0.0 < efficiency <= 1.0):
            raise ValueError("efficiency must be in (0, 1]")
        self.sim = sim
        self.topology = topology
        self.sharing = sharing
        self.efficiency = efficiency
        self._share_fn = SHARING_MODELS[sharing]
        self._flows: dict[int, Flow] = {}
        self._next_fid = 0
        self._last_progress_t = sim.now
        self._timer_gen = 0
        self._seen_epoch = topology.epoch
        # -- persistent solver inputs ---------------------------------------
        # Maintained in lockstep with self._flows so a solve never rebuilds
        # them; ``_members`` is each link's flows in ``_flow_links`` order.
        self._flow_links: dict[int, tuple] = {}
        self._weights: dict[int, float] = {}
        self._caps: dict[tuple, float] = {}
        self._members: dict[tuple, dict[int, None]] = {}
        #: Solve needed: the flow set / routes / weights changed since the
        #: last solve.  A clean rebalance reuses the previous rates.
        self._dirty = False
        #: ``(key, rates)`` of the current solution and of the one it
        #: replaced: the tracked flows' paths and weights in order, and their
        #: rates in that order.  A reroute forgets both.
        self._solution = self._replaced = None
        #: A same-instant batched solve is already scheduled.
        self._solve_pending = False
        # -- statistics (the time-weighted series stays a monitor
        # primitive; the registry exposes the live level as a gauge)
        reg = TelemetryHub.for_sim(sim).registry
        self.bytes_delivered = reg.counter(
            "net.bytes_delivered_total", "Payload bytes delivered end-to-end",
            unit="bytes")
        self.flow_durations = reg.summary(
            "net.flow_duration_seconds", "Flow start -> completion duration",
            unit="seconds")
        self.active_flows = TimeWeighted(sim.now, 0, name="net.active_flows")
        self._failed_flows = reg.counter(
            "net.flows_failed_total", "Flows that lost every route")
        self.rebalances = reg.counter(
            "net.rebalances_total", "Rebalance passes (solved or skipped)")
        self.solves = reg.counter(
            "net.solves_total", "Fair-share solves actually executed")
        self.solves_skipped = reg.counter(
            "net.solves_skipped_total",
            "Rebalances that reused rates (unchanged or repeated flow set)")
        # Always 0: the one max-min solver is the scalar one.  Kept
        # registered because the benchmark harness still reads it for
        # ``netsim.vector_solve_share``; it goes with that metric.
        self.vector_solves = reg.counter(
            "net.vector_solves_total",
            "Retired: fair-share solves by the removed vectorised solver "
            "(always 0)")
        reg.gauge_fn("net.flows_inflight", lambda: float(len(self._flows)),
                     "Flows currently in flight")
        reg.gauge_fn("net.route_cache_hits",
                     lambda: float(topology.route_cache_hits),
                     "Topology route-cache hits")
        reg.gauge_fn("net.route_cache_misses",
                     lambda: float(topology.route_cache_misses),
                     "Topology route-cache misses (pathfinding runs)")

    # -- public API --------------------------------------------------------
    def transfer(
        self,
        src: str,
        dst: str,
        nbytes: float,
        weight: float = 1.0,
        name: Optional[str] = None,
        **tags,
    ) -> Event:
        """Start a transfer; the returned event yields a :class:`TransferResult`.

        The event *fails* with :class:`NoRouteError` if no healthy route
        exists now or after a mid-transfer failure, and the initiating
        process sees that exception when it ``yield``s the event.
        """
        if not 0 <= nbytes < math.inf:  # NaN too
            raise ValueError("transfer size must be finite and >= 0")
        if not 0 < weight < math.inf:
            raise ValueError("transfer weight must be finite and > 0")
        done = self.sim.event(name=name or f"xfer:{src}->{dst}")
        self._next_fid += 1
        flow = Flow(
            fid=self._next_fid,
            src=src,
            dst=dst,
            nbytes=float(nbytes),
            remaining=float(nbytes),
            links=[],
            done=done,
            weight=float(weight),
            started=self.sim.now,
            name=name,
            tags=tags,
        )
        try:
            flow.links = list(self.topology.route(src, dst))
        except NoRouteError as exc:
            self._failed_flows.add(1)
            done.fail(exc)
            return done
        if nbytes == 0 or not flow.links:
            # Local copy or empty payload: completes after path latency only.
            latency = self.topology.path_latency(flow.links)
            result = TransferResult(src, dst, nbytes, flow.started, self.sim.now + latency)
            done.succeed(result, delay=latency)
            self.bytes_delivered.add(nbytes)
            self.flow_durations.record(latency)
            return done
        self._flows[flow.fid] = flow
        self.active_flows.set(self.sim.now, len(self._flows))
        self._track_flow(flow)
        self._request_rebalance()
        return done

    def notify_topology_changed(self) -> None:
        """React to failures/repairs done directly on the topology."""
        self._advance_progress()
        self._reroute_all()
        self._rebalance()

    def fail_node(self, name: str) -> None:
        """Fail a node and immediately reroute affected flows."""
        self.topology.fail_node(name)
        self.notify_topology_changed()

    def repair_node(self, name: str) -> None:
        """Repair a node and rebalance."""
        self.topology.repair_node(name)
        self.notify_topology_changed()

    def fail_link(self, a: str, b: str) -> None:
        """Fail a link and immediately reroute affected flows."""
        self.topology.fail_link(a, b)
        self.notify_topology_changed()

    def repair_link(self, a: str, b: str) -> None:
        """Bring a failed link back and rebalance."""
        self.topology.repair_link(a, b)
        self.notify_topology_changed()

    @property
    def flow_count(self) -> int:
        """Number of in-flight flows."""
        return len(self._flows)

    @property
    def failed_flows(self) -> int:
        """Flows that failed with no surviving route."""
        return int(self._failed_flows.value)

    def current_rate(self, fid: int) -> float:
        """Instantaneous rate of an in-flight flow (bytes/s).

        A flow that arrived at the *current* instant may still be awaiting
        the batched solve; its rate reads 0 until the same-instant solve
        event runs.
        """
        return self._flows[fid].rate

    # -- engine internals ------------------------------------------------------
    def _advance_progress(self) -> None:
        """Integrate every flow's progress from the last event to now."""
        now = self.sim.now
        dt = now - self._last_progress_t
        if dt > 0:
            for flow in self._flows.values():
                rate = flow.rate
                if rate > 0:
                    left = flow.remaining - rate * dt
                    flow.remaining = left if left > 0.0 else 0.0
        self._last_progress_t = now

    def _track_flow(self, flow: Flow) -> None:
        """Fold one arriving flow into the persistent solver inputs (its
        weight and link capacities were validated when they were made)."""
        fid = flow.fid
        keys = []
        members = self._members
        for link in flow.links:
            key = link.key
            keys.append(key)
            group = members.get(key)
            if group is None:
                members[key] = {fid: None}
                self._caps[key] = float(link.capacity) * self.efficiency
            else:
                group[fid] = None
        self._flow_links[fid] = tuple(keys)
        self._weights[fid] = flow.weight
        self._dirty = True

    def _untrack_flow(self, flow: Flow) -> None:
        """Remove one departing flow from the persistent solver inputs."""
        keys = self._flow_links.pop(flow.fid, ())
        del self._weights[flow.fid]
        members = self._members
        for key in keys:
            group = members[key]
            del group[flow.fid]
            if not group:
                del members[key]
                del self._caps[key]
        self._dirty = True

    def _rebuild_tracking(self) -> None:
        """Rebuild the solver inputs from scratch (after a reroute).

        If the rebuilt inputs equal the previous ones — every surviving
        flow kept its exact path — the flow set is *not* marked dirty, so
        the next rebalance skips the fair-share solve entirely (the
        "bottleneck set unchanged" fast path for no-op topology events).
        """
        previous = (self._flow_links, self._caps, self._weights)
        dirty = self._dirty
        self._flow_links, self._members, self._caps, self._weights = (
            {}, {}, {}, {})
        for flow in self._flows.values():
            self._track_flow(flow)
        self._dirty = dirty or previous != (
            self._flow_links, self._caps, self._weights)

    def _reroute_all(self) -> None:
        """Re-resolve the path of every flow after a topology change."""
        # A flow whose last byte lands at this very instant finishes on
        # the path it used, whichever of its completion timer and the
        # topology event the scheduler runs first.
        self._complete_finished()
        self._seen_epoch = self.topology.epoch
        self._solution = self._replaced = None  # paths may change
        dead: list[Flow] = []
        for flow in self._flows.values():
            try:
                flow.links = list(self.topology.route(flow.src, flow.dst))
                flow.reroutes += 1
            except NoRouteError as exc:
                dead.append(flow)
                flow.tags["error"] = exc
        for flow in dead:
            del self._flows[flow.fid]
            self._failed_flows.add(1)
            flow.done.fail(NoRouteError(f"flow {flow.src}->{flow.dst} lost its route"))
        self._rebuild_tracking()
        if dead:
            self.active_flows.set(self.sim.now, len(self._flows))

    def _request_rebalance(self) -> None:
        """Schedule one batched solve at the current instant.

        Same-instant arrivals coalesce: the first request schedules a
        low-priority event at ``now`` (so all other work at this timestamp
        lands first) and subsequent requests are no-ops.  Rates only matter
        once time advances, so deferring the solve within the timestamp is
        invisible to completion times — N simultaneous arrivals cost one
        solve instead of N.
        """
        if self._solve_pending:
            return
        self._solve_pending = True
        self.sim.call_at(self.sim.now, self._run_pending_solve, priority=LOW)

    def _run_pending_solve(self) -> None:
        self._solve_pending = False
        self._advance_progress()
        self._rebalance()

    def _rebalance(self) -> None:
        """Recompute rates (if needed) and schedule the next completion."""
        if self.topology.epoch != self._seen_epoch:
            self._reroute_all()
        self._complete_finished()
        if not self._flows:
            self._timer_gen += 1  # cancel any outstanding timer
            return
        self.rebalances.add(1)
        if not self._dirty:
            # Nothing about the flow set changed: the previous solution is
            # still the fair-share solution.  Only the timer needs care.
            self.solves_skipped.add(1)
            rates = [flow.rate for flow in self._flows.values()]
        else:
            self._dirty = False
            flow_links = self._flow_links
            key = (tuple(flow_links.values()), tuple(self._weights.values()))
            if self._replaced is not None and self._replaced[0] == key:
                # The flows have the paths and weights, in order, of the
                # solution the current one replaced.  Solvers are pure in
                # that input and the capacities, blind to flow ids, and only
                # a reroute (which forgets both solutions) moves capacities.
                self._solution, self._replaced = self._replaced, self._solution
                rates = self._solution[1]
                self.solves_skipped.add(1)
            else:
                if self._share_fn is maxmin_rates:
                    solved = _fill(flow_links, self._weights, self._caps,
                                   self._members, {})
                else:
                    solved = self._share_fn(flow_links, self._caps,
                                            self._weights)
                rates = [solved[fid] for fid in flow_links]
                self._replaced, self._solution = self._solution, (key, rates)
                self.solves.add(1)
        horizon = math.inf
        # The tracked maps hold the flows in ``_flows`` order.
        for flow, rate in zip(self._flows.values(), rates):
            flow.rate = rate
            if rate > 0:
                eta = flow.remaining / rate
                if eta < horizon:
                    horizon = eta
        if math.isinf(horizon):
            # No flow is making progress (all rates zero — only possible
            # with a degenerate sharing model).  Cancel the outstanding
            # timer instead of scheduling one at t=inf; the flows stall
            # until the next arrival/topology event re-solves.
            self._timer_gen += 1
            return
        self._timer_gen += 1
        gen = self._timer_gen
        self.sim.call_at(self.sim.now + horizon, lambda: self._on_timer(gen))

    def _on_timer(self, gen: int) -> None:
        if gen != self._timer_gen:
            return  # superseded by a later rebalance
        self._advance_progress()
        self._rebalance()

    def _complete_finished(self) -> None:
        # A flow is done when its residual is below an absolute byte epsilon
        # OR below a microsecond of service at its current rate — the latter
        # guards against float-precision livelock (a timer scheduled at
        # now + sub-ulp delay would never advance the clock).  All flows
        # reaching the horizon together complete in this one pass: one
        # recompute for N simultaneous completions.
        finished = [
            f
            for f in self._flows.values()
            if f.remaining <= _COMPLETE_EPS_BYTES or f.remaining <= f.rate * 1e-6
        ]
        for flow in finished:
            del self._flows[flow.fid]
            self._untrack_flow(flow)
            latency = self.topology.path_latency(flow.links)
            result = TransferResult(
                flow.src,
                flow.dst,
                flow.nbytes,
                flow.started,
                self.sim.now + latency,
                reroutes=flow.reroutes,
            )
            self.bytes_delivered.add(flow.nbytes)
            self.flow_durations.record(result.duration)
            flow.done.succeed(result, delay=latency)
        if finished:
            self.active_flows.set(self.sim.now, len(self._flows))
