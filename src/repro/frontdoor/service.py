"""The :class:`FrontDoor`: the facility's overload-safe request-serving layer.

A pool of worker processes drains the admission queue and executes each
request against the ADAL client.  The contract with clients:

* every submitted request reaches exactly one terminal outcome
  (:data:`~repro.frontdoor.request.OUTCOMES`) — the zero-silent-loss
  invariant the overload drill gates on;
* no work outlives its caller: each request carries a
  :class:`~repro.frontdoor.request.Deadline`, service legs run under
  :func:`~repro.resilience.timeout.with_timeout` derived from the
  *remaining* budget, retry backoffs are clipped to it, and work whose
  budget cannot cover even the minimum service time fails fast instead of
  burning a worker;
* transient backend faults are absorbed by bounded retries behind a
  dedicated per-store breaker board (with the half-open probe timeout, so
  a dead probe owner cannot starve recovery); exhausted requests are
  captured in a bounded dead-letter queue.

``enabled=False`` is the ablation arm: no rate limits, no shedding, no
brownout, no fail-fast — workers grind through expired backlog exactly
like a naive server, which is what makes congestion collapse visible in
bench E18 and the drill.
"""

from __future__ import annotations

from typing import Callable, Generator, Optional, Sequence

from repro.adal.api import AdalClient, AdalUrl
from repro.adal.errors import (
    BackendUnavailableError,
    ObjectExistsError,
    ObjectNotFoundError,
)
from repro.frontdoor.admission import REJECT_REASONS, AdmissionCore
from repro.frontdoor.request import (
    BATCH,
    OUTCOMES,
    Deadline,
    Request,
    TenantSpec,
)
from repro.resilience.breaker import BreakerBoard
from repro.resilience.dlq import DeadLetterQueue
from repro.resilience.errors import DeadlineExceededError
from repro.resilience.policy import RetryPolicy
from repro.resilience.timeout import with_timeout
from repro.simkit.core import Simulator
from repro.simkit.events import Event
from repro.telemetry.events import WARNING
from repro.telemetry.hub import TelemetryHub

#: What the door hands its admission core: the shed controller's sojourn
#: target and escalation interval, and the brownout delay target (s).
CODEL_TARGET, CODEL_INTERVAL, BROWNOUT_TARGET = 0.5, 2.0, 1.0
#: The door's own breaker board (gentler than the facility's, with the
#: half-open probe timeout) and the bound of its dead-letter queue.
BREAKER_THRESHOLD, BREAKER_RESET, BREAKER_PROBE_TIMEOUT = 6, 20.0, 10.0
DLQ_CAPACITY = 512
#: Default budgets (seconds) by priority class (interactive, batch, bulk).
DEADLINES = (4.0, 15.0, 60.0)


class FrontDoor:
    """Admission-controlled, deadline-aware request service over ADAL.

    Parameters
    ----------
    sim:
        The facility simulator.
    client:
        The :class:`~repro.adal.api.AdalClient` requests execute against.
        Pass one *without* its own retry policy — the front door owns the
        retry/deadline budget end to end.
    tenants:
        One :class:`~repro.frontdoor.request.TenantSpec` per community.
    enabled:
        ``False`` disables every overload defence (the naive ablation arm).
    workers:
        Worker processes draining the admission queue.
    queue_capacity:
        Bound of each tenant's admission queue.
    service_overhead, service_bandwidth:
        Service-time model: ``overhead + nbytes / bandwidth`` per attempt.
    retry_policy:
        Backend retry policy (default: 3 attempts, sub-second backoff).
    on_terminal:
        Observer called ``(request, outcome)`` at every terminal outcome —
        the load generator's client-retry hook.

    Admission (buckets, queue, shedding, brownout, the books) is the
    shared :class:`~repro.frontdoor.admission.AdmissionCore` at
    ``self.core``, on the simulation clock; the door itself is the simkit
    driver around it: workers, the service model, retries and the DLQ.
    """

    name = "frontdoor"

    def __init__(
        self,
        sim: Simulator,
        client: AdalClient,
        tenants: Sequence[TenantSpec],
        enabled: bool = True,
        workers: int = 4,
        queue_capacity: int = 256,
        service_overhead: float = 0.05,
        service_bandwidth: float = 50e6,
        retry_policy: Optional[RetryPolicy] = None,
        on_terminal: Optional[Callable[[Request, str], None]] = None,
    ):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.sim = sim
        self.client = client
        self.workers = workers
        self.tenants = {spec.name: spec for spec in tenants}
        self.service_overhead = service_overhead
        self.service_bandwidth = service_bandwidth
        self.policy = retry_policy or RetryPolicy(
            max_attempts=3, base_delay=0.2, multiplier=2.0, max_delay=2.0,
            jitter=0.1)
        self.on_terminal = on_terminal
        self.rng = sim.random.spawn(f"{self.name}.retry")
        self._hub = TelemetryHub.for_sim(sim)
        self.core = AdmissionCore(
            lambda: sim.now, tenants, enabled=enabled,
            queue_capacity=queue_capacity, codel_target=CODEL_TARGET,
            codel_interval=CODEL_INTERVAL, brownout_target=BROWNOUT_TARGET,
            bus=self._hub.bus, subject=self.name,
            is_write=lambda request: request.op == "put",
            on_drop=self._on_queue_drop)
        self.breakers = BreakerBoard(
            clock=lambda: sim.now,
            failure_threshold=BREAKER_THRESHOLD,
            reset_timeout=BREAKER_RESET,
            probe_timeout=BREAKER_PROBE_TIMEOUT,
        )
        self.dlq = DeadLetterQueue(name=f"{self.name}-dlq", bus=self._hub.bus,
                                   capacity=DLQ_CAPACITY)
        self._seq = 0
        self._arrival: Optional[Event] = None
        self._build_instruments()
        for index in range(workers):
            sim.process(self._worker(), name=f"{self.name}.worker{index:02d}")

    # -- instruments ---------------------------------------------------------
    def _build_instruments(self) -> None:
        """Pre-register every labelled counter the door will touch."""
        reg = self._hub.registry
        names = sorted(self.tenants)
        self._m_requests = {
            t: reg.counter("frontdoor.requests_total",
                           "Requests submitted to the front door", tenant=t)
            for t in names}
        self._m_admitted = {
            t: reg.counter("frontdoor.admitted_total",
                           "Requests admitted past rate limits and queues",
                           tenant=t)
            for t in names}
        self._m_rejected = {
            (t, r): reg.counter("frontdoor.rejected_total",
                                "Requests refused at the door",
                                tenant=t, reason=r)
            for t in names for r in REJECT_REASONS}
        self._m_outcomes = {
            (t, o): reg.counter("frontdoor.outcomes_total",
                                "Terminal request outcomes", tenant=t,
                                outcome=o)
            for t in names for o in OUTCOMES}
        self._m_goodput = {
            t: reg.counter("frontdoor.goodput_bytes_total",
                           "Bytes represented by fully served requests",
                           unit="bytes", tenant=t)
            for t in names}
        self._m_retries = reg.counter(
            "frontdoor.backend_retries_total",
            "Server-side backend retry attempts")
        self._m_admitted_retries = reg.counter(
            "frontdoor.admitted_retries_total",
            "Client resubmissions admitted past the door")
        self._h_queue_delay = reg.histogram(
            "frontdoor.queue_delay_seconds",
            buckets=(0.05, 0.1, 0.25, 0.5, 1.0, 2.0, 5.0, 10.0, 30.0),
            help="Admission-queue sojourn of dequeued requests", unit="s")
        self._s_latency = reg.summary(
            "frontdoor.latency_seconds",
            "Submit-to-response latency of served requests", unit="s")
        reg.gauge_fn("frontdoor.queue_depth",
                     lambda: float(self.core.queue.depth),
                     "Requests queued across tenants")
        reg.gauge_fn("frontdoor.peak_queue_depth",
                     lambda: float(self.core.queue.peak_depth),
                     "High-water mark of total queue depth")
        reg.gauge_fn("frontdoor.in_flight",
                     lambda: float(self.core.in_flight),
                     "Requests currently being served")
        reg.gauge_fn("frontdoor.brownout_tier",
                     lambda: float(self.core.brownout.tier),
                     "Degradation tier (0=normal, 1=no writes, 2=metadata only)")
        reg.gauge_fn("frontdoor.load_signal",
                     lambda: self.core.brownout.signal,
                     "Smoothed queue-delay load signal", unit="s")
        reg.gauge_fn("frontdoor.shed_floor",
                     lambda: float(self.core.shed.shed_floor),
                     "Lowest priority class currently shed (3 = none)")
        reg.gauge_fn("frontdoor.enabled",
                     lambda: 1.0 if self.core.enabled else 0.0,
                     "Whether overload defences are active")

    # -- request construction ------------------------------------------------
    def make_request(
        self,
        tenant: str,
        op: str,
        url: str,
        nbytes: float = 0.0,
        priority: int = BATCH,
        retries: int = 0,
        budget: Optional[float] = None,
    ) -> Request:
        """Build a request stamped with the class's deadline budget."""
        if tenant not in self.tenants:
            raise ValueError(f"unknown tenant {tenant!r}")
        now = self.sim.now
        if budget is None:
            budget = DEADLINES[priority]
        self._seq += 1
        return Request(
            tenant=tenant, op=op, url=url, nbytes=float(nbytes),
            priority=priority, deadline=Deadline(now, budget),
            submitted=now, seq=self._seq, retries=retries)

    # -- admission -----------------------------------------------------------
    def submit(self, request: Request) -> bool:
        """Offer a request to the door; ``False`` means it was rejected.

        Rejections are terminal (counted, observer notified) — the caller
        must not retry blindly; that is what the retry-storm drill arm
        measures.
        """
        self._m_requests[request.tenant].add(1)
        reason = self.core.admit(request)
        if reason is not None:
            self._m_rejected[(request.tenant, reason)].add(1)
            self._finish(request, "rejected")
            return False
        self._m_admitted[request.tenant].add(1)
        if request.retries > 0:
            self._m_admitted_retries.add(1)
        self._notify_arrival()
        return True

    def _on_queue_drop(self, request: Request, reason: str) -> None:
        """Queue-side drops: expired budgets fail fast, sheds are typed."""
        self._finish(request, "timed_out" if reason == "expired" else "shed",
                     in_flight=True)

    # -- workers -------------------------------------------------------------
    def _wait_arrival(self) -> Event:
        if self._arrival is None or self._arrival.triggered:
            self._arrival = self.sim.event(f"{self.name}.arrival")
        return self._arrival

    def _notify_arrival(self) -> None:
        if self._arrival is not None and not self._arrival.triggered:
            self._arrival.succeed()

    def _worker(self) -> Generator:
        """One service worker: drain the queue, idle-wait on arrivals."""
        while True:
            request = self.core.queue.pop()
            if request is None:
                yield self._wait_arrival()
                continue
            self._h_queue_delay.observe(self.sim.now - request.enqueued)
            yield from self._serve(request)

    def _service_time(self, request: Request, degraded: bool) -> float:
        """The per-attempt service-time model."""
        if degraded or request.op == "stat":
            return self.service_overhead
        return self.service_overhead + request.nbytes / self.service_bandwidth

    def _serve(self, request: Request) -> Generator:
        """Execute one dequeued request within its remaining budget."""
        sim = self.sim
        enabled = self.core.enabled
        degraded = (enabled and request.op == "get"
                    and self.core.brownout.metadata_only())
        attempts: list[tuple[float, str]] = []
        attempt = 1
        while True:
            remaining = request.deadline.remaining(sim.now)
            service = self._service_time(request, degraded)
            if enabled and remaining <= service:
                # Fail fast: the budget cannot cover even one attempt.
                self._finish(request, "timed_out", in_flight=True)
                return
            if enabled:
                try:
                    yield with_timeout(
                        sim, sim.timeout(service), remaining,
                        label=f"{request.tenant}#{request.seq}")
                except DeadlineExceededError:
                    self._finish(request, "timed_out", in_flight=True)
                    return
            else:
                yield sim.timeout(service)
            ok, error = self._backend_call(request, degraded)
            if not enabled and request.deadline.expired(sim.now):
                # The naive arm burned a full service slot on a request
                # whose client already gave up — congestion collapse fuel.
                self._finish(request, "timed_out", in_flight=True)
                return
            if ok:
                self._finish(
                    request, "served_degraded" if degraded else "served",
                    in_flight=True)
                return
            attempts.append((sim.now, error))
            self._m_retries.add(1)
            if attempt >= self.policy.max_attempts:
                self._dead_letter(request, error, attempts)
                return
            backoff = self.policy.delay(attempt, self.rng)
            if enabled and request.deadline.remaining(sim.now) <= backoff:
                # The backoff would outlive the caller: stop here.
                self._finish(request, "timed_out", in_flight=True)
                return
            yield sim.timeout(backoff)
            attempt += 1

    def _backend_call(self, request: Request,
                      degraded: bool) -> tuple[bool, Optional[str]]:
        """One guarded ADAL attempt; ``(ok, transient-error-description)``."""
        store = AdalUrl.parse(request.url).store
        breaker = self.breakers.breaker(store) if self.core.enabled else None
        if breaker is not None and not breaker.allow():
            return False, f"circuit open for store {store!r}"
        try:
            if request.op == "put":
                self.client.put(request.url, self._token_payload(request))
            elif degraded or request.op == "stat":
                self.client.stat(request.url)
            else:
                self.client.get(request.url)
        except BackendUnavailableError as exc:
            if breaker is not None:
                breaker.record_failure()
            return False, f"{type(exc).__name__}: {exc}"
        except (ObjectNotFoundError, ObjectExistsError):
            # The backend answered; a definite miss (or an idempotent
            # replay of a write that landed) is a valid response.
            if breaker is not None:
                breaker.record_success()
            return True, None
        if breaker is not None:
            breaker.record_success()
        return True, None

    @staticmethod
    def _token_payload(request: Request) -> bytes:
        """Small stand-in payload: service time models the real bytes."""
        return b"\x42" * max(1, min(int(request.nbytes), 1024))

    # -- terminal accounting -------------------------------------------------
    def _finish(self, request: Request, outcome: str,
                in_flight: bool = False) -> None:
        """Account exactly one terminal outcome for a request."""
        request.outcome = outcome
        self._m_outcomes[(request.tenant, outcome)].add(1)
        if outcome == "served":
            self._m_goodput[request.tenant].add(request.nbytes)
        if outcome in ("served", "served_degraded"):
            self._s_latency.record(self.sim.now - request.submitted)
        if outcome == "shed":
            self._hub.bus.publish(
                "frontdoor.shed", subject=request.tenant, severity=WARNING,
                priority=request.priority_name, seq=request.seq,
                shed_floor=self.core.shed.shed_floor)
        if in_flight:
            self.core.settle()
        if self.on_terminal is not None:
            self.on_terminal(request, outcome)

    def _dead_letter(self, request: Request, error: Optional[str],
                     attempts: list[tuple[float, str]]) -> None:
        self.dlq.push(
            payload=request.url, error=error or "retries exhausted",
            attempts=attempts, source=f"{self.name}:{request.tenant}",
            time=self.sim.now, nbytes=request.nbytes)
        self._finish(request, "dead_lettered", in_flight=True)

    # -- drill support -------------------------------------------------------
    def flush_queue(self) -> int:
        """Shed everything still queued (drill finalisation); returns count."""
        drained = self.core.drain()
        for request in drained:
            self._finish(request, "shed", in_flight=True)
        return len(drained)

    def accounting(self) -> dict:
        """The zero-silent-loss balance sheet over submissions and
        terminal outcomes (see :meth:`AdmissionCore.books`); ``queued`` and
        ``in_flight`` must also be 0 at quiescence."""
        reg = self._hub.registry
        submitted = int(reg.total("frontdoor.requests_total"))
        terminal = {o: 0 for o in OUTCOMES}
        for labels, instrument in reg.samples("frontdoor.outcomes_total"):
            terminal[labels["outcome"]] += int(instrument.value)
        return {"submitted": submitted, "terminal": terminal,
                **self.core.books(submitted, sum(terminal.values()))}

    def stats(self) -> dict:
        """Headline front-door numbers (machine-readable)."""
        acct = self.accounting()
        return {
            **self.core.stats(),
            "submitted": acct["submitted"],
            "terminal": acct["terminal"],
            "silent_loss": acct["silent_loss"],
            "queued": acct["queued"],
            "admitted_retries": int(self._m_admitted_retries.value),
            "backend_retries": int(self._m_retries.value),
            "dlq_depth": self.dlq.depth,
            "dlq_evicted": self.dlq.evicted_count,
        }

    def __repr__(self) -> str:  # pragma: no cover
        return (f"<FrontDoor enabled={self.core.enabled} "
                f"queued={self.core.queue.depth} "
                f"in_flight={self.core.in_flight}>")
