"""The asyncio wire ADAL/metadata service.

:class:`WireServer` is the facility's *real* front door: a TCP service
speaking the length-prefixed JSON protocol of
:mod:`repro.adal.wire.protocol`, fronting a
:class:`~repro.metadata.store.MetadataStore` (durable or not) and,
optionally, an :class:`~repro.adal.api.AdalClient` for object-store ops.

Admission is the front door's own
:class:`~repro.frontdoor.admission.AdmissionCore` (per-tenant token
buckets, the fair queue with CoDel-style shedding, brownout write
degradation, expired-at-pop fail-fast on per-request
:class:`~repro.frontdoor.request.Deadline` budgets, and the books).  The
core takes an injected clock, so the same object that runs on the
simulation clock inside :class:`~repro.frontdoor.service.FrontDoor` here
runs on the wall clock; this module is only its asyncio driver:
connections, envelope checks, execution and replies.

Determinism boundary: everything *behind* the socket — the metadata
store, the WAL, the ADAL backends — is plain synchronous state shared
with the simulated facility; only this module (and its client) touches
wall-clock time and real concurrency.

Backpressure is end to end:

* connection readers pause (stop reading frames) while the admission
  queue is above its high-water mark, resuming below the low-water mark —
  TCP then pushes back on the clients;
* responses are written through ``drain()``, so a slow reader bounds the
  per-connection write buffer instead of ballooning server memory.

Every decoded request reaches exactly one terminal response (result,
typed error, rejection, or deadline failure) — :meth:`accounting`
carries the front door's zero-silent-loss balance sheet over the wire.
"""

from __future__ import annotations

import asyncio
import math
import time
from dataclasses import dataclass
from typing import Any, Optional, Sequence

from repro.adal.api import AdalClient
from repro.adal.auth import Credentials, TokenAuth
from repro.adal.errors import BackendUnavailableError
from repro.adal.wire.errors import WireProtocolError
from repro.adal.wire.protocol import (
    OPS,
    error_envelope,
    limit_from_wire,
    query_from_wire,
    read_frame,
    write_frame,
)
from repro.frontdoor.admission import REJECT_REASONS, AdmissionCore
from repro.frontdoor.request import (
    BATCH,
    INTERACTIVE,
    Deadline,
    TenantSpec,
)
from repro.telemetry.events import INFO, WARNING
from repro.telemetry.hub import TelemetryHub

#: Per-tenant admission queue bound; readers pause above the high-water
#: share of the total capacity and resume at the low-water share.
QUEUE_CAPACITY, HIGH_WATER, LOW_WATER = 1024, 0.75, 0.25
#: The shed controller's sojourn target and escalation interval, and the
#: brownout delay target (seconds), handed to the admission core.
CODEL_TARGET, CODEL_INTERVAL, BROWNOUT_TARGET = 0.25, 1.0, 0.5

#: Terminal response statuses (label pre-registration).
RESPONSE_STATUSES = ("ok", "error", "rejected", "deadline", "shed", "closed")

#: Default priority class per operation.
_OP_PRIORITY = {
    "ping": INTERACTIVE, "auth": INTERACTIVE, "get": INTERACTIVE,
    "stat": INTERACTIVE, "exists": INTERACTIVE,
}

#: Operations the brownout controller treats as writes.
_WRITE_OPS = frozenset({"register", "tag", "add_processing"})


def _error(message_id: Any, kind: str, message: str,
           reason: Optional[str] = None) -> dict:
    """An error response of a given wire ``kind``."""
    envelope = {"id": message_id, "ok": False, "kind": kind, "error": message}
    if reason is not None:
        envelope["reason"] = reason
    return envelope


def _default_tenants() -> tuple[TenantSpec, ...]:
    """A single unlimited public tenant (standalone / bench default)."""
    return (TenantSpec("public", weight=1.0, rate_limit=None),)


@dataclass
class _ConnState:
    """Per-connection server state."""

    writer: asyncio.StreamWriter
    index: int
    #: Authenticated principal name (None until an ``auth`` op succeeds).
    principal: Optional[str] = None
    #: Tenant the connection's requests default to.
    tenant: Optional[str] = None
    closed: bool = False


@dataclass
class WireRequest:
    """One admitted wire operation (shape the admission queue expects)."""

    conn: _ConnState
    message_id: Any
    op: str
    args: dict
    tenant: str
    priority: int
    deadline: Deadline
    submitted: float
    seq: int
    #: Coalesced operation count (len(ops) for a batch, else 1).
    nops: int = 1
    #: Set by the admission queue when the request is enqueued.
    enqueued: float = 0.0
    #: Guard: exactly one terminal response per request.
    finished: bool = False


class WireServer:
    """Admission-controlled asyncio metadata/ADAL service.

    Parameters
    ----------
    store:
        The metadata repository served (a
        :class:`~repro.durability.durable.DurableMetadataStore` enables
        the group-commit fast path for batched registers).
    adal:
        Optional :class:`~repro.adal.api.AdalClient` backing the
        ``stat``/``exists`` object ops (``unavailable`` errors without it).
    auth:
        Optional :class:`~repro.adal.auth.TokenAuth`; enables the ``auth``
        op (session issue) and session validation.  With
        ``require_auth=True`` every non-auth/ping op needs a live session.
    tenants:
        :class:`~repro.frontdoor.request.TenantSpec` per community
        (admission weights + rate limits).  Default: one unlimited
        ``public`` tenant.
    workers:
        Concurrent service tasks draining the admission queue.
    deadlines:
        Default budgets (seconds) by priority class when a request names
        none.
    debug_ops:
        Enables the test-only ``stall`` op (asyncio sleep in service).

    Admission runs on ``self.core`` with every defence on; metrics and
    events go to a private :attr:`telemetry` hub on a relative wall clock.
    """

    name = "wire"

    def __init__(
        self,
        store,
        adal: Optional[AdalClient] = None,
        auth: Optional[TokenAuth] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        tenants: Optional[Sequence[TenantSpec]] = None,
        workers: int = 4,
        deadlines: tuple[float, float, float] = (5.0, 15.0, 60.0),
        require_auth: bool = False,
        debug_ops: bool = False,
    ):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.store = store
        self.adal = adal
        self.auth = auth
        self.host = host
        self.port = port
        self.require_auth = require_auth
        self.debug_ops = debug_ops
        self.workers = workers
        self.deadlines = deadlines
        specs = tuple(tenants) if tenants else _default_tenants()
        self.tenants = {spec.name: spec for spec in specs}
        self._fallback_tenant = specs[0].name
        self._t0 = time.monotonic()
        self._clock = lambda: time.monotonic() - self._t0
        self._hub = TelemetryHub(clock=self._clock)
        self.core = AdmissionCore(
            self._clock, specs, enabled=True, queue_capacity=QUEUE_CAPACITY,
            codel_target=CODEL_TARGET, codel_interval=CODEL_INTERVAL,
            brownout_target=BROWNOUT_TARGET, bus=self._hub.bus,
            subject=self.name, is_write=self._writes_in,
            on_drop=self._on_queue_drop)
        total_capacity = QUEUE_CAPACITY * len(specs)
        self.high_water = int(total_capacity * HIGH_WATER)
        self.low_water = int(total_capacity * LOW_WATER)
        self._seq = 0
        self._open_conns = 0
        self._conn_seq = 0
        self._running = False
        self._server: Optional[asyncio.base_events.Server] = None
        self._worker_tasks: list[asyncio.Task] = []
        self._conns: dict[int, _ConnState] = {}
        self._drops: list[tuple[WireRequest, str]] = []
        self._arrival: Optional[asyncio.Event] = None
        self._space: Optional[asyncio.Event] = None
        self._build_instruments()

    # -- instruments ---------------------------------------------------------
    def _build_instruments(self) -> None:
        reg = self._hub.registry
        # "unknown" counts the messages answered with an unknown-op error.
        self._m_requests = {
            op: reg.counter("wire.requests_total",
                            "Wire requests decoded, by operation", op=op)
            for op in OPS + ("unknown",)}
        self._m_responses = {
            status: reg.counter("wire.responses_total",
                                "Terminal wire responses, by status",
                                status=status)
            for status in RESPONSE_STATUSES}
        self._m_rejected = {
            reason: reg.counter("wire.rejected_total",
                                "Requests refused at wire admission",
                                reason=reason)
            for reason in REJECT_REASONS}
        self._m_batches = reg.counter(
            "wire.batches_total", "Batch envelopes served")
        self._h_batch_size = reg.histogram(
            "wire.batch_size",
            buckets=(1, 2, 4, 8, 16, 32, 64, 128, 256),
            help="Coalesced operations per served batch envelope")
        self._m_group_commits = reg.counter(
            "wire.group_commits_total",
            "Batched register runs flushed through the WAL fast path")
        self._m_batch_fallbacks = reg.counter(
            "wire.batch_fallbacks_total",
            "Register runs that fell back to per-item registration")
        self._m_backpressure = reg.counter(
            "wire.backpressure_stalls_total",
            "Times a connection reader paused on a full admission queue")
        self._m_connections = reg.counter(
            "wire.connections_total", "Connections accepted")
        self._m_bytes_read = reg.counter(
            "wire.bytes_read_total", "Frame bytes read", unit="bytes")
        self._m_bytes_written = reg.counter(
            "wire.bytes_written_total", "Frame bytes written", unit="bytes")
        self._m_send_failures = reg.counter(
            "wire.send_failures_total",
            "Responses lost to an already-dead connection")
        self._m_sessions = reg.counter(
            "wire.auth_sessions_total", "Sessions issued by the auth op")
        self._s_service = reg.summary(
            "wire.service_seconds",
            "Dequeue-to-response service time of ok responses", unit="s")
        reg.gauge_fn("wire.queue_depth",
                     lambda: float(self.core.queue.depth),
                     "Requests in the wire admission queue")
        reg.gauge_fn("wire.in_flight",
                     lambda: float(self.core.in_flight),
                     "Requests currently in service")
        reg.gauge_fn("wire.open_connections",
                     lambda: float(self._open_conns),
                     "Currently open client connections")

    # -- lifecycle -----------------------------------------------------------
    async def start(self) -> None:
        """Bind the listener and start the worker pool."""
        if self._server is not None:
            raise RuntimeError("server already started")
        self._running = True
        self._arrival = asyncio.Event()
        self._space = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle_conn, host=self.host, port=self.port)
        self.port = self._server.sockets[0].getsockname()[1]
        loop = asyncio.get_running_loop()
        self._worker_tasks = [
            loop.create_task(self._worker(), name=f"{self.name}.worker{i:02d}")
            for i in range(self.workers)
        ]
        self._hub.bus.publish(
            "wire.listening", subject=self.name, severity=INFO,
            host=self.host, port=self.port, workers=self.workers)

    async def stop(self) -> None:
        """Stop accepting, fail queued work, close connections and workers."""
        if self._server is None:
            return
        self._running = False
        self._server.close()
        await self._server.wait_closed()
        self._server = None
        # Everything still queued gets a terminal "closed" response.
        for request in self.core.drain():
            await self._respond(request, _error(
                request.message_id, "closed", "server shutting down"), "closed")
        self._arrival.set()
        self._space.set()
        for task in self._worker_tasks:
            task.cancel()
        await asyncio.gather(*self._worker_tasks, return_exceptions=True)
        self._worker_tasks = []
        await self._flush_drops()  # drops a cancelled worker left parked
        for state in list(self._conns.values()):
            state.closed = True
            state.writer.close()
        for state in list(self._conns.values()):
            try:
                await state.writer.wait_closed()
            except (ConnectionError, OSError):
                pass  # peer already gone; the close still completed
        self._conns.clear()

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` (port is concrete after ``start``)."""
        return (self.host, self.port)

    # -- connection handling -------------------------------------------------
    async def _handle_conn(self, reader: asyncio.StreamReader,
                           writer: asyncio.StreamWriter) -> None:
        self._conn_seq += 1
        state = _ConnState(writer=writer, index=self._conn_seq)
        self._conns[state.index] = state
        self._open_conns += 1
        self._m_connections.add(1)
        try:
            while self._running:
                await self._backpressure_gate()
                if not self._running:
                    break
                message = await read_frame(
                    reader, on_bytes=self._m_bytes_read.add)
                if message is None:
                    break
                await self._dispatch(state, message)
        except WireProtocolError:
            pass  # protocol violation: drop the connection (counted below)
        except (ConnectionError, OSError):
            pass  # peer vanished mid-read; nothing left to answer
        finally:
            state.closed = True
            self._open_conns -= 1
            self._conns.pop(state.index, None)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass  # close of a dead socket; already disconnected

    async def _backpressure_gate(self) -> None:
        """Pause reading while the admission queue is above high water."""
        queue = self.core.queue
        if queue.depth < self.high_water:
            return
        self._m_backpressure.add(1)
        self._hub.bus.publish(
            "wire.backpressure", subject=self.name, severity=WARNING,
            depth=queue.depth, high_water=self.high_water)
        while self._running and queue.depth > self.low_water:
            self._space.clear()
            if queue.depth <= self.low_water:
                break
            await self._space.wait()

    # -- admission -----------------------------------------------------------
    async def _dispatch(self, state: _ConnState, message: dict) -> None:
        """Validate, authenticate and admit one decoded message."""
        message_id = message.get("id")
        op = message.get("op")
        if op not in OPS or (op == "stall" and not self.debug_ops):
            self._m_requests["unknown"].add(1)
            await self._send(state, error_envelope(
                message_id,
                WireProtocolError(f"unknown op {op!r}")), status="error")
            return
        self._m_requests[op].add(1)
        try:
            args, tenant, priority, budget = self._envelope_fields(op, message)
        except WireProtocolError as exc:
            await self._send(state, error_envelope(message_id, exc),
                             status="error")
            return
        if op == "auth":
            await self._handle_auth(state, message_id, args)
            return
        if self.auth is not None:
            session = message.get("session")
            principal = None
            if session is not None:
                try:
                    principal = self.auth.authenticate_session(session).name
                except Exception as exc:
                    await self._send(state, error_envelope(message_id, exc),
                                     status="error")
                    return
            if principal is None:
                principal = state.principal
            if self.require_auth and principal is None and op != "ping":
                await self._send(state, error_envelope(
                    message_id,
                    WireProtocolError("authentication required")),
                    status="error")
                return
        nops = len(args["ops"]) if op == "batch" else 1
        tenant = tenant or state.tenant or self._fallback_tenant
        if tenant not in self.tenants:
            tenant = self._fallback_tenant
        now = self._clock()
        self._seq += 1
        request = WireRequest(
            conn=state, message_id=message_id, op=op, args=args,
            tenant=tenant, priority=priority,
            deadline=Deadline(now, budget), submitted=now,
            seq=self._seq, nops=max(1, nops))
        reason = self.core.admit(request, request.nops)
        if reason is not None:
            self._m_rejected[reason].add(1)
            await self._send(state, _error(
                message_id, "rejected", f"request rejected: {reason}",
                reason=reason), "rejected")
            return
        self._arrival.set()
        # Queue-side drops (expired / shed) surfaced by a concurrent pop
        # must be answered promptly even if every worker is busy.
        await self._flush_drops()

    def _envelope_fields(self, op: str, message: dict) -> tuple:
        """The client-set envelope fields ``(args, tenant, priority,
        budget)``, type- and range-checked: they arrive off the socket and
        index the deadline table and the per-priority queues."""
        args = message.get("args") or {}
        if not isinstance(args, dict):
            raise WireProtocolError("args must be an object")
        if op == "batch" and not isinstance(args.get("ops"), list):
            raise WireProtocolError("batch needs an 'ops' list")
        tenant = message.get("tenant")
        if tenant is not None and not isinstance(tenant, str):
            raise WireProtocolError("tenant must be a string")
        priority = message.get("priority", _OP_PRIORITY.get(op, BATCH))
        if type(priority) is not int or not 0 <= priority < len(self.deadlines):
            raise WireProtocolError(
                f"priority must be an integer in 0..{len(self.deadlines) - 1}")
        budget = message.get("budget", self.deadlines[priority])
        if (type(budget) not in (int, float) or not math.isfinite(budget)
                or budget <= 0):
            raise WireProtocolError("budget must be a finite number > 0")
        return args, tenant, priority, float(budget)

    @staticmethod
    def _writes_in(request: WireRequest) -> bool:
        """Whether the request carries any write op (brownout policy)."""
        if request.op == "batch":
            return any(isinstance(sub, dict) and sub.get("op") in _WRITE_OPS
                       for sub in request.args["ops"])
        return request.op in _WRITE_OPS

    async def _handle_auth(self, state: _ConnState, message_id: Any,
                           args: dict) -> None:
        """Issue a session token for static credentials (auth op)."""
        if self.auth is None:
            await self._send(state, error_envelope(
                message_id,
                WireProtocolError("server has no auth provider")),
                status="error")
            return
        tenant = args.get("tenant")
        try:
            if tenant is not None and not isinstance(tenant, str):
                raise WireProtocolError("tenant must be a string")
            session = self.auth.issue_session(
                Credentials(str(args.get("subject", "")),
                            args.get("token")),
                ttl=float(args.get("ttl", 3600.0)))
        except Exception as exc:
            await self._send(state, error_envelope(message_id, exc),
                             status="error")
            return
        state.principal = session.subject
        if tenant in self.tenants:
            state.tenant = tenant
        self._m_sessions.add(1)
        await self._send(state, {
            "id": message_id, "ok": True,
            "result": {"session": session.token,
                       "subject": session.subject,
                       "expires": session.expires}}, status="ok")

    # -- queue callbacks -----------------------------------------------------
    def _on_queue_drop(self, request: WireRequest, reason: str) -> None:
        # Called synchronously inside queue.pop(); the response needs an
        # await, so park it for the next _flush_drops() call.
        self._drops.append((request, reason))

    async def _flush_drops(self) -> None:
        """Answer requests the admission queue dropped (expired / shed)."""
        while self._drops:
            request, reason = self._drops.pop(0)
            if reason == "expired":
                await self._respond(request, _error(
                    request.message_id, "deadline",
                    f"budget of {request.deadline.budget:.3f}s expired in "
                    "queue"), "deadline")
            else:
                await self._respond(request, _error(
                    request.message_id, "rejected",
                    "request shed under overload", reason="shed"), "shed")

    # -- workers -------------------------------------------------------------
    async def _worker(self) -> None:
        """One service worker: drain the queue, idle-wait on arrivals."""
        queue = self.core.queue
        while self._running:
            request = queue.pop()
            if request is None:
                await self._flush_drops()
                self._arrival.clear()
                if queue.depth == 0 and self._running:
                    await self._arrival.wait()
                continue
            try:
                await self._flush_drops()
                await self._serve(request)
            except asyncio.CancelledError:
                # Cancelled (stop()): the popped request still gets its
                # terminal response before the worker dies.
                await self._respond(request, _error(
                    request.message_id, "closed", "server shutting down"),
                    "closed")
                raise
            if queue.depth <= self.low_water:
                self._space.set()

    async def _serve(self, request: WireRequest) -> None:
        """Execute one admitted request and send its terminal response."""
        started = self._clock()
        try:
            if request.op == "batch":
                ops = request.args["ops"]
                results = self._execute_batch(ops, request.conn)
                self._m_batches.add(1)
                self._h_batch_size.observe(float(len(ops)))
                result: Any = results
            elif request.op == "stall":
                await asyncio.sleep(float(request.args.get("seconds", 0.01)))
                result = {"stalled": True}
            else:
                result = self._execute(request.op, request.args, request.conn)
        except Exception as exc:
            await self._respond(request, error_envelope(
                request.message_id, exc), "error")
            return
        self._s_service.record(self._clock() - started)
        await self._respond(request, {"id": request.message_id, "ok": True,
                                      "result": result}, "ok")

    # -- operation execution -------------------------------------------------
    def _execute_batch(self, ops: list, state: _ConnState) -> list[dict]:
        """Serve a coalesced batch: one pass, grouped register fast path."""
        results: list[dict] = []
        index = 0
        while index < len(ops):
            sub = ops[index]
            if isinstance(sub, dict) and sub.get("op") == "register":
                run = []
                while (index < len(ops) and isinstance(ops[index], dict)
                       and ops[index].get("op") == "register"):
                    run.append(ops[index].get("args") or {})
                    index += 1
                results.extend(self._register_run(run, state))
                continue
            if not isinstance(sub, dict):
                results.append(self._sub_error(
                    WireProtocolError("batch entries must be objects")))
            else:
                try:
                    results.append({"ok": True, "result": self._execute(
                        sub.get("op"), sub.get("args") or {}, state)})
                except Exception as exc:
                    results.append(self._sub_error(exc))
            index += 1
        return results

    def _register_run(self, run: list[dict], state: _ConnState) -> list[dict]:
        """Serve a run of register ops — group-commit when the store can.

        The durable store's :meth:`register_batch` appends every WAL
        record in one flush (all-or-nothing).  When the batch fails as a
        whole (one bad item), fall back to per-item registration so each
        op still gets its own typed outcome — the end state is identical
        because the failed batch applied nothing.
        """
        if len(run) > 1 and hasattr(self.store, "register_batch"):
            try:
                records = self.store.register_batch(
                    [self._register_kwargs(args) for args in run])
            except Exception:
                # All-or-nothing batch refused (one bad item): nothing was
                # applied, so fall through to per-item registration for
                # detailed per-op outcomes.
                self._m_batch_fallbacks.add(1)
            else:
                self._m_group_commits.add(1)
                return [{"ok": True, "result": {"dataset_id": r.dataset_id}}
                        for r in records]
        results = []
        for args in run:
            try:
                results.append({"ok": True, "result":
                                self._execute("register", args, state)})
            except Exception as exc:
                results.append(self._sub_error(exc))
        return results

    @staticmethod
    def _sub_error(exc: BaseException) -> dict:
        envelope = error_envelope(None, exc)
        envelope.pop("id", None)
        return envelope

    @staticmethod
    def _register_kwargs(args: dict) -> dict:
        return {
            "dataset_id": args["dataset_id"],
            "project": args["project"],
            "url": args["url"],
            "size": int(args["size"]),
            "checksum": args["checksum"],
            "basic": args.get("basic") or {},
            "created": float(args.get("created", 0.0)),
            "tags": args.get("tags") or (),
        }

    def _execute(self, op: Optional[str], args: dict,
                 state: _ConnState) -> Any:
        """Run one (non-batch) operation against the store / ADAL."""
        if op == "ping":
            return {"pong": True, "now": self._clock()}
        if op == "register":
            record = self.store.register_dataset(**self._register_kwargs(args))
            return {"dataset_id": record.dataset_id}
        if op == "get":
            return self.store.get(args["dataset_id"]).to_dict()
        if op == "query":
            query = query_from_wire(args["q"])
            limit = limit_from_wire(args.get("limit"))
            hits = self.store.query(query, limit) if limit != 0 else []
            if args.get("ids_only"):
                return {"ids": [r.dataset_id for r in hits],
                        "count": len(hits)}
            return {"records": [r.to_dict() for r in hits],
                    "count": len(hits)}
        if op == "tag":
            self.store.tag(args["dataset_id"], *args.get("tags", ()))
            return {"dataset_id": args["dataset_id"]}
        if op == "add_processing":
            step = self.store.add_processing(
                args["dataset_id"], args["name"],
                args.get("params") or {}, args.get("results") or {},
                float(args.get("started", 0.0)),
                float(args.get("finished", 0.0)),
                status=args.get("status", "success"),
                parent=args.get("parent"))
            return {"step_id": step.step_id}
        if op in ("stat", "exists"):
            if self.adal is None:
                raise BackendUnavailableError("no ADAL client behind this server")
            if op == "exists":
                return {"exists": self.adal.exists(args["url"])}
            info = self.adal.stat(args["url"])
            return {"url": info.url, "size": info.size,
                    "checksum": info.checksum, "created": info.created}
        raise WireProtocolError(f"unknown op {op!r}")

    # -- responses -----------------------------------------------------------
    async def _respond(self, request: WireRequest, message: dict,
                       status: str) -> None:
        """The one terminal response of a request that left the queue."""
        if not request.finished:
            request.finished = True
            await self._send(request.conn, message, status, settles=True)

    async def _send(self, state: _ConnState, message: dict,
                    status: str, settles: bool = False) -> None:
        """Write one terminal response; count it even if the peer is gone.

        ``settles`` closes an admitted request's books in the same step
        that counts its response, so the balance never shows it twice or
        not at all.
        """
        self._m_responses[status].add(1)
        if settles:
            self.core.settle()
        if state.closed:
            self._m_send_failures.add(1)
            return
        try:
            self._m_bytes_written.add(
                await write_frame(state.writer, message))
        except (ConnectionError, OSError):
            self._m_send_failures.add(1)

    # -- accounting ----------------------------------------------------------
    def accounting(self) -> dict:
        """The zero-silent-loss balance over decoded requests and terminal
        responses (see :meth:`AdmissionCore.books`).  ``auth``, unknown-op
        and malformed-envelope messages respond inline and count on both
        sides; unknown ops count under ``op="unknown"``."""
        reg = self._hub.registry
        received = int(reg.total("wire.requests_total"))
        responded = int(reg.total("wire.responses_total"))
        return {"received": received, "responded": responded,
                **self.core.books(received, responded)}

    def stats(self) -> dict:
        """Headline wire-service numbers (machine-readable)."""
        reg = self._hub.registry
        return {
            **self.core.stats(),
            **self.accounting(),
            "batches": int(reg.total("wire.batches_total")),
            "group_commits": int(reg.total("wire.group_commits_total")),
            "backpressure_stalls":
                int(reg.total("wire.backpressure_stalls_total")),
            "connections": int(reg.total("wire.connections_total")),
            "send_failures": int(reg.total("wire.send_failures_total")),
        }

    @property
    def telemetry(self) -> TelemetryHub:
        """The hub carrying every ``wire.*`` metric and event."""
        return self._hub

    def __repr__(self) -> str:  # pragma: no cover
        return (f"<WireServer {self.host}:{self.port} "
                f"queued={self.core.queue.depth} "
                f"in_flight={self.core.in_flight}>")
