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

Each connection is an :class:`asyncio.Protocol` over a sans-IO
:class:`~repro.adal.wire.protocol.FrameDecoder`, and every reply is one
``transport.write``: service workers never wait on a socket.
Backpressure is per connection, through reading: it pauses while the
admission queue is above its high-water mark (until the low-water mark)
and while its transport's write buffer is full, so a slow reader holds
at most the replies to requests it already sent.

Every decoded request reaches exactly one terminal response (result,
typed error, rejection, or deadline failure) — :meth:`accounting`
carries the front door's zero-silent-loss balance sheet over the wire.
"""

from __future__ import annotations

import asyncio
import math
import time
import weakref
from dataclasses import dataclass
from typing import Any, Optional, Sequence

from repro.adal.api import AdalClient
from repro.adal.auth import Credentials, TokenAuth
from repro.adal.errors import BackendUnavailableError
from repro.adal.wire.errors import WireProtocolError
from repro.adal.wire.protocol import (
    OPS,
    FrameDecoder,
    encode_frame,
    error_envelope,
    limit_from_wire,
    query_from_wire,
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

#: Per-tenant admission queue bound; connections stop reading at the
#: high-water share of the total capacity and resume at the low-water share.
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


def _tags(args: dict) -> list:
    """A request's ``tags``: absent or a list (not a string's letters)."""
    if not isinstance(tags := args.get("tags") or [], list):
        raise WireProtocolError("tags must be a list")
    return tags


class _Connection(asyncio.Protocol):
    """One client connection: frames in through the decoder, replies out
    through ``transport.write``.  Reading pauses on admission backpressure
    (``stalled``) or a full write buffer (``blocked``), and buffered frames
    wait for the resume.  At the peer's EOF the connection dispatches what
    it buffered, then closes; later replies count as send failures."""

    def __init__(self, server: "WireServer"):
        self.server = server
        self.transport: Optional[asyncio.Transport] = None
        self.decoder = FrameDecoder(server._m_bytes_read.add)
        self.lost = asyncio.get_running_loop().create_future()
        #: Authenticated principal name (None until an ``auth`` op succeeds).
        self.principal: Optional[str] = None
        #: Tenant the connection's requests default to.
        self.tenant: Optional[str] = None
        self.closed = False
        self.stalled = False
        self.blocked = False
        self.eof = False

    def connection_made(self, transport: asyncio.Transport) -> None:
        self.transport = transport
        self.server._conns.add(self)
        self.server._m_connections.add(1)

    def data_received(self, data: bytes) -> None:
        self.decoder.feed(data)
        self.pump()

    def eof_received(self) -> bool:
        self.eof = True
        self.pump()
        return True  # pump() closes once the buffered frames are dispatched

    def connection_lost(self, exc: Optional[Exception]) -> None:
        self.closed = True
        self.server._conns.discard(self)
        self.lost.set_result(None)

    def pause_writing(self) -> None:
        self.blocked = True
        self.transport.pause_reading()

    def resume_writing(self) -> None:
        self.blocked = False
        self.resume()

    def resume(self) -> None:
        """Read and dispatch again unless still paused for another cause."""
        if not (self.stalled or self.blocked or self.closed):
            self.transport.resume_reading()
            self.pump()

    def pump(self) -> None:
        """Dispatch buffered frames until none is whole or reading pauses."""
        server = self.server
        try:
            while server._running and not (
                    self.stalled or self.blocked or self.closed):
                if server.core.queue.depth >= server.high_water:
                    server._stall(self)
                    return
                message = self.decoder.next_message()
                if message is None:
                    if self.eof:
                        self.decoder.eof()
                        self.close()
                    return
                server._dispatch(self, message)
        except WireProtocolError:
            self.close()  # protocol violation: drop the connection

    def close(self) -> None:
        """Close once the replies already written are flushed."""
        self.closed = True
        self.transport.close()


@dataclass
class WireRequest:
    """One admitted wire operation (shape the admission queue expects)."""

    conn: _Connection
    message_id: Any
    op: str
    args: dict
    tenant: str
    priority: int
    deadline: Deadline
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
        # Nothing this server owns refers back to it (the clock and the
        # gauges capture what they read, the core holds the drop callback
        # weakly), so a stopped server and its store are freed with the
        # last reference to it, not at the next full collection.
        t0 = time.monotonic()
        self._clock = lambda: time.monotonic() - t0
        self._hub = TelemetryHub(clock=self._clock)
        on_drop = weakref.WeakMethod(self._on_queue_drop)
        self.core = AdmissionCore(
            self._clock, specs, enabled=True, queue_capacity=QUEUE_CAPACITY,
            codel_target=CODEL_TARGET, codel_interval=CODEL_INTERVAL,
            brownout_target=BROWNOUT_TARGET, bus=self._hub.bus,
            subject=self.name, is_write=self._writes_in,
            on_drop=lambda request, reason: on_drop()(request, reason))
        total_capacity = QUEUE_CAPACITY * len(specs)
        self.high_water = int(total_capacity * HIGH_WATER)
        self.low_water = int(total_capacity * LOW_WATER)
        self._running = False
        self._server: Optional[asyncio.base_events.Server] = None
        self._worker_tasks: list[asyncio.Task] = []
        self._conns: set[_Connection] = set()
        #: Connections paused on admission backpressure.
        self._stalled: list[_Connection] = []
        self._arrival = asyncio.Event()
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
            "Times a connection paused reading on a full admission queue")
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
        core, conns = self.core, self._conns
        reg.gauge_fn("wire.queue_depth",
                     lambda: float(core.queue.depth),
                     "Requests in the wire admission queue")
        reg.gauge_fn("wire.in_flight",
                     lambda: float(core.in_flight),
                     "Requests currently in service")
        reg.gauge_fn("wire.open_connections",
                     lambda: float(len(conns)),
                     "Currently open client connections")

    # -- lifecycle -----------------------------------------------------------
    async def start(self) -> None:
        """Bind the listener and start the worker pool."""
        if self._server is not None:
            raise RuntimeError("server already started")
        self._running = True
        loop = asyncio.get_running_loop()
        self._server = await loop.create_server(
            lambda: _Connection(self), host=self.host, port=self.port)
        self.port = self._server.sockets[0].getsockname()[1]
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
        server, self._server = self._server, None
        server.close()
        # Everything still queued gets a terminal "closed" response.
        for request in self.core.drain():
            self._respond(request, _error(
                request.message_id, "closed", "server shutting down"), "closed")
        self._arrival.set()
        for task in self._worker_tasks:
            task.cancel()
        await asyncio.gather(*self._worker_tasks, return_exceptions=True)
        self._worker_tasks = []
        conns = list(self._conns)
        for conn in conns:
            conn.close()
            if conn.transport.get_write_buffer_size():
                conn.transport.abort()  # the peer is not reading: drop it
        await asyncio.gather(*(conn.lost for conn in conns))
        await server.wait_closed()

    # -- admission backpressure ----------------------------------------------
    def _stall(self, conn: _Connection) -> None:
        """Pause a connection's reading on a full admission queue."""
        conn.stalled = True
        conn.transport.pause_reading()
        self._stalled.append(conn)
        self._m_backpressure.add(1)
        self._hub.bus.publish(
            "wire.backpressure", subject=self.name, severity=WARNING,
            depth=self.core.queue.depth, high_water=self.high_water)

    def _unstall(self) -> None:
        """Resume every stalled connection (the queue is at low water)."""
        stalled, self._stalled = self._stalled, []
        for conn in stalled:
            conn.stalled = False
            conn.resume()

    # -- admission -----------------------------------------------------------
    def _dispatch(self, conn: _Connection, message: dict) -> None:
        """Validate, authenticate and admit one decoded message."""
        message_id = message.get("id")
        op = message.get("op")
        if op not in OPS or (op == "stall" and not self.debug_ops):
            self._m_requests["unknown"].add(1)
            self._send(conn, error_envelope(
                message_id,
                WireProtocolError(f"unknown op {op!r}")), status="error")
            return
        self._m_requests[op].add(1)
        try:
            args, tenant, priority, budget = self._envelope_fields(op, message)
        except WireProtocolError as exc:
            self._send(conn, error_envelope(message_id, exc), "error")
            return
        if op == "auth":
            self._handle_auth(conn, message_id, args)
            return
        if self.auth is not None:
            session = message.get("session")
            principal = None
            if session is not None:
                try:
                    principal = self.auth.authenticate_session(session).name
                except Exception as exc:
                    self._send(conn, error_envelope(message_id, exc),
                               "error")
                    return
            if principal is None:
                principal = conn.principal
            if self.require_auth and principal is None and op != "ping":
                self._send(conn, error_envelope(
                    message_id,
                    WireProtocolError("authentication required")),
                    status="error")
                return
        nops = len(args["ops"]) if op == "batch" else 1
        tenant = tenant or conn.tenant or self._fallback_tenant
        if tenant not in self.tenants:
            tenant = self._fallback_tenant
        request = WireRequest(
            conn=conn, message_id=message_id, op=op, args=args,
            tenant=tenant, priority=priority,
            deadline=Deadline(self._clock(), budget), nops=max(1, nops))
        reason = self.core.admit(request, request.nops)
        if reason is not None:
            self._m_rejected[reason].add(1)
            self._send(conn, _error(
                message_id, "rejected", f"request rejected: {reason}",
                reason=reason), "rejected")
            return
        self._arrival.set()

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

    def _handle_auth(self, conn: _Connection, message_id: Any,
                     args: dict) -> None:
        """Issue a session token for static credentials (auth op)."""
        if self.auth is None:
            self._send(conn, error_envelope(
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
            self._send(conn, error_envelope(message_id, exc), "error")
            return
        conn.principal = session.subject
        if tenant in self.tenants:
            conn.tenant = tenant
        self._m_sessions.add(1)
        self._send(conn, {
            "id": message_id, "ok": True,
            "result": {"session": session.token,
                       "subject": session.subject,
                       "expires": session.expires}}, status="ok")

    # -- queue callbacks -----------------------------------------------------
    def _on_queue_drop(self, request: WireRequest, reason: str) -> None:
        """Answer a request the admission queue dropped (expired / shed),
        inside the ``queue.pop()`` that dropped it."""
        if reason == "expired":
            self._respond(request, _error(
                request.message_id, "deadline",
                f"budget of {request.deadline.budget:.3f}s expired in queue"),
                "deadline")
        else:
            self._respond(request, _error(
                request.message_id, "rejected",
                "request shed under overload", reason="shed"), "shed")

    # -- workers -------------------------------------------------------------
    async def _worker(self) -> None:
        """One service worker: drain the queue, idle-wait on arrivals."""
        queue = self.core.queue
        while self._running:
            request = queue.pop()
            if self._stalled and queue.depth <= self.low_water:
                self._unstall()
            if request is None:
                self._arrival.clear()
                if queue.depth == 0 and self._running:
                    await self._arrival.wait()
                continue
            try:
                await self._serve(request)
            except asyncio.CancelledError:
                # Cancelled (stop()): the popped request still gets its
                # terminal response before the worker dies.
                self._respond(request, _error(
                    request.message_id, "closed", "server shutting down"),
                    "closed")
                raise

    async def _serve(self, request: WireRequest) -> None:
        """Execute one admitted request and send its terminal response."""
        started = self._clock()
        try:
            if request.op == "batch":
                ops = request.args["ops"]
                results = self._execute_batch(ops)
                self._m_batches.add(1)
                self._h_batch_size.observe(float(len(ops)))
                result: Any = results
            elif request.op == "stall":
                await asyncio.sleep(float(request.args.get("seconds", 0.01)))
                result = {"stalled": True}
            else:
                result = self._execute(request.op, request.args)
        except Exception as exc:
            self._respond(request, error_envelope(
                request.message_id, exc), "error")
            return
        self._s_service.record(self._clock() - started)
        self._respond(request, {"id": request.message_id, "ok": True,
                                "result": result}, "ok")

    # -- operation execution -------------------------------------------------
    def _execute_batch(self, ops: list) -> list[dict]:
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
                results.extend(self._register_run(run))
                continue
            if not isinstance(sub, dict):
                results.append(self._sub_error(
                    WireProtocolError("batch entries must be objects")))
            else:
                try:
                    results.append({"ok": True, "result": self._execute(
                        sub.get("op"), sub.get("args") or {})})
                except Exception as exc:
                    results.append(self._sub_error(exc))
            index += 1
        return results

    def _register_run(self, run: list[dict]) -> list[dict]:
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
                                self._execute("register", args)})
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
            "tags": _tags(args),
        }

    def _execute(self, op: Optional[str], args: dict) -> Any:
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
            self.store.tag(args["dataset_id"], *_tags(args))
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
    def _respond(self, request: WireRequest, message: dict,
                 status: str) -> None:
        """The one terminal response of a request that left the queue."""
        if not request.finished:
            request.finished = True
            self._send(request.conn, message, status, settles=True)

    def _send(self, conn: _Connection, message: dict,
              status: str, settles: bool = False) -> None:
        """Write one terminal response; count it even if the peer is gone.

        ``settles`` closes an admitted request's books in the same step
        that counts its response, so the balance never shows it twice or
        not at all.  A reply over the frame bound goes out as its error;
        when even that is over (the echoed id is), the connection closes.
        """
        self._m_responses[status].add(1)
        if settles:
            self.core.settle()
        if conn.closed:
            self._m_send_failures.add(1)
            return
        try:
            frame = encode_frame(message)
        except WireProtocolError as exc:
            try:
                frame = encode_frame(error_envelope(message["id"], exc))
            except WireProtocolError:
                self._m_send_failures.add(1)
                conn.close()
                return
        conn.transport.write(frame)
        self._m_bytes_written.add(len(frame))

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
