"""The pooled, pipelining, auto-batching wire client.

:class:`WireClient` is the performance half of the wire layer:

**Connection pooling.**  Up to ``pool_size`` TCP connections are opened
lazily and reused; each carries at most ``max_in_flight`` outstanding
frames.  When every connection is saturated, callers wait up to
``acquire_timeout`` for capacity and then get a
:class:`~repro.adal.wire.errors.PoolExhaustedError` — which subclasses
:class:`~repro.adal.errors.BackendUnavailableError`, so retry policies
treat a momentarily-full pool as the transient fault it is.

**Pipelining.**  Requests carry client-assigned ids; each connection is
an :class:`asyncio.Protocol` over a sans-IO
:class:`~repro.adal.wire.protocol.FrameDecoder` with an id-keyed table of
pending futures, which ``data_received`` resolves as responses arrive,
in whatever order the server finishes them.  Nothing waits for a round
trip before the next frame goes out; the ``max_in_flight`` bound is the
connection's flow control.

**Automatic batching.**  Batchable calls are appended to a pending list
and a flusher task coalesces them into ``batch`` frames (one framed
envelope carrying N ops, served by one admission pass server-side).
There is no timer window: while the flusher awaits pool capacity,
concurrent callers pile more work onto the list, so batch size grows
naturally with concurrency and a lone call still goes out immediately.
Entries are grouped by (tenant, priority, budget, session) so one
envelope's admission metadata is exact for every op inside it.

The client is wall-clock, single-event-loop code: create and use it from
one running loop.  It never touches the simulated facility's clock.
"""

from __future__ import annotations

import asyncio
import time
from typing import Any, Optional

from repro.adal.wire.errors import PoolExhaustedError, WireClosedError
from repro.adal.wire.protocol import (
    FrameDecoder,
    WireProtocolError,
    encode_frame,
    error_from,
    query_to_wire,
)
from repro.metadata.query import Query
from repro.telemetry.hub import TelemetryHub

#: Operations the flusher may coalesce into batch envelopes.
BATCHABLE_OPS = frozenset(
    {"ping", "register", "get", "query", "tag", "add_processing",
     "stat", "exists"})


class _PendingCall:
    """One submitted call waiting to be framed by the flusher."""

    __slots__ = ("op", "args", "future", "key")

    def __init__(self, op: str, args: dict, future: asyncio.Future,
                 key: tuple):
        self.op = op
        self.args = args
        self.future = future
        self.key = key


class _WireConnection(asyncio.Protocol):
    """One pooled TCP connection: id-keyed pending futures, resolved as
    response frames arrive."""

    def __init__(self, client: "WireClient"):
        self._client = client
        self.transport: Optional[asyncio.Transport] = None
        self._decoder = FrameDecoder(client._m_bytes_read.add)
        self._pending: dict[int, asyncio.Future] = {}
        self._next_id = 0
        self._lost = asyncio.get_running_loop().create_future()
        self.closed = False

    @property
    def in_flight(self) -> int:
        """Outstanding frames awaiting a response on this connection."""
        return len(self._pending)

    def connection_made(self, transport: asyncio.Transport) -> None:
        self.transport = transport

    def send(self, message: dict,
             future: Optional[asyncio.Future] = None) -> asyncio.Future:
        """Frame and write one request; returns the future its response
        resolves (``future`` when given)."""
        if self.closed:
            raise WireClosedError("connection is closed")
        self._next_id += 1
        message["id"] = self._next_id
        frame = encode_frame(message)
        if future is None:
            future = asyncio.get_running_loop().create_future()
        self._pending[self._next_id] = future
        self.transport.write(frame)
        self._client._m_bytes_written.add(len(frame))
        return future

    def data_received(self, data: bytes) -> None:
        self._decoder.feed(data)
        try:
            for message in iter(self._decoder.next_message, None):
                future = self._pending.pop(message.get("id"), None)
                if future is None or future.done():
                    continue  # stale id (failed send already resolved it)
                if message.get("ok"):
                    future.set_result(message.get("result"))
                else:
                    future.set_exception(error_from(
                        str(message.get("kind", "internal")),
                        str(message.get("error", "")),
                        message.get("reason")))
                self._client._freed.set()
        except Exception as exc:
            # Protocol violation: poison everything pending with the cause.
            self._fail_all(exc)
            self.transport.abort()

    def eof_received(self) -> None:
        self.closed = True
        try:
            self._decoder.eof()
        except WireProtocolError as exc:
            self._fail_all(exc)

    def connection_lost(self, exc: Optional[Exception]) -> None:
        self._fail_all(WireClosedError(
            f"connection lost: {exc}" if exc else "connection closed by server"))
        self._client._freed.set()
        self._lost.set_result(None)

    def _fail_all(self, error: Exception) -> None:
        self.closed = True
        pending, self._pending = self._pending, {}
        for future in pending.values():
            if not future.done():
                future.set_exception(error)

    async def close(self) -> None:
        """Close the socket and fail anything still pending."""
        self.transport.close()
        if self.transport.get_write_buffer_size():
            self.transport.abort()  # the server is not reading: drop it
        self._fail_all(WireClosedError("client closed"))
        await self._lost


class WireClient:
    """Pooled async client for the wire ADAL service.

    Parameters
    ----------
    host, port:
        The :class:`~repro.adal.wire.server.WireServer` address.
    pool_size:
        Maximum concurrently open connections (opened lazily).
    max_in_flight:
        Outstanding frames allowed per connection (the pipelining bound).
    acquire_timeout:
        Seconds a caller waits for pool capacity before
        :class:`~repro.adal.wire.errors.PoolExhaustedError`.
    max_batch:
        Most ops the flusher coalesces into one batch envelope.
    batching:
        ``False`` disables coalescing entirely (the unbatched bench arm);
        every call goes out as its own frame.
    tenant, session, priority, budget:
        Per-call admission defaults stamped on every request envelope.
    telemetry:
        Optional shared :class:`~repro.telemetry.hub.TelemetryHub`; the
        default is a private hub on a relative wall clock.
    """

    def __init__(
        self,
        host: str,
        port: int,
        pool_size: int = 4,
        max_in_flight: int = 32,
        acquire_timeout: float = 5.0,
        max_batch: int = 64,
        batching: bool = True,
        tenant: Optional[str] = None,
        session: Optional[str] = None,
        priority: Optional[int] = None,
        budget: Optional[float] = None,
        telemetry: Optional[TelemetryHub] = None,
    ):
        if pool_size < 1:
            raise ValueError("pool_size must be >= 1")
        if max_in_flight < 1:
            raise ValueError("max_in_flight must be >= 1")
        if max_batch < 2:
            raise ValueError("max_batch must be >= 2")
        self.host = host
        self.port = port
        self.pool_size = pool_size
        self.max_in_flight = max_in_flight
        self.acquire_timeout = acquire_timeout
        self.max_batch = max_batch
        self.batching = batching
        self.tenant = tenant
        self.session = session
        self.priority = priority
        self.budget = budget
        self._t0 = time.monotonic()
        self._clock = lambda: time.monotonic() - self._t0
        if telemetry is None:
            telemetry = TelemetryHub(clock=self._clock)
        self._hub = telemetry
        self._conns: list[_WireConnection] = []
        #: Slots reserved by acquirers currently awaiting a connect.
        self._opening = 0
        self._pending: list[_PendingCall] = []
        self._kick: Optional[asyncio.Event] = None
        self._freed: Optional[asyncio.Event] = None
        self._flusher_task: Optional[asyncio.Task] = None
        self._closed = False
        self._submitted = 0
        self._completed = 0
        self._build_instruments()

    def _build_instruments(self) -> None:
        reg = self._hub.registry
        self._m_requests = reg.counter(
            "wire.client_requests_total", "Calls submitted by the client")
        self._m_batches = reg.counter(
            "wire.client_batches_total", "Batch envelopes sent")
        self._h_batch_size = reg.histogram(
            "wire.client_batch_size",
            buckets=(1, 2, 4, 8, 16, 32, 64, 128, 256),
            help="Ops coalesced per sent batch envelope")
        self._m_pool_reuse = reg.counter(
            "wire.pool_reuse_total", "Acquisitions served by an open connection")
        self._m_pool_opens = reg.counter(
            "wire.pool_opens_total", "New connections opened by the pool")
        self._m_pool_exhausted = reg.counter(
            "wire.pool_exhausted_total",
            "Acquisitions that timed out with the pool saturated")
        self._m_bytes_read = reg.counter(
            "wire.client_bytes_read_total", "Frame bytes read", unit="bytes")
        self._m_bytes_written = reg.counter(
            "wire.client_bytes_written_total", "Frame bytes written",
            unit="bytes")
        self._s_latency = reg.summary(
            "wire.client_latency_seconds",
            "Submit-to-response latency seen by callers", unit="s")

    # -- lifecycle -----------------------------------------------------------
    def _ensure_started(self) -> None:
        if self._kick is None:
            self._kick = asyncio.Event()
            self._freed = asyncio.Event()
            self._flusher_task = asyncio.get_running_loop().create_task(
                self._flusher(), name="wire-client-flusher")

    async def close(self) -> None:
        """Fail pending work, stop the flusher, close every connection."""
        if self._closed:
            return
        self._closed = True
        if self._kick is not None:
            self._kick.set()
        if self._flusher_task is not None:
            self._flusher_task.cancel()
            try:
                await self._flusher_task
            except asyncio.CancelledError:
                pass  # cancellation is the expected shutdown path
        pending, self._pending = self._pending, []
        self._fail(pending, WireClosedError("client closed"))
        for conn in self._conns:
            await conn.close()
        self._conns = []

    async def __aenter__(self) -> "WireClient":
        """Async-context entry (no I/O: connections open lazily)."""
        return self

    async def __aexit__(self, *exc_info) -> None:
        """Async-context exit: :meth:`close`."""
        await self.close()

    # -- the pool ------------------------------------------------------------
    async def _acquire(self) -> _WireConnection:
        """A connection with spare in-flight capacity, or raise.

        Preference order: the least-loaded open connection below the
        in-flight bound (reuse), then a freshly opened one while the pool
        is below ``pool_size``, else wait for capacity until
        ``acquire_timeout`` and raise :class:`PoolExhaustedError`.
        """
        deadline = self._clock() + self.acquire_timeout
        while True:
            if self._closed:
                raise WireClosedError("client closed")
            self._conns = [c for c in self._conns if not c.closed]
            best: Optional[_WireConnection] = None
            for conn in self._conns:
                if conn.in_flight < self.max_in_flight and (
                        best is None or conn.in_flight < best.in_flight):
                    best = conn
            if best is not None:
                self._m_pool_reuse.add(1)
                return best
            if len(self._conns) + self._opening < self.pool_size:
                # Reserve the slot BEFORE awaiting the connect — concurrent
                # acquirers must see it taken or the pool bound is porous.
                self._opening += 1
                loop = asyncio.get_running_loop()
                try:
                    _, conn = await loop.create_connection(
                        lambda: _WireConnection(self), self.host, self.port)
                finally:
                    self._opening -= 1
                    self._freed.set()  # wake waiters to re-examine the pool
                self._conns.append(conn)
                self._m_pool_opens.add(1)
                return conn
            remaining = deadline - self._clock()
            if remaining <= 0:
                self._m_pool_exhausted.add(1)
                raise PoolExhaustedError(
                    f"{len(self._conns)} connections at their "
                    f"{self.max_in_flight}-frame bound for "
                    f"{self.acquire_timeout:.3f}s")
            self._freed.clear()
            try:
                await asyncio.wait_for(self._freed.wait(), timeout=remaining)
            except asyncio.TimeoutError:
                pass  # loop once more; the deadline check raises

    # -- submission ----------------------------------------------------------
    def _envelope_key(self, tenant, priority, budget, session) -> tuple:
        return (
            tenant if tenant is not None else self.tenant,
            priority if priority is not None else self.priority,
            budget if budget is not None else self.budget,
            session if session is not None else self.session,
        )

    def _stamp(self, message: dict, key: tuple) -> dict:
        tenant, priority, budget, session = key
        if tenant is not None:
            message["tenant"] = tenant
        if priority is not None:
            message["priority"] = priority
        if budget is not None:
            message["budget"] = budget
        if session is not None:
            message["session"] = session
        return message

    async def call(self, op: str, args: Optional[dict] = None, *,
                   tenant: Optional[str] = None,
                   priority: Optional[int] = None,
                   budget: Optional[float] = None,
                   session: Optional[str] = None,
                   batch: Optional[bool] = None) -> Any:
        """Submit one operation and await its result.

        Batchable ops ride the flusher (coalesced under concurrency)
        unless ``batch=False`` or client-wide batching is off; the result
        is the server's ``result`` payload, errors re-raise as their
        local exception types.
        """
        if self._closed:
            raise WireClosedError("client closed")
        self._ensure_started()
        self._m_requests.add(1)
        self._submitted += 1
        args = args or {}
        key = self._envelope_key(tenant, priority, budget, session)
        started = self._clock()
        batchable = (self.batching and op in BATCHABLE_OPS
                     and batch is not False)
        try:
            if batchable:
                future = asyncio.get_running_loop().create_future()
                self._pending.append(_PendingCall(op, args, future, key))
                self._kick.set()
            else:
                conn = await self._acquire()
                future = conn.send(self._stamp({"op": op, "args": args}, key))
            result = await future
        finally:
            # Every submission completes exactly once — with a result or an
            # exception — so the client-side balance sheet always closes.
            self._completed += 1
            self._s_latency.record(self._clock() - started)
        return result

    # -- the flusher ---------------------------------------------------------
    async def _flusher(self) -> None:
        """Drain pending calls into (batched) frames, forever."""
        while not self._closed:
            await self._kick.wait()
            self._kick.clear()
            while self._pending and not self._closed:
                await self._flush_group()

    async def _flush_group(self) -> None:
        """Frame and send one same-key group from the pending list."""
        key = self._pending[0].key
        group: list[_PendingCall] = []
        rest: list[_PendingCall] = []
        for call in self._pending:
            if call.key == key and len(group) < self.max_batch:
                group.append(call)
            else:
                rest.append(call)
        self._pending = rest
        try:
            conn = await self._acquire()
            if len(group) == 1:
                call = group[0]
                conn.send(self._stamp({"op": call.op, "args": call.args}, key),
                          call.future)
            else:
                self._m_batches.add(1)
                self._h_batch_size.observe(float(len(group)))
                inner = conn.send(self._stamp(
                    {"op": "batch",
                     "args": {"ops": [{"op": c.op, "args": c.args}
                                      for c in group]}}, key))
                inner.add_done_callback(
                    lambda fut, calls=tuple(group):
                    self._distribute(fut, calls))
        except Exception as exc:
            self._fail(group, exc)

    @staticmethod
    def _fail(calls, error: Exception) -> None:
        for call in calls:
            if not call.future.done():
                call.future.set_exception(error)

    def _distribute(self, batch_future: asyncio.Future,
                    calls: tuple[_PendingCall, ...]) -> None:
        """Fan a batch envelope's per-op results out to caller futures."""
        exc = (batch_future.exception()
               if not batch_future.cancelled() else
               WireClosedError("batch cancelled"))
        if exc is not None:
            self._fail(calls, exc)
            return
        results = batch_future.result()
        if not isinstance(results, list) or len(results) != len(calls):
            self._fail(calls, WireClosedError(
                "malformed batch response (op/result count mismatch)"))
            return
        for call, sub in zip(calls, results):
            if call.future.done():
                continue
            if isinstance(sub, dict) and sub.get("ok"):
                call.future.set_result(sub.get("result"))
            elif isinstance(sub, dict):
                call.future.set_exception(error_from(
                    str(sub.get("kind", "internal")),
                    str(sub.get("error", "")), sub.get("reason")))
            else:
                call.future.set_exception(
                    WireClosedError("malformed batch sub-result"))

    # -- convenience ops -----------------------------------------------------
    async def ping(self, **opts) -> dict:
        """Round-trip liveness check."""
        return await self.call("ping", {}, **opts)

    async def auth(self, subject: str, token: str,
                   ttl: float = 3600.0,
                   tenant: Optional[str] = None) -> str:
        """Exchange credentials for a session and adopt it as default."""
        args: dict = {"subject": subject, "token": token, "ttl": ttl}
        if tenant is not None:
            args["tenant"] = tenant
        result = await self.call("auth", args, batch=False)
        self.session = result["session"]
        if tenant is not None:
            self.tenant = tenant
        return self.session

    async def register(self, dataset_id: str, project: str, url: str,
                       size: int, checksum: str, basic: dict,
                       created: float = 0.0, tags: tuple = (),
                       **opts) -> dict:
        """Register one dataset (write-once)."""
        return await self.call("register", {
            "dataset_id": dataset_id, "project": project, "url": url,
            "size": size, "checksum": checksum, "basic": basic,
            "created": created, "tags": list(tags)}, **opts)

    async def get(self, dataset_id: str, **opts) -> dict:
        """Fetch one dataset record as a plain dict."""
        return await self.call("get", {"dataset_id": dataset_id}, **opts)

    async def query(self, q: Query, limit: Optional[int] = None,
                    ids_only: bool = False, **opts) -> dict:
        """Run a metadata query server-side."""
        args: dict = {"q": query_to_wire(q), "ids_only": ids_only}
        if limit is not None:
            args["limit"] = limit
        return await self.call("query", args, **opts)

    async def tag(self, dataset_id: str, *tags: str, **opts) -> dict:
        """Add tags to a dataset."""
        return await self.call(
            "tag", {"dataset_id": dataset_id, "tags": list(tags)}, **opts)

    async def add_processing(self, dataset_id: str, name: str,
                             params: dict, results: dict,
                             started: float = 0.0, finished: float = 0.0,
                             status: str = "success",
                             parent: Optional[str] = None, **opts) -> dict:
        """Append one processing step to a dataset's chain."""
        return await self.call("add_processing", {
            "dataset_id": dataset_id, "name": name, "params": params,
            "results": results, "started": started, "finished": finished,
            "status": status, "parent": parent}, **opts)

    async def stat(self, url: str, **opts) -> dict:
        """Stat an object through the server's ADAL."""
        return await self.call("stat", {"url": url}, **opts)

    async def exists(self, url: str, **opts) -> bool:
        """Whether an object exists through the server's ADAL."""
        result = await self.call("exists", {"url": url}, **opts)
        return bool(result["exists"])

    # -- accounting ----------------------------------------------------------
    def accounting(self) -> dict:
        """Client-side zero-silent-loss balance: every call completes."""
        outstanding = self._submitted - self._completed
        return {
            "submitted": self._submitted,
            "completed": self._completed,
            "outstanding": outstanding,
        }

    @property
    def open_connections(self) -> int:
        """Currently open pooled connections."""
        return sum(1 for c in self._conns if not c.closed)

    @property
    def telemetry(self) -> TelemetryHub:
        """The hub carrying every client-side ``wire.*`` metric."""
        return self._hub

    def __repr__(self) -> str:  # pragma: no cover
        return (f"<WireClient {self.host}:{self.port} "
                f"conns={self.open_connections}/{self.pool_size} "
                f"batching={self.batching}>")
