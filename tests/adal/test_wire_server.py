"""Wire server tests: ops, admission, auth, batching, zero silent loss.

No pytest-asyncio in the toolchain: each test drives its own event loop
with ``asyncio.run`` around an async scenario that starts a real
:class:`~repro.adal.wire.server.WireServer` on an ephemeral localhost
port and talks to it through a :class:`~repro.adal.wire.client.WireClient`.
"""

import asyncio
import gc
import socket
import weakref

import pytest

from repro.adal import (
    AdalClient,
    AuthError,
    BackendRegistry,
    MemoryBackend,
    TokenAuth,
)
from repro.adal.errors import BackendUnavailableError, ObjectNotFoundError
from repro.adal.wire import (
    RequestRejectedError,
    WireClient,
    WireProtocolError,
    WireServer,
)
from repro.adal.wire.bench import build_bench_store
from repro.adal.wire.protocol import FrameDecoder, encode_frame
from repro.durability.durable import DurableMetadataStore
from repro.frontdoor.request import TenantSpec
from repro.metadata.errors import UnknownDatasetError, WriteOnceError
from repro.metadata.query import Q
from repro.metadata.schema import FieldSpec, Schema
from repro.metadata.store import MetadataStore
from repro.resilience.errors import DeadlineExceededError


def _store():
    return _store_into(MetadataStore())


def _store_into(store):
    store.register_project("zf", Schema("zf", [
        FieldSpec("plate", "int", required=True)]))
    store.index_field("plate")
    for i in range(8):
        store.register_dataset(
            f"d{i}", "zf", f"adal://disk/zf/d{i}", 100 + i, f"c{i}",
            basic={"plate": i}, tags=("raw",) if i % 2 == 0 else ())
    return store


async def _exchange(port, *messages):
    """Send raw request frames on a fresh connection and return the first
    ``len(messages)`` reply frames, decoded."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        writer.write(b"".join(encode_frame(m) for m in messages))
        decoder = FrameDecoder()
        replies = []
        while len(replies) < len(messages):
            data = await asyncio.wait_for(reader.read(65536), 5.0)
            assert data, "server closed before replying"
            decoder.feed(data)
            replies.extend(iter(decoder.next_message, None))
        return replies
    finally:
        writer.close()


def _run(scenario, **server_kwargs):
    """Start a server, run ``scenario(server, client)``, tear down."""
    async def go():
        server = WireServer(_store(), **server_kwargs)
        await server.start()
        client = WireClient("127.0.0.1", server.port)
        try:
            return await scenario(server, client)
        finally:
            await client.close()
            await server.stop()
    return asyncio.run(go())


class TestOperations:
    def test_ping(self):
        async def scenario(server, client):
            return await client.ping()
        assert _run(scenario)["pong"] is True

    def test_register_get_query_tag(self):
        async def scenario(server, client):
            await client.register("new1", "zf", "adal://disk/zf/new1",
                                  2048, "crc", {"plate": 99})
            record = await client.get("new1")
            hits = await client.query(Q.field("plate") == 99, ids_only=True)
            await client.tag("new1", "qc-passed")
            tagged = await client.get("new1")
            return record, hits, tagged
        record, hits, tagged = _run(scenario)
        assert record["dataset_id"] == "new1"
        assert hits["ids"] == ["new1"]
        assert "qc-passed" in tagged["tags"]

    def test_query_limit_and_order(self):
        async def scenario(server, client):
            raw = Q.tag("raw")
            first = await client.query(raw, limit=2, ids_only=True)
            records = await client.query(raw, limit=1)
            nothing = await client.query(raw, limit=0, ids_only=True)
            everything = await client.query(raw, ids_only=True)
            for bad in (-1, "x", 1.5, True):
                with pytest.raises(WireProtocolError, match="limit"):
                    await client.query(raw, limit=bad, ids_only=True)
            hostile = ["all"]
            for _ in range(200):
                hostile = ["not", hostile]
            with pytest.raises(WireProtocolError, match="nested deeper"):
                await client.call("query", {"q": hostile}, batch=False)
            unhashable = await client.call(
                "query", {"q": ["field", "plate", "==", [1, 2]],
                          "ids_only": True}, batch=False)
            return first, records, nothing, everything, unhashable
        first, records, nothing, everything, unhashable = _run(scenario)
        assert first == {"ids": ["d0", "d2"], "count": 2}
        assert [r["dataset_id"] for r in records["records"]] == ["d0"]
        assert nothing == {"ids": [], "count": 0}
        assert everything["ids"] == ["d0", "d2", "d4", "d6"]
        assert unhashable == {"ids": [], "count": 0}

    def test_add_processing(self):
        async def scenario(server, client):
            step = await client.add_processing(
                "d0", "align", {"p": 1}, {"ok": True}, 0.0, 2.0)
            record = await client.get("d0")
            return step, record
        step, record = _run(scenario)
        assert step["step_id"]
        assert record["processing"][0]["name"] == "align"

    def test_typed_errors_cross_the_wire(self):
        async def scenario(server, client):
            with pytest.raises(UnknownDatasetError):
                await client.get("ghost")
            with pytest.raises(WriteOnceError):
                await client.register("d0", "zf", "u", 1, "c", {"plate": 1})
            with pytest.raises(BackendUnavailableError):
                await client.stat("adal://disk/zf/d0")  # no ADAL behind it
        _run(scenario)

    def test_unknown_op_is_protocol_error(self):
        async def scenario(server, client):
            with pytest.raises(WireProtocolError):
                await client.call("vaporise", {}, batch=False)
        _run(scenario)

    def test_stall_op_gated_behind_debug(self):
        async def scenario(server, client):
            with pytest.raises(WireProtocolError):
                await client.call("stall", {"seconds": 0.001}, batch=False)
        _run(scenario)

    def test_adal_ops_with_backend(self):
        async def scenario(server, client):
            assert await client.exists("adal://disk/obj") is True
            assert await client.exists("adal://disk/ghost") is False
            info = await client.stat("adal://disk/obj")
            return info
        async def go():
            registry = BackendRegistry()
            registry.register("disk", MemoryBackend())
            adal = AdalClient(registry)
            adal.put("adal://disk/obj", b"payload")
            server = WireServer(_store(), adal=adal)
            await server.start()
            client = WireClient("127.0.0.1", server.port)
            try:
                return await scenario(server, client)
            finally:
                await client.close()
                await server.stop()
        info = asyncio.run(go())
        assert info["size"] == len(b"payload")


class TestBatching:
    def test_batch_envelope_served_in_one_pass(self):
        async def scenario(server, client):
            results = await client.call("batch", {"ops": [
                {"op": "get", "args": {"dataset_id": "d0"}},
                {"op": "get", "args": {"dataset_id": "ghost"}},
                {"op": "ping", "args": {}},
            ]}, batch=False)
            return results, server.stats()
        results, stats = _run(scenario)
        assert len(results) == 3
        assert results[0]["ok"] and results[0]["result"]["dataset_id"] == "d0"
        assert not results[1]["ok"] and results[1]["kind"] == "unknown_dataset"
        assert results[2]["ok"]
        assert stats["batches"] == 1

    def test_batch_size_histogram_observed(self):
        async def scenario(server, client):
            await client.call("batch", {"ops": [
                {"op": "ping", "args": {}} for _ in range(5)]}, batch=False)
            series = server.telemetry.registry.series("wire.batch_size")
            return series.count, series.mean
        count, mean = _run(scenario)
        assert count == 1 and mean == 5.0

    def test_malformed_batch_rejected(self):
        async def scenario(server, client):
            with pytest.raises(WireProtocolError):
                await client.call("batch", {"ops": "nope"}, batch=False)
            results = await client.call(
                "batch", {"ops": ["garbage"]}, batch=False)
            return results
        results = _run(scenario)
        assert not results[0]["ok"] and results[0]["kind"] == "bad_request"


class TestMalformedEnvelope:
    """Wrong-typed / out-of-range envelope fields get one ``bad_request``
    reply, never an exception out of the connection handler."""

    @pytest.mark.parametrize("fields", [
        {"op": "ping", "priority": 9},
        {"op": "ping", "priority": "x"},
        {"op": "ping", "priority": -1},
        {"op": "ping", "budget": "soon"},
        {"op": "ping", "budget": float("nan")},
        {"op": "batch", "args": [1, 2]},
        {"op": "batch", "args": {"ops": 5}},
        {"op": "auth", "args": [1, 2]},
        {"op": "ping", "tenant": ["public"]},
        {"op": "nope"},
        {"op": "stall"},  # a debug op, unknown while debug_ops is off
    ], ids=lambda f: "-".join(f"{k}={v}" for k, v in f.items()))
    def test_one_bad_request_reply_and_connection_survives(self, fields, caplog):
        async def scenario(server, _client):
            first, second = await _exchange(
                server.port, {"id": "bad", **fields},
                {"id": "next", "op": "ping"})
            return first, second, server.accounting()
        # An auth provider (not required) so the auth op reads its args.
        first, second, acct = _run(scenario, auth=TokenAuth())
        assert first["id"] == "bad" and not first["ok"]
        assert first["kind"] == "bad_request"
        # The very next frame is the follow-up's reply: exactly one response
        # to the malformed message, and the connection is still served.
        assert second["id"] == "next" and second["ok"]
        assert acct["silent_loss"] == 0
        assert not [r for r in caplog.records if r.name == "asyncio"]


class TestAdmission:
    def test_rate_limited_tenant_rejected(self):
        async def scenario(server, client):
            outcomes = {"ok": 0, "rejected": 0}
            for _ in range(12):
                try:
                    await client.ping(batch=False)
                    outcomes["ok"] += 1
                except RequestRejectedError as exc:
                    assert exc.reason == "rate_limited"
                    outcomes["rejected"] += 1
            return outcomes, server.stats()
        outcomes, stats = _run(
            scenario,
            tenants=[TenantSpec("public", weight=1.0, rate_limit=0.001,
                                burst=4.0)])
        # The bucket starts with 4 tokens and refills ~nothing during the test.
        assert outcomes["ok"] >= 1
        assert outcomes["rejected"] >= 1
        assert stats["silent_loss"] == 0

    def test_accounting_closes_after_mixed_outcomes(self):
        async def scenario(server, client):
            for i in range(6):
                try:
                    if i % 2:
                        await client.get("ghost")
                    else:
                        await client.ping()
                except UnknownDatasetError:
                    pass
            acct = server.accounting()
            return acct
        acct = _run(scenario)
        assert acct["silent_loss"] == 0
        assert acct["received"] == acct["responded"]

    def test_books_balance_while_expired_requests_await_replies(self):
        """Requests the queue drops stay on the books until their reply is
        sent, so the balance reads 0 at every response, not just at rest."""
        readings = []

        async def go():
            server = WireServer(_store(), debug_ops=True, workers=1)
            send = server._send

            def recording_send(*args, **kwargs):
                readings.append(server.accounting()["silent_loss"])
                send(*args, **kwargs)

            server._send = recording_send
            await server.start()
            client = WireClient("127.0.0.1", server.port)
            try:
                stall = asyncio.ensure_future(
                    client.call("stall", {"seconds": 0.2}, batch=False))
                while server.accounting()["in_flight"] == 0:
                    await asyncio.sleep(0.005)  # the stall holds the worker
                doomed = [asyncio.ensure_future(client.call(
                    "ping", {}, batch=False, budget=0.05)) for _ in range(5)]
                while server.accounting()["queued"] < 5:
                    await asyncio.sleep(0.005)
                last = asyncio.ensure_future(client.ping(batch=False))
                await stall
                outcomes = await asyncio.gather(*doomed,
                                                return_exceptions=True)
                await last
                return outcomes, server.accounting()
            finally:
                await client.close()
                await server.stop()
        outcomes, acct = asyncio.run(go())
        assert all(isinstance(o, DeadlineExceededError) for o in outcomes)
        assert readings == [0] * 7
        assert acct["silent_loss"] == 0

    def test_queued_work_answered_on_stop(self):
        async def go():
            server = WireServer(_store(), debug_ops=True, workers=1)
            await server.start()
            client = WireClient("127.0.0.1", server.port)
            # One slow op occupies the single worker; more pile up queued.
            futures = [
                asyncio.ensure_future(
                    client.call("stall", {"seconds": 0.2}, batch=False))
                for _ in range(3)
            ]
            await asyncio.sleep(0.05)  # let them reach the queue
            await server.stop()
            outcomes = await asyncio.gather(*futures, return_exceptions=True)
            acct = server.accounting()
            await client.close()
            return outcomes, acct
        outcomes, acct = asyncio.run(go())
        # Every request got SOME terminal answer (result or typed error).
        assert all(not isinstance(o, asyncio.InvalidStateError)
                   for o in outcomes)
        assert acct["silent_loss"] == 0


class TestDurableCatalogue:
    """A request the store refuses leaves the durable catalogue as it was:
    nothing logged, nothing half-applied, recovery byte-exact."""

    @pytest.mark.parametrize("op, args", [
        ("register", {"dataset_id": 5, "project": "zf", "url": "u",
                      "size": 1, "checksum": "c", "basic": {"plate": 1}}),
        ("register", {"dataset_id": "n", "project": "zf", "url": ["u"],
                      "size": 1, "checksum": "c", "basic": {"plate": 1}}),
        ("register", {"dataset_id": "n", "project": "zf", "url": "u",
                      "size": 1, "checksum": "c", "basic": {"plate": 1},
                      "tags": [None]}),
        ("tag", {"dataset_id": "d0", "tags": [None, "a"]}),
        ("tag", {"dataset_id": "d0", "tags": "xyz"}),
        ("tag", {"dataset_id": ["d0"], "tags": ["a"]}),
        ("add_processing", {"dataset_id": "d0", "name": ["align"],
                            "params": {}, "results": {}}),
    ], ids=["int-id", "list-url", "null-register-tag", "null-tag",
            "string-tags", "list-id-tag", "list-step-name"])
    def test_refused_write_changes_nothing(self, op, args):
        store = DurableMetadataStore()
        _store_into(store)
        before, wal = store.state_bytes(), store.wal.size_bytes

        async def go():
            server = WireServer(store)
            await server.start()
            try:
                return await _exchange(server.port,
                                       {"id": 1, "op": op, "args": args})
            finally:
                await server.stop()
        (reply,) = asyncio.run(go())
        assert reply["kind"] == "bad_request"
        assert store.state_bytes() == before
        assert store.wal.size_bytes == wal
        store.crash()
        store.recover()
        assert store.state_bytes() == before
        store.snapshot()
        store.crash()
        store.recover()
        assert store.state_bytes() == before

    @pytest.mark.parametrize("batched", [False, True], ids=["single", "batch"])
    def test_overflowing_size_is_a_bad_request(self, batched):
        """``"size": Infinity`` overflows the server's ``int()``: the
        client's fault, answered as ``bad_request``, and nothing logged."""
        store = DurableMetadataStore()
        _store_into(store)
        before, wal = store.state_bytes(), store.wal.size_bytes
        registers = [{"dataset_id": f"n{i}", "project": "zf", "url": "u",
                      "size": size, "checksum": "c", "basic": {"plate": 1}}
                     for i, size in enumerate((float("inf"), -float("inf")))]
        if batched:
            message = {"id": 1, "op": "batch", "args": {"ops": [
                {"op": "register", "args": args} for args in registers]}}
        else:
            message = {"id": 1, "op": "register", "args": registers[0]}

        async def go():
            server = WireServer(store)
            await server.start()
            try:
                return await _exchange(server.port, message)
            finally:
                await server.stop()
        (reply,) = asyncio.run(go())
        outcomes = reply["result"] if batched else [reply]
        assert [r["kind"] for r in outcomes] == ["bad_request"] * len(outcomes)
        assert store.state_bytes() == before
        assert store.wal.size_bytes == wal


class TestSlowReaders:
    def test_clients_that_never_read_cannot_stall_a_ping(self):
        """Four connections send large queries and never read their
        replies; a fifth client's ping is still answered in its budget.
        Workers write replies and move on: none waits on a socket."""
        async def go():
            store = build_bench_store(1000)
            server = WireServer(store)
            await server.start()
            loop = asyncio.get_running_loop()
            hogs = []
            client = WireClient("127.0.0.1", server.port)
            try:
                for _ in range(4):
                    sock = socket.socket()
                    # A small receive window fills the path to this reader
                    # after a few replies.
                    sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
                    sock.setblocking(False)
                    await loop.sock_connect(sock, ("127.0.0.1", server.port))
                    hogs.append(sock)
                    await loop.sock_sendall(sock, b"".join(
                        encode_frame({"id": i, "op": "query",
                                      "args": {"q": ["all"]}})
                        for i in range(30)))
                await asyncio.sleep(0.5)  # the replies back up
                return await asyncio.wait_for(client.ping(budget=5.0), 5.0)
            finally:
                for sock in hogs:
                    sock.close()
                await client.close()
                await asyncio.wait_for(server.stop(), 10.0)
        assert asyncio.run(go())["pong"] is True


class TestAuth:
    def _auth(self):
        auth = TokenAuth()
        auth.register("alice", "s3cret", groups=["zf"])
        return auth

    def _serve(self, scenario, **kwargs):
        async def go():
            server = WireServer(_store(), auth=self._auth(), **kwargs)
            await server.start()
            client = WireClient("127.0.0.1", server.port)
            try:
                return await scenario(server, client)
            finally:
                await client.close()
                await server.stop()
        return asyncio.run(go())

    def test_auth_op_issues_session(self):
        async def scenario(server, client):
            session = await client.auth("alice", "s3cret")
            pong = await client.ping()  # stamped with the session now
            return session, pong, server.auth.active_sessions
        session, pong, active = self._serve(scenario)
        assert session.startswith("sess-")
        assert pong["pong"] is True
        assert active == 1

    def test_bad_credentials_refused(self):
        async def scenario(server, client):
            with pytest.raises(AuthError):
                await client.auth("alice", "wrong")
        self._serve(scenario)

    def test_require_auth_blocks_anonymous_ops(self):
        async def scenario(server, client):
            with pytest.raises(WireProtocolError):
                await client.get("d0", batch=False)
            await client.auth("alice", "s3cret")
            record = await client.get("d0", batch=False)
            return record
        record = self._serve(scenario, require_auth=True)
        assert record["dataset_id"] == "d0"

    @pytest.mark.parametrize("extra", [
        {"tenant": [1]},
        {"ttl": float("nan")},
        {"ttl": float("inf")},
    ], ids=["list-tenant", "nan-ttl", "inf-ttl"])
    def test_malformed_auth_refused_without_a_session(self, extra, caplog):
        async def scenario(server, _client):
            first, second = await _exchange(server.port, {
                "id": "auth", "op": "auth",
                "args": {"subject": "alice", "token": "s3cret", **extra}},
                {"id": "next", "op": "ping"})
            return (first, second, server.accounting(),
                    server.auth.active_sessions)
        first, second, acct, sessions = self._serve(scenario)
        assert first["id"] == "auth" and not first["ok"]
        assert first["kind"] == "bad_request"
        assert second["id"] == "next" and second["ok"]
        assert sessions == 0
        assert acct["silent_loss"] == 0
        assert not [r for r in caplog.records if r.name == "asyncio"]

    def test_stale_session_refused(self):
        async def scenario(server, client):
            await client.auth("alice", "s3cret")
            server.auth.revoke("alice")
            with pytest.raises(AuthError):
                await client.get("d0", batch=False)
        self._serve(scenario, require_auth=True)


class TestLifecycle:
    def test_double_start_refused_and_stop_idempotent(self):
        async def go():
            server = WireServer(_store())
            await server.start()
            with pytest.raises(RuntimeError):
                await server.start()
            await server.stop()
            await server.stop()  # idempotent
        asyncio.run(go())

    def test_listening_event_published(self):
        async def go():
            server = WireServer(_store())
            await server.start()
            events = server.telemetry.bus.events(kind="wire.listening")
            await server.stop()
            return events
        events = asyncio.run(go())
        assert len(events) == 1
        assert events[0].data["port"] > 0

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            WireServer(_store(), workers=0)

    def test_stopped_server_and_store_go_with_the_last_reference(self):
        """Nothing a server owns refers back to it, so a stopped server and
        its store are freed at once, not at the next full collection."""
        async def go():
            server = WireServer(_store())
            await server.start()
            client = WireClient("127.0.0.1", server.port)
            assert (await client.get("d0"))["dataset_id"] == "d0"
            await client.close()
            await server.stop()
            return weakref.ref(server), weakref.ref(server.store)
        gc.disable()
        try:
            server, store = asyncio.run(go())
            assert server() is None
            assert store() is None
        finally:
            gc.enable()
