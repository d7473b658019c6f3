"""Fault injection at the wire edge, over in-memory transport pairs.

Each scenario runs a real :class:`WireServer` (workers, admission, store)
whose connections are joined to clients through :mod:`tests.adal.memwire`
under a seeded fault script: split writes, a mid-frame reset, a
half-close, a paused reader.  Every scenario checks the zero-silent-loss
identity ``received == responded + queued + in_flight`` at every send,
and that no task or transport outlives the server.
"""

import asyncio
import json
import random
from itertools import accumulate
from unittest import mock

import pytest

from repro.adal.wire import (
    WireClient,
    WireClosedError,
    WireProtocolError,
    WireServer,
    encode_frame,
    protocol,
)
from repro.adal.wire.client import _WireConnection
from repro.adal.wire.server import _Connection
from repro.durability.durable import DurableMetadataStore
from repro.metadata.errors import UnknownDatasetError
from repro.metadata.query import Q
from repro.metadata.schema import FieldSpec, Schema
from repro.metadata.store import MetadataStore

from tests.adal.memwire import Faults, Peer, connect


def _store(records=8, store=None):
    store = store if store is not None else MetadataStore()
    store.register_project("zf", Schema("zf", [
        FieldSpec("plate", "int", required=True)]))
    for i in range(records):
        store.register_dataset(
            f"d{i:04d}", "zf", f"adal://disk/zf/d{i:04d}", 100 + i, f"c{i}",
            basic={"plate": i % 8}, tags=("raw",) if i % 2 == 0 else ())
    return store


def _serve(scenario, store=None, **server_kwargs):
    """Run ``scenario(server, links)`` against a started server whose
    ``_send`` records the balance; check the books and leaks after stop.

    ``links`` collects every transport pair the scenario opens.
    """
    async def go():
        baseline = set(asyncio.all_tasks())
        server = WireServer(store if store is not None else _store(),
                            **server_kwargs)
        balances = []
        send = server._send

        def recording_send(*args, **kwargs):
            send(*args, **kwargs)
            balances.append(server.accounting()["silent_loss"])

        server._send = recording_send
        await server.start()
        links = []
        try:
            result = await scenario(server, links)
        finally:
            await server.stop()
        for _ in range(3):
            await asyncio.sleep(0)  # let close callbacks run
        assert set(balances) <= {0}, balances
        assert server.accounting()["silent_loss"] == 0
        assert not server._conns
        assert all(end.lost for pair in links for end in pair)
        assert not [t for t in asyncio.all_tasks()
                    if t not in baseline and not t.done()]
        return result, server
    return asyncio.run(go())


def _peer(server, links, faults=Faults(), server_faults=Faults()):
    peer = Peer()
    links.append(connect(peer, _Connection(server), faults, server_faults))
    return peer


def _client(server, links, client_faults=Faults(), server_faults=Faults()):
    """A one-connection WireClient whose connection is in memory."""
    client = WireClient("memory", 0, pool_size=1)
    client._ensure_started()
    conn = _WireConnection(client)
    links.append(connect(conn, _Connection(server), client_faults,
                         server_faults))
    client._conns.append(conn)
    return client


async def _session(client):
    """A scripted session: writes, reads, a coalesced batch, an error."""
    out = [await client.register("new1", "zf", "adal://disk/zf/new1", 2048,
                                 "crc", {"plate": 9}, tags=("fresh",))]
    out.append(await client.get("new1"))
    out.append(await client.query(Q.field("plate") == 1, ids_only=True))
    out.append(await client.tag("new1", "qc"))
    out.append(await client.add_processing(
        "new1", "align", {"p": 1}, {"ok": True}, 0.0, 2.0))
    out += await asyncio.gather(*[client.get(f"d{i:04d}") for i in range(6)])
    with pytest.raises(UnknownDatasetError):
        await client.get("ghost")
    out.append(await client.query(Q.tag("raw"), limit=3))
    return out


class TestSplitWrites:
    @pytest.mark.parametrize("seed", range(4))
    def test_any_split_serves_the_same_session(self, seed):
        async def scenario(server, links):
            client = _client(server, links,
                             Faults(seed=seed, max_piece=7),
                             Faults(seed=seed + 100, max_piece=13))
            try:
                return await _session(client)
            finally:
                await client.close()

        async def whole(server, links):
            client = _client(server, links)
            try:
                return await _session(client)
            finally:
                await client.close()
        split, server = _serve(scenario)
        reference, _ = _serve(whole)
        assert split == reference
        assert server.stats()["batches"] >= 1


class TestReset:
    @pytest.mark.parametrize("seed", range(4))
    def test_reset_mid_request_frame(self, seed):
        frames = [{"id": i, "op": "get", "args": {"dataset_id": "d0001"}}
                  for i in range(5)]
        ends = list(accumulate(len(encode_frame(f)) for f in frames))
        cut = random.Random(seed).randrange(1, ends[-1])
        whole = sum(1 for end in ends if end <= cut)

        async def scenario(server, links):
            peer = _peer(server, links, Faults(seed=seed, max_piece=5,
                                               reset_after=cut))
            peer.send(*frames)
            await asyncio.wait_for(peer.closed, 5.0)
            return server.accounting()
        books, server = _serve(scenario)
        # Whole frames before the cut were served; the torn one was not.
        assert books["received"] == whole
        assert books["responded"] == whole

    def test_reset_mid_reply_fails_pending_calls(self):
        async def scenario(server, links):
            client = _client(server, links, server_faults=Faults(
                seed=3, max_piece=50, reset_after=200))
            calls = [asyncio.ensure_future(client.query(Q.all()))
                     for _ in range(4)]
            outcomes = await asyncio.gather(*calls, return_exceptions=True)
            books = client.accounting()
            await client.close()
            return outcomes, books
        (outcomes, books), _ = _serve(scenario, store=_store(40))
        assert all(isinstance(o, WireClosedError) for o in outcomes)
        assert books["outstanding"] == 0


class TestHalfClose:
    def test_eof_closes_and_later_replies_count_as_send_failures(self):
        async def scenario(server, links):
            peer = _peer(server, links)
            # The stall goes first in the pings' lane and holds the worker.
            peer.send({"id": "slow", "op": "stall", "priority": 0,
                       "args": {"seconds": 0.05}},
                      *[{"id": i, "op": "ping"} for i in range(3)])
            peer.transport.write_eof()
            exc = await asyncio.wait_for(peer.closed, 5.0)
            return exc, peer, server.accounting()["received"]
        (exc, peer, received), server = _serve(
            scenario, debug_ops=True, workers=1)
        # Every frame sent before EOF was dispatched; the connection
        # closed at EOF, before any of their replies was due.
        assert exc is None and peer.eof and peer.replies == []
        assert received == 4
        stats = server.stats()
        assert stats["responded"] == 4 and stats["send_failures"] == 4

    @pytest.mark.parametrize("ending", ["eof", "violation"])
    def test_replies_written_before_the_close_arrive_whole(self, ending):
        """Inline replies larger than the socket holds are still in the
        server's write buffer when EOF or a protocol violation closes the
        connection: the close flushes them instead of discarding them."""
        wide = [{"id": f"{i}" + "x" * 12_000, "op": "nope"} for i in range(2)]

        async def scenario(server, links):
            peer = _peer(server, links)
            peer.transport.pause_reading()
            peer.send(*wide)
            if ending == "eof":
                peer.transport.write_eof()
            else:
                peer.transport.write(b"\xff\xff\xff\xff")  # over the bound
            server_end = links[0][1]
            while not server_end._protocol.closed:
                await asyncio.sleep(0)
            backlog = server_end.get_write_buffer_size()
            peer.transport.resume_reading()
            exc = await asyncio.wait_for(peer.closed, 5.0)
            return backlog, exc, peer
        (backlog, exc, peer), _ = _serve(scenario)
        assert backlog > 0
        assert exc is None and peer.decoder.buffered == 0
        assert [r["id"] for r in peer.replies] == [m["id"] for m in wide]
        assert all(r["kind"] == "bad_request" for r in peer.replies)

    def test_eof_mid_frame_drops_the_connection(self):
        async def scenario(server, links):
            peer = _peer(server, links)
            peer.send({"id": 1, "op": "ping"})
            peer.transport.write(b"\x10\x00\x00\x00{")
            peer.transport.write_eof()
            await asyncio.wait_for(peer.closed, 5.0)
            return peer.replies
        replies, server = _serve(scenario)
        # The whole frame was admitted; its reply, due after the violation
        # closed the connection, counts as a send failure.
        assert replies == []
        stats = server.stats()
        assert stats["received"] == stats["responded"] == 1
        assert stats["send_failures"] == 1


class TestPausedReader:
    def test_full_write_buffer_pauses_only_that_connection(self):
        queries = [{"id": i, "op": "query", "args": {"q": ["all"]}}
                   for i in range(20)]

        async def scenario(server, links):
            slow = _peer(server, links)
            slow.transport.pause_reading()
            for query in queries:  # one at a time, each served in turn
                slow.send(query)
                for _ in range(5):
                    await asyncio.sleep(0)
            conn = links[0][1]._protocol
            blocked, taken = conn.blocked, server.accounting()["received"]
            fast = _peer(server, links)
            fast.send({"id": "ping", "op": "ping"})
            (pong,) = await fast.replies_for(1)
            still = server.accounting()["received"]
            slow.transport.resume_reading()
            replies = await slow.replies_for(len(queries))
            for end in (slow, fast):
                end.transport.close()
            return blocked, taken, pong, still, replies
        (blocked, taken, pong, still, replies), server = _serve(
            scenario, store=_store(200))
        assert blocked
        # Reading stopped once the replies backed up: later frames waited
        # in the decoder instead of being dispatched.
        assert taken < len(queries)
        assert pong["ok"] and still == taken + 1
        assert [r["id"] for r in replies] == list(range(len(queries)))
        assert server.stats()["send_failures"] == 0

    def test_slow_readers_do_not_hold_the_workers(self):
        """The motivating scenario: four connections send large queries
        and never read; a fifth client's ping is answered at once."""
        async def scenario(server, links):
            hogs = [_peer(server, links) for _ in range(4)]
            for hog in hogs:
                hog.transport.pause_reading()
                hog.send(*[{"id": i, "op": "query", "args": {"q": ["all"]}}
                           for i in range(30)])
            for _ in range(50):
                await asyncio.sleep(0)
            client = _client(server, links)
            pong = await asyncio.wait_for(client.ping(budget=5.0), 5.0)
            books = server.accounting()
            await client.close()
            for hog in hogs:
                hog.transport.abort()
            return pong, books
        (pong, books), server = _serve(scenario, store=_store(300))
        assert pong["pong"] is True
        assert books["queued"] == 0 and books["in_flight"] == 0


class TestAdmissionBackpressure:
    def test_high_water_pauses_and_low_water_resumes(self):
        pings = 900

        async def scenario(server, links):
            peer = _peer(server, links)
            # The stall goes first in the pings' lane and holds the worker.
            peer.send({"id": "stall", "op": "stall", "priority": 0,
                       "args": {"seconds": 0.2}},
                      *[{"id": i, "op": "ping", "budget": 30.0}
                        for i in range(pings)])
            while not server.stats()["backpressure_stalls"]:
                await asyncio.sleep(0.005)
            end = links[0][1]
            paused_reading = not end.is_reading()
            at_stall = server.accounting()
            await asyncio.sleep(0.05)  # the worker is still stalled
            later = server.accounting()["received"]
            replies = await peer.replies_for(pings + 1)
            peer.transport.close()
            return paused_reading, at_stall, later, replies
        (paused, at_stall, later, replies), server = _serve(
            scenario, debug_ops=True, workers=1)
        assert paused
        # It stopped at high water: 768 admitted, the stall among them.
        assert at_stall["received"] == server.high_water
        assert at_stall["queued"] + at_stall["in_flight"] == server.high_water
        # A paused connection dispatches nothing more until low water.
        assert later == at_stall["received"]
        assert len(replies) == pings + 1 and all(r["ok"] for r in replies)
        stats = server.stats()
        assert stats["backpressure_stalls"] == 1
        assert len(server.telemetry.bus.events(kind="wire.backpressure")) == 1
        assert stats["received"] == stats["responded"] == pings + 1


class TestOversizedFrames:
    """Frames over the bound are refused at encode time, on both ends,
    without stranding the request they belong to."""

    def test_reply_over_the_bound_answers_its_error(self):
        async def scenario(server, links):
            client = _client(server, links)
            with mock.patch.object(protocol, "MAX_FRAME_BYTES", 2000):
                with pytest.raises(WireProtocolError, match="exceeds"):
                    await client.query(Q.all(), batch=False)
                pong = await client.ping(batch=False)
            await client.close()
            return pong
        pong, server = _serve(scenario, store=_store(40))
        assert pong["pong"] is True  # the worker survived its reply

    def test_unsendable_error_reply_closes_only_its_connection(self):
        """An id that alone is over the bound once escaped: neither the
        reply nor its error envelope can be sent, so its connection
        closes, and the one worker goes on serving."""
        wide = {"id": "\u00e9" * 500, "op": "ping"}  # 1 KB raw, 3 KB escaped
        payload = json.dumps(wide, ensure_ascii=False).encode("utf-8")
        frame = protocol._LENGTH.pack(len(payload)) + payload

        async def scenario(server, links):
            with mock.patch.object(protocol, "MAX_FRAME_BYTES", 2000):
                peers = [_peer(server, links) for _ in range(2)]
                for peer in peers:
                    peer.transport.write(frame)
                closed = await asyncio.wait_for(
                    asyncio.gather(*(peer.closed for peer in peers)), 5.0)
                client = _client(server, links)
                pong = await asyncio.wait_for(client.ping(batch=False), 5.0)
            await client.close()
            return closed, peers, pong
        (closed, peers, pong), server = _serve(scenario, workers=1)
        assert closed == [None, None]
        assert not any(peer.replies for peer in peers)
        assert pong["pong"] is True
        stats = server.stats()
        assert stats["send_failures"] == 2
        assert stats["received"] == stats["responded"] == 3

    def test_request_over_the_bound_leaves_nothing_in_flight(self):
        async def scenario(server, links):
            client = _client(server, links)
            with mock.patch.object(protocol, "MAX_FRAME_BYTES", 2000):
                with pytest.raises(WireProtocolError, match="exceeds"):
                    await client.call("ping", {"blob": "x" * 3000},
                                      batch=False)
            in_flight = client._conns[0].in_flight
            await client.close()
            return in_flight, client.accounting()
        (in_flight, books), _ = _serve(scenario)
        assert in_flight == 0 and books["outstanding"] == 0


class TestCrashMidGroupCommit:
    @pytest.mark.parametrize("seed", range(3))
    def test_torn_batch_recovers_its_whole_records(self, seed):
        store = _store(4, DurableMetadataStore())

        def items(batch):
            return [{"op": "register", "args": {
                "dataset_id": f"b{batch}-{i}", "project": "zf",
                "url": f"adal://disk/zf/b{batch}-{i}", "size": 1,
                "checksum": "c", "basic": {"plate": i}, "tags": ["t"]}}
                for i in range(6)]

        async def scenario(server, links):
            peer = _peer(server, links)
            for batch in range(3):
                peer.send({"id": batch, "op": "batch",
                           "args": {"ops": items(batch)}})
                await peer.replies_for(batch + 1)
            peer.transport.close()
            return peer.replies
        replies, server = _serve(scenario, store=store)
        assert server.stats()["group_commits"] == 3
        assert all(sub["ok"] for r in replies for sub in r["result"])

        # Crash in the middle of the last group commit's flush: the WAL
        # keeps a prefix of its six records, the last of them torn.
        acknowledged = store.state_bytes()
        ends = list(accumulate(
            len(record.encode()) for record in store.wal.replay().records))
        assert ends[-1] == store.wal.size_bytes
        tear = random.Random(seed).randrange(ends[-7] + 1, ends[-1])
        survivors = sum(1 for end in ends[-6:] if end <= tear)
        store.crash(torn_tail_bytes=ends[-1] - tear)
        store.recover()

        expected = _store(4, DurableMetadataStore())
        for batch in range(3):
            for op in items(batch)[:6 if batch < 2 else survivors]:
                args = op["args"]
                expected.register_dataset(
                    args["dataset_id"], "zf", args["url"], 1, "c",
                    args["basic"], tags=("t",))
        assert store.state_bytes() == expected.state_bytes()
        assert store.state_bytes() != acknowledged
