"""The bytes on the wire: a scripted session against a golden transcript.

A recording proxy sits between a :class:`WireClient` and a
:class:`WireServer` and keeps every byte each way.  The session is
sequential (one connection, client-assigned ids 1, 2, ...), so both byte
streams are deterministic apart from the ``ping`` reply's clock value,
which is masked.  The golden file pins the framing, the request
envelopes the client builds and every reply the server sends.
"""

import asyncio
import pathlib
import re
import struct

from repro.adal.wire import WireClient, WireServer
from repro.metadata.query import Q
from repro.metadata.schema import FieldSpec, Schema
from repro.metadata.store import MetadataStore

GOLDEN = pathlib.Path(__file__).parent / "data" / "wire_session.txt"
_NOW = re.compile(rb'"now":[-+0-9.eE]+')


def _store():
    store = MetadataStore()
    store.register_project("zf", Schema("zf", [
        FieldSpec("plate", "int", required=True)]))
    store.index_field("plate")
    for i in range(6):
        store.register_dataset(
            f"d{i}", "zf", f"adal://disk/zf/d{i}", 100 + i, f"c{i}",
            basic={"plate": i % 3}, created=float(i),
            tags=("raw",) if i % 2 == 0 else ())
    return store


async def _session(client):
    await client.ping()
    await client.register("new1", "zf", "adal://disk/zf/new1", 2048, "crc",
                          {"plate": 7}, created=5.5, tags=("fresh",))
    await client.get("new1")
    await client.query(Q.field("plate") == 1, ids_only=True)
    await client.query(Q.tag("raw") & (Q.field("plate") >= 1), limit=2)
    await client.tag("new1", "qc", "gold")
    await client.add_processing("new1", "align", {"p": 1}, {"shift": 0.25},
                                1.0, 2.0)
    await client.get("new1")
    await asyncio.gather(*[client.get(f"d{i}") for i in range(3)])  # batch
    await client.call("batch", {"ops": [
        {"op": "register", "args": {
            "dataset_id": "new2", "project": "zf", "url": "u2", "size": 1,
            "checksum": "c", "basic": {"plate": 1}}},
        {"op": "get", "args": {"dataset_id": "ghost"}},
        "garbage"]}, batch=False)
    for op, args in (("get", {"dataset_id": "ghost"}),
                     ("vaporise", {}),
                     ("query", {"q": ["all"], "limit": -1}),
                     ("stat", {"url": "adal://disk/x"}),
                     ("register", {"dataset_id": "d0"})):
        try:
            await client.call(op, args, batch=False)
        except Exception:
            pass  # the reply bytes are what is pinned


def _frames(data: bytes, arrow: str) -> list[str]:
    lines, at = [], 0
    while at < len(data):
        (length,) = struct.unpack_from("<I", data, at)
        payload = data[at + 4:at + 4 + length]
        assert len(payload) == length, "truncated frame in the transcript"
        lines.append(arrow + _NOW.sub(b'"now":0', payload).decode("ascii"))
        at += 4 + length
    return lines


def record_transcript() -> str:
    """Run the session through a recording proxy; the transcript text."""
    sent, received = bytearray(), bytearray()

    async def pipe(reader, writer, log):
        while data := await reader.read(65536):
            log += data
            writer.write(data)
            await writer.drain()
        writer.close()

    async def go():
        server = WireServer(_store())
        await server.start()
        pipes = []

        async def relay(reader, writer):
            up_reader, up_writer = await asyncio.open_connection(
                "127.0.0.1", server.port)
            pipes.append(asyncio.gather(
                pipe(reader, up_writer, sent),
                pipe(up_reader, writer, received)))
            await pipes[-1]

        proxy = await asyncio.start_server(relay, "127.0.0.1", 0)
        client = WireClient("127.0.0.1", proxy.sockets[0].getsockname()[1])
        try:
            await _session(client)
        finally:
            await client.close()
            await asyncio.gather(*pipes)
            proxy.close()
            await proxy.wait_closed()
            await server.stop()

    asyncio.run(go())
    return "\n".join(_frames(bytes(sent), "> ")
                     + _frames(bytes(received), "< ")) + "\n"


def test_session_bytes_match_the_golden_transcript():
    assert record_transcript() == GOLDEN.read_text()
