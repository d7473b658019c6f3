"""An in-memory transport pair for driving wire protocols without sockets.

:func:`connect` joins two :class:`asyncio.Protocol` objects (a
:class:`~repro.adal.wire.server.WireServer` connection, a
:class:`~repro.adal.wire.client.WireClient` connection, or a
:class:`Peer` that speaks raw frames) through two :class:`MemTransport`
ends.  Delivery is asynchronous, one ``call_soon`` per piece, as on a
real socket, and a seeded :class:`Faults` script can cut every write into
random pieces or reset the pair after a given number of bytes, which
lands mid-frame.  Flow control follows asyncio's selector transports:
the first 16 KiB the peer has not consumed sit in the "socket"; the rest
is the writer's buffer, which calls ``pause_writing()`` above 64 KiB and
``resume_writing()`` at 16 KiB, so a peer that stops reading
(``pause_reading()``) backs its writer up.
"""

from __future__ import annotations

import asyncio
import random
from dataclasses import dataclass
from typing import Optional

from repro.adal.wire.protocol import FrameDecoder, encode_frame

_EOF = None  # inbox marker for the peer's write_eof/close


@dataclass(frozen=True)
class Faults:
    """A seeded fault script for one direction of a pair.

    ``max_piece`` cuts every write into pieces of 1..max_piece bytes;
    ``reset_after`` aborts both ends once that many bytes have been
    delivered (the first ones of a piece that crosses it still arrive).
    """

    seed: int = 0
    max_piece: Optional[int] = None
    reset_after: Optional[int] = None


class MemTransport(asyncio.Transport):
    """One end of an in-memory connection."""

    SOCKET_BYTES, HIGH_WATER, LOW_WATER = 16 * 1024, 64 * 1024, 16 * 1024

    def __init__(self, protocol: asyncio.Protocol, faults: Faults):
        super().__init__()
        self._loop = asyncio.get_running_loop()
        self._protocol = protocol
        self._faults = faults
        self._rng = random.Random(faults.seed)
        self.peer: Optional[MemTransport] = None
        self._inbox: list = []
        self._reading = True
        self._closing = False
        self._eof_sent = False
        self.lost = False
        #: Bytes written that the peer's protocol has not yet consumed.
        self._unread = 0
        self._delivered = 0
        self._write_paused = False

    # -- writing -------------------------------------------------------------
    def write(self, data: bytes) -> None:
        if self._eof_sent or self.lost:
            return  # like a closing selector transport: dropped silently
        data = bytes(data)
        self._unread += len(data)
        pieces = [data]
        if self._faults.max_piece and data:
            pieces, at = [], 0
            while at < len(data):
                size = self._rng.randint(1, self._faults.max_piece)
                pieces.append(data[at:at + size])
                at += size
        for piece in pieces:
            self._loop.call_soon(self.peer._arrive, piece)
        if (not self._write_paused
                and self.get_write_buffer_size() > self.HIGH_WATER):
            self._write_paused = True
            self._protocol.pause_writing()

    def write_eof(self) -> None:
        if not self._eof_sent:
            self._eof_sent = True
            self._loop.call_soon(self.peer._arrive, _EOF)

    def get_write_buffer_size(self) -> int:
        return max(0, self._unread - self.SOCKET_BYTES)

    def _consumed(self, nbytes: int) -> None:
        """The peer's protocol took ``nbytes`` of what this end wrote."""
        self._unread -= nbytes
        self._delivered += nbytes
        if (self._write_paused
                and self.get_write_buffer_size() <= self.LOW_WATER):
            self._write_paused = False
            self._protocol.resume_writing()
        if self._closing and not self._unread:
            self._lose(None)
        limit = self._faults.reset_after
        if limit is not None and self._delivered >= limit:
            self.abort()

    # -- reading -------------------------------------------------------------
    def _arrive(self, piece) -> None:
        if self.lost:
            return
        self._inbox.append(piece)
        self._pump()

    def _pump(self) -> None:
        while self._inbox and self._reading and not self._closing \
                and not self.lost:
            piece = self._inbox.pop(0)
            if piece is _EOF:
                if not self._protocol.eof_received():
                    self.close()
                continue
            limit = self.peer._faults.reset_after
            if limit is not None and self.peer._delivered + len(piece) > limit:
                piece = piece[:limit - self.peer._delivered]
            self._protocol.data_received(piece)
            self.peer._consumed(len(piece))

    def pause_reading(self) -> None:
        self._reading = False

    def resume_reading(self) -> None:
        if not self._reading:
            self._reading = True
            self._loop.call_soon(self._pump)

    def is_reading(self) -> bool:
        return self._reading and not self._closing

    # -- closing -------------------------------------------------------------
    def close(self) -> None:
        """Send EOF after what is buffered; lost once the peer read it."""
        if self._closing or self.lost:
            return
        self._closing = True
        self.write_eof()
        if not self._unread:
            self._lose(None)

    def abort(self) -> None:
        """Reset: both ends are lost at once, unread bytes discarded."""
        self._lose(None)
        self.peer._lose(ConnectionResetError("connection reset by peer"))

    def _lose(self, exc: Optional[Exception]) -> None:
        if self.lost:
            return
        self.lost = True
        self._closing = True
        self._inbox.clear()
        self._loop.call_soon(self._protocol.connection_lost, exc)


def connect(left: asyncio.Protocol, right: asyncio.Protocol,
            left_faults: Faults = Faults(),
            right_faults: Faults = Faults()) -> tuple[MemTransport,
                                                      MemTransport]:
    """Join two protocols; each side's faults apply to what it writes."""
    a = MemTransport(left, left_faults)
    b = MemTransport(right, right_faults)
    a.peer, b.peer = b, a
    left.connection_made(a)
    right.connection_made(b)
    return a, b


class Peer(asyncio.Protocol):
    """A raw-frame client end: writes request frames, decodes replies."""

    def __init__(self):
        self.transport: Optional[MemTransport] = None
        self.decoder = FrameDecoder()
        self.replies: list[dict] = []
        self.eof = False
        self.closed = asyncio.get_running_loop().create_future()

    def connection_made(self, transport) -> None:
        self.transport = transport

    def send(self, *messages: dict) -> None:
        self.transport.write(b"".join(encode_frame(m) for m in messages))

    def data_received(self, data: bytes) -> None:
        self.decoder.feed(data)
        self.replies.extend(iter(self.decoder.next_message, None))

    def eof_received(self) -> bool:
        self.eof = True
        return False

    def connection_lost(self, exc) -> None:
        self.closed.set_result(exc)

    async def replies_for(self, count: int, timeout: float = 5.0) -> list:
        """Wait until ``count`` replies arrived; return them all."""
        async def wait():
            while len(self.replies) < count:
                await asyncio.sleep(0)
        await asyncio.wait_for(wait(), timeout)
        return self.replies
