"""The wire protocol: length-prefixed JSON frames plus the message schema.

Framing
-------
Every message — request or response, single or batch — travels as one
frame::

    +----------+----------------------+
    | length   | payload              |
    | 4B LE    | ``length`` bytes     |
    +----------+----------------------+

with an unsigned little-endian length prefix and a UTF-8 JSON payload.
Frames above :data:`MAX_FRAME_BYTES` are rejected before allocation (a
corrupt or hostile length prefix must not balloon memory).

Messages
--------
Requests are ``{"id": n, "op": name, "args": {...}}`` with optional
``tenant``, ``priority``, ``budget`` (seconds of end-to-end deadline) and
``session`` fields.  Responses echo the id: ``{"id": n, "ok": true,
"result": ...}`` or ``{"id": n, "ok": false, "kind": k, "error": msg}``.

The batch op ``{"op": "batch", "args": {"ops": [{"op":..,"args":..}, ...]}}``
carries N coalesced operations in one frame; its result is a list of N
per-op ``{"ok": ...}`` envelopes in order, so a batch always yields
exactly one terminal outcome per coalesced request.

Queries travel as a small S-expression JSON form (:func:`query_to_wire` /
:func:`query_from_wire`) mirroring the :class:`~repro.metadata.query.Q`
combinators.
"""

from __future__ import annotations

import json
import struct
from typing import Any, Callable, Optional

from repro.adal.errors import (
    AdalError,
    AuthError,
    BackendNotFoundError,
    BackendUnavailableError,
    ChecksumMismatchError,
    ObjectExistsError,
    ObjectNotFoundError,
    PermissionDeniedError,
)
from repro.adal.wire.errors import (
    RequestRejectedError,
    WireClosedError,
    WireProtocolError,
)
from repro.metadata.errors import (
    MetadataError,
    MetadataUnavailableError,
    UnknownDatasetError,
    UnknownProjectError,
    WriteOnceError,
)
from repro.metadata.query import (
    And,
    FieldCmp,
    HasStep,
    MatchAll,
    Not,
    Or,
    ProjectIs,
    Query,
    TagIs,
)
from repro.resilience.errors import DeadlineExceededError

_LENGTH = struct.Struct("<I")

#: Hard per-frame size bound (requests and responses alike).
MAX_FRAME_BYTES = 8 * 1024 * 1024

#: Deepest query tree :func:`query_from_wire` rebuilds; hand-written
#: queries nest a handful of levels, a hostile one must not reach the
#: interpreter's recursion limit.
MAX_QUERY_DEPTH = 32

#: Operations the server accepts (batch is the coalescing envelope).
OPS = ("ping", "auth", "register", "get", "query", "tag", "add_processing",
       "stat", "exists", "batch", "stall")


# ---------------------------------------------------------------------------
# framing
# ---------------------------------------------------------------------------

def encode_frame(message: dict) -> bytes:
    """Serialise one message into a length-prefixed frame."""
    payload = json.dumps(message, separators=(",", ":")).encode("utf-8")
    if len(payload) > MAX_FRAME_BYTES:
        raise WireProtocolError(
            f"frame of {len(payload)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte bound")
    return _LENGTH.pack(len(payload)) + payload


class FrameDecoder:
    """Sans-IO frame decoding: :meth:`feed` bytes as they arrive, take
    messages with :meth:`next_message` until it returns ``None``, and call
    :meth:`eof` when the peer closes.

    The caller decides when to take the next message, so a paused
    connection leaves its frames buffered.  A length over
    :data:`MAX_FRAME_BYTES` raises as soon as its header is buffered: a
    drained decoder holds less than one bounded frame.  ``on_bytes``
    (when given) receives each decoded frame's size, header included.
    """

    __slots__ = ("_buffer", "_pos", "_on_bytes")

    def __init__(self, on_bytes: Optional[Callable[[int], None]] = None):
        self._buffer = bytearray()
        self._pos = 0
        self._on_bytes = on_bytes

    @property
    def buffered(self) -> int:
        """Bytes fed but not yet taken as messages."""
        return len(self._buffer) - self._pos

    def feed(self, data: bytes) -> None:
        """Buffer bytes received from the peer."""
        if self._pos:
            del self._buffer[:self._pos]
            self._pos = 0
        self._buffer += data

    def next_message(self) -> Optional[dict]:
        """The next whole message, or ``None`` until one is buffered."""
        buffer = self._buffer
        start = self._pos + _LENGTH.size
        if len(buffer) < start:
            return None
        (length,) = _LENGTH.unpack_from(buffer, self._pos)
        if length > MAX_FRAME_BYTES:
            raise WireProtocolError(
                f"frame length {length} exceeds the {MAX_FRAME_BYTES}-byte bound")
        end = start + length
        if len(buffer) < end:
            return None
        self._pos = end
        if self._on_bytes is not None:
            self._on_bytes(_LENGTH.size + length)
        try:
            message = json.loads(buffer[start:end].decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
            # RecursionError: nesting deeper than the JSON decoder will follow.
            raise WireProtocolError(f"undecodable frame payload: {exc}") from None
        if not isinstance(message, dict):
            raise WireProtocolError("frame payload must be a JSON object")
        return message

    def eof(self) -> None:
        """The peer closed (after :meth:`next_message` returned ``None``):
        fine on a frame boundary, else a protocol error."""
        if not self.buffered:
            return
        if self.buffered < _LENGTH.size:
            raise WireProtocolError("connection closed mid-header")
        raise WireProtocolError("connection closed mid-frame")


# ---------------------------------------------------------------------------
# error <-> kind mapping
# ---------------------------------------------------------------------------

#: Stable wire error kinds and the exceptions the client raises for them.
_KIND_TO_ERROR = {
    "not_found": ObjectNotFoundError,
    "exists": ObjectExistsError,
    "write_once": WriteOnceError,
    "unknown_dataset": UnknownDatasetError,
    "unknown_project": UnknownProjectError,
    "unknown_store": BackendNotFoundError,
    "unavailable": BackendUnavailableError,
    "metadata_unavailable": MetadataUnavailableError,
    "checksum": ChecksumMismatchError,
    "auth": AuthError,
    "denied": PermissionDeniedError,
    "deadline": DeadlineExceededError,
    "bad_request": WireProtocolError,
    "closed": WireClosedError,
    "metadata": MetadataError,
    "internal": AdalError,
}

#: Exception classes mapped back to kinds — ordered most-specific first so
#: subclass relationships resolve deterministically.
_ERROR_TO_KIND = (
    (UnknownDatasetError, "unknown_dataset"),
    (UnknownProjectError, "unknown_project"),
    (WriteOnceError, "write_once"),
    (MetadataUnavailableError, "metadata_unavailable"),
    (ObjectNotFoundError, "not_found"),
    (ObjectExistsError, "exists"),
    (BackendNotFoundError, "unknown_store"),
    (BackendUnavailableError, "unavailable"),
    (ChecksumMismatchError, "checksum"),
    (PermissionDeniedError, "denied"),
    (AuthError, "auth"),
    (DeadlineExceededError, "deadline"),
    (WireProtocolError, "bad_request"),
    (WireClosedError, "closed"),
    (MetadataError, "metadata"),
    (KeyError, "bad_request"),
    (ValueError, "bad_request"),
    (TypeError, "bad_request"),
    # A client value no conversion can hold (``"size": Infinity``).
    (OverflowError, "bad_request"),
)


def error_kind(exc: BaseException) -> str:
    """The stable wire kind for an exception (``"internal"`` fallback)."""
    for cls, kind in _ERROR_TO_KIND:
        if isinstance(exc, cls):
            return kind
    return "internal"


def error_from(kind: str, message: str,
               reason: Optional[str] = None) -> Exception:
    """Build (without raising) the local exception for an error envelope."""
    if kind == "rejected":
        return RequestRejectedError(message, reason=reason or "rejected")
    if kind == "deadline":
        # DeadlineExceededError composes its message from a float budget;
        # the wire envelope already carries the composed server-side text.
        error = DeadlineExceededError(0.0, "wire request")
        error.args = (message,)
        return error
    cls = _KIND_TO_ERROR.get(kind, AdalError)
    return cls(message)


def error_envelope(message_id: Any, exc: BaseException) -> dict:
    """Build the error response for one failed request."""
    return {"id": message_id, "ok": False, "kind": error_kind(exc),
            "error": f"{type(exc).__name__}: {exc}"}


# ---------------------------------------------------------------------------
# query wire form
# ---------------------------------------------------------------------------

def query_to_wire(q: Query) -> list:
    """Serialise a query tree into its JSON S-expression form."""
    if isinstance(q, And):
        return ["and", *[query_to_wire(p) for p in q.parts]]
    if isinstance(q, Or):
        return ["or", *[query_to_wire(p) for p in q.parts]]
    if isinstance(q, Not):
        return ["not", query_to_wire(q.inner)]
    if isinstance(q, FieldCmp):
        return ["field", q.name, q.op, q.value]
    if isinstance(q, TagIs):
        return ["tag", q.tag]
    if isinstance(q, ProjectIs):
        return ["project", q.project]
    if isinstance(q, HasStep):
        return ["has_step", q.name]
    if isinstance(q, MatchAll):
        return ["all"]
    raise WireProtocolError(f"query node {type(q).__name__} has no wire form")


def query_from_wire(obj: Any, depth: int = 1) -> Query:
    """Rebuild a query tree from its JSON S-expression form.

    Trees nested deeper than :data:`MAX_QUERY_DEPTH` are refused.
    """
    if depth > MAX_QUERY_DEPTH:
        raise WireProtocolError(
            f"wire query nested deeper than {MAX_QUERY_DEPTH} levels")
    if not isinstance(obj, list) or not obj:
        raise WireProtocolError(f"malformed wire query: {obj!r}")
    head, *rest = obj
    if head == "and":
        return And(*[query_from_wire(p, depth + 1) for p in rest])
    if head == "or":
        return Or(*[query_from_wire(p, depth + 1) for p in rest])
    if head == "not" and len(rest) == 1:
        return Not(query_from_wire(rest[0], depth + 1))
    if head == "field" and len(rest) == 3:
        return FieldCmp(str(rest[0]), str(rest[1]), rest[2])
    if head == "tag" and len(rest) == 1:
        return TagIs(str(rest[0]))
    if head == "project" and len(rest) == 1:
        return ProjectIs(str(rest[0]))
    if head == "has_step" and len(rest) == 1:
        return HasStep(str(rest[0]))
    if head == "all" and not rest:
        return MatchAll()
    raise WireProtocolError(f"malformed wire query node: {obj!r}")


def limit_from_wire(value: Any) -> Optional[int]:
    """Validate a ``query`` op's ``limit``: absent, or a non-negative integer."""
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise WireProtocolError(
            f"query limit must be a non-negative integer, got {value!r}")
    return value
