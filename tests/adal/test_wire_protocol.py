"""Wire protocol unit tests: framing, error mapping, query wire form."""

import json
import struct

import pytest

from repro.adal.errors import (
    AuthError,
    BackendUnavailableError,
    ObjectNotFoundError,
)
from repro.adal.wire import (
    MAX_FRAME_BYTES,
    FrameDecoder,
    MAX_QUERY_DEPTH,
    RequestRejectedError,
    WireProtocolError,
    encode_frame,
    error_envelope,
    error_from,
    error_kind,
    limit_from_wire,
    query_from_wire,
    query_to_wire,
)
from repro.metadata.errors import UnknownDatasetError, WriteOnceError
from repro.metadata.query import Q
from repro.metadata.records import DatasetRecord
from repro.resilience.errors import DeadlineExceededError


def _read_all(data: bytes, on_bytes=None):
    """Every message of a byte stream that then closes."""
    decoder = FrameDecoder(on_bytes)
    decoder.feed(data)
    frames = list(iter(decoder.next_message, None))
    decoder.eof()
    return frames


class TestFraming:
    def test_round_trip(self):
        message = {"id": 7, "op": "ping", "args": {"x": [1, 2, 3]}}
        assert _read_all(encode_frame(message)) == [message]

    def test_multiple_frames_in_one_buffer(self):
        data = encode_frame({"id": 1}) + encode_frame({"id": 2})
        assert [m["id"] for m in _read_all(data)] == [1, 2]

    def test_clean_eof_returns_none(self):
        assert _read_all(b"") == []

    def test_mid_header_close_is_protocol_error(self):
        with pytest.raises(WireProtocolError):
            _read_all(b"\x01\x00")

    def test_mid_frame_close_is_protocol_error(self):
        data = encode_frame({"id": 1})[:-2]
        with pytest.raises(WireProtocolError):
            _read_all(data)

    def test_oversized_length_rejected_before_read(self):
        header = struct.pack("<I", MAX_FRAME_BYTES + 1)
        with pytest.raises(WireProtocolError):
            _read_all(header)

    def test_non_json_payload_rejected(self):
        payload = b"\xff\xfe not json"
        data = struct.pack("<I", len(payload)) + payload
        with pytest.raises(WireProtocolError):
            _read_all(data)

    def test_payload_nested_past_the_decoder_rejected(self):
        payload = b'{"id": 1, "args": ' + b"[" * 100_000 + b"]" * 100_000 + b"}"
        data = struct.pack("<I", len(payload)) + payload
        with pytest.raises(WireProtocolError):
            _read_all(data)

    def test_non_object_payload_rejected(self):
        payload = json.dumps([1, 2]).encode()
        data = struct.pack("<I", len(payload)) + payload
        with pytest.raises(WireProtocolError):
            _read_all(data)

    def test_oversized_message_not_encodable(self):
        with pytest.raises(WireProtocolError):
            encode_frame({"blob": "x" * (MAX_FRAME_BYTES + 1)})

    def test_byte_accounting_callback(self):
        seen = []
        frame = encode_frame({"id": 1})
        _read_all(frame + frame, on_bytes=seen.append)
        assert seen == [len(frame), len(frame)]


class TestErrorMapping:
    def test_kind_round_trips_typed_errors(self):
        for exc in (ObjectNotFoundError("x"), WriteOnceError("x"),
                    UnknownDatasetError("x"), AuthError("x"),
                    BackendUnavailableError("x"), DeadlineExceededError(0.5),
                    WireProtocolError("x")):
            kind = error_kind(exc)
            rebuilt = error_from(kind, "x")
            assert isinstance(rebuilt, type(exc))

    def test_deadline_kind_preserves_message(self):
        exc = error_from("deadline", "budget of 0.5s expired in queue")
        assert isinstance(exc, DeadlineExceededError)
        assert str(exc) == "budget of 0.5s expired in queue"

    def test_subclass_resolves_most_specific_kind(self):
        # UnknownDatasetError subclasses MetadataError; the specific kind wins.
        assert error_kind(UnknownDatasetError("d")) == "unknown_dataset"

    def test_rejected_kind_carries_reason(self):
        exc = error_from("rejected", "nope", reason="rate_limited")
        assert isinstance(exc, RequestRejectedError)
        assert exc.reason == "rate_limited"

    def test_unknown_kind_falls_back_to_adal_error(self):
        from repro.adal.errors import AdalError
        assert type(error_from("??", "m")) is AdalError

    def test_envelope_shape(self):
        env = error_envelope(42, ObjectNotFoundError("gone"))
        assert env["id"] == 42
        assert env["ok"] is False
        assert env["kind"] == "not_found"
        assert "gone" in env["error"]


class TestQueryWireForm:
    def _round_trip(self, q):
        wire = query_to_wire(q)
        json.dumps(wire)  # must be JSON-serialisable
        return query_from_wire(wire)

    def test_field_cmp_round_trip(self):
        q = self._round_trip(Q.field("run") >= 12)
        record = DatasetRecord("d", "p", "u", 1, "c", 0.0, {"run": 20})
        low = DatasetRecord("e", "p", "u", 1, "c", 0.0, {"run": 3})
        assert q.matches(record) and not q.matches(low)

    def test_combinators_round_trip(self):
        q = self._round_trip(
            (Q.project("zf") & (Q.field("run") == 1)) | ~Q.tag("bad"))
        good = DatasetRecord("d", "zf", "u", 1, "c", 0.0, {"run": 1})
        assert q.matches(good)

    def test_has_step_and_all_round_trip(self):
        record = DatasetRecord("d", "p", "u", 1, "c", 0.0, {})
        assert self._round_trip(Q.all()).matches(record)
        assert not self._round_trip(Q.has_step("align")).matches(record)

    def test_malformed_wire_query_rejected(self):
        for bad in ([], ["nope"], ["field", "a"], {"op": "and"}, 7):
            with pytest.raises(WireProtocolError):
                query_from_wire(bad)

    def test_hostile_nesting_is_a_protocol_error(self):
        deepest_ok = ["all"]
        for _ in range(MAX_QUERY_DEPTH - 1):
            deepest_ok = ["not", deepest_ok]
        query_from_wire(deepest_ok)
        with pytest.raises(WireProtocolError, match="nested deeper"):
            query_from_wire(["not", deepest_ok])
        hostile = ["all"]
        for _ in range(5000):  # far past the interpreter's recursion limit
            hostile = ["not", hostile]
        with pytest.raises(WireProtocolError, match="nested deeper"):
            query_from_wire(hostile)
        with pytest.raises(WireProtocolError, match="nested deeper"):
            query_from_wire(["and", ["all"], ["or", hostile]])

    def test_limit_validated_at_the_edge(self):
        assert limit_from_wire(None) is None
        assert limit_from_wire(0) == 0
        assert limit_from_wire(10) == 10
        for bad in (-1, "x", "10", 2.5, True, [3]):
            with pytest.raises(WireProtocolError, match="limit"):
                limit_from_wire(bad)
