"""``repro.adal.wire`` — the facility's real front door over TCP.

The paper's ADAL is a *served* API: experiment DAQs and remote clients
reach it over the network, not in-process.  This package is that wire
half: an asyncio service (:class:`~repro.adal.wire.server.WireServer`)
speaking a length-prefixed JSON protocol, reusing the
:mod:`repro.frontdoor` admission machinery on the wall clock, and a
pooled, pipelining, auto-batching client
(:class:`~repro.adal.wire.client.WireClient`).

Determinism boundary: this package (alone, with its bench) runs on the
wall clock and real sockets; everything it fronts — metadata store, WAL,
ADAL backends — is the same synchronous code the deterministic simulated
facility uses.  Nothing here leaks host time back into simkit.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.adal.wire.bench": ("build_bench_store", "run_wire_bench"),
    "repro.adal.wire.client": ("BATCHABLE_OPS", "WireClient"),
    "repro.adal.wire.errors": (
        "PoolExhaustedError", "RequestRejectedError", "WireClosedError",
        "WireError", "WireProtocolError"),
    "repro.adal.wire.protocol": (
        "FrameDecoder", "MAX_FRAME_BYTES", "MAX_QUERY_DEPTH", "OPS",
        "encode_frame", "error_envelope", "error_from", "error_kind",
        "limit_from_wire", "query_from_wire", "query_to_wire"),
    "repro.adal.wire.server": ("WireRequest", "WireServer"),
})

__all__ = [
    "BATCHABLE_OPS",
    "FrameDecoder",
    "MAX_FRAME_BYTES",
    "MAX_QUERY_DEPTH",
    "OPS",
    "PoolExhaustedError",
    "RequestRejectedError",
    "WireClient",
    "WireClosedError",
    "WireError",
    "WireProtocolError",
    "WireRequest",
    "WireServer",
    "build_bench_store",
    "encode_frame",
    "error_envelope",
    "error_from",
    "error_kind",
    "limit_from_wire",
    "query_from_wire",
    "query_to_wire",
    "run_wire_bench",
]
