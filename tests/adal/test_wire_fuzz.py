"""Property tests for the wire edge: the frame decoder and dispatch.

The decoder sees any split of any byte stream; dispatch sees generated
envelopes whose args mix valid and hostile values.  Dispatch runs a real
server over an in-memory connection into a durable store, checks the
zero-silent-loss identity at every send, and demands that the store
recovers byte-exact afterwards: a request that failed must have left
nothing half-applied or unreplayable in the log.
"""

import asyncio
from unittest import mock

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.adal.wire import FrameDecoder, WireProtocolError, encode_frame
from repro.adal.wire import protocol
from repro.adal.wire.server import WireServer, _Connection
from repro.durability.durable import DurableMetadataStore
from repro.metadata.schema import FieldSpec, Schema

from tests.adal.memwire import Peer, connect

_json = st.recursive(
    st.none() | st.booleans() | st.integers(-5, 5) | st.floats()
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6)
_messages = st.lists(st.dictionaries(st.text(max_size=4), _json, max_size=4),
                     max_size=6)


def _decode_pieces(pieces, on_bytes=None):
    """Feed pieces one by one, draining after each; then EOF."""
    decoder = FrameDecoder(on_bytes)
    out = []
    for piece in pieces:
        decoder.feed(piece)
        out.extend(iter(decoder.next_message, None))
    decoder.eof()
    return out


def _split(data, cuts):
    points = sorted({c % (len(data) + 1) for c in cuts})
    return [data[a:b] for a, b in zip([0] + points, points + [len(data)])]


class TestFrameDecoder:
    @given(_messages, st.lists(st.integers(0, 10_000), max_size=12))
    def test_any_split_decodes_to_the_same_messages(self, messages, cuts):
        data = b"".join(encode_frame(m) for m in messages)
        sizes = []
        decoded = _decode_pieces(_split(data, cuts), sizes.append)
        # Compared re-encoded: a NaN inside never equals itself.
        assert b"".join(encode_frame(m) for m in decoded) == data
        assert sum(sizes) == len(data)

    @given(st.lists(st.binary(max_size=40), max_size=6), _messages)
    def test_arbitrary_bytes_give_messages_or_a_protocol_error(
            self, noise, messages):
        frames = [encode_frame(m) for m in messages]
        pieces = [p for pair in zip(frames, noise) for p in pair]
        try:
            for message in _decode_pieces(pieces):
                assert isinstance(message, dict)
        except WireProtocolError:
            pass

    @given(st.lists(st.binary(min_size=1, max_size=90), max_size=10))
    def test_a_drained_decoder_holds_less_than_one_bounded_frame(self, pieces):
        with mock.patch.object(protocol, "MAX_FRAME_BYTES", 64):
            decoder = FrameDecoder()
            try:
                for piece in pieces:
                    decoder.feed(piece)
                    while decoder.next_message() is not None:
                        pass
                    assert decoder.buffered < 4 + protocol.MAX_FRAME_BYTES
            except WireProtocolError:
                pass


# -- dispatch ---------------------------------------------------------------

_ids = st.sampled_from(["d0", "d1", "n1", "n2"]) | _json
_tags = st.lists(st.sampled_from(["a", "b"]) | _json, max_size=3) | _json
_register = st.fixed_dictionaries({
    "dataset_id": _ids,
    "project": st.sampled_from(["zf"]) | _json,
    "url": st.sampled_from(["u1", "u2"]) | _json,
    "size": st.integers(0, 9) | _json,
    "checksum": st.sampled_from(["c"]) | _json,
    "basic": st.fixed_dictionaries({"plate": st.integers(0, 3) | _json})
    | _json,
}, optional={"tags": _tags, "created": st.floats() | _json})
_args = st.one_of(
    st.tuples(st.just("register"), _register),
    st.tuples(st.just("get"), st.fixed_dictionaries({"dataset_id": _ids})),
    st.tuples(st.just("tag"), st.fixed_dictionaries(
        {"dataset_id": _ids}, optional={"tags": _tags})),
    st.tuples(st.just("add_processing"), st.fixed_dictionaries({
        "dataset_id": _ids, "name": st.sampled_from(["align"]) | _json},
        optional={"params": _json, "results": _json, "started": _json,
                  "status": _json, "parent": _json})),
    st.tuples(st.just("query"), st.fixed_dictionaries(
        {"q": st.sampled_from([["all"], ["tag", "a"],
                               ["field", "plate", "==", 1]]) | _json},
        optional={"limit": _json, "ids_only": _json})),
    st.tuples(st.sampled_from(["ping", "stat", "exists", "nope", "auth"]),
              st.dictionaries(st.text(max_size=3), _json, max_size=2)),
)


@st.composite
def _envelopes(draw):
    op, args = draw(_args)
    if draw(st.booleans()) and op not in ("ping", "nope", "auth"):
        args = {"ops": draw(st.lists(
            _args.map(lambda pair: {"op": pair[0], "args": pair[1]})
            | _json, max_size=4))}
        op = "batch"
    envelope = {"op": op, "args": args}
    for field in draw(st.sets(st.sampled_from(["priority", "budget",
                                               "tenant"]))):
        envelope[field] = draw(_json | st.integers(0, 2))
    return envelope


def _durable_store():
    store = DurableMetadataStore(snapshot_every=5)
    store.register_project("zf", Schema("zf", [
        FieldSpec("plate", "int", required=True)]))
    store.index_field("plate")
    for i in range(2):
        store.register_dataset(f"d{i}", "zf", f"adal://disk/zf/d{i}", 1, "c",
                               {"plate": i}, tags=("a",))
    return store


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(_envelopes(), min_size=1, max_size=8))
def test_dispatch_keeps_the_books_and_the_log_replayable(envelopes):
    store = _durable_store()

    async def go():
        server = WireServer(store, workers=2)
        balances = []
        send = server._send

        def recording_send(*args, **kwargs):
            send(*args, **kwargs)
            balances.append(server.accounting()["silent_loss"])

        server._send = recording_send
        await server.start()
        try:
            peer = Peer()
            connect(peer, _Connection(server))
            peer.send(*[dict(envelope, id=i)
                        for i, envelope in enumerate(envelopes)])
            replies = await peer.replies_for(len(envelopes))
            peer.transport.close()
        finally:
            await server.stop()
        return balances, replies, server.accounting()

    balances, replies, books = asyncio.run(go())
    assert set(balances) == {0}
    assert sorted(r["id"] for r in replies) == list(range(len(envelopes)))
    assert books["received"] == books["responded"] == len(envelopes)
    live = store.state_bytes()
    store.crash()
    store.recover()
    assert store.state_bytes() == live
