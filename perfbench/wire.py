"""The wire-path workloads: ``wire_small_hot``, ``wire_query_30k``,
``wire_durable_write``.

One repetition is a fresh store, a fresh in-process
:class:`~repro.adal.wire.server.WireServer` on loopback and one pooled,
batching :class:`~repro.adal.wire.client.WireClient`, driven **closed
loop** by ``callers`` logical client tasks: each issues its next call only
when the previous one has answered, as the facility's transfer agents and
workflow actors do.  An operation is one client call; its latency is
timed by the benchmark around ``WireClient.get/query/register/tag``.

The op sequence is index arithmetic offset by the seed — no RNG, no
wall-clock input — so every repetition of a run issues identical work.
"""

from __future__ import annotations

import asyncio
import os
import time

from repro.adal.wire import protocol
from repro.adal.wire.client import WireClient
from repro.adal.wire.server import WireServer
from repro.durability.durable import DurableMetadataStore
from repro.durability.wal import FileWalStorage, WalStorage, WriteAheadLog
from repro.frontdoor.admission import AdmissionQueue
from repro.metadata.query import Q
from repro.metadata.schema import FieldSpec, Schema
from repro.metadata.store import MetadataStore

from perfbench import spec

#: Whether ``one_rep`` takes a span recorder (the traced run asks).
SPANNED = True
_REFUSED = ("rejected", "shed", "deadline", "closed")
# Under perfbench/out/, not /tmp: both sides of a comparison must fsync
# the same filesystem.
_WAL = os.path.join(spec.OUT, f"wal_{os.getpid()}.log")


def _remove_wal() -> None:
    for leftover in (_WAL, _WAL + ".snap", _WAL + ".snap.tmp"):
        if os.path.exists(leftover):
            os.remove(leftover)


def _build_store(size: dict) -> MetadataStore:
    """The bench project plus ``prepopulate`` records, ``run`` indexed."""
    if size["durable"]:
        _remove_wal()
        store: MetadataStore = DurableMetadataStore(
            WriteAheadLog(FileWalStorage(_WAL)))
    else:
        store = MetadataStore()
    store.register_project("bench", Schema("bench", [
        FieldSpec("run", "int", required=True),
        FieldSpec("detector", "str", required=True),
    ]))
    store.index_field("run")
    items = [
        dict(dataset_id=f"ds-{i:06d}", project="bench",
             url=f"adal://disk/bench/ds-{i:06d}", size=1024 + i,
             checksum=f"crc-{i:08x}",
             basic={"run": i % 64, "detector": f"det{i % 4}"},
             created=float(i), tags=(f"shard{i % 8}",))
        for i in range(size["prepopulate"])
    ]
    if size["durable"]:
        store.register_batch(items)  # one flush, not one fsync per record
    else:
        for item in items:
            store.register_dataset(**item)
    return store


async def _caller(client: WireClient, index: int, size: dict, seed: int,
                  latencies: list[float], acked: list[str],
                  errors: dict[str, int]) -> None:
    """One closed-loop logical client."""
    mix = size["mix"]
    get_below = mix["get"]
    query_below = get_below + mix["query"]
    register_below = query_below + mix["register"]
    total = register_below + mix["tag"]
    prepopulate = size["prepopulate"]
    now = time.perf_counter
    for j in range(size["ops_per_caller"]):
        k = (index * 1000003 + j * 7919 + seed) % total
        target = (index * 271 + j * 131 + seed * 17) % prepopulate
        new_id = None
        began = now()
        try:
            if k < get_below:
                await client.get(f"ds-{target:06d}")
            elif k < query_below:
                await client.query(Q.field("run") == (target % 64),
                                   limit=10, ids_only=True)
            elif k < register_below:
                new_id = f"new-{index:04d}-{j:06d}"
                await client.register(
                    new_id, "bench", f"adal://disk/bench/{new_id}",
                    size=2048, checksum=f"crc-n{index:04x}{j:06x}",
                    basic={"run": 64 + (j % 16), "detector": "det0"})
            else:
                await client.tag(f"ds-{target:06d}", f"seen{index % 4}")
        except Exception as exc:  # any failed call is a counted failure
            name = type(exc).__name__
            errors[name] = errors.get(name, 0) + 1
            continue
        latencies.append(now() - began)
        if new_id is not None:
            acked.append(new_id)


def _install_spans(spans) -> None:
    """Wrap the wire path's synchronous public entry points."""
    spans.wrap_async_root(WireClient, "call", "client.call",
                          note=lambda args: args[1])
    spans.wrap(AdmissionQueue, "offer", "queue.offer",
               note=lambda args, ok: [id(args[1]), args[1].nops])
    spans.wrap(AdmissionQueue, "pop", "queue.pop",
               note=lambda args, request: id(request) if request else None)
    for attr, name in (("get", "metadata.get"), ("query", "metadata.query"),
                       ("register_dataset", "metadata.register"),
                       ("tag", "metadata.tag")):
        spans.wrap(MetadataStore, attr, name)
    spans.wrap(DurableMetadataStore, "register_batch",
               "durability.register_batch")
    spans.wrap(WriteAheadLog, "append", "wal.append",
               note=lambda args, record: 1)
    spans.wrap(WriteAheadLog, "append_batch", "wal.append_batch",
               note=lambda args, records: len(args[1]))
    for medium in WalStorage.__subclasses__():
        if "append" in medium.__dict__:
            spans.wrap(medium, "append", "wal.storage_append",
                       note=lambda args, _: [type(args[0]).__name__,
                                             len(args[1])])
    spans.wrap_function(protocol, "encode_frame", "protocol.encode_frame")
    spans.wrap_function(protocol, "query_from_wire",
                        "protocol.query_from_wire")


def _span_metrics(spans, ops: int) -> dict[str, float]:
    """Per-layer wall numbers from one repetition's spans (µs)."""
    total_self: dict[str, int] = {}
    count: dict[str, int] = {}
    for span, own in zip(spans.spans, spans.self_ns()):
        total_self[span[0]] = total_self.get(span[0], 0) + own
        count[span[0]] = count.get(span[0], 0) + 1

    def mean_us(name: str) -> float:
        return total_self[name] / count[name] / 1e3 if name in count else 0.0

    def per_op_us(*names: str) -> float:
        return sum(total_self.get(n, 0) for n in names) / ops / 1e3

    offered: dict[int, tuple[int, int]] = {}
    call_ns = writes = wait_ns = waited_ops = 0
    wal_ns = fsyncs = wal_bytes = records = flushes = 0
    for name, start, end, _parent, note in spans.spans:
        if name == "client.call":
            call_ns += end - start
            writes += note in ("register", "tag")
        elif name == "queue.offer":
            offered[note[0]] = (start, note[1])
        elif name == "queue.pop" and note is not None:
            # A request object cannot be recycled between its offer and
            # its pop, so id() pairs them even though ids get reused.
            began, nops = offered.pop(note)
            wait_ns += (end - began) * nops
            waited_ops += nops
        elif name in ("wal.append", "wal.append_batch"):
            wal_ns += end - start
            records += note
            flushes += 1
        elif name == "wal.storage_append":
            wal_bytes += note[1]
            fsyncs += note[0] == "FileWalStorage"
    attributed = [n for n in total_self if n != "client.call"]
    return {
        "metadata.get_us": mean_us("metadata.get"),
        "metadata.query_us": mean_us("metadata.query"),
        "metadata.register_us": mean_us("metadata.register"),
        "metadata.tag_us": mean_us("metadata.tag"),
        "metadata.store_us_per_request": per_op_us(
            "metadata.get", "metadata.query", "metadata.register",
            "metadata.tag"),
        "durability.wal_append_us": wal_ns / writes / 1e3,
        "durability.fsyncs_per_write": fsyncs / writes,
        "durability.wal_bytes_per_write": wal_bytes / writes,
        "durability.group_commit_size": records / flushes if flushes else 0.0,
        "frontdoor.admission_us": per_op_us("queue.offer", "queue.pop"),
        "frontdoor.queue_wait_us": wait_ns / waited_ops / 1e3,
        "adal.wire.protocol.encode_us": per_op_us("protocol.encode_frame"),
        "adal.wire.loop_other_us":
            call_ns / ops / 1e3 - per_op_us(*attributed),
    }


async def _open(size: dict):
    """Store build + pre-population, server start, client construction."""
    store = _build_store(size)
    server = WireServer(store, workers=size["workers"])
    await server.start()
    client = WireClient("127.0.0.1", server.port, pool_size=size["pool"],
                        batching=True)
    return store, server, client


async def _close(server: WireServer, client: WireClient,
                 baseline: set) -> list[str]:
    """Shut both ends down; report anything that outlived them."""
    await client.close()
    await server.stop()
    # One loop turn lets transports finish their close callbacks before
    # stragglers are counted.
    await asyncio.sleep(0)
    problems = []
    leaked = [t for t in asyncio.all_tasks()
              if t not in baseline and not t.done()]
    if leaked:
        problems.append(f"{len(leaked)} tasks leaked")
    if client.open_connections:
        problems.append(f"{client.open_connections} connections left open")
    return problems


async def _rep(size: dict, seed: int, profiler, spans) -> dict:
    started = time.perf_counter()
    baseline = set(asyncio.all_tasks())
    store, server, client = await _open(size)
    latencies: list[float] = []
    acked: list[str] = []
    errors: dict[str, int] = {}
    ready = time.perf_counter()
    if spans is not None:
        _install_spans(spans)
    if profiler is not None:
        profiler.enable()
    try:
        await asyncio.gather(*[
            _caller(client, index, size, seed, latencies, acked, errors)
            for index in range(size["callers"])])
    finally:
        if profiler is not None:
            profiler.disable()
        if spans is not None:
            spans.uninstall()
    done = time.perf_counter()

    issued = size["callers"] * size["ops_per_caller"]
    problems = [f"{n} calls raised {name}" for name, n in sorted(errors.items())]
    server_books = server.accounting()
    client_books = client.accounting()
    if (server_books["silent_loss"] or server_books["queued"]
            or server_books["in_flight"]):
        problems.append(f"server books do not close: {server_books}")
    if client_books["outstanding"] or client_books["submitted"] != issued:
        problems.append(f"client books do not close: {client_books}")
    unreadable = sum(1 for dataset_id in acked if not store.exists(dataset_id))
    if unreadable:
        problems.append(f"{unreadable} acknowledged registers unreadable")

    creg = client.telemetry.registry
    sreg = server.telemetry.registry
    layer = {
        "frontdoor.peak_queue_depth":
            float(server.stats()["peak_queue_depth"]),
        "adal.wire.protocol.bytes_per_request":
            (creg.total("wire.client_bytes_written_total")
             + creg.total("wire.client_bytes_read_total")) / issued,
        "adal.wire.client.batch_size_mean":
            creg.series("wire.client_batch_size").mean,
        "adal.wire.client.pool_opens": creg.total("wire.pool_opens_total"),
        "adal.wire.server.service_us":
            sreg.series("wire.service_seconds").total / issued * 1e6,
        "adal.wire.server.batch_size_mean":
            sreg.series("wire.batch_size").mean,
        "adal.wire.server.refused": float(sum(
            sreg.value("wire.responses_total", status=status)
            for status in _REFUSED)),
    }
    if spans is not None:
        layer.update(_span_metrics(spans, issued))
    problems += await _close(server, client, baseline)

    if size["durable"]:
        live = store.state_bytes()
        began = time.perf_counter()
        recovered = DurableMetadataStore(WriteAheadLog(FileWalStorage(_WAL)))
        recovered.recover()
        layer["durability.recover_s"] = time.perf_counter() - began
        if recovered.state_bytes() != live:
            problems.append("recovered state differs from the live store")
        _remove_wal()
    return {
        "build_s": ready - started,
        "wall_s": done - ready,
        "ops": issued,
        "failed": issued - len(latencies),
        "samples_ms": [v * 1e3 for v in latencies],
        "problems": problems,
        "digest": None,
        "layer": layer,
    }


def one_rep(size: dict, seed: int, profiler=None, spans=None) -> dict:
    """Build fresh state, drive the closed loop once (timed), check it."""
    return asyncio.run(_rep(size, seed, profiler, spans))


async def _setup(size: dict) -> None:
    baseline = set(asyncio.all_tasks())
    _store, server, client = await _open(size)
    await _close(server, client, baseline)
    _remove_wal()


def setup_once(size: dict, seed: int) -> None:
    """Everything ``setup_s`` pays for after the imports."""
    asyncio.run(_setup(size))
