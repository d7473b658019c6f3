"""The E19 wire-bench harness: client-count scaling, batched vs unbatched.

:func:`run_wire_bench` stands up a real :class:`WireServer` on an
ephemeral localhost port, drives it closed-loop with ``clients`` logical
client tasks sharing one pooled :class:`WireClient`, and returns the
headline numbers: sustained requests/s, latency percentiles, batch
coalescing stats, the server's zero-silent-loss balance and a leaked-task
count.  The same harness backs the E19 benchmark, the ``repro wire``
CLI subcommand and the CI ``smoke`` job, so every consumer measures
the exact same thing.

The op mix is deterministic — pure index arithmetic, no RNG, no
wall-clock seeding — so two runs issue identical operation sequences and
arms differ only in the knob under test (client count, batching).
"""

from __future__ import annotations

import asyncio
import time
from typing import Optional

from repro.adal.wire.client import WireClient
from repro.adal.wire.server import WireServer
from repro.metadata.query import Q
from repro.metadata.schema import FieldSpec, Schema
from repro.metadata.store import MetadataStore

#: Op-mix weights out of 10: six gets, two queries, one register, one tag.
_GET, _QUERY, _REGISTER, _TAG = 6, 2, 1, 1


def build_bench_store(prepopulate: int = 512) -> MetadataStore:
    """A metadata store with the bench project and ``prepopulate`` records.

    The ``run`` field is registered as an (ordered) secondary index so the
    bench's server-side queries take the pruned path, as a production
    deployment's would.
    """
    store = MetadataStore()
    store.register_project("bench", Schema("bench", [
        FieldSpec("run", "int", required=True),
        FieldSpec("detector", "str", required=True),
    ]))
    store.index_field("run")
    for i in range(prepopulate):
        store.register_dataset(
            f"ds-{i:06d}", "bench", f"adal://disk/bench/ds-{i:06d}",
            size=1024 + i, checksum=f"crc-{i:08x}",
            basic={"run": i % 64, "detector": f"det{i % 4}"},
            created=float(i), tags=(f"shard{i % 8}",))
    return store


async def _client_task(client: WireClient, index: int, n_ops: int,
                       prepopulate: int, errors: dict) -> int:
    """One closed-loop logical client; returns its ok-response count."""
    ok = 0
    for j in range(n_ops):
        k = (index * 1000003 + j * 7919) % (_GET + _QUERY + _REGISTER + _TAG)
        target = (index * 271 + j * 131) % prepopulate
        try:
            if k < _GET:
                await client.get(f"ds-{target:06d}")
            elif k < _GET + _QUERY:
                await client.query(Q.field("run") == (target % 64),
                                   limit=10, ids_only=True)
            elif k < _GET + _QUERY + _REGISTER:
                await client.register(
                    f"new-{index:04d}-{j:06d}", "bench",
                    f"adal://disk/bench/new-{index:04d}-{j:06d}",
                    size=2048, checksum=f"crc-n{index:04x}{j:06x}",
                    basic={"run": 64 + (j % 16), "detector": "det0"})
            else:
                await client.tag(f"ds-{target:06d}", f"seen{index % 4}")
            ok += 1
        except Exception as exc:
            name = type(exc).__name__
            errors[name] = errors.get(name, 0) + 1
    return ok


async def _run(clients: int, ops_per_client: int, batching: bool,
               pool_size: int, max_in_flight: int, workers: int,
               prepopulate: int, budget: float,
               store: Optional[MetadataStore]) -> dict:
    baseline = set(asyncio.all_tasks())
    if store is None:
        store = build_bench_store(prepopulate)
    server = WireServer(store, workers=workers,
                        deadlines=(budget, budget, budget))
    await server.start()
    client = WireClient("127.0.0.1", server.port, pool_size=pool_size,
                        max_in_flight=max_in_flight, batching=batching,
                        budget=budget)
    errors: dict[str, int] = {}
    started = time.monotonic()
    ok_counts = await asyncio.gather(*[
        _client_task(client, i, ops_per_client, prepopulate, errors)
        for i in range(clients)
    ])
    elapsed = time.monotonic() - started
    ok = sum(ok_counts)
    total = clients * ops_per_client
    latency = client.telemetry.registry.series("wire.client_latency_seconds")
    reg = client.telemetry.registry
    result = {
        "clients": clients,
        "ops_per_client": ops_per_client,
        "batching": batching,
        "ops_total": total,
        "ops_ok": ok,
        "errors": dict(sorted(errors.items())),
        "elapsed_s": elapsed,
        "throughput_rps": total / elapsed if elapsed > 0 else 0.0,
        "goodput_rps": ok / elapsed if elapsed > 0 else 0.0,
        "latency_p50_s": latency.percentile(50),
        "latency_p95_s": latency.percentile(95),
        "latency_p99_s": latency.percentile(99),
        "client_batches": int(reg.total("wire.client_batches_total")),
        "mean_batch_size": reg.series("wire.client_batch_size").mean,
        "pool_reuse": int(reg.total("wire.pool_reuse_total")),
        "pool_opens": int(reg.total("wire.pool_opens_total")),
        "client_accounting": client.accounting(),
        "server": server.stats(),
        "server_accounting": server.accounting(),
    }
    await client.close()
    await server.stop()
    # Give transports one loop turn to finish their close callbacks before
    # counting stragglers.
    await asyncio.sleep(0)
    leaked = [t for t in asyncio.all_tasks()
              if t not in baseline and not t.done()]
    result["leaked_tasks"] = len(leaked)
    result["open_connections_after_close"] = client.open_connections
    return result


def run_wire_bench(
    clients: int = 8,
    ops_per_client: int = 50,
    batching: bool = True,
    pool_size: int = 8,
    max_in_flight: int = 64,
    workers: int = 4,
    prepopulate: int = 512,
    budget: float = 5.0,
    store: Optional[MetadataStore] = None,
) -> dict:
    """Run one wire-bench arm end to end and return its result row.

    Starts a private event loop, so it is callable from synchronous bench
    and CI code.  ``store`` overrides the default in-memory bench store
    (pass a :class:`~repro.durability.durable.DurableMetadataStore` to
    exercise the WAL group-commit fast path under wire batching).
    """
    if clients < 1 or ops_per_client < 1:
        raise ValueError("clients and ops_per_client must be >= 1")
    return asyncio.run(_run(
        clients=clients, ops_per_client=ops_per_client, batching=batching,
        pool_size=pool_size, max_in_flight=max_in_flight, workers=workers,
        prepopulate=prepopulate, budget=budget, store=store))
