"""E19 — wire-speed ADAL: requests/s and p99 vs client count, batched vs not.

The facility's metadata/ADAL front door eventually has to answer real
sockets.  E19 stands up the asyncio :class:`~repro.adal.wire.WireServer`
on localhost and drives it closed-loop at increasing client counts, in
two arms:

* **batched** — the pooled :class:`~repro.adal.wire.WireClient` with
  automatic request coalescing (N in-flight lookups ride one framed
  batch envelope, served by one admission pass and one store pass);
* **unbatched** — the same client with coalescing disabled: one frame,
  one admission pass, one store pass per op.

Gates: at every client count from 32 up the batched arm must sustain
>= 2x the unbatched requests/s (the 1- and 8-client rows are printed for
information: too few requests are in flight there to coalesce); every
arm must close its zero-silent-loss balance on both sides of the socket
and leak no tasks or connections.  p99 latency must
stay inside the request deadline budget — the deadline machinery reused
from the front door would otherwise fail requests visibly, never
silently.

``LSDF_BENCH_TINY=1`` shrinks client counts and per-client ops for the
CI smoke lane.  The wire layer is wall-clock by design (the determinism
boundary sits at the socket), so throughput numbers vary run to run;
every *correctness* gate (loss, leaks, batching ratio) is load-bearing,
the absolute rps numbers are reported for the record.
"""

import os

from repro.adal.wire import run_wire_bench

_TINY = os.environ.get("LSDF_BENCH_TINY", "") not in ("", "0")

#: Client-count scaling ladder (logical clients sharing one pooled client).
_CLIENTS = (1, 8, 32) if _TINY else (1, 8, 32, 128)
_OPS = 20 if _TINY else 60
#: The smallest client count the batched >= 2x unbatched gate applies to.
_GATE_CLIENTS = 32
_BUDGET = 5.0


def _arm(clients, batching):
    return run_wire_bench(
        clients=clients, ops_per_client=_OPS, batching=batching,
        pool_size=8, max_in_flight=64, workers=4, budget=_BUDGET)


def _fmt_rps(result):
    return (f"{result['throughput_rps']:,.0f} rps, "
            f"p99 {result['latency_p99_s'] * 1000:.2f} ms")


def test_e19_wire_scaling(benchmark, report):
    results = benchmark.pedantic(
        lambda: {
            clients: {"batched": _arm(clients, True),
                      "unbatched": _arm(clients, False)}
            for clients in _CLIENTS
        },
        rounds=1, iterations=1)

    rows = []
    for clients in _CLIENTS:
        batched = results[clients]["batched"]
        unbatched = results[clients]["unbatched"]
        speedup = (batched["throughput_rps"] / unbatched["throughput_rps"]
                   if unbatched["throughput_rps"] else 0.0)
        # Below the gate client count too few requests are in flight to
        # coalesce: those rows are informational, not the paper's claim.
        rows.append((
            f"{clients:3d} clients: batched vs unbatched",
            ">= 2x" if clients >= _GATE_CLIENTS else "- (below gate)",
            f"{speedup:.1f}x  ({_fmt_rps(batched)} vs {_fmt_rps(unbatched)})"))
    gate = results[_GATE_CLIENTS]
    rows.extend([
        ("batched arm mean batch size (32 clients)", "> 1 (coalescing on)",
         f"{gate['batched']['mean_batch_size']:.1f} ops/envelope "
         f"({gate['batched']['client_batches']} envelopes)"),
        ("server silent loss, all arms", "0",
         str(sum(results[c][arm]["server_accounting"]["silent_loss"]
                 for c in _CLIENTS for arm in ("batched", "unbatched")))),
        ("client outstanding after close, all arms", "0",
         str(sum(results[c][arm]["client_accounting"]["outstanding"]
                 for c in _CLIENTS for arm in ("batched", "unbatched")))),
        ("leaked tasks / open conns after close", "0 / 0",
         f"{sum(results[c][arm]['leaked_tasks'] for c in _CLIENTS for arm in ('batched', 'unbatched'))}"
         f" / {sum(results[c][arm]['open_connections_after_close'] for c in _CLIENTS for arm in ('batched', 'unbatched'))}"),
        ("batched p99 within deadline budget", f"< {_BUDGET:.0f} s",
         f"{gate['batched']['latency_p99_s'] * 1000:.2f} ms"),
    ])
    report("E19", "wire ADAL: client-count scaling, batched vs unbatched",
           rows)

    # Correctness gates: nothing lost, nothing leaked, errors empty.
    for clients in _CLIENTS:
        for arm in ("batched", "unbatched"):
            result = results[clients][arm]
            label = f"{clients} clients {arm}"
            assert result["errors"] == {}, (label, result["errors"])
            assert result["ops_ok"] == result["ops_total"], label
            assert result["server_accounting"]["silent_loss"] == 0, label
            assert result["client_accounting"]["outstanding"] == 0, label
            assert result["leaked_tasks"] == 0, label
            assert result["open_connections_after_close"] == 0, label

    # Performance gates: >= 2x at every client count from the gate up.
    for clients in _CLIENTS:
        if clients >= _GATE_CLIENTS:
            arms = results[clients]
            assert (arms["batched"]["throughput_rps"]
                    >= 2.0 * arms["unbatched"]["throughput_rps"]), (
                clients, arms["batched"]["throughput_rps"],
                arms["unbatched"]["throughput_rps"])
    assert gate["batched"]["mean_batch_size"] > 1.0
    assert gate["batched"]["latency_p99_s"] < _BUDGET
