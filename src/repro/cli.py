"""Command-line console for the LSDF reproduction.

Gives operators the paper's headline computations without writing code::

    python -m repro.cli capacity --start 2010 --end 2014
    python -m repro.cli transfer --petabytes 1 --gbits 10 --efficiency 0.62
    python -m repro.cli ingest --hours 2 --rate volume
    python -m repro.cli mapreduce --input-gb 100 --racks 4 --nodes-per-rack 15
    python -m repro.cli viz3d --terabytes 1
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro.simkit import units
from repro.simkit.units import fmt_bytes, fmt_duration, fmt_rate


def _cmd_capacity(args: argparse.Namespace) -> int:
    from repro.core import CapacityPlanner

    planner = CapacityPlanner()
    print(f"LSDF capacity roadmap, {args.start}-{args.end}")
    for row in planner.table(range(args.start, args.end + 1)):
        print(" ", row.fmt())
    shortfall = planner.first_shortfall(range(args.start, args.end + 1))
    print(f"first shortfall: {shortfall or 'none'}")
    return 0


def _cmd_transfer(args: argparse.Namespace) -> int:
    from repro.netsim import Network, Topology
    from repro.simkit import Simulator

    sim = Simulator()
    topo = Topology()
    topo.add_link("src", "dst", capacity=units.gbit_per_s(args.gbits))
    net = Network(sim, topo, efficiency=args.efficiency)
    nbytes = args.petabytes * units.PB
    ev = net.transfer("src", "dst", nbytes)
    sim.run()
    result = ev.value
    print(f"{fmt_bytes(nbytes)} over a {args.gbits:g} Gbit/s link "
          f"at {args.efficiency:.0%} efficiency:")
    print(f"  {fmt_duration(result.duration)} "
          f"({result.duration / units.DAY:.2f} days) "
          f"at {fmt_rate(result.mean_rate)}")
    return 0


def _cmd_ingest(args: argparse.Namespace) -> int:
    from repro.core import Facility
    from repro.workloads import zebrafish_microscopes

    facility = Facility(seed=args.seed)
    pipeline = facility.ingest_pipeline(
        zebrafish_microscopes(instruments=4, rate=args.rate)
    )
    report = pipeline.run(duration=args.hours * units.HOUR)
    print(f"zebrafish ingest, {args.hours:g} simulated hours "
          f"({args.rate} parameterisation):")
    for label, value in report.rows():
        print(f"  {label:22s} {value}")
    print(f"  metadata records       {len(facility.metadata):,}")
    return 0


def _cmd_mapreduce(args: argparse.Namespace) -> int:
    from repro.hdfs import HdfsCluster
    from repro.mapreduce import JobSpec, MapReduceSim
    from repro.simkit import Simulator

    sim = Simulator(seed=args.seed)
    cluster = HdfsCluster.build(sim, racks=args.racks,
                                nodes_per_rack=args.nodes_per_rack)
    mr = MapReduceSim(sim, cluster)
    holder = {}

    def scenario():
        yield cluster.write_file("/in", args.input_gb * units.GB, "core")
        holder["result"] = yield mr.submit(
            JobSpec("cli", "/in", map_cpu_per_byte=args.cpu_per_byte,
                    map_output_ratio=args.output_ratio, reduces=args.reduces)
        )

    p = sim.process(scenario())
    sim.run()
    if p.failed:
        print(f"error: {p.exception}", file=sys.stderr)
        return 1
    result = holder["result"]
    nodes = args.racks * args.nodes_per_rack
    print(f"MapReduce over {args.input_gb:g} GB on {nodes} nodes:")
    print(f"  job time      {fmt_duration(result.duration)}")
    print(f"  map tasks     {result.maps} ({result.locality_fraction:.0%} node-local)")
    print(f"  shuffled      {fmt_bytes(result.bytes_shuffled)}")
    print(f"  speculative   {result.speculative_launched} launched, "
          f"{result.speculative_wins} won")
    return 0


def _cmd_viz3d(args: argparse.Namespace) -> int:
    from repro.core import Facility
    from repro.workloads import viz3d_cluster_job

    facility = Facility(seed=args.seed)
    holder = {}

    def scenario():
        yield facility.load_into_hdfs("/data/volume", args.terabytes * units.TB)
        holder["result"] = yield facility.mapreduce.submit(
            viz3d_cluster_job("/data/volume")
        )

    p = facility.sim.process(scenario())
    facility.run()
    if p.failed:
        print(f"error: {p.exception}", file=sys.stderr)
        return 1
    result = holder["result"]
    print(f"3D visualisation of {args.terabytes:g} TB on the 60-node cluster:")
    print(f"  {fmt_duration(result.duration)} "
          f"(paper's claim for 1 TB: 20 min)")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.core import Facility, FacilityReport
    from repro.workloads import zebrafish_microscopes

    facility = Facility(seed=args.seed)
    if args.hours > 0:
        pipeline = facility.ingest_pipeline(zebrafish_microscopes(instruments=4))
        pipeline.run(duration=args.hours * units.HOUR)
    print(FacilityReport(facility).render())
    return 0


def _seed_policy_objects(facility, count: int = 8) -> None:
    """Real, content-hashed objects in the primary store with catalog
    entries under the default-rule communities (zebrafish + dna) — the
    minimum population for a meaningful placement-policy demo."""
    from repro.adal.api import checksum_bytes
    from repro.metadata.schema import FieldSpec, Schema

    facility.metadata.register_project(
        "dna", Schema("dna-basic", [FieldSpec("sample", "str")]))
    backend = facility.adal_registry.resolve("lsdf")
    for i in range(count):
        data = bytes([65 + (i % 26)]) * 4096
        if i % 4 == 3:
            project, basic = "dna", {"sample": f"run{i}"}
        else:
            project, basic = "zebrafish", {"plate": i, "well": "A01"}
        path = f"policy/obj{i}"
        backend.put(path, data)
        facility.metadata.register_dataset(
            f"policy-{i}", project, f"adal://lsdf/{path}", len(data),
            checksum_bytes(data), basic)


def _scenario_facility(args: argparse.Namespace):
    """A facility after the standard observable scenario: optional zebrafish
    ingest plus (``--drill``) one of the bundled chaos drills."""
    from repro.core import Facility
    from repro.workloads import zebrafish_microscopes

    facility = Facility(seed=args.seed)
    drill = getattr(args, "drill", "none")
    if drill == "resilience":
        facility.resilience_drill().run(facility)
    elif drill == "durability":
        facility.durability_drill().run(facility)
        facility.durability.scrubber.start()
    elif drill == "policy":
        _seed_policy_objects(facility, count=6)
        facility.sim.run(until=facility.convergence.converge_once())
        facility.policy_drill(start=facility.sim.now + 300.0).run(facility)
        facility.run(until=facility.sim.now + 700.0)
        facility.sim.run(until=facility.convergence.converge_once())
    if args.hours > 0:
        pipeline = facility.ingest_pipeline(zebrafish_microscopes(instruments=4))
        pipeline.run(duration=args.hours * units.HOUR)
    return facility


def _cmd_policy(args: argparse.Namespace) -> int:
    from repro.core import Facility
    from repro.core.config import lsdf_2011_config

    cfg = lsdf_2011_config()
    if args.quota_mb is not None:
        cfg.policy_quota_bytes = args.quota_mb * units.MB
    facility = Facility(cfg, seed=args.seed)
    _seed_policy_objects(facility, count=args.objects)
    if args.drill:
        # Establish the declared state first, then let chaos break it —
        # the reported pass is the *re*-convergence that heals the damage.
        facility.sim.run(until=facility.convergence.converge_once())
        facility.policy_drill(start=facility.sim.now + 300.0).run(facility)
        facility.run(until=facility.sim.now + 700.0)
    report = facility.sim.run(until=facility.convergence.converge_once())
    remaining = facility.drift.detect(publish=False)
    audit = facility.durability.auditor.audit(verify_content=True)
    stats = facility.policy.stats()
    print(f"placement policy over {stats['managed_datasets']} managed "
          f"dataset(s), {stats['rules']} rule(s)"
          + (" after the chaos drill" if args.drill else "") + ":")
    print(f"  pass                  "
          f"{'converged' if report.converged else 'DIVERGED'}"
          + (" (degraded)" if report.degraded else "")
          + f" in {report.rounds} round(s), "
            f"{fmt_duration(report.finished - report.started)}")
    for label, n in sorted(report.actions.items()):
        print(f"  {label:22s} x{n}")
    if report.quota_skipped or report.failed or report.abandoned:
        print(f"  blocked               quota={report.quota_skipped} "
              f"failed={report.failed} abandoned={report.abandoned}")
    print(f"  residual drift        {len(remaining)}")
    print(f"  consistency audit     "
          f"{'clean' if audit.clean else 'VIOLATIONS'}")
    ok = report.converged and not remaining and audit.clean
    if args.check and not ok:
        print("policy convergence check FAILED", file=sys.stderr)
        return 1
    return 0


def _cmd_frontdoor(args: argparse.Namespace) -> int:
    from repro.frontdoor import run_overload_drill

    facility, result = run_overload_drill(
        seed=args.seed,
        scale=args.scale,
        duration_scale=args.duration_scale,
        enabled=not args.naive,
        storm=args.storm,
    )
    arm = "naive (defences off)" if args.naive else (
        "storm (impatient clients)" if args.storm else "admission-controlled")
    print(f"overload drill, {arm} arm, scale {args.scale:g}:")
    for phase in result.phases:
        print(f"  {phase.name:10s} {phase.submitted:7,} submitted  "
              f"{phase.admitted:7,} admitted  {phase.served:7,} served  "
              f"goodput {phase.goodput:7.2f}/s")
    terminal = result.accounting["terminal"]
    outcomes = ", ".join(f"{outcome} x{count:,}"
                         for outcome, count in terminal.items() if count)
    print(f"  outcomes   {outcomes}")
    print(f"  queue      peak {result.peak_queue_depth} "
          f"(bound {result.queue_bound}), {result.flushed} flushed")
    print(f"  retries    {result.client_retries:,} client resubmissions, "
          f"{result.admitted_retries:,} admitted")
    print(f"  accounting silent loss {result.accounting['silent_loss']}")
    if result.failures:
        for failure in result.failures:
            print(f"  GATE FAILED: {failure}")
    else:
        print("  gates      all passed")
    if args.check and not result.passed:
        print("overload drill check FAILED", file=sys.stderr)
        return 1
    return 0


def _cmd_wire(args: argparse.Namespace) -> int:
    from repro.adal.wire import run_wire_bench

    arms = {}
    for batching in ((True, False) if args.compare else (args.batching,)):
        arms[batching] = run_wire_bench(
            clients=args.clients,
            ops_per_client=args.ops,
            batching=batching,
            pool_size=args.pool_size,
            workers=args.workers,
            budget=args.budget,
        )
    print(f"wire ADAL bench, {args.clients} clients x {args.ops} ops:")
    for batching, result in arms.items():
        arm = "batched  " if batching else "unbatched"
        extra = (f", {result['mean_batch_size']:.1f} ops/envelope"
                 if batching and result["client_batches"] else "")
        print(f"  {arm}  {result['throughput_rps']:9,.0f} rps  "
              f"p50 {result['latency_p50_s'] * 1e3:6.2f} ms  "
              f"p99 {result['latency_p99_s'] * 1e3:6.2f} ms  "
              f"{result['ops_ok']:,}/{result['ops_total']:,} ok{extra}")
    failures = []
    for batching, result in arms.items():
        arm = "batched" if batching else "unbatched"
        if result["errors"]:
            failures.append(f"{arm}: errors {result['errors']}")
        if result["server_accounting"]["silent_loss"]:
            failures.append(f"{arm}: server silent loss "
                            f"{result['server_accounting']['silent_loss']}")
        if result["client_accounting"]["outstanding"]:
            failures.append(f"{arm}: client outstanding "
                            f"{result['client_accounting']['outstanding']}")
        if result["leaked_tasks"] or result["open_connections_after_close"]:
            failures.append(
                f"{arm}: leaked {result['leaked_tasks']} task(s), "
                f"{result['open_connections_after_close']} connection(s)")
        if result["goodput_rps"] < args.goodput_floor:
            failures.append(f"{arm}: goodput {result['goodput_rps']:,.0f}/s "
                            f"under floor {args.goodput_floor:,.0f}/s")
    if args.compare:
        speedup = (arms[True]["throughput_rps"]
                   / arms[False]["throughput_rps"]
                   if arms[False]["throughput_rps"] else 0.0)
        print(f"  batching speedup {speedup:.1f}x")
    if failures:
        for failure in failures:
            print(f"  GATE FAILED: {failure}")
    else:
        print("  gates      all passed")
    if args.check and failures:
        print("wire bench check FAILED", file=sys.stderr)
        return 1
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    import json

    from repro.telemetry import to_json, to_prometheus

    facility = _scenario_facility(args)
    hub = facility.telemetry
    if args.format == "json":
        print(json.dumps(to_json(hub), indent=2, sort_keys=True))
    else:
        print(to_prometheus(hub.registry))
    missing = [name for name in args.require if not hub.registry.has(name)]
    if missing:
        print(f"missing required metrics: {', '.join(missing)}",
              file=sys.stderr)
        return 1
    return 0


def _cmd_events(args: argparse.Namespace) -> int:
    facility = _scenario_facility(args)
    bus = facility.telemetry.bus
    for event in bus.tail(args.tail, kind=args.kind):
        detail = " ".join(f"{k}={v}" for k, v in sorted(event.data.items())
                          if v is not None)
        print(f"t={event.time:>10.1f}  {event.severity:<7s} "
              f"{event.kind:<26s} {event.subject}"
              + (f"  {detail}" if detail else ""))
    counts = bus.counts()
    summary = ", ".join(f"{kind} x{count}" for kind, count in counts.items())
    print(f"-- {bus.published} event(s) published"
          + (f": {summary}" if summary else ""))
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro.cli",
        description="Console for the simulated Large Scale Data Facility",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("capacity", help="community demand vs procurement table")
    p.add_argument("--start", type=int, default=2010)
    p.add_argument("--end", type=int, default=2014)
    p.set_defaults(fn=_cmd_capacity)

    p = sub.add_parser("transfer", help="bulk-transfer time arithmetic")
    p.add_argument("--petabytes", type=float, default=1.0)
    p.add_argument("--gbits", type=float, default=10.0)
    p.add_argument("--efficiency", type=float, default=1.0)
    p.set_defaults(fn=_cmd_transfer)

    p = sub.add_parser("ingest", help="run the zebrafish ingest pipeline")
    p.add_argument("--hours", type=float, default=1.0)
    p.add_argument("--rate", choices=("frames", "volume"), default="frames")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_ingest)

    p = sub.add_parser("mapreduce", help="run a MapReduce job on a simulated cluster")
    p.add_argument("--input-gb", type=float, default=100.0)
    p.add_argument("--racks", type=int, default=4)
    p.add_argument("--nodes-per-rack", type=int, default=15)
    p.add_argument("--reduces", type=int, default=16)
    p.add_argument("--cpu-per-byte", type=float, default=2e-8)
    p.add_argument("--output-ratio", type=float, default=0.1)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_mapreduce)

    p = sub.add_parser("viz3d", help="the paper's 1 TB / 20 min claim")
    p.add_argument("--terabytes", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_viz3d)

    p = sub.add_parser("report", help="facility status report "
                                      "(optionally after some ingest)")
    p.add_argument("--hours", type=float, default=0.0,
                   help="simulated hours of zebrafish ingest first")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_report)

    p = sub.add_parser("policy", help="placement rules: seed objects, "
                                      "converge, report declared-state drift")
    p.add_argument("--objects", type=int, default=8,
                   help="demo objects to seed in the primary store")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--quota-mb", type=float, default=None,
                   help="per-community replica quota in MB "
                        "(demonstrates graceful degradation)")
    p.add_argument("--drill", action="store_true",
                   help="run the bundled policy chaos drill before converging")
    p.add_argument("--check", action="store_true",
                   help="exit non-zero unless the pass converges with zero "
                        "residual drift and a clean audit (CI gate)")
    p.set_defaults(fn=_cmd_policy)

    p = sub.add_parser("frontdoor", help="run the front-door overload drill "
                                         "and report its gates")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--scale", type=float, default=1.0,
                   help="client / rate-limit / worker scale (CI uses 0.2)")
    p.add_argument("--duration-scale", type=float, default=1.0,
                   help="phase-duration multiplier (CI uses 0.5)")
    p.add_argument("--naive", action="store_true",
                   help="run the ablation arm with every defence disabled")
    p.add_argument("--storm", action="store_true",
                   help="impatient clients: resubmit failed requests")
    p.add_argument("--check", action="store_true",
                   help="exit non-zero unless every drill gate passes "
                        "(CI gate)")
    p.set_defaults(fn=_cmd_frontdoor)

    p = sub.add_parser("wire", help="drive the asyncio wire ADAL server "
                                    "over localhost TCP and report rps/p99")
    p.add_argument("--clients", type=int, default=32,
                   help="logical closed-loop clients sharing one pool")
    p.add_argument("--ops", type=int, default=50,
                   help="operations per logical client")
    p.add_argument("--pool-size", type=int, default=8,
                   help="client connection-pool bound")
    p.add_argument("--workers", type=int, default=4,
                   help="server-side worker tasks")
    p.add_argument("--budget", type=float, default=5.0,
                   help="per-request deadline budget in seconds")
    p.add_argument("--no-batching", dest="batching", action="store_false",
                   help="disable client-side request coalescing")
    p.add_argument("--compare", action="store_true",
                   help="run both the batched and unbatched arms")
    p.add_argument("--goodput-floor", type=float, default=0.0,
                   metavar="RPS",
                   help="exit gate: minimum ok-responses/s per arm "
                        "(used with --check by the CI smoke job)")
    p.add_argument("--check", action="store_true",
                   help="exit non-zero on any gate failure: errors, silent "
                        "loss, leaked tasks/connections, goodput floor")
    p.set_defaults(fn=_cmd_wire)

    p = sub.add_parser("metrics", help="dump the telemetry registry "
                                       "(Prometheus text or JSON)")
    p.add_argument("--hours", type=float, default=0.25,
                   help="simulated hours of zebrafish ingest first")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--drill",
                   choices=("none", "resilience", "durability", "policy"),
                   default="none", help="run a bundled chaos drill first")
    p.add_argument("--require", action="append", default=[],
                   metavar="METRIC",
                   help="exit non-zero unless this metric name is registered "
                        "(repeatable; used by the CI smoke step)")
    p.set_defaults(fn=_cmd_metrics)

    p = sub.add_parser("events", help="tail the facility event bus")
    p.add_argument("--hours", type=float, default=0.25,
                   help="simulated hours of zebrafish ingest first")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tail", type=int, default=20,
                   help="show at most this many trailing events")
    p.add_argument("--kind", default=None,
                   help="glob filter on the event kind, e.g. 'breaker.*'")
    p.add_argument("--drill",
                   choices=("none", "resilience", "durability", "policy"),
                   default="none", help="run a bundled chaos drill first")
    p.set_defaults(fn=_cmd_events)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point."""
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    raise SystemExit(main())
