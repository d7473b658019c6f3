"""E17 — placement policy: time-to-converged vs object count.

The paper's data-management section promises per-community placement
(replicas for microscopy, HDFS-local staging for DNA, tape for archives)
but leaves enforcement to operators.  E17 measures the declarative policy
engine closing that loop: for growing catalog sizes the convergence
daemon must lay down every declared replica/tape/HDFS placement
(time-to-converged, the establishment pass), then heal the full chaos
drill — silent corruption, an array brown-out and a datanode loss —
back to zero declared-state violations (time-to-reconverged).

Twin runs of the smallest arm must be bit-identical: convergence is part
of the facility's deterministic core, not a best-effort background job.

``LSDF_BENCH_TINY=1`` shrinks the scales for CI smoke runs.
"""

import os

from repro.adal.api import checksum_bytes
from repro.core import Facility, FacilityConfig
from repro.core.config import ArraySpec
from repro.metadata.schema import FieldSpec, Schema
from repro.simkit.units import KiB, TB

_TINY = os.environ.get("LSDF_BENCH_TINY", "") not in ("", "0")
_SCALES = (4, 8) if _TINY else (8, 16, 32)
_OBJECT_SIZE = 4 * KiB if _TINY else 64 * KiB
_DRILL_AT = 300.0
_SETTLE = 700.0


def _seed_objects(facility, count):
    facility.metadata.register_project(
        "dna", Schema("dna-basic", [FieldSpec("sample", "str")]))
    backend = facility.adal_registry.resolve("lsdf")
    for i in range(count):
        data = bytes([i % 251]) * int(_OBJECT_SIZE)
        if i % 3 == 2:
            project, basic = "dna", {"sample": f"run{i}"}
        else:
            project, basic = "zebrafish", {"plate": i, "well": "A01"}
        backend.put(f"e17/obj{i}", data)
        facility.metadata.register_dataset(
            f"e17-{i}", project, f"adal://lsdf/e17/obj{i}", len(data),
            checksum_bytes(data), basic)


def _run(count, seed=47):
    facility = Facility(
        FacilityConfig(
            arrays=[ArraySpec("a1", 10 * TB, 2e9), ArraySpec("a2", 10 * TB, 2e9)],
            cluster_racks=2,
            nodes_per_rack=4,
        ),
        seed=seed,
    )
    _seed_objects(facility, count)
    # Archive verified copies so every community is repairable, then
    # establish the declared placements.
    facility.sim.run(until=facility.durability.scrubber.scrub_once())
    establish = facility.sim.run(until=facility.convergence.converge_once())
    schedule = facility.policy_drill(start=facility.sim.now + _DRILL_AT)
    schedule.run(facility)
    facility.run(until=facility.sim.now + _SETTLE)
    healing = facility.sim.run(until=facility.convergence.converge_once())
    residual = len(facility.drift.detect(publish=False))
    return facility, establish, healing, residual


def _fingerprint(count, seed):
    facility, establish, healing, residual = _run(count, seed=seed)
    bus = facility.telemetry.bus
    return (
        facility.stats()["policy"],
        dict(bus.counts()),
        establish.actions,
        healing.actions,
        residual,
        facility.sim.now,
    )


def test_e17_policy_convergence(benchmark, report):
    runs = benchmark.pedantic(
        lambda: [_run(n) for n in _SCALES], rounds=1, iterations=1
    )
    rows = []
    # Establishment costs one tape mount plus a term that grows with the
    # bytes laid down; the drill damages a fixed two objects, so healing
    # does not scale.
    over_mount = []
    for count, (facility, establish, healing, residual) in zip(_SCALES, runs):
        t_establish = establish.finished - establish.started
        t_heal = healing.finished - healing.started
        mount = facility.tape.mount_time
        over_mount.append(t_establish - mount)
        rows.append(
            (f"{count} objects: establish / re-converge",
             "mount + bytes moved",
             f"{mount:.0f} s mount + {over_mount[-1] * 1e3:.1f} ms / "
             f"{t_heal * 1e3:.2f} ms "
             f"({establish.repaired}+{healing.repaired} actions)"))
    last_facility, _, last_healing, _ = runs[-1]
    rows.append(("declared-state violations at quiescence", "0",
                 str(sum(r[3] for r in runs))))
    rows.append(("auditor findings at quiescence", "0 (clean)",
                 "clean" if last_facility.durability.auditor.audit(
                     verify_content=True).clean else "VIOLATIONS"))
    twin_a = _fingerprint(_SCALES[0], seed=53)
    twin_b = _fingerprint(_SCALES[0], seed=53)
    rows.append(("twin-run determinism", "bit-identical",
                 "identical" if twin_a == twin_b else "DIVERGED"))
    report("E17", "placement policy: time-to-converged vs object count", rows)

    # Shape: establishment costs one mount plus a strictly growing
    # bytes-moved term, every arm establishes and re-converges with nothing
    # left over, the chaos damage is healed, and twin runs are bit-identical.
    assert over_mount[0] > 0
    assert all(a < b for a, b in zip(over_mount, over_mount[1:]))
    for facility, establish, healing, residual in runs:
        assert establish.converged and healing.converged
        assert residual == 0
        assert facility.stats()["policy"]["abandoned"] == 0
    assert last_healing.actions.get("repair_primary", 0) > 0
    assert last_facility.durability.auditor.audit(verify_content=True).clean
    assert twin_a == twin_b
