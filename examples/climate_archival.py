#!/usr/bin/env python3
"""Archival-quality storage for the climate community (slide 14).

The paper's outlook: onboard meteorology/climate research with "'archival'
quality" data management under the iRODS data-management system.  This
example runs that future on the facility's placement-policy layer: climate
station files are written to the primary store and catalogued, one
declarative rule states that every climate file keeps a tape copy, and one
convergence pass makes it so.  Afterwards the drift detector finds nothing
left to do.

Run:  python examples/climate_archival.py
"""

from repro.adal.api import checksum_bytes
from repro.core import Facility
from repro.metadata import FieldSpec, Q, Schema
from repro.policy import PlacementRule
from repro.simkit.units import fmt_bytes, fmt_duration

FILES = 60


def main() -> None:
    facility = Facility(seed=2026)
    store = facility.metadata
    store.register_project(
        "climate",
        Schema("climate-basic", [
            FieldSpec("station", "str", required=True),
            FieldSpec("kind", "str", choices=("observation", "calibration"),
                      required=True),
            FieldSpec("year", "int", required=True),
        ]),
    )

    # -- a few years of station data: bytes in the primary store, one
    #    catalogue entry per file carrying their content hash -------------------
    primary = facility.adal_registry.resolve("lsdf")
    total = 0
    for i in range(FILES):
        station = f"ST{i % 5:02d}"
        kind = "calibration" if i % 20 == 0 else "observation"
        year = 2008 + (i % 4)
        file_id = f"cl-{i:03d}"
        path = f"climate/{station}/{year}/{file_id}.nc"
        data = f"{file_id} {station} {kind} {year}\n".encode() * (
            256 if kind == "observation" else 32)
        primary.put(path, data)
        total += len(data)
        store.register_dataset(
            file_id, "climate", f"adal://lsdf/{path}", len(data),
            checksum_bytes(data),
            {"station": station, "kind": kind, "year": year})
    print(f"catalogued {FILES} climate files ({fmt_bytes(total)}) "
          "in the primary store")

    # -- declare the community's archival-quality guarantee ----------------------
    facility.policy.register(PlacementRule(
        "climate-archival-quality", Q.project("climate"), tape_copies=1))
    before = facility.drift.detect(publish=False)
    kinds = sorted({drift.kind for drift in before})
    print(f"declared 'climate-archival-quality' (1 tape copy); "
          f"drift: {len(before)} {', '.join(kinds)}")

    # -- one convergence pass executes the difference -----------------------------
    report = facility.sim.run(until=facility.convergence.converge_once())
    left = facility.drift.detect(publish=False)
    on_tape = sum(facility.tape.contains(f"cl-{i:03d}") for i in range(FILES))
    print("\nconvergence pass:")
    print(f"  outcome               "
          f"{'converged' if report.converged else 'DIVERGED'} in "
          f"{report.rounds} round(s), "
          f"{fmt_duration(report.finished - report.started)} simulated")
    for label, count in sorted(report.actions.items()):
        print(f"  {label:21s} x{count}")
    print(f"  tape copies           {on_tape}/{FILES}")
    print(f"  tape cartridges       {facility.tape.cartridge_count}")
    print(f"  drift left            {len(left)}")


if __name__ == "__main__":
    main()
