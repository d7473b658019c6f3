"""Integration tests for the composed facility."""

import dataclasses
import re
from pathlib import Path

import pytest

from repro.simkit.units import GB, MINUTE, TB
from repro.core import Facility, FacilityConfig, lsdf_2011_config
from repro.core.config import ArraySpec
from repro.cloud import VMTemplate
from repro.durability import DurableMetadataStore
from repro.policy import community_defaults
from repro.mapreduce import JobSpec
from repro.workloads import zebrafish_microscopes


@pytest.fixture(scope="module")
def facility():
    """One shared facility for read-only shape checks."""
    return Facility(seed=1)


def _small_config():
    return FacilityConfig(
        arrays=[ArraySpec("a1", 10 * TB, 2e9), ArraySpec("a2", 10 * TB, 2e9)],
        cluster_racks=2,
        nodes_per_rack=4,
        daq_count=2,
    )


class TestConfig:
    def test_lsdf_2011_headline_numbers(self):
        cfg = lsdf_2011_config()
        assert cfg.disk_capacity == pytest.approx(1.9e15)  # "currently 2 PB"
        assert cfg.cluster_nodes == 60
        assert cfg.cluster_nodes * cfg.hdfs_node_capacity == pytest.approx(120 * TB)

    def test_facility_shape(self, facility):
        assert len(facility.names.cluster) == 60
        assert len(facility.arrays) == 2
        assert len(facility.hdfs.namenode.nodes) == 60
        assert facility.metadata.projects == ["zebrafish"]
        assert facility.adal_registry.stores == ["lsdf", "replica-a"]

    def test_values_the_facility_pins_at_its_call_sites(self, facility):
        # These differ from (or have no) constructor default and no longer
        # come from FacilityConfig: Facility passes them explicitly.
        policy = facility.resilience.policy
        assert (policy.max_attempts, policy.max_delay) == (5, 30.0)
        assert len(facility.tape.drives) == 6
        assert isinstance(facility.metadata, DurableMetadataStore)
        assert facility.metadata.snapshot_every == 256
        assert ([r.name for r in facility.policy.rules]
                == [r.name for r in community_defaults(1)])

    def test_every_config_field_is_flipped_somewhere(self):
        # A FacilityConfig field earns its place by being set or read
        # outside the config/facility pair; otherwise the owning
        # constructor's default is the single source.  No allow-list.
        root = Path(__file__).resolve().parents[2]
        owners = {root / "src/repro/core/config.py",
                  root / "src/repro/core/facility.py"}
        text = "\n".join(
            path.read_text() for top in ("src", "tests", "benchmarks",
                                         "perfbench", "examples")
            for path in sorted((root / top).rglob("*.py"))
            if path not in owners)
        fields = [f.name for f in dataclasses.fields(FacilityConfig)]
        assert len(fields) <= 23
        unused = [n for n in fields if not re.search(rf"\b{n}\b", text)]
        assert unused == []

    def test_cluster_nodes_routable_to_storage(self, facility):
        topo = facility.net.topology
        assert topo.route(facility.names.cluster[0], facility.names.storage[0])
        assert topo.route(facility.names.cluster[-1], facility.names.daq[0])


class TestIngestIntegration:
    def test_microscopy_run_populates_everything(self):
        facility = Facility(_small_config(), seed=5)
        pipeline = facility.ingest_pipeline(
            zebrafish_microscopes(instruments=2), agents=2
        )
        report = pipeline.run(duration=10 * MINUTE)
        assert report.frames_ingested > 0
        assert len(facility.metadata) == report.frames_ingested
        assert facility.pool.used > 0
        # All metadata records belong to the zebrafish project and validate.
        record = next(iter(facility.metadata.datasets()))
        assert record.project == "zebrafish"


class TestClusterIntegration:
    def test_stage_and_mapreduce(self):
        facility = Facility(_small_config(), seed=5)

        def scenario():
            yield facility.load_into_hdfs("/data/x", 2 * GB)
            result = yield facility.mapreduce.submit(
                JobSpec("job", "/data/x", reduces=4)
            )
            return result

        p = facility.sim.process(scenario())
        facility.run()
        assert not p.failed, p.exception
        result = p.value
        assert result.maps == 30  # ceil(2 GB / 64 MiB)
        assert result.duration > 0
        assert facility.hdfs.namenode.exists("/data/x")

    def test_cloud_deploy_on_cluster_nodes(self):
        facility = Facility(_small_config(), seed=5)
        template = VMTemplate("vm", 2, 4 * GB, "img", 2 * GB)
        p = facility.cloud.deploy(template)
        facility.run()
        vm = p.value
        assert vm.host in facility.names.cluster


class TestGlueIntegration:
    def test_browser_sees_adal_objects(self):
        facility = Facility(_small_config(), seed=5)
        facility.adal.put("adal://lsdf/zebrafish/x.tif", b"img")
        rows = facility.browser.ls("zebrafish")
        assert len(rows) == 1
        assert not rows[0].registered  # no metadata yet

    def test_hsm_wired_to_pool_and_tape(self):
        facility = Facility(_small_config(), seed=5)

        def scenario():
            yield facility.hsm.store("f1", 1 * GB)
            yield facility.sim.process(
                facility.hsm._migrate_one(facility.pool.lookup("f1"))
            )

        p = facility.sim.process(scenario())
        facility.run()
        assert not p.failed, p.exception
        assert facility.hsm.tier_of("f1") == "tape"
        assert facility.tape.cartridge_count == 1

    def test_stats_snapshot(self, facility):
        stats = facility.stats()
        assert {"time", "pool_used", "hdfs", "metadata", "net_bytes"} <= set(stats)

    def test_seeds_reproducible(self):
        def run():
            facility = Facility(_small_config(), seed=9)
            pipeline = facility.ingest_pipeline(
                zebrafish_microscopes(instruments=1), agents=1
            )
            report = pipeline.run(duration=5 * MINUTE)
            return report.frames_ingested, round(report.latency_mean, 9)

        assert run() == run()
