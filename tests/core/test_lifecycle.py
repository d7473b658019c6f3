"""A dropped facility is freed by reference counting alone.

Nothing the facility wires up may capture it, so with the cyclic garbage
collector off, ``del`` frees the facility, its catalogue and its storage
pool at once; the finalizer then stops the simulation.  Teardown never
clears data: a store kept past its facility still answers queries.
"""

import gc
import weakref

import pytest

from repro.core import Facility, FacilityConfig
from repro.core.config import ArraySpec
from repro.metadata import Q
from repro.simkit.units import TB
from repro.workloads import zebrafish_microscopes


def _facility():
    return Facility(FacilityConfig(
        arrays=[ArraySpec("a1", 10 * TB, 2e9), ArraySpec("a2", 10 * TB, 2e9)],
        cluster_racks=2, nodes_per_rack=2, daq_count=1), seed=3)


@pytest.fixture
def no_cyclic_gc():
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def _ingest(fac):
    pipeline = fac.ingest_pipeline(
        zebrafish_microscopes(instruments=1), agents=1)
    pipeline.run(duration=60.0)
    return pipeline


def test_dropped_facility_is_freed_without_the_cyclic_gc(no_cyclic_gc):
    fac = _facility()
    pipeline = _ingest(fac)
    store = fac.metadata
    assert len(store) > 0
    refs = [weakref.ref(fac), weakref.ref(fac.pool)]
    del fac, pipeline
    assert [ref() for ref in refs] == [None, None]
    # The catalogue outlives its facility, intact and queryable.
    assert len(store.query(Q.project("zebrafish"))) == len(store)
    metadata = weakref.ref(store)
    del store
    assert metadata() is None


def test_close_stops_the_simulation_and_keeps_the_data():
    fac = _facility()
    _ingest(fac)
    registered = len(fac.metadata)
    fac.close()
    fac.close()  # idempotent
    assert not fac.sim._processes and not fac.sim._queue
    assert len(fac.metadata) == registered
    assert fac.telemetry.registry.value("metadata.datasets") == registered
    fac.run()  # nothing left to run
