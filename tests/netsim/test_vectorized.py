"""Differential tests: the vectorised max-min solver vs the references.

:func:`~repro.netsim.fairshare.vectorized_maxmin_rates` claims **bit**
equality with the scalar solvers — not tolerance equality — on every
topology: the dense numpy formulation replays the identical IEEE
operations in the identical order (see its docstring for the argument).
These tests hold it to that claim on randomized scenarios, and check that
:class:`~repro.netsim.network.Network` actually switches solvers at the
flow-count threshold without changing a single completion time.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simkit import Simulator
from repro.netsim import Network, Topology
from repro.netsim.fairshare import (
    HAVE_NUMPY,
    maxmin_rates,
    vectorized_maxmin_rates,
)
from tests.netsim.reference import reference_maxmin_rates

needs_numpy = pytest.mark.skipif(not HAVE_NUMPY, reason="numpy not installed")


@st.composite
def _solver_scenario(draw):
    """Random (flow_links, capacities, weights) with duplicate links in
    paths, empty paths, and extreme capacity/weight magnitudes."""
    n_links = draw(st.integers(min_value=1, max_value=10))
    caps = {
        f"L{i}": draw(st.floats(min_value=1e-9, max_value=1e12))
        for i in range(n_links)
    }
    n_flows = draw(st.integers(min_value=0, max_value=60))
    flows, weights = {}, {}
    for f in range(n_flows):
        path_len = draw(st.integers(min_value=0, max_value=n_links + 2))
        flows[f"f{f}"] = tuple(draw(st.lists(
            st.sampled_from(sorted(caps)),
            min_size=path_len, max_size=path_len)))  # duplicates allowed
        weights[f"f{f}"] = draw(st.floats(min_value=1e-6, max_value=100.0))
    return flows, caps, weights


@needs_numpy
@given(scenario=_solver_scenario())
@settings(max_examples=300, deadline=None)
def test_vectorized_equals_references_exactly(scenario):
    flows, caps, weights = scenario
    vec = vectorized_maxmin_rates(flows, caps, weights)
    assert vec == reference_maxmin_rates(flows, caps, weights)
    assert vec == maxmin_rates(flows, caps, weights)


@needs_numpy
def test_vectorized_unweighted_defaults():
    flows = {"a": ("L0",), "b": ("L0",), "c": ()}
    caps = {"L0": 10.0}
    assert (vectorized_maxmin_rates(flows, caps)
            == maxmin_rates(flows, caps)
            == {"a": 5.0, "b": 5.0, "c": float("inf")})


def test_vectorized_empty_inputs():
    assert vectorized_maxmin_rates({}, {}, {}) == {}


# -- Network solver selection ----------------------------------------------

def _star_topology(n_hosts: int) -> Topology:
    topo = Topology()
    for i in range(n_hosts):
        topo.add_link(f"h{i}", "hub", capacity=1e9, latency=0.0)
    return topo


def _run_flows(vector_threshold, n_flows=40, seed=3):
    """Start ``n_flows`` crossing flows and return their completion times."""
    sim = Simulator(seed=seed)
    net = Network(sim, _star_topology(10), vector_threshold=vector_threshold)
    done = {}

    def one(i):
        size = 1e8 + 1e6 * i
        yield net.transfer(f"h{i % 5}", f"h{5 + i % 5}", size,
                           name=f"flow-{i}")
        done[i] = sim.now

    for i in range(n_flows):
        sim.process(one(i))
    sim.run()
    return done, net


@needs_numpy
def test_network_threshold_selects_vectorized_solver():
    scalar_times, scalar_net = _run_flows(vector_threshold=None)
    vector_times, vector_net = _run_flows(vector_threshold=8)
    # The solver switch is invisible in the physics: every completion
    # timestamp is bit-identical.
    assert vector_times == scalar_times
    assert scalar_net.vector_solves.value == 0
    assert vector_net.vector_solves.value > 0
    # Below the threshold the scalar solver still runs (small flow sets).
    small_times, small_net = _run_flows(vector_threshold=10_000)
    assert small_net.vector_solves.value == 0
    assert small_times == scalar_times


def test_network_threshold_ignored_for_equal():
    sim = Simulator(seed=1)
    net = Network(sim, _star_topology(4), sharing="equal", vector_threshold=1)
    assert net._vector_threshold is None


def test_vectorized_falls_back_without_numpy(monkeypatch):
    """With numpy absent the vectorised entry point must still answer —
    by delegating to the scalar solver."""
    import repro.netsim.fairshare as fairshare

    monkeypatch.setattr(fairshare, "_np", None)
    flows = {"a": ("L0",), "b": ("L0", "L1")}
    caps = {"L0": 8.0, "L1": 2.0}
    out = fairshare.vectorized_maxmin_rates(flows, caps, {"a": 1.0, "b": 1.0})
    assert out == maxmin_rates(flows, caps, {"a": 1.0, "b": 1.0})
