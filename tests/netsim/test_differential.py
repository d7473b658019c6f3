"""Differential tests: the production netsim engine vs the naive oracles.

The netsim optimizations are only trustworthy because every one of them is
backed by a naive twin and an *exact*-equality test.  The twins live beside
these tests in ``tests/netsim/reference.py``, not in ``src/``:

* :func:`repro.netsim.fairshare.maxmin_rates` (cached weight sums, frozen
  collection from saturated links) against
  :func:`~tests.netsim.reference.reference_maxmin_rates` — bit-identical
  outputs on randomized scenarios;
* :func:`repro.netsim.fairshare.equal_split_rates` against its naive twin;
* :meth:`Topology.route` (epoch-keyed cache) against
  :meth:`Topology._find_route` (the uncached pathfinding it memoizes)
  across random failure/repair sequences;
* the full :class:`Network` engine (persistent solver inputs, batched
  same-instant solves, skip-when-clean, rates reused when the flows repeat
  the paths and weights of the replaced solution) against
  :class:`~tests.netsim.reference.ReferenceNetwork` — the seed repo's
  rebuild-per-event path — on random arrival/departure/failure workloads
  under both sharing models, comparing completion timestamps and delivered
  bytes exactly.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.simkit import Simulator
from repro.netsim import Network, NoRouteError, Topology
from repro.netsim.fairshare import equal_split_rates, maxmin_rates
from tests.netsim.reference import (
    ReferenceNetwork,
    reference_equal_split_rates,
    reference_maxmin_rates,
)


@st.composite
def _solver_scenario(draw):
    n_links = draw(st.integers(min_value=1, max_value=8))
    caps = {
        f"L{i}": draw(st.floats(min_value=0.25, max_value=500.0))
        for i in range(n_links)
    }
    n_flows = draw(st.integers(min_value=1, max_value=14))
    flows = {}
    weights = {}
    for f in range(n_flows):
        # Occasionally an empty path (unconstrained flow).
        path_len = draw(st.integers(min_value=0, max_value=n_links))
        flows[f"f{f}"] = draw(
            st.lists(
                st.sampled_from(sorted(caps)),
                min_size=path_len,
                max_size=path_len,
                unique=True,
            )
        )
        if draw(st.booleans()):
            weights[f"f{f}"] = draw(st.floats(min_value=0.1, max_value=8.0))
    return flows, caps, weights


@st.composite
def _wide_solver_scenario(draw):
    """Up to 60 flows with duplicate links in paths, empty paths, and
    extreme capacity (1e-9 to 1e12) and weight (1e-6 to 100) magnitudes."""
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


class TestSolverDifferential:
    @given(_solver_scenario())
    @settings(max_examples=250, deadline=None)
    def test_maxmin_bit_identical_to_reference(self, scenario):
        flows, caps, weights = scenario
        fast = maxmin_rates(flows, caps, weights)
        naive = reference_maxmin_rates(flows, caps, weights)
        # Exact equality, not approx: the solvers mirror each other's
        # arithmetic order, and cross-process determinism depends on it.
        assert fast == naive

    @given(_wide_solver_scenario())
    @settings(max_examples=300, deadline=None)
    def test_maxmin_wide_scenario_bit_identical_to_reference(self, scenario):
        flows, caps, weights = scenario
        assert maxmin_rates(flows, caps, weights) == reference_maxmin_rates(
            flows, caps, weights)

    @given(_solver_scenario())
    @settings(max_examples=250, deadline=None)
    def test_equal_split_bit_identical_to_reference(self, scenario):
        flows, caps, weights = scenario
        fast = equal_split_rates(flows, caps, weights)
        naive = reference_equal_split_rates(flows, caps, weights)
        assert fast == naive

    def test_duplicate_link_on_path_matches(self):
        # A path listing the same link twice charges it twice in both
        # implementations (degenerate but must not diverge or crash).
        flows = {"loopy": ["L", "L"], "plain": ["L"]}
        caps = {"L": 12.0}
        assert maxmin_rates(flows, caps) == reference_maxmin_rates(flows, caps)


# -- topology: cached route vs uncached oracle -------------------------------

_N_NODES = 6


def _mesh() -> Topology:
    """A small redundant mesh: ring + two chords, distinct latencies."""
    topo = Topology()
    for i in range(_N_NODES):
        j = (i + 1) % _N_NODES
        topo.add_link(f"n{i}", f"n{j}", capacity=100.0, latency=0.001 * (i + 1))
    topo.add_link("n0", "n3", capacity=50.0, latency=0.0015)
    topo.add_link("n1", "n4", capacity=50.0, latency=0.0025)
    return topo


_link_keys = [link.key for link in _mesh().links]

_topo_ops = st.lists(
    st.tuples(
        st.sampled_from(["fail_link", "repair_link", "fail_node", "repair_node"]),
        st.integers(min_value=0, max_value=max(len(_link_keys), _N_NODES) - 1),
    ),
    min_size=0,
    max_size=12,
)


def _apply_topo_op(topo: Topology, op: tuple[str, int]) -> None:
    kind, index = op
    if kind in ("fail_link", "repair_link"):
        a, b = _link_keys[index % len(_link_keys)]
        getattr(topo, kind)(a, b)
    else:
        getattr(topo, kind)(f"n{index % _N_NODES}")


class TestRouteCacheDifferential:
    @given(_topo_ops)
    @settings(max_examples=150, deadline=None)
    def test_cached_routes_match_uncached_oracle(self, ops):
        topo = _mesh()
        pairs = [
            (f"n{i}", f"n{j}")
            for i in range(_N_NODES)
            for j in range(_N_NODES)
            if i != j
        ]

        def check_all():
            for src, dst in pairs:
                try:
                    oracle = topo._find_route(src, dst)
                except NoRouteError:
                    with pytest.raises(NoRouteError):
                        topo.route(src, dst)
                    continue
                # Twice: the miss that fills the cache, then the hit.
                # The cache is keyed by the canonical (sorted) pair — seed
                # behaviour — so the reverse direction legitimately returns
                # the forward traversal order; compare the link *set* there
                # and the exact sequence in the canonical direction.
                for _ in range(2):
                    got = topo.route(src, dst)
                    if src < dst:
                        assert got == oracle
                    else:
                        assert sorted(l.key for l in got) == sorted(
                            l.key for l in oracle
                        )

        check_all()
        for op in ops:
            _apply_topo_op(topo, op)
            check_all()
        assert topo.route_cache_hits > 0

    def test_cache_counters_tally(self):
        topo = _mesh()
        topo.route("n0", "n2")
        topo.route("n0", "n2")
        topo.route("n2", "n0")  # canonical pair key: still a hit
        assert topo.route_cache_misses == 1
        assert topo.route_cache_hits == 2
        topo.fail_link("n0", "n1")  # epoch bump clears the cache
        topo.route("n0", "n2")
        assert topo.route_cache_misses == 2


# -- full engine: Network vs ReferenceNetwork --------------------------------

_ENDPOINTS = [f"n{i}" for i in range(_N_NODES)]


@st.composite
def _workload(draw):
    """A random timed op sequence: arrivals, link failures/repairs."""
    n_ops = draw(st.integers(min_value=1, max_value=18))
    ops = []
    for _ in range(n_ops):
        # Zero delays included on purpose: they exercise same-instant
        # arrival batching in the production engine.
        delay = draw(st.sampled_from([0.0, 0.0, 0.5, 1.0, 3.0, 7.5]))
        kind = draw(
            st.sampled_from(["xfer", "xfer", "xfer", "fail_link", "repair_link"])
        )
        if kind == "xfer":
            src = draw(st.sampled_from(_ENDPOINTS))
            dst = draw(st.sampled_from([e for e in _ENDPOINTS if e != src]))
            nbytes = draw(st.floats(min_value=1.0, max_value=5000.0))
            weight = draw(st.sampled_from([1.0, 1.0, 2.0, 0.5]))
            ops.append((delay, kind, (src, dst, nbytes, weight)))
        else:
            ops.append((delay, kind, draw(st.integers(0, len(_link_keys) - 1))))
    return ops


def _run_workload(net: Network, ops) -> list[tuple]:
    """Run one op sequence on one network; return the completion log."""
    sim = net.sim
    log: list[tuple] = []

    def watch(tag, event):
        def record(ev):
            if ev._exception is not None:
                ev.defused = True
                log.append((tag, "no-route", sim.now))
            else:
                result = ev._value
                log.append((tag, "done", result.finished, result.nbytes))

        event.callbacks.append(record)

    def driver():
        for index, (delay, kind, arg) in enumerate(ops):
            if delay:
                yield sim.timeout(delay)
            if kind == "xfer":
                src, dst, nbytes, weight = arg
                watch(index, net.transfer(src, dst, nbytes, weight=weight))
            else:
                a, b = _link_keys[arg % len(_link_keys)]
                link = net.topology.link_between(a, b)
                if kind == "fail_link" and link.up:
                    net.fail_link(a, b)
                elif kind == "repair_link" and not link.up:
                    net.repair_link(a, b)

    sim.process(driver())
    sim.run()
    log.sort()
    return log


class TestEngineDifferential:
    @given(ops=_workload(), sharing=st.sampled_from(["maxmin", "equal"]))
    # A link fails at the instant a flow crossing it delivers its last byte.
    @example(ops=[(0.0, "xfer", ("n4", "n5", 300.0, 1.0)),
                  (3.0, "xfer", ("n0", "n1", 1.0, 1.0)),
                  (0.0, "fail_link", 4)],
             sharing="maxmin")
    @settings(max_examples=120, deadline=None)
    def test_incremental_engine_matches_reference(self, ops, sharing):
        fast = _run_workload(
            Network(Simulator(seed=99), _mesh(), sharing=sharing), ops)
        naive = _run_workload(
            ReferenceNetwork(Simulator(seed=99), _mesh(), sharing=sharing), ops)
        # Exact comparison of completion timestamps and sizes: every
        # production optimization must be invisible.
        assert fast == naive

    def test_reference_engine_counts_every_solve(self):
        # Two long flows, then a short one that leaves first (its departure
        # restores the flow set solved before it), then another like it:
        # the production engine reuses rates on that arrival and departure.
        ops = [(0.0, "xfer", ("n0", "n2", 1000.0, 1.0)),
               (0.0, "xfer", ("n1", "n3", 1000.0, 2.0)),
               (1.0, "xfer", ("n0", "n1", 10.0, 1.0)),
               (1.0, "xfer", ("n0", "n1", 10.0, 1.0))]
        fast = Network(Simulator(seed=1), _mesh())
        net = ReferenceNetwork(Simulator(seed=1), _mesh())
        assert _run_workload(fast, ops) == _run_workload(net, ops)
        assert int(fast.solves_skipped.value) == 3
        # Reference solves on every arrival and every completion pass;
        # no batching, no skipping, no reuse.
        assert int(net.solves.value) == int(net.rebalances.value)
        assert int(net.solves_skipped.value) == 0
