"""Unit and property tests for the bandwidth-sharing models."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netsim import equal_split_rates, maxmin_rates

_EPS = 1e-6


class TestMaxMinExamples:
    def test_single_link_equal_split(self):
        rates = maxmin_rates({"f1": ["L"], "f2": ["L"]}, {"L": 10.0})
        assert rates == {"f1": 5.0, "f2": 5.0}

    def test_classic_three_flow_example(self):
        # b crosses both links, bottlenecked at L2; a reclaims the rest of L1.
        rates = maxmin_rates(
            {"a": ["L1"], "b": ["L1", "L2"], "c": ["L2"]}, {"L1": 10.0, "L2": 4.0}
        )
        assert rates["b"] == pytest.approx(2.0)
        assert rates["c"] == pytest.approx(2.0)
        assert rates["a"] == pytest.approx(8.0)

    def test_weighted_share(self):
        rates = maxmin_rates(
            {"big": ["L"], "small": ["L"]}, {"L": 9.0}, weights={"big": 2.0, "small": 1.0}
        )
        assert rates["big"] == pytest.approx(6.0)
        assert rates["small"] == pytest.approx(3.0)

    def test_empty_path_unconstrained(self):
        rates = maxmin_rates({"local": []}, {})
        assert rates["local"] == float("inf")

    def test_unknown_link_raises(self):
        with pytest.raises(KeyError):
            maxmin_rates({"f": ["nope"]}, {"L": 1.0})

    def test_nonpositive_capacity_raises(self):
        with pytest.raises(ValueError):
            maxmin_rates({"f": ["L"]}, {"L": 0.0})

    def test_nonpositive_weight_raises(self):
        with pytest.raises(ValueError):
            maxmin_rates({"f": ["L"]}, {"L": 1.0}, weights={"f": 0.0})


@pytest.mark.parametrize("solver", [maxmin_rates, equal_split_rates])
class TestNanRejected:
    """NaN fails every comparison, so a ``<= 0`` guard let it through: a
    NaN share never freezes a flow and progressive filling spun forever
    once two flows shared the link."""

    def test_nan_weight_raises(self, solver):
        with pytest.raises(ValueError):
            solver({"f": ["L"]}, {"L": 1.0}, {"f": float("nan")})

    def test_nan_capacity_raises(self, solver):
        with pytest.raises(ValueError):
            solver({"f": ["L"]}, {"L": float("nan")})


class TestEqualSplitExamples:
    def test_equal_split_wastes_capacity(self):
        flows = {"a": ["L1"], "b": ["L1", "L2"], "c": ["L2"]}
        caps = {"L1": 10.0, "L2": 4.0}
        eq = equal_split_rates(flows, caps)
        mm = maxmin_rates(flows, caps)
        # a only gets half of L1 under equal split even though b can't use it.
        assert eq["a"] == pytest.approx(5.0)
        assert mm["a"] > eq["a"]

    def test_single_flow_full_capacity(self):
        assert equal_split_rates({"f": ["L"]}, {"L": 7.0}) == {"f": 7.0}


# -- hypothesis property tests -------------------------------------------------

@st.composite
def _scenario(draw):
    n_links = draw(st.integers(min_value=1, max_value=6))
    links = {f"L{i}": draw(st.floats(min_value=0.5, max_value=100.0)) for i in range(n_links)}
    n_flows = draw(st.integers(min_value=1, max_value=10))
    flows = {}
    for f in range(n_flows):
        path_len = draw(st.integers(min_value=1, max_value=n_links))
        path = draw(
            st.lists(
                st.sampled_from(sorted(links)), min_size=path_len, max_size=path_len,
                unique=True,
            )
        )
        flows[f"f{f}"] = path
    return flows, links


@given(_scenario())
@settings(max_examples=150, deadline=None)
def test_maxmin_respects_capacities(scenario):
    """No link carries more than its capacity."""
    flows, links = scenario
    rates = maxmin_rates(flows, links)
    for lid, cap in links.items():
        load = sum(rates[f] for f, path in flows.items() if lid in path)
        assert load <= cap + _EPS * max(1.0, cap)


@given(_scenario())
@settings(max_examples=150, deadline=None)
def test_maxmin_every_flow_is_bottlenecked(scenario):
    """Max-min optimality: every flow crosses at least one saturated link
    (otherwise its rate could be raised)."""
    flows, links = scenario
    rates = maxmin_rates(flows, links)
    loads = {
        lid: sum(rates[f] for f, path in flows.items() if lid in path) for lid in links
    }
    for f, path in flows.items():
        assert any(loads[lid] >= links[lid] - 1e-6 * max(1.0, links[lid]) for lid in path), (
            f"flow {f} is not bottlenecked"
        )


@given(_scenario())
@settings(max_examples=150, deadline=None)
def test_maxmin_identical_paths_equal_rates(scenario):
    """Fairness: flows with identical paths get identical rates."""
    flows, links = scenario
    rates = maxmin_rates(flows, links)
    by_path: dict[tuple, list[float]] = {}
    for f, path in flows.items():
        by_path.setdefault(tuple(sorted(path)), []).append(rates[f])
    for values in by_path.values():
        assert max(values) - min(values) <= 1e-6 * max(values)


@given(_scenario())
@settings(max_examples=150, deadline=None)
def test_equal_split_never_beats_capacity(scenario):
    flows, links = scenario
    rates = equal_split_rates(flows, links)
    for lid, cap in links.items():
        load = sum(rates[f] for f, path in flows.items() if lid in path)
        assert load <= cap + _EPS * max(1.0, cap)


@given(_scenario())
@settings(max_examples=150, deadline=None)
def test_maxmin_total_throughput_at_least_equal_split(scenario):
    """Max-min redistributes leftover capacity: per-flow rate is never lower
    than under naive equal split."""
    flows, links = scenario
    mm = maxmin_rates(flows, links)
    eq = equal_split_rates(flows, links)
    for f in flows:
        assert mm[f] >= eq[f] - 1e-6 * max(1.0, eq[f])
