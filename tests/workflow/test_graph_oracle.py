"""Differential: ``WorkflowGraph``'s Kahn's-algorithm ordering against networkx.

``topo_order`` must equal ``networkx.lexicographical_topological_sort``,
``waves`` must equal the sorted ``networkx.topological_generations``, and
``validate`` / ``topo_order`` / ``waves`` must raise :class:`CycleError`
exactly when networkx finds the wiring cyclic.  networkx is test-only.
Graphs come with parallel wires between the same two actors (several
input ports), self-loops in the cyclic case, and actor names added in a
shuffled order.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workflow import CycleError, FunctionActor, WorkflowGraph

nx = pytest.importorskip("networkx")


@st.composite
def _wiring(draw, acyclic: bool):
    n = draw(st.integers(min_value=1, max_value=9))
    names = draw(st.permutations([f"a{i}" for i in range(n)]))
    ends = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    wires = draw(st.lists(ends, max_size=20))
    if acyclic:  # wires only run forward in a random rank order
        wires = [(min(e), max(e)) for e in wires if e[0] != e[1]]
    return names, [(names[s], names[d]) for s, d in wires]


def _build(names, wires) -> WorkflowGraph:
    inputs = {name: [] for name in names}
    for _src, dst in wires:
        inputs[dst].append(f"in{len(inputs[dst])}")
    g = WorkflowGraph("w")
    for name in names:
        g.add(FunctionActor(name, lambda **kw: None,
                            inputs=tuple(inputs[name]), outputs=("out",)))
    used = {name: 0 for name in names}
    for src, dst in wires:
        g.connect(src, "out", dst, f"in{used[dst]}")
        used[dst] += 1
    return g


def _oracle(names, wires):
    g = nx.DiGraph()
    g.add_nodes_from(names)
    g.add_edges_from(wires)
    return g


@settings(max_examples=300, deadline=None)
@given(_wiring(acyclic=True))
def test_dag_order_and_waves_equal_networkx(wiring):
    names, wires = wiring
    graph, oracle = _build(names, wires), _oracle(names, wires)
    graph.validate()
    assert graph.topo_order() == list(nx.lexicographical_topological_sort(oracle))
    assert graph.waves() == [sorted(w) for w in nx.topological_generations(oracle)]


@settings(max_examples=300, deadline=None)
@given(_wiring(acyclic=False))
def test_cycle_error_exactly_when_networkx_finds_a_cycle(wiring):
    names, wires = wiring
    graph, oracle = _build(names, wires), _oracle(names, wires)
    if nx.is_directed_acyclic_graph(oracle):
        graph.validate()
        assert graph.topo_order() == list(
            nx.lexicographical_topological_sort(oracle))
        assert graph.waves() == [
            sorted(w) for w in nx.topological_generations(oracle)]
    else:
        for check in (graph.validate, graph.topo_order, graph.waves):
            with pytest.raises(CycleError):
                check()
