"""Import layering: a process loads only the layers it uses.

The facility has two halves: the real glue tooling (metadata repository,
ADAL and its wire service) and the simulated substrate.  A wire process
serves metadata over TCP, so importing the wire tier must not start the
simulator, the network model, storage, ingest, numpy or networkx.  Every
package ``__init__`` re-exports lazily through :mod:`repro._lazy`, and
numpy loads at its first numeric use.  Each layering check runs in a
fresh interpreter, because this test process has imported everything.
"""

import ast
import json
import os
import pkgutil
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import repro

_SRC = Path(repro.__file__).resolve().parent.parent

_WIRE_TIER = (
    "repro.adal.wire.server",
    "repro.adal.wire.client",
    "repro.durability.durable",
    "repro.frontdoor.admission",
)
_SUBSTRATE = (
    "numpy", "networkx", "repro.simkit.core", "repro.netsim", "repro.hdfs",
    "repro.storage", "repro.core", "repro.ingest",
)


def _run(args: list[str]) -> subprocess.CompletedProcess:
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(_SRC)] + ([path] if path else [])))
    return subprocess.run([sys.executable] + args, capture_output=True,
                          text=True, check=True, env=env, timeout=120)


def _loaded_after(code: str) -> set[str]:
    """Every module loaded once a fresh interpreter has run ``code``."""
    done = _run(["-c", code + "\nimport json, sys\n"
                 "print(json.dumps(sorted(sys.modules)))"])
    return set(json.loads(done.stdout.splitlines()[-1]))


def _within(loaded: set[str], layers) -> list[str]:
    """The loaded modules that are one of ``layers`` or inside one."""
    return sorted(m for m in loaded
                  if any(m == layer or m.startswith(layer + ".")
                         for layer in layers))


def test_wire_tier_imports_without_the_simulated_substrate():
    loaded = _loaded_after("import " + ", ".join(_WIRE_TIER))
    assert set(_WIRE_TIER) <= loaded
    assert _within(loaded, _SUBSTRATE) == []


def test_the_facility_builds_and_routes_without_networkx():
    loaded = _loaded_after(
        "import repro.core, repro.workflow.graph\n"
        "facility = repro.core.Facility(seed=1)\n"
        "names = facility.names\n"
        "assert facility.net.topology.route(names.daq[0], names.heidelberg)")
    assert "repro.core.facility" in loaded
    assert _within(loaded, ("networkx",)) == []


def test_wire_cli_help_loads_neither_numpy_nor_networkx():
    done = _run(["-X", "importtime", "-m", "repro.cli", "wire", "--help"])
    assert "usage" in done.stdout
    loaded = {line.rsplit("|", 1)[-1].strip()
              for line in done.stderr.splitlines()
              if line.startswith("import time:")}
    assert "repro.simkit.units" in loaded  # the parse saw the imports
    assert _within(loaded, ("numpy", "networkx")) == []


def _packages():
    yield repro
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.ispkg:
            yield import_module(info.name)


def test_every_public_name_resolves_through_the_one_lazy_helper():
    for package in _packages():
        for name in getattr(package, "__all__", ()):
            assert getattr(package, name) is not None, (package.__name__, name)
            assert name in dir(package)
        tree = ast.parse(Path(package.__file__).read_text(encoding="utf-8"))
        defined = {node.name for node in tree.body
                   if isinstance(node, ast.FunctionDef)}
        assert "__getattr__" not in defined, package.__name__


def test_random_stream_matches_the_recorded_numpy_sequence():
    """numpy is imported at the first RandomSource, not at module import;
    the draws must stay the recorded PCG64 stream, value for value."""
    pytest.importorskip("numpy")
    from repro.simkit.rand import RandomSource

    r = RandomSource(16)
    drawn = [r.uniform(0, 1), r.exponential(2.0), r.normal(1.0, 0.5),
             r.lognormal_mean(3.0, 0.25), r.integers(0, 1000),
             r.pareto_bounded(1.2, 1.0, 100.0)]
    child = r.spawn("scope.s0")
    drawn += [child.uniform(0, 1), child.lognormal_mean(5e6, 0.05),
              child.exponential(0.4), r.shuffle(list(range(8)))]
    assert drawn == [
        0.5669168388793651, 2.5822103145923556, 1.5196770616118789,
        3.751419222453453, 13, 1.018336757045642, 0.19286695786860952,
        5191457.782333426, 0.49222113175835736, [6, 1, 0, 5, 4, 3, 7, 2]]
