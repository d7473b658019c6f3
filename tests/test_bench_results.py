"""``benchmarks/results.txt`` keeps the tables of benches that did not run."""

import importlib.util
import pathlib

import pytest

_BENCHMARKS = pathlib.Path(__file__).resolve().parent.parent / "benchmarks"


@pytest.fixture
def bench_conftest():
    """A fresh copy of the benches' conftest module (its own session)."""
    spec = importlib.util.spec_from_file_location(
        "bench_conftest_under_test", _BENCHMARKS / "conftest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _sections(text):
    return [s for s in text.split("\n== ") if s]


def test_one_bench_rewrites_only_its_own_sections(bench_conftest, tmp_path):
    results = tmp_path / "results.txt"
    original = (_BENCHMARKS / "results.txt").read_text()
    results.write_text(original)
    e18 = [s for s in _sections(original) if s.startswith("E18:")]
    assert e18, "the committed results carry an E18 section"

    bench_conftest.record("E19", "wire ADAL: re-run", [("q", "p", "m")],
                          path=results)
    after = results.read_text()

    assert bench_conftest.splice(original, "E19", []) == \
        bench_conftest.splice(after, "E19", [])  # all else byte-identical
    assert [s for s in _sections(after) if s.startswith("E18:")] == e18
    e19 = [s for s in _sections(after) if s.startswith("E19:")]
    assert len(e19) == 1 and e19[0].startswith("E19: wire ADAL: re-run ==")
    # E19 keeps its place in the file.
    order = [s.split(":")[0] for s in _sections(original)]
    assert [s.split(":")[0] for s in _sections(after)] == order


def test_sections_of_one_session_accumulate(bench_conftest, tmp_path):
    results = tmp_path / "results.txt"
    results.write_text("\n== E1: old ==\n   row\n\n== E2: kept ==\n   row\n")
    bench_conftest.record("E1", "frames", [], path=results)
    bench_conftest.record("E1", "volume", [], path=results)
    bench_conftest.record("E9", "new", [], path=results)
    headers = [line for line in results.read_text().splitlines()
               if line.startswith("==")]
    assert headers == ["== E1: frames ==", "== E1: volume ==",
                       "== E2: kept ==", "== E9: new =="]
    assert "\n== E2: kept ==\n   row\n" in results.read_text()
