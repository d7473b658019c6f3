"""The seeded examples print the same bytes on every run."""

import os
import pathlib
import subprocess
import sys

import pytest

_EXAMPLES = pathlib.Path(__file__).resolve().parent.parent / "examples"


def _stdout(example: str, hash_seed: str) -> str:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    src = str(_EXAMPLES.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    return subprocess.run([sys.executable, str(_EXAMPLES / example)], env=env,
                          capture_output=True, text=True, check=True).stdout


#: Lines each example must print, beside printing the same bytes twice.
_EXPECTED = {
    "zebrafish_screening.py": ["abnormal phenotypes"],
    "climate_archival.py": ["converged in 1 round(s)",
                            "tape copies           60/60",
                            "drift left            0"],
}


@pytest.mark.parametrize("example", sorted(_EXPECTED))
def test_example_output_repeats_under_any_hash_seed(example):
    first = _stdout(example, "0")
    for line in _EXPECTED[example]:
        assert line in first
    assert _stdout(example, "1") == first
