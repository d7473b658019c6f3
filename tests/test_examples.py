"""The zebrafish screening example prints the same bytes on every run."""

import os
import pathlib
import subprocess
import sys

_EXAMPLE = (pathlib.Path(__file__).resolve().parent.parent
            / "examples" / "zebrafish_screening.py")


def _stdout(hash_seed: str) -> str:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    src = str(_EXAMPLE.parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    return subprocess.run([sys.executable, str(_EXAMPLE)], env=env,
                          capture_output=True, text=True, check=True).stdout


def test_zebrafish_example_output_repeats_under_any_hash_seed():
    first = _stdout("0")
    assert "abnormal phenotypes" in first
    assert _stdout("1") == first
