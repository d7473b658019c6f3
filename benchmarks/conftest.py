"""Shared helpers for the experiment benches.

Every bench prints a paper-vs-measured table through :func:`report`, which
also writes it into ``benchmarks/results.txt`` so the numbers survive
pytest's output capture (EXPERIMENTS.md is written from that file).  A run
rewrites only the sections of the experiments it reported, keyed by their
``== E<n>:`` headers; every other bench's tables stay byte-identical.
"""

from __future__ import annotations

import pathlib
import re

import pytest

_RESULTS = pathlib.Path(__file__).parent / "results.txt"
_HEADER = re.compile(r"== (\S+): .* ==")

#: This session's sections per experiment id, in report order.
_session: dict[str, list[str]] = {}


def splice(text: str, exp_id: str, sections: list[str]) -> str:
    """``text`` with the sections of ``exp_id`` replaced by ``sections``
    (where the first old one stood, or at the end); the rest unchanged.

    A section is its header line plus its rows; in the file each one
    follows a blank line.
    """
    parsed: list[tuple[str, list[str]]] = []
    for line in text.splitlines():
        header = _HEADER.fullmatch(line)
        if header:
            parsed.append((header.group(1), [line]))
        elif line and parsed:
            parsed[-1][1].append(line)
    out: list[str] = []
    for exp, lines in parsed:
        if exp != exp_id:
            out.append("\n".join(lines))
        elif sections:
            out.extend(sections)
            sections = []
    out.extend(sections)
    return "".join(f"\n{section}\n" for section in out)


def record(exp_id: str, title: str, rows: list[tuple[str, str, str]],
           path: pathlib.Path = _RESULTS) -> str:
    """Format one experiment's table and write it into ``path``."""
    lines = [f"== {exp_id}: {title} ==",
             f"   {'quantity':40s} {'paper':>22s}   measured"]
    for quantity, paper, measured in rows:
        lines.append(f"   {quantity:40s} {paper:>22s}   {measured}")
    section = "\n".join(lines)
    _session.setdefault(exp_id, []).append(section)
    old = path.read_text() if path.exists() else ""
    path.write_text(splice(old, exp_id, list(_session[exp_id])))
    return section


@pytest.fixture
def report(capsys):
    """Print (and persist) one experiment's paper-vs-measured table."""

    def _report(exp_id: str, title: str, rows: list[tuple[str, str, str]]) -> None:
        section = record(exp_id, title, rows)
        with capsys.disabled():
            print("\n" + section)

    return _report
