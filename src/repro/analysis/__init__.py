"""Facility static analysis and runtime sanitizers.

The LSDF reproduction's headline claim — every simulation is bit-for-bit
deterministic given a seed, and ingested data is write-once — rests on
conventions (seeded RNG discipline, total event ordering, no wall-clock
leakage, no swallowed failures).  This package turns those conventions into
enforced invariants:

* :mod:`repro.analysis.lint` — an AST-based lint engine with facility
  domain rules, ``# lint: disable=<rule>`` pragmas and a committed
  baseline (``python -m repro.analysis.lint src/repro``);
* :mod:`repro.analysis.graphs` / :mod:`repro.analysis.whole_program` —
  the whole-program layer: project loader, import/call graphs, CFG
  (:mod:`repro.analysis.cfg`), simkit protocol rules
  (:mod:`repro.analysis.protocol`), interprocedural clock/RNG taint
  (:mod:`repro.analysis.taint`) and the telemetry schema cross-check
  (:mod:`repro.analysis.telemetry_check`); run via
  ``python -m repro.analysis.lint src/repro --wpa`` and query the graphs
  with ``python -m repro.analysis.graph``;
* :mod:`repro.analysis.sanitize` — runtime sanitizers: a double-run
  determinism checker that diffs full event traces, a same-timestamp
  race detector driven by a randomized tie-shuffle, and an unseeded-RNG
  tripwire (``python -m repro.analysis.sanitize``).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.analysis.findings": ("Finding", "Severity", "TraceHop"),
    "repro.analysis.engine": ("Linter", "SourceModule"),
    "repro.analysis.rules": ("Rule", "all_rules", "get_rule", "register"),
    "repro.analysis.baseline": ("Baseline",),
    "repro.analysis.trace": ("TraceEntry", "TraceRecorder"),
    "repro.analysis.tripwire": ("UnseededRandomnessError", "rng_tripwire"),
})

# The runtime sanitizer entry points (check_determinism, check_races,
# DeterminismReport, RaceReport) live in repro.analysis.sanitize and are
# imported from there directly: importing them here would pull the whole
# facility stack into ``import repro.analysis`` and break
# ``python -m repro.analysis.sanitize`` with a runpy double-import warning.

__all__ = [
    "Baseline",
    "Finding",
    "Linter",
    "Rule",
    "Severity",
    "SourceModule",
    "TraceHop",
    "TraceEntry",
    "TraceRecorder",
    "UnseededRandomnessError",
    "all_rules",
    "get_rule",
    "register",
    "rng_tripwire",
]
