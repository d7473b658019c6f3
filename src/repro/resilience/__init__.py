"""The facility-wide resilience layer.

The paper sells the LSDF on resilience — redundant 10 GE routers,
replicated HDFS, tape backup — and the chaos framework injects the matching
faults.  This package is what lets the data paths *survive* them:

* :class:`~repro.resilience.policy.RetryPolicy` — capped exponential
  backoff with deterministic jitter from the seeded random tree;
* :func:`~repro.resilience.timeout.with_timeout` — deadline wrapper over
  ``sim.any_of``;
* :class:`~repro.resilience.breaker.CircuitBreaker` /
  :class:`~repro.resilience.breaker.BreakerBoard` — per-target
  closed → open → half-open automata with a transition log;
* :class:`~repro.resilience.dlq.DeadLetterQueue` — exhausted work is
  captured with its attempt history, never silently dropped;
* :class:`~repro.resilience.kit.ResilienceKit` — the facility-wide bundle
  of all of the above plus aggregate counters.

See ``docs/resilience.md`` for the model and the chaos incident kinds that
exercise it.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.resilience.breaker": (
        "CLOSED", "HALF_OPEN", "OPEN", "BreakerBoard", "CircuitBreaker"),
    "repro.resilience.dlq": ("DeadLetter", "DeadLetterQueue"),
    "repro.resilience.errors": (
        "CircuitOpenError", "DeadlineExceededError", "ResilienceError",
        "RetriesExhaustedError"),
    "repro.resilience.kit": ("ResilienceKit",),
    "repro.resilience.policy": ("RetryPolicy",),
    "repro.resilience.timeout": ("with_timeout",),
})

__all__ = [
    "BreakerBoard",
    "CLOSED",
    "CircuitBreaker",
    "CircuitOpenError",
    "DeadLetter",
    "DeadLetterQueue",
    "DeadlineExceededError",
    "HALF_OPEN",
    "OPEN",
    "ResilienceError",
    "ResilienceKit",
    "RetriesExhaustedError",
    "RetryPolicy",
    "with_timeout",
]
