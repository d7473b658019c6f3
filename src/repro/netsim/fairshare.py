"""Bandwidth-sharing models for the fluid network simulator.

:func:`maxmin_rates` implements weighted max-min fairness by progressive
filling — the standard model of what long-lived TCP flows converge to on a
shared network, and the default for all experiments.  It validates its
inputs (:func:`_setup`) and runs :func:`_fill`, the optimized filling
routine the network engine also runs on the inputs it tracks: per-link
weight sums are cached between rounds and recomputed only for links whose
membership changed, and frozen flows are collected from the saturated
links directly instead of rescanning the whole active set.

The naive oracle it is tested against lives beside the tests
(``tests/netsim/reference.py``): every round recomputes every link's weight
sum from scratch.  Both perform *bit-identical arithmetic*: the same link
and member order, left-to-right weight sums, the same freezing order and
the same sequence of capacity subtractions.  The differential property
tests (``tests/netsim/test_differential.py``) assert **exact** equality;
if you touch either function, keep the arithmetic order mirrored.

:func:`equal_split_rates` is the ablation alternative (DESIGN.md §4): each
link naively divides its capacity equally among crossing flows and a flow
gets the minimum along its path.  It underestimates achievable rates because
capacity "freed" by flows bottlenecked elsewhere is not redistributed.  Its
naive twin lives in the same test helper, for the same differential test.

All are pure functions of ``(flow -> links)`` and ``(link -> capacity)``,
which makes them directly property-testable (see
``tests/netsim/test_fairshare.py``).

Determinism note: no bare sets are iterated anywhere (REP008) — every
ordered container is an insertion-ordered dict, so results are identical
across processes regardless of hash randomization.
"""

from __future__ import annotations

from itertools import chain
from typing import Hashable, Mapping, Sequence

_EPS = 1e-12

_INF = float("inf")


def _setup(
    flow_links: Mapping[Hashable, Sequence[Hashable]],
    capacities: Mapping[Hashable, float],
    weights: Mapping[Hashable, float] | None,
):
    """Shared validated setup for the max-min solver and its oracle.

    Returns ``(rates, active, w, remaining, members)`` where ``rates`` is
    pre-populated with the unconstrained (empty-path) flows, ``active``
    maps constrained flow ids to their link tuples, ``w`` holds validated
    float weights, ``remaining`` the validated float capacities and
    ``members`` the per-link insertion-ordered membership maps
    (``lid -> {fid: None}``).  All containers are insertion-ordered dicts;
    the solver and the oracle iterate them identically, which is what
    guarantees bit-identical results.
    """
    weights = weights or {}
    rates: dict[Hashable, float] = {}
    active: dict[Hashable, tuple[Hashable, ...]] = {}
    w: dict[Hashable, float] = {}
    for fid, links in flow_links.items():
        if len(links) == 0:
            rates[fid] = _INF
            continue
        wf = float(weights.get(fid, 1.0))
        if not wf > 0:  # NaN too: it would never freeze
            raise ValueError(f"flow {fid!r}: weight must be > 0")
        active[fid] = tuple(links)
        w[fid] = wf
    remaining: dict[Hashable, float] = {}
    for lid, cap in capacities.items():
        cap = float(cap)
        if not cap > 0:
            raise ValueError(f"link {lid!r}: capacity must be > 0")
        remaining[lid] = cap
    members: dict[Hashable, dict[Hashable, None]] = {}
    for fid, links in active.items():
        for lid in links:
            if lid not in remaining:
                raise KeyError(f"flow {fid!r} crosses unknown link {lid!r}")
            group = members.get(lid)
            if group is None:
                members[lid] = {fid: None}
            else:
                group[fid] = None
    return rates, active, w, remaining, members


def maxmin_rates(
    flow_links: Mapping[Hashable, Sequence[Hashable]],
    capacities: Mapping[Hashable, float],
    weights: Mapping[Hashable, float] | None = None,
) -> dict[Hashable, float]:
    """Weighted max-min fair rates by progressive filling (optimized).

    Parameters
    ----------
    flow_links:
        Maps each flow id to the links (hashable ids) on its path.  A flow
        with an empty path is unconstrained and gets ``float('inf')``.
    capacities:
        Maps each link id to its capacity (> 0).
    weights:
        Optional per-flow weights (> 0, default 1.0).  A flow's share of a
        bottleneck is proportional to its weight.

    Returns
    -------
    dict mapping each flow id to its rate.

    Invariants (property-tested)
    ----------------------------
    * no link's total allocated rate exceeds its capacity (within epsilon);
    * every flow is bottlenecked: it crosses at least one saturated link
      (or is unconstrained);
    * with equal weights, flows sharing identical paths get equal rates;
    * output is bit-identical to the naive test-side oracle.
    """
    rates, active, w, remaining, members = _setup(flow_links, capacities, weights)
    return _fill(active, w, remaining, members, rates)


def _fill(active: Mapping, w: Mapping, caps: Mapping, members: Mapping,
          rates: dict) -> dict:
    """Progressive filling into ``rates`` over validated inputs it keeps.

    ``active``, ``w``, ``caps`` and ``members`` are :func:`_setup`'s maps or
    the :class:`~repro.netsim.network.Network`'s tracked ones.  Links are
    visited in first-appearance order over ``active``, as ``_setup`` builds
    them.  A flow with a rate is frozen: it is skipped where the oracle pops
    it, which sums the same weights in the same order.
    """
    loaded = dict.fromkeys(chain.from_iterable(active.values()))
    # Per-link weight sums, cached across rounds; only the links touched by
    # a freezing round are recomputed (over an unchanged set of live members
    # a recomputation would reproduce the cached value bit-for-bit, so the
    # cache never diverges from the reference's recompute-everything loop).
    remaining: dict[Hashable, float] = {}
    wsum: dict[Hashable, float] = {}
    for lid in loaded:
        remaining[lid] = caps[lid]
        total = 0.0
        for fid in members[lid]:
            total += w[fid]
        wsum[lid] = total
    unfrozen = len(active)

    while unfrozen:
        shares: dict[Hashable, float] = {}
        bottleneck = None
        for lid in loaded:
            share = remaining[lid] / wsum[lid]
            shares[lid] = share
            if bottleneck is None or share < bottleneck:
                bottleneck = share
        # An unfrozen flow keeps its links loaded, so there is a bottleneck.
        threshold = bottleneck + _EPS
        frozen: dict[Hashable, None] = {}
        for lid, share in shares.items():
            if share <= threshold:
                for fid in members[lid]:
                    if fid not in rates:
                        frozen[fid] = None
        touched: dict[Hashable, None] = {}
        for fid in frozen:
            rate = bottleneck * w[fid]
            rates[fid] = rate
            for lid in active[fid]:
                left = remaining[lid] - rate
                remaining[lid] = left if left > 0.0 else 0.0
                touched[lid] = None
        unfrozen -= len(frozen)
        for lid in touched:
            total = 0.0
            for fid in members[lid]:
                if fid not in rates:
                    total += w[fid]
            if total > 0.0:  # weights are > 0: the link has live members
                wsum[lid] = total
            else:
                del loaded[lid]

    return rates


def equal_split_rates(
    flow_links: Mapping[Hashable, Sequence[Hashable]],
    capacities: Mapping[Hashable, float],
    weights: Mapping[Hashable, float] | None = None,
) -> dict[Hashable, float]:
    """Naive equal-split sharing (ablation baseline).

    Each link offers ``capacity / n_flows`` to every crossing flow
    (weight-proportionally when weights are given); a flow's rate is the
    minimum offer along its path.  Never exceeds link capacities, but wastes
    capacity relative to max-min fairness.
    """
    weights = weights or {}
    w: dict[Hashable, float] = {}
    link_load: dict[Hashable, float] = {}
    for fid, links in flow_links.items():
        wf = float(weights.get(fid, 1.0))
        if not wf > 0:
            raise ValueError(f"flow {fid!r}: weight must be > 0")
        w[fid] = wf
        for lid in links:
            if lid not in capacities:
                raise KeyError(f"flow {fid!r} crosses unknown link {lid!r}")
            if not capacities[lid] > 0:
                raise ValueError(f"link {lid!r}: capacity must be > 0")
            link_load[lid] = link_load.get(lid, 0.0) + wf

    rates: dict[Hashable, float] = {}
    for fid, links in flow_links.items():
        if len(links) == 0:
            rates[fid] = _INF
            continue
        wf = w[fid]
        best = None
        for lid in links:
            offer = capacities[lid] * wf / link_load[lid]
            if best is None or offer < best:
                best = offer
        rates[fid] = best
    return rates
