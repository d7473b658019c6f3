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

try:
    import numpy as _np
except ImportError:  # pragma: no cover - exercised by the no-numpy CI leg
    _np = None

#: True when the vectorised solver can actually vectorise (numpy present).
HAVE_NUMPY = _np is not None

_EPS = 1e-12

_INF = float("inf")


def _setup(
    flow_links: Mapping[Hashable, Sequence[Hashable]],
    capacities: Mapping[Hashable, float],
    weights: Mapping[Hashable, float] | None,
):
    """Shared validated setup for the max-min solvers and their oracle.

    Returns ``(rates, active, w, remaining, members)`` where ``rates`` is
    pre-populated with the unconstrained (empty-path) flows, ``active``
    maps constrained flow ids to their link tuples, ``w`` holds validated
    float weights, ``remaining`` the validated float capacities and
    ``members`` the per-link insertion-ordered membership maps
    (``lid -> {fid: None}``).  All containers are insertion-ordered dicts;
    every solver iterates them identically, which is what guarantees
    bit-identical results.
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


def vectorized_maxmin_rates(
    flow_links: Mapping[Hashable, Sequence[Hashable]],
    capacities: Mapping[Hashable, float],
    weights: Mapping[Hashable, float] | None = None,
) -> dict[Hashable, float]:
    """Weighted max-min fair rates on a dense link x flow formulation.

    Numerically **bit-identical** to :func:`maxmin_rates` and the naive
    test-side oracle — not merely close.  The equivalences
    that make that possible:

    * per-link weight sums use ``np.cumsum`` row sums, which accumulates
      strictly left-to-right like the scalar ``total += w[fid]`` loop
      (``np.sum`` would use pairwise summation and differ in the last
      ulp); non-members contribute ``0.0``, and ``x + 0.0 == x`` bitwise
      for the non-negative partial sums weights produce;
    * link order in the dense formulation is ``members`` insertion order
      and flow order is ``active`` insertion order, so saturated links
      and their member flows freeze in exactly the reference's order
      (``np.nonzero`` enumerates row-major = link-then-member);
    * shares / bottleneck / threshold / rate are elementwise IEEE ops,
      identical to the scalar expressions;
    * the per-link capacity subtractions of a freezing round are replayed
      *sequentially* in frozen-flow order (they form a data dependence
      chain through ``remaining``), as scalar ``np.float64`` arithmetic.

    The differential suite (``tests/netsim/test_vectorized.py``) asserts
    exact equality on randomized topologies.  Without numpy installed
    this transparently falls back to the optimized scalar solver (same
    bits, no speedup).
    """
    if _np is None:
        return maxmin_rates(flow_links, capacities, weights)
    rates, active, w, remaining, members = _setup(flow_links, capacities, weights)
    if not active:
        return rates

    fids = list(active)
    lids = list(members)
    findex = {fid: i for i, fid in enumerate(fids)}
    lindex = {lid: j for j, lid in enumerate(lids)}
    nflows, nlinks = len(fids), len(lids)
    wv = _np.fromiter((w[fid] for fid in fids), dtype=_np.float64, count=nflows)
    rem = _np.fromiter((remaining[lid] for lid in lids), dtype=_np.float64,
                       count=nlinks)
    membership = _np.zeros((nlinks, nflows), dtype=bool)
    # Per-flow link paths as index arrays, kept in *path* order (with
    # duplicates, if a path repeats a link) for the subtraction replay.
    paths = []
    for i, fid in enumerate(fids):
        links = active[fid]
        idx = _np.fromiter((lindex[lid] for lid in links), dtype=_np.intp,
                           count=len(links))
        paths.append(idx)
        membership[idx, i] = True

    # Cached per-link weight sums, sequential-semantics via cumsum.
    masked = _np.where(membership, wv[_np.newaxis, :], 0.0)
    wsum = _np.cumsum(masked, axis=1)[:, -1]
    loaded = _np.ones(nlinks, dtype=bool)
    alive = _np.ones(nflows, dtype=bool)
    out = _np.zeros(nflows, dtype=_np.float64)

    while alive.any():
        live_links = _np.nonzero(loaded)[0]
        if live_links.size == 0:
            # Mirror of the naive oracle's defensive exit.
            out[alive] = _INF
            break
        shares = rem[live_links] / wsum[live_links]
        bottleneck = shares.min()
        threshold = bottleneck + _EPS
        sat_links = live_links[shares <= threshold]
        # Frozen flows in link-then-member discovery order with keep-first
        # dedup — exactly the scalar solvers' `frozen` dict construction.
        cols = _np.nonzero(membership[sat_links])[1]
        _uniq, first = _np.unique(cols, return_index=True)
        frozen = cols[_np.sort(first)]
        # Capacity subtractions form a sequential dependence chain through
        # `rem`; replay them in frozen order as scalar float64 arithmetic.
        for i in frozen.tolist():
            rate = bottleneck * wv[i]
            out[i] = rate
            for j in paths[i].tolist():
                left = rem[j] - rate
                rem[j] = left if left > 0.0 else 0.0
        alive[frozen] = False
        membership[:, frozen] = False
        touched = _np.unique(_np.concatenate([paths[i] for i in frozen.tolist()]))
        still_loaded = membership[touched].any(axis=1)
        loaded[touched] = still_loaded
        refresh = touched[still_loaded]
        if refresh.size:
            masked = _np.where(membership[refresh], wv[_np.newaxis, :], 0.0)
            wsum[refresh] = _np.cumsum(masked, axis=1)[:, -1]

    for fid, i in findex.items():
        rates[fid] = float(out[i])
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
