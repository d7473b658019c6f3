"""Naive netsim oracles, kept only for the differential tests.

The production engine — :class:`repro.netsim.Network` and the solvers in
:mod:`repro.netsim.fairshare` — is optimised: persistent solver inputs,
batched same-instant solves, skipped no-op solves, rates reused when the
flows repeat the paths and weights of the replaced solution, cached weight
sums.
This module keeps the seed repo's naive versions so the optimisations can
be held to *exact* equality against something whose correctness is
obvious:

* :func:`reference_maxmin_rates` and :func:`reference_equal_split_rates`,
  which mirror the production solvers' arithmetic bit for bit;
* :class:`ReferenceNetwork`, which rebuilds the solver inputs from the
  live flow set on every event, solves on every arrival and never skips a
  solve.
"""

from __future__ import annotations

from typing import Hashable, Mapping, Sequence

from repro.netsim import Network
from repro.netsim.fairshare import _EPS, _INF, _setup


def reference_maxmin_rates(
    flow_links: Mapping[Hashable, Sequence[Hashable]],
    capacities: Mapping[Hashable, float],
    weights: Mapping[Hashable, float] | None = None,
) -> dict[Hashable, float]:
    """The retained naive max-min solver (differential-test oracle).

    Every progressive-filling round recomputes every loaded link's weight
    sum from scratch — O(flows x links) per round, quadratic over a run —
    which is exactly what :func:`~repro.netsim.fairshare.maxmin_rates`
    avoids.  Kept deliberately simple so its correctness is obvious; the
    optimized solver must match it bit-for-bit (see the
    :mod:`repro.netsim.fairshare` docstring).
    """
    rates, active, w, remaining, members = _setup(flow_links, capacities, weights)

    while active:
        shares: dict[Hashable, float] = {}
        bottleneck = None
        for lid, fids in members.items():
            if not fids:
                continue
            total = 0.0
            for fid in fids:
                total += w[fid]
            share = remaining[lid] / total
            shares[lid] = share
            if bottleneck is None or share < bottleneck:
                bottleneck = share
        if bottleneck is None:
            for fid in active:
                rates[fid] = _INF
            break

        threshold = bottleneck + _EPS
        frozen: dict[Hashable, None] = {}
        for lid, share in shares.items():
            if share <= threshold:
                for fid in members[lid]:
                    frozen[fid] = None
        for fid in frozen:
            rate = bottleneck * w[fid]
            rates[fid] = rate
            for lid in active[fid]:
                members[lid].pop(fid, None)
                left = remaining[lid] - rate
                remaining[lid] = left if left > 0.0 else 0.0
            del active[fid]

    return rates


def reference_equal_split_rates(
    flow_links: Mapping[Hashable, Sequence[Hashable]],
    capacities: Mapping[Hashable, float],
    weights: Mapping[Hashable, float] | None = None,
) -> dict[Hashable, float]:
    """The retained naive equal-split implementation (differential oracle).

    Recomputes the per-flow weight lookup inside both passes instead of
    caching it — the seed repo's original shape.  Arithmetic mirrors
    :func:`~repro.netsim.fairshare.equal_split_rates` exactly.
    """
    weights = weights or {}
    link_load: dict[Hashable, float] = {}
    for fid, links in flow_links.items():
        wf = float(weights.get(fid, 1.0))
        for lid in links:
            if lid not in capacities:
                raise KeyError(f"flow {fid!r} crosses unknown link {lid!r}")
            link_load[lid] = link_load.get(lid, 0.0) + wf

    rates: dict[Hashable, float] = {}
    for fid, links in flow_links.items():
        if len(links) == 0:
            rates[fid] = _INF
            continue
        wf = float(weights.get(fid, 1.0))
        best = None
        for lid in links:
            offer = capacities[lid] * wf / link_load[lid]
            if best is None or offer < best:
                best = offer
        rates[fid] = best
    return rates


_REFERENCE_SHARING_MODELS = {
    "maxmin": reference_maxmin_rates,
    "equal": reference_equal_split_rates,
}


class ReferenceNetwork(Network):
    """The seed repo's rebuild-per-event network (differential oracle).

    Only the incremental bookkeeping is overridden; arrivals, reroutes,
    completions and the completion timer run the production code.  It
    solves at once on every arrival (no same-instant batching), rebuilds
    the solver inputs from the live flow set before every solve, never
    skips a solve (not even to reuse the replaced solution's rates) and
    always uses the naive scalar solvers.
    """

    def __init__(self, sim, topology, sharing: str = "maxmin",
                 efficiency: float = 1.0):
        super().__init__(sim, topology, sharing, efficiency)
        self._share_fn = _REFERENCE_SHARING_MODELS[sharing]

    def _track_flow(self, flow) -> None:
        """No persistent inputs: :meth:`_rebuild_tracking` builds them."""

    def _untrack_flow(self, flow) -> None:
        """No persistent inputs: :meth:`_rebuild_tracking` builds them."""

    def _request_rebalance(self) -> None:
        # Solve now, once per arrival: no same-instant batching.
        self._advance_progress()
        self._rebalance()

    def _complete_finished(self) -> None:
        # Every rebalance runs this pass right before it solves.
        super()._complete_finished()
        self._rebuild_tracking()

    def _rebuild_tracking(self) -> None:
        """Rebuild the inputs from scratch and never call them clean."""
        flows = self._flows.values()
        self._flow_links = {f.fid: [lk.key for lk in f.links] for f in flows}
        capacities = {}
        for flow in flows:
            for link in flow.links:
                capacities[link.key] = link.capacity * self.efficiency
        self._caps = capacities
        self._weights = {f.fid: f.weight for f in flows}
        self._dirty = True
        self._solution = self._replaced = None  # nothing to reuse
