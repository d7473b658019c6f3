"""Seeded, spawnable random streams.

Every stochastic component in the reproduction draws from a
:class:`RandomSource` derived from the simulator's root source via
:meth:`RandomSource.spawn`.  Each source owns one :class:`random.Random`
seeded from a hash of ``(root seed, spawn key)``, where the spawn key is
the chain of hashed substream names from the root.  So each component
owns an independent stream, and adding a new consumer never perturbs the
draws seen by existing ones — a prerequisite for run-to-run comparability
of benchmark configurations.

The draws are pure python (:mod:`random` and :mod:`math`), so a seed names
one run on every install: numpy, where present, plays no part in them.
"""

from __future__ import annotations

import hashlib
import math
import random as _pyrandom  # lint: disable=stdlib-random -- the one
# generator backend: every instance is an explicitly seeded
# random.Random(seed64), never the process-global functions.
from typing import Sequence


class RandomSource:
    """A seeded :class:`random.Random` with named substreams."""

    def __init__(self, seed: int = 0, _spawn_key: tuple = ()):
        self._entropy = int(seed)
        self._spawn_key = _spawn_key
        material = repr((self._entropy, _spawn_key)).encode("utf-8")
        digest = hashlib.blake2b(material, digest_size=8).digest()
        self._rng = _pyrandom.Random(int.from_bytes(digest, "big"))
        self._children: dict[str, RandomSource] = {}

    def spawn(self, name: str) -> "RandomSource":
        """Return the substream for ``name``, creating it deterministically.

        The same name always maps to the same substream for a given parent,
        regardless of the order in which names are first requested.
        """
        if name not in self._children:
            # Derive the child from (root entropy, stable hash of name) so
            # that creation order does not matter.  The hash must cover the
            # FULL name: truncating to a prefix collapses every name sharing
            # its first bytes (e.g. "straggler.m0001@a" / "straggler.m0002@b")
            # onto one substream, silently correlating draws that the model
            # treats as independent.
            digest = hashlib.blake2b(name.encode("utf-8"), digest_size=8).digest()
            spawn_key = self._spawn_key + (
                int.from_bytes(digest, "big") % (2**63),)
            self._children[name] = RandomSource(self._entropy, spawn_key)
        return self._children[name]

    # -- draws ---------------------------------------------------------------
    def uniform(self, low: float = 0.0, high: float = 1.0) -> float:
        """One uniform draw in ``[low, high)``."""
        return low + (high - low) * self._rng.random()

    def exponential(self, mean: float) -> float:
        """One exponential draw with the given mean."""
        if mean < 0:
            raise ValueError("exponential mean must be >= 0")
        return -mean * math.log(1.0 - self._rng.random())

    def normal(self, mean: float, std: float) -> float:
        """One normal draw."""
        if std < 0:
            raise ValueError("normal std must be >= 0")
        return self._rng.gauss(mean, std)

    def lognormal_mean(self, mean: float, cv: float) -> float:
        """One lognormal draw parameterised by its *mean* and coefficient of
        variation ``cv = std/mean`` (handy for service-time jitter)."""
        if mean <= 0:
            raise ValueError("lognormal mean must be positive")
        sigma2 = math.log(1.0 + cv * cv)
        mu = math.log(mean) - sigma2 / 2.0
        return math.exp(self._rng.gauss(mu, math.sqrt(sigma2)))

    def integers(self, low: int, high: int) -> int:
        """One integer draw in ``[low, high)``."""
        return self._rng.randrange(low, high)

    def choice(self, seq: Sequence):
        """Choose one element of a sequence uniformly."""
        if len(seq) == 0:
            raise ValueError("choice from empty sequence")
        return seq[self._rng.randrange(0, len(seq))]

    def shuffle(self, seq: list) -> list:
        """Shuffle a list in place and return it."""
        self._rng.shuffle(seq)
        return seq

    def pareto_bounded(self, shape: float, lo: float, hi: float) -> float:
        """Bounded-Pareto draw — heavy-tailed sizes clipped to ``[lo, hi]``."""
        if shape <= 0:
            raise ValueError("pareto shape must be positive")
        if not (0 < lo <= hi):
            raise ValueError("require 0 < lo <= hi")
        u = self.uniform(0.0, 1.0)
        # Inverse CDF of the bounded Pareto distribution.
        la, ha = lo**shape, hi**shape
        x = (-(u * ha - u * la - ha) / (ha * la)) ** (-1.0 / shape)
        return float(min(max(x, lo), hi))
