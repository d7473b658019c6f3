"""Seeded, spawnable random streams.

Every stochastic component in the reproduction draws from a
:class:`RandomSource` derived from the simulator's root source via
:meth:`RandomSource.spawn`.  Spawning uses numpy's ``SeedSequence`` child
spawning, so each component owns an independent stream and adding a new
consumer never perturbs the draws seen by existing ones — a prerequisite for
run-to-run comparability of benchmark configurations.

numpy is an *optional* extra (``pip install repro[fast]``): without it,
:class:`RandomSource` falls back to a pure-python generator backed by
:mod:`random` with the same method surface and the same spawn-independence
guarantee.  The fallback draws come from a different bit stream than
PCG64 — same-seed results are reproducible *within* a mode but not across
the numpy/no-numpy boundary (every simulation is still single-mode, so
bit-for-bit determinism holds wherever it held before).
"""

from __future__ import annotations

import hashlib
import math
import random as _pyrandom  # lint: disable=stdlib-random -- fallback
# generator backend for no-numpy installs: every instance is an explicitly
# seeded random.Random(seed64), never the process-global functions.
from typing import Optional, Sequence

from repro._lazy import optional_numpy


class _FallbackSeedSequence:
    """A minimal ``SeedSequence`` stand-in: entropy + spawn-key tuple."""

    __slots__ = ("entropy", "spawn_key")

    def __init__(self, entropy: Optional[int] = None, spawn_key: tuple = ()):
        self.entropy = 0 if entropy is None else int(entropy)
        self.spawn_key = tuple(spawn_key)

    def _seed64(self) -> int:
        material = repr((self.entropy, self.spawn_key)).encode("utf-8")
        digest = hashlib.blake2b(material, digest_size=8).digest()
        return int.from_bytes(digest, "big")


class _FallbackGenerator:
    """``numpy.random.Generator`` method surface over :mod:`random`.

    Scalar draws only — vectorised calls (``size=...``) require numpy and
    raise :class:`TypeError` here, pointing at the ``[fast]`` extra.
    """

    __slots__ = ("_rng",)

    def __init__(self, seed64: int):
        self._rng = _pyrandom.Random(seed64)

    def uniform(self, low: float = 0.0, high: float = 1.0) -> float:
        return low + (high - low) * self._rng.random()

    def exponential(self, scale: float = 1.0) -> float:
        return -scale * math.log(1.0 - self._rng.random())

    def normal(self, loc: float = 0.0, scale: float = 1.0) -> float:
        return self._rng.gauss(loc, scale)

    def lognormal(self, mean: float = 0.0, sigma: float = 1.0) -> float:
        return math.exp(self._rng.gauss(mean, sigma))

    def integers(self, low: int, high: Optional[int] = None, size=None) -> int:
        if size is not None:
            raise TypeError(
                "vectorised integers(size=...) needs numpy "
                "(pip install repro[fast])")
        if high is None:
            low, high = 0, low
        return self._rng.randrange(low, high)

    def shuffle(self, seq: list) -> None:
        self._rng.shuffle(seq)


class RandomSource:
    """A wrapper around ``numpy.random.Generator`` with named substreams
    (pure-python fallback when numpy is not installed)."""

    def __init__(self, seed: Optional[int] = 0, _seq=None):
        np = optional_numpy()
        if np is not None:
            self.seed_sequence = (
                _seq if _seq is not None else np.random.SeedSequence(seed))
            self.generator = np.random.Generator(
                np.random.PCG64(self.seed_sequence))
        else:
            self.seed_sequence = (
                _seq if _seq is not None else _FallbackSeedSequence(seed))
            self.generator = _FallbackGenerator(self.seed_sequence._seed64())
        self._children: dict[str, RandomSource] = {}

    def spawn(self, name: str) -> "RandomSource":
        """Return the substream for ``name``, creating it deterministically.

        The same name always maps to the same substream for a given parent,
        regardless of the order in which names are first requested.
        """
        if name not in self._children:
            # Derive the child from (parent entropy, stable hash of name) so
            # that creation order does not matter.  The hash must cover the
            # FULL name: truncating to a prefix collapses every name sharing
            # its first bytes (e.g. "straggler.m0001@a" / "straggler.m0002@b")
            # onto one substream, silently correlating draws that the model
            # treats as independent.
            digest = hashlib.blake2b(name.encode("utf-8"), digest_size=8).digest()
            spawn_key = self.seed_sequence.spawn_key + (
                int.from_bytes(digest, "big") % (2**63),)
            np = optional_numpy()
            if np is not None:
                child_seq = np.random.SeedSequence(
                    entropy=self.seed_sequence.entropy, spawn_key=spawn_key)
            else:
                child_seq = _FallbackSeedSequence(
                    entropy=self.seed_sequence.entropy, spawn_key=spawn_key)
            self._children[name] = RandomSource(_seq=child_seq)
        return self._children[name]

    # -- convenience draws -------------------------------------------------
    def uniform(self, low: float = 0.0, high: float = 1.0) -> float:
        """One uniform draw in ``[low, high)``."""
        return float(self.generator.uniform(low, high))

    def exponential(self, mean: float) -> float:
        """One exponential draw with the given mean."""
        return float(self.generator.exponential(mean))

    def normal(self, mean: float, std: float) -> float:
        """One normal draw."""
        return float(self.generator.normal(mean, std))

    def lognormal_mean(self, mean: float, cv: float) -> float:
        """One lognormal draw parameterised by its *mean* and coefficient of
        variation ``cv = std/mean`` (handy for service-time jitter)."""
        if mean <= 0:
            raise ValueError("lognormal mean must be positive")
        # numpy's scalar transcendentals when available (bit-compatibility
        # with the historical draws), :mod:`math` otherwise.
        np = optional_numpy()
        log, sqrt = (math.log, math.sqrt) if np is None else (np.log, np.sqrt)
        sigma2 = log(1.0 + cv * cv)
        mu = log(mean) - sigma2 / 2.0
        return float(self.generator.lognormal(mu, sqrt(sigma2)))

    def integers(self, low: int, high: int) -> int:
        """One integer draw in ``[low, high)``."""
        return int(self.generator.integers(low, high))

    def choice(self, seq: Sequence):
        """Choose one element of a sequence uniformly."""
        if len(seq) == 0:
            raise ValueError("choice from empty sequence")
        return seq[int(self.generator.integers(0, len(seq)))]

    def shuffle(self, seq: list) -> list:
        """Shuffle a list in place and return it."""
        self.generator.shuffle(seq)
        return seq

    def pareto_bounded(self, shape: float, lo: float, hi: float) -> float:
        """Bounded-Pareto draw — heavy-tailed sizes clipped to ``[lo, hi]``."""
        if not (0 < lo <= hi):
            raise ValueError("require 0 < lo <= hi")
        u = self.uniform(0.0, 1.0)
        # Inverse CDF of the bounded Pareto distribution.
        la, ha = lo**shape, hi**shape
        x = (-(u * ha - u * la - ha) / (ha * la)) ** (-1.0 / shape)
        return float(min(max(x, lo), hi))
