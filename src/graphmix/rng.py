"""Seeded randomness shared by every stochastic routine in the package.

All randomness flows through numpy's PCG64 bit generator, and every decision
is derived from uniform doubles (``Generator.random()``) only.  Pinning the
bit generator and the sole primitive keeps draw sequences identical across
runs and platforms for a given seed, so seeds are portable artifacts.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "make_rng",
    "rand_below",
    "weighted_pick",
    "pick_from_cumulative",
    "sample_without_replacement",
]

_MAX_SEED = 2**64


def make_rng(seed: int) -> np.random.Generator:
    """Return the package-standard generator (PCG64) for a 64-bit seed."""
    if not isinstance(seed, (int, np.integer)):
        raise ValueError(f"seed must be an integer, got {type(seed).__name__}")
    if not 0 <= seed < _MAX_SEED:
        raise ValueError(f"seed must be in [0, 2**64), got {seed}")
    return np.random.Generator(np.random.PCG64(int(seed)))


def rand_below(rng: np.random.Generator, k: int) -> int:
    """Uniform integer in [0, k) from a single double draw."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return int(rng.random() * k)


def weighted_pick(rng: np.random.Generator, weights: np.ndarray) -> int:
    """Index drawn proportionally to non-negative ``weights`` (one draw).

    Inverse-CDF sampling on the cumulative sum; zero-weight entries are
    never selected.  The caller guarantees the total weight is positive.
    """
    return pick_from_cumulative(rng, np.cumsum(weights))


def pick_from_cumulative(rng: np.random.Generator, cum: np.ndarray) -> int:
    """Like :func:`weighted_pick` but from a precomputed cumulative sum."""
    total = cum[-1]
    if not total > 0.0:
        raise ValueError("total weight must be positive")
    idx = int(cum.searchsorted(rng.random() * total, side="right"))
    if idx >= len(cum):
        # u*total rounded up to the total; step back to the last positive weight.
        idx = len(cum) - 1
        while idx > 0 and cum[idx] == cum[idx - 1]:
            idx -= 1
    return idx


def sample_without_replacement(rng: np.random.Generator, n: int, k: int) -> np.ndarray:
    """k distinct uniform indices from range(n), via partial Fisher-Yates."""
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    pool = np.arange(n)
    for i in range(k):
        j = i + rand_below(rng, n - i)
        pool[i], pool[j] = pool[j], pool[i]
    return pool[:k].copy()
