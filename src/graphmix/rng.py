"""Seeded randomness shared by every stochastic routine in the package.

All randomness flows through numpy's PCG64 bit generator, and every decision
is derived from uniform doubles (``Generator.random()``) only.  Pinning the
bit generator and the sole primitive keeps draw sequences identical across
runs and platforms for a given seed, so seeds are portable artifacts.

A :class:`UniformStream` hands out the same doubles as scalar
``rng.random()`` calls, drawn from the generator in blocks, which costs a
fraction of a scalar call per double: ``stream.next()`` hands one out
from C.  A block draws ahead of what the stream has handed out, so the
generator's state no longer matches the doubles used.  A stream is
therefore used only where the callee owns the generator from
:func:`make_rng` until it returns: the growth loops (after the labels and
activities are drawn) and the snowball and random-walk crawls.  The
array draws (uniform-node and uniform-edge sampling, the directed branch
of ``trace_from_graph``, the directed generator's sources through
:func:`picks_from_cumulative`, from a generator of its own on
``rng.bit_generator.jumped()`` taken after the activities) read the
generator itself, where ``rng.random(size)`` returns the doubles of
``size`` scalar calls.  A generator that is passed on is drawn from
directly, never through a stream, for example the one ``graphmix spread``
shares between ``seeding`` and ``cascade``: the cascade draws its rolls as
arrays, which must start where the seeding's draws ended.  The scalar
helpers below take either a generator or a stream, as they only call
``.random()``.
"""

from __future__ import annotations

from collections.abc import Iterator
from itertools import chain

import numpy as np

from . import _check

__all__ = [
    "make_rng",
    "rand_below",
    "weighted_pick",
    "sample_without_replacement",
]

# A stream's blocks double from _FIRST_BLOCK up to STREAM_BLOCK_CAP doubles,
# so a caller that needs a few hundred doubles draws few more than that.
_FIRST_BLOCK = 16
STREAM_BLOCK_CAP = 4096


def make_rng(seed: int) -> np.random.Generator:
    """Return the package-standard generator (PCG64) for a 64-bit seed."""
    return np.random.Generator(np.random.PCG64(check_seed(seed)))


def check_seed(seed: int) -> int:
    """``seed`` as an ``int``, refused unless it is an integer in [0, 2**64)."""
    return _check.count("seed", seed, 0, 2**64 - 1)


class UniformStream:
    """The doubles of successive ``rng.random()`` calls, drawn in blocks.

    ``rng.random(size)`` fills its array with the doubles that ``size``
    scalar calls return, so ``stream.random()`` returns exactly what
    ``rng.random()`` would.  The stream draws ahead from ``rng``, which the
    caller must not use afterwards.

    ``stream.next`` and ``stream.random`` are both the bound ``__next__``
    of an ``itertools.chain`` over the blocks' lists, so they hand out a
    double without a Python frame and take no ``size``.  The method holds
    the chain, the chain the block generator and that ``rng``: no cycle,
    so a stream is freed by reference counting alone.
    """

    __slots__ = ("next", "random")

    def __init__(self, rng: np.random.Generator):
        self.next = self.random = chain.from_iterable(_blocks(rng)).__next__


def _blocks(rng: np.random.Generator) -> Iterator[list[float]]:
    block = _FIRST_BLOCK
    while True:
        block = min(block, STREAM_BLOCK_CAP)  # read at each block
        yield rng.random(block).tolist()
        block *= 2


def rand_below(rng: np.random.Generator | UniformStream, k: int) -> int:
    """Uniform integer in [0, k) from a single double draw."""
    return int(rng.random() * _check.count("k", k, 1))


def weighted_pick(rng: np.random.Generator | UniformStream, weights: np.ndarray) -> int:
    """Index drawn proportionally to non-negative ``weights`` (one draw).

    Inverse-CDF sampling on the cumulative sum; zero-weight entries are
    never selected.  The caller guarantees the total weight is positive.
    """
    return pick_from_cumulative(rng, np.cumsum(weights))


def pick_from_cumulative(rng: np.random.Generator | UniformStream, cum: np.ndarray) -> int:
    """Like :func:`weighted_pick` but from a precomputed cumulative sum array."""
    return int(_inverse_cdf(cum, rng.random()))


def picks_from_cumulative(rng: np.random.Generator, cum: np.ndarray, size: int) -> np.ndarray:
    """``size`` picks of :func:`pick_from_cumulative` as an int64 array, one per double of ``rng.random(size)``."""
    return _inverse_cdf(cum, rng.random(size))


def _inverse_cdf(cum: np.ndarray, u: float | np.ndarray):
    """The index ``searchsorted(u * total, side="right")`` in ``cum`` of each double u."""
    total = cum[-1]
    if not total > 0.0:
        raise ValueError("total weight must be positive")
    # u * total rounded up to the total: the last positive weight, where the sum first reaches it
    return np.minimum(cum.searchsorted(u * total, side="right"), cum.searchsorted(total))


def sample_without_replacement(rng: np.random.Generator, n: int, k: int) -> np.ndarray:
    """k distinct uniform indices from range(n), via partial Fisher-Yates.

    Swap i takes position ``i + int(u_i * (n - i))``, u_i the i-th of k
    doubles drawn in one ``rng.random(k)`` call, which are the doubles of k
    scalar calls.  The pool is sparse: a dict holds only the positions a
    swap has moved, so time and memory are O(k) whatever n is.
    """
    k = _check.count("k", k, 0, _check.count("n", n))
    steps = np.arange(k, dtype=np.int64)
    # float64 * (n - i) and the truncation toward zero are int(u * (n - i))
    picks = steps + (rng.random(k) * (n - steps)).astype(np.int64)
    moved: dict[int, int] = {}
    get = moved.get
    out = []
    for i, j in enumerate(picks.tolist()):
        out.append(get(j, j))
        moved[j] = get(i, i)
    return np.array(out, dtype=np.int_)
