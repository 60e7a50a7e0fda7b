"""Seeded randomness shared by every stochastic routine in the package.

All randomness flows through numpy's PCG64 bit generator, and every decision
is derived from uniform doubles (``Generator.random()``) only.  Pinning the
bit generator and the sole primitive keeps draw sequences identical across
runs and platforms for a given seed, so seeds are portable artifacts.

A :class:`UniformStream` hands out the same doubles as scalar
``rng.random()`` calls, drawn from the generator in blocks, which costs a
fraction of a scalar call per double: ``stream.next()`` hands one out
from C, and ``stream.random()`` through one Python call.  A block draws
ahead of what the stream has handed out, so the generator's state no
longer matches the doubles used.  A stream is therefore used only where
the callee owns the generator from :func:`make_rng` until it returns: the
generators (after the labels and activities are drawn), each
``sampling.sample`` call and the directed branch of ``trace_from_graph``.  A generator that is passed on
keeps scalar draws, for example the one ``graphmix spread`` shares between
``seeding`` and ``cascade``: the cascade draws its rolls as arrays, which
must start where the seeding's draws ended.  The helpers below take either
a generator or a stream, as they only call ``.random()`` and
``.random(size)``, which hand out the same doubles on both.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Iterator, Sequence
from itertools import chain, islice

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
    ``rng.random()`` would, and ``stream.random(size)`` the next ``size``
    of them as an array.  The stream draws ahead from ``rng``, which the
    caller must not use afterwards.

    The scalar doubles come from an ``itertools.chain`` over the blocks'
    lists, so ``stream.next``, the chain's bound ``__next__``, hands out a
    double without a Python frame; a hot loop binds it in place of
    ``stream.random``.
    """

    __slots__ = ("next", "_chain", "_rng", "_current")

    def __init__(self, rng: np.random.Generator):
        self._rng = rng
        self._current = [iter(())]  # the iterator over the block being handed out
        self._chain = chain.from_iterable(_blocks(rng, self._current))
        self.next = self._chain.__next__

    def random(self, size: int | None = None) -> float | np.ndarray:
        if size is None:
            return next(self._chain)
        # the rest of the current block, then the remainder straight from
        # the generator: the doubles are the same whatever the block sizes
        head = list(islice(self._current[0], size))
        if len(head) == size:
            return np.array(head, dtype=np.float64)
        return np.concatenate((head, self._rng.random(size - len(head))))


def _blocks(rng: np.random.Generator, current: list) -> Iterator[Iterator[float]]:
    """A stream's blocks, each published in ``current`` as it starts.

    It holds the generator and ``current``, not the stream, so a stream is
    freed by reference counting alone."""
    block = _FIRST_BLOCK
    while True:
        block = min(block, STREAM_BLOCK_CAP)  # read at each block
        current[0] = iter(rng.random(block).tolist())
        yield current[0]
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


def pick_from_cumulative(
    rng: np.random.Generator | UniformStream, cum: Sequence[float] | np.ndarray
) -> int:
    """Like :func:`weighted_pick` but from a precomputed cumulative sum.

    ``cum`` may be a list or an array; a list bisects faster.  The index
    is that of ``searchsorted(u * total, side="right")``.
    """
    total = cum[-1]
    if not total > 0.0:
        raise ValueError("total weight must be positive")
    idx = bisect_right(cum, rng.random() * total)
    if idx >= len(cum):
        # u*total rounded up to the total; step back to the last positive weight.
        idx = len(cum) - 1
        while idx > 0 and cum[idx] == cum[idx - 1]:
            idx -= 1
    return idx


def sample_without_replacement(
    rng: np.random.Generator | UniformStream, n: int, k: int
) -> np.ndarray:
    """k distinct uniform indices from range(n), via partial Fisher-Yates.

    Swap i takes position ``i + int(u_i * (n - i))``, u_i the i-th of k
    doubles drawn in one ``random(k)`` call, which are the doubles of k
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
