"""Budgeted node-sampling strategies and bias benchmarking.

Five strategies mimic common data-collection regimes: uniform node and
uniform edge sampling, snowball (BFS) crawling, random-walk crawling with
teleport restarts, and a top-degree oracle standing in for popularity-API
access.  ``benchmark`` runs a (strategy, budget, repetition) factorial and
reports how far sample estimates of the minority fraction and mean degree
sit from the population values.

A graph's canonical edge arrays are built once, O(E), when a
uniform-edge sample first needs them, and kept on the frozen graph;
after that a sample costs O(budget) steps in Python, and a walk one more
per revisit, plus a few array calls over the n nodes: the degree vector
(a count over the E targets when directed), the top-degree partition,
and the pools of a uniform fill or a snowball re-seed.  The crawls read
rows of the CSR through memoryviews and draw from a ``UniformStream``,
the walk through its ``next``.  Uniform-node draws its indices in one
generator call, uniform-edge its edges in chunks of ceil(need / 2), need
being the nodes still missing: an edge adds at most two, so a chunk is
exactly the next draws of a loop that checks the size after every edge.
``benchmark`` samples the seed-free top-degree cell once per budget.
"""

from __future__ import annotations

import hashlib
from collections import deque
from dataclasses import dataclass

import numpy as np

from . import _check
from .graph import AttributedGraph
from .ranking import top_degree_nodes
from .rng import UniformStream, check_seed, make_rng, rand_below, sample_without_replacement

__all__ = [
    "STRATEGIES",
    "SampleResult",
    "SampleStats",
    "CellBias",
    "BiasReport",
    "sample",
    "benchmark",
]

STRATEGIES = ("uniform-node", "uniform-edge", "snowball", "random-walk", "top-degree")

RESTART_PROB = 0.15  # random-walk teleport rate, same constant as pagerank damping's complement


@dataclass(frozen=True)
class SampleResult:
    strategy: str
    budget: int
    nodes: np.ndarray  # sampled ids, ascending
    seed: int


@dataclass(frozen=True)
class SampleStats:
    """Sample-based estimates for one benchmark repetition."""

    strategy: str
    budget: int
    rep: int
    minority_fraction: float
    mean_degree: float


@dataclass(frozen=True)
class CellBias:
    """Bias aggregates for one (strategy, budget) benchmark cell.

    Bias is sample estimate minus population value, averaged over
    repetitions; the spread is the population standard deviation (ddof=0)
    of the per-repetition biases.
    """

    strategy: str
    budget: int
    reps: int
    minority_bias: float
    minority_bias_std: float
    degree_bias: float
    degree_bias_std: float


@dataclass(frozen=True)
class BiasReport:
    f_m: float
    mean_degree: float
    records: list[SampleStats]
    cells: list[CellBias]


def sample(g: AttributedGraph, strategy: str, budget: int, seed: int) -> SampleResult:
    """Draw min(budget, n) distinct nodes under the given strategy.

    uniform-node
        Uniform without replacement.
    uniform-edge
        Repeatedly draw a uniform edge and add both endpoints; on
        overshoot the second endpoint is dropped.  If every node incident
        to an edge is already in and the budget is unmet (isolated nodes),
        the remainder is filled uniformly from the unsampled nodes.
    snowball
        BFS from a uniform seed node, visiting neighbors in ascending id;
        re-seeds uniformly among unsampled nodes when a component is
        exhausted; follows out-edges on directed graphs.
    random-walk
        Simple walk from a uniform seed collecting distinct visited nodes;
        each step teleports to a uniform node with probability 0.15, and a
        node without (out-)neighbors forces a teleport.
    top-degree
        The budget highest-total-degree nodes (ties by ascending id); an
        oracle, no crawl is simulated.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}; expected one of {STRATEGIES}")
    n = g.n
    size = min(_check.count("budget", budget, 1), n)
    rng = make_rng(seed)

    if strategy == "uniform-node":
        nodes = sample_without_replacement(rng, n, size)
    elif strategy == "uniform-edge":
        nodes = _sample_uniform_edge(g, size, rng)
    elif strategy == "snowball":
        nodes = _sample_snowball(g, size, UniformStream(rng))
    elif strategy == "random-walk":
        nodes = _sample_random_walk(g, size, UniformStream(rng))
    else:
        nodes = top_degree_nodes(g, size)

    out = np.sort(np.asarray(nodes, dtype=np.int64))
    return SampleResult(strategy=strategy, budget=budget, nodes=out, seed=seed)


def _uniform_fill(sampled: set[int], n: int, size: int, rng: np.random.Generator) -> None:
    free = np.ones(n, dtype=bool)
    free[np.fromiter(sampled, dtype=np.int64, count=len(sampled))] = False
    pool = np.flatnonzero(free)  # the unsampled ids, ascending
    need = size - len(sampled)
    sampled.update(pool[sample_without_replacement(rng, pool.size, need)].tolist())


def _sample_uniform_edge(g: AttributedGraph, size: int, rng: np.random.Generator) -> list[int]:
    src, dst = (memoryview(a) for a in g.edge_arrays())
    num_edges = len(src)
    covered = int(np.count_nonzero(g.total_degree_vector()))
    sampled: set[int] = set()
    add = sampled.add
    # sampled only ever holds edge endpoints, so it covers them all once it
    # is as large as the covered set; then only isolated nodes remain
    target = min(size, covered)
    while len(sampled) < target:
        # an edge adds at most two nodes, so a loop of one draw per size
        # check would draw at least these ceil(need / 2) edges next; each
        # index is rand_below(rng, num_edges) of the same double
        need = target - len(sampled)
        for i in (rng.random((need + 1) // 2) * num_edges).astype(np.int64).tolist():
            add(src[i])
            # on overshoot the second endpoint is dropped; only a chunk's
            # last edge can overshoot
            if len(sampled) < size:
                add(dst[i])
    if len(sampled) < size:
        _uniform_fill(sampled, g.n, size, rng)
    return list(sampled)


class _UnsampledPool:
    """Order statistics of the nodes not yet sampled: a Fenwick tree over
    the 0/1 indicator, so taking the k-th remaining node (ascending) and
    removing a node each cost O(log n)."""

    def __init__(self, n: int, sampled: set[int]):
        # a power of two above n, so the descent needs no bound checks;
        # the total, tree[size], is never read and not kept
        size = 1 << n.bit_length()
        flags = np.zeros(size, dtype=np.int64)
        flags[:n] = 1
        flags[list(sampled)] = 0
        prefix = np.concatenate([[0], np.cumsum(flags)])
        i = np.arange(1, size)
        # tree[i] counts the remaining nodes among ids i - lowbit(i) .. i - 1
        self.tree = [0, *(prefix[i] - prefix[i - (i & -i)]).tolist()]

    def remove(self, nodes: list[int]) -> None:
        tree = self.tree
        size = len(tree)
        for v in nodes:
            i = v + 1
            while i < size:
                tree[i] -= 1
                i += i & -i

    def kth(self, k: int) -> int:
        tree = self.tree
        pos, step = 0, len(tree) >> 1
        while step:
            if tree[pos + step] <= k:
                pos += step
                k -= tree[pos]
            step >>= 1
        return pos


def _sample_snowball(g: AttributedGraph, size: int, rng: UniformStream) -> list[int]:
    csr = g.csr()
    ptr, idx = memoryview(csr.indptr), memoryview(csr.indices)
    sampled: set[int] = set()
    queue: deque[int] = deque()
    unsampled: _UnsampledPool | None = None  # built at the first re-seed
    crawled: list[int] = []  # sampled since the last re-seed
    while len(sampled) < size:
        if not queue:
            if not sampled:  # the pool is all of range(n)
                start = rand_below(rng, g.n)
            else:
                if unsampled is None:
                    unsampled = _UnsampledPool(g.n, sampled)
                else:
                    unsampled.remove(crawled)
                start = unsampled.kth(rand_below(rng, g.n - len(sampled)))
            crawled.clear()
            sampled.add(start)
            crawled.append(start)
            queue.append(start)
            if len(sampled) >= size:
                break
        u = queue.popleft()
        for v in idx[ptr[u]:ptr[u + 1]]:
            if v not in sampled:
                sampled.add(v)
                crawled.append(v)
                queue.append(v)
                if len(sampled) >= size:
                    break
    return list(sampled)


def _sample_random_walk(g: AttributedGraph, size: int, rng: UniformStream) -> list[int]:
    csr = g.csr()
    ptr, idx = memoryview(csr.indptr), memoryview(csr.indices)
    n = g.n
    random = rng.next
    # each int(random() * k) below is rand_below(rng, k), with k >= 1
    current = int(random() * n)
    sampled: set[int] = {current}
    add = sampled.add
    while len(sampled) < size:
        # a step adds at most one node, so these steps cannot overshoot
        for _ in range(size - len(sampled)):
            if random() < RESTART_PROB:
                current = int(random() * n)
            else:
                start = ptr[current]
                degree = ptr[current + 1] - start
                if degree:
                    current = idx[start + int(random() * degree)]
                else:  # a sink forces a teleport
                    current = int(random() * n)
            add(current)
    return list(sampled)


def cell_seed(base_seed: int, strategy: str, budget: int, rep: int) -> int:
    """Per-cell seed: base_seed XOR the first 8 bytes of a sha256 digest.

    Hash input is the "strategy|budget|rep" string, so every factorial cell
    gets an independent, platform-stable stream.
    """
    digest = hashlib.sha256(f"{strategy}|{budget}|{rep}".encode()).digest()
    return (base_seed ^ int.from_bytes(digest[:8], "little")) & (2**64 - 1)


def _spread(biases: np.ndarray) -> float:
    """Population std (ddof=0); exactly 0.0 when every repetition agrees,
    where np.std can leave rounding residue of the mean."""
    return 0.0 if (biases == biases[0]).all() else float(biases.std())


def benchmark(
    g: AttributedGraph,
    strategies: list[str],
    budgets: list[int],
    reps: int,
    seed: int,
) -> BiasReport:
    """Full factorial sampling-bias benchmark.

    For every (strategy, budget) cell and repetition, draws a sample with a
    derived per-cell seed and records the sample minority fraction and the
    sample mean (total) degree; cells aggregate the biases against the
    population values.  Deterministic in ``seed``.
    """
    reps = _check.count("reps", reps, 1)
    seed = check_seed(seed)
    if not strategies or not budgets:
        raise ValueError("strategies and budgets must be non-empty")
    for s in strategies:
        if s not in STRATEGIES:
            raise ValueError(f"unknown strategy {s!r}; expected one of {STRATEGIES}")
    budgets = [_check.count("budget", b, 1, g.n) for b in budgets]

    degrees = g.total_degree_vector().astype(np.float64)
    labels = g.labels
    f_m = g.minority_fraction
    mean_degree = float(degrees.mean())

    records: list[SampleStats] = []
    cells: list[CellBias] = []
    for strategy in strategies:
        for budget in budgets:
            fm_bias = np.empty(reps)
            deg_bias = np.empty(reps)
            # top-degree ignores its seed: one sample serves every repetition
            seed_free = strategy == "top-degree"
            nodes = sample(g, strategy, budget, seed).nodes if seed_free else None
            for rep in range(reps):
                if not seed_free:
                    nodes = sample(g, strategy, budget, cell_seed(seed, strategy, budget, rep)).nodes
                # np.mean's float64 sum and division, without its Python wrapper
                sample_fm = float(labels[nodes].sum(dtype=np.float64) / nodes.size)
                sample_deg = float(degrees[nodes].sum(dtype=np.float64) / nodes.size)
                records.append(
                    SampleStats(strategy, budget, rep, sample_fm, sample_deg)
                )
                fm_bias[rep] = sample_fm - f_m
                deg_bias[rep] = sample_deg - mean_degree
            cells.append(
                CellBias(
                    strategy=strategy,
                    budget=budget,
                    reps=reps,
                    minority_bias=float(fm_bias.mean()),
                    minority_bias_std=_spread(fm_bias),
                    degree_bias=float(deg_bias.mean()),
                    degree_bias_std=_spread(deg_bias),
                )
            )
    return BiasReport(f_m=f_m, mean_degree=mean_degree, records=records, cells=cells)
