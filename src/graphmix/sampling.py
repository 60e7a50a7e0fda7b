"""Budgeted node-sampling strategies and bias benchmarking.

Five strategies mimic common data-collection regimes: uniform node and
uniform edge sampling, snowball (BFS) crawling, random-walk crawling with
teleport restarts, and a top-degree oracle standing in for popularity-API
access.  ``benchmark`` runs a (strategy, budget, repetition) factorial and
reports how far sample estimates of the minority fraction and mean degree
sit from the population values.
"""

from __future__ import annotations

import hashlib
from collections import deque
from dataclasses import dataclass

import numpy as np

from .graph import AttributedGraph
from .ranking import rank_nodes
from .rng import make_rng, rand_below, sample_without_replacement

__all__ = [
    "STRATEGIES",
    "SampleResult",
    "SampleStats",
    "CellBias",
    "BiasReport",
    "sample",
    "benchmark",
    "cell_seed",
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
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    n = g.n
    size = min(budget, n)
    rng = make_rng(seed)

    if strategy == "uniform-node":
        nodes = sample_without_replacement(rng, n, size)
    elif strategy == "uniform-edge":
        nodes = _sample_uniform_edge(g, size, rng)
    elif strategy == "snowball":
        nodes = _sample_snowball(g, size, rng)
    elif strategy == "random-walk":
        nodes = _sample_random_walk(g, size, rng)
    else:
        nodes = rank_nodes(g, "degree")[:size]

    out = np.sort(np.asarray(nodes, dtype=np.int64))
    return SampleResult(strategy=strategy, budget=budget, nodes=out, seed=seed)


def _uniform_fill(sampled: set[int], n: int, size: int, rng) -> None:
    pool = sorted(set(range(n)) - sampled)
    need = size - len(sampled)
    for i in sample_without_replacement(rng, len(pool), need):
        sampled.add(pool[i])


def _sample_uniform_edge(g: AttributedGraph, size: int, rng) -> list[int]:
    src, dst = g.edge_arrays()
    covered = int(np.count_nonzero(g.total_degree_vector()))
    sampled: set[int] = set()
    # sampled only ever holds edge endpoints, so it covers them all once it
    # is as large as the covered set; then only isolated nodes remain
    while len(sampled) < min(size, covered):
        i = rand_below(rng, src.size)
        for node in (int(src[i]), int(dst[i])):
            if len(sampled) >= size:
                break
            sampled.add(node)
    if len(sampled) < size:
        _uniform_fill(sampled, g.n, size, rng)
    return list(sampled)


def _sample_snowball(g: AttributedGraph, size: int, rng) -> list[int]:
    csr = g.csr()
    sampled: set[int] = set()
    queue: deque[int] = deque()
    while len(sampled) < size:
        if not queue:
            pool = sorted(set(range(g.n)) - sampled)
            start = pool[rand_below(rng, len(pool))]
            sampled.add(start)
            queue.append(start)
            if len(sampled) >= size:
                break
        u = queue.popleft()
        for v in csr.row(u).tolist():
            if v not in sampled:
                sampled.add(v)
                queue.append(v)
                if len(sampled) >= size:
                    break
    return list(sampled)


def _sample_random_walk(g: AttributedGraph, size: int, rng) -> list[int]:
    csr = g.csr()
    n = g.n
    current = rand_below(rng, n)
    sampled: set[int] = {current}
    while len(sampled) < size:
        if rng.random() < RESTART_PROB:
            current = rand_below(rng, n)
        else:
            nbrs = csr.row(current)
            if nbrs.size:
                current = int(nbrs[rand_below(rng, nbrs.size)])
            else:
                current = rand_below(rng, n)
        sampled.add(current)
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
    if reps < 1:
        raise ValueError(f"reps must be >= 1, got {reps}")
    if not strategies or not budgets:
        raise ValueError("strategies and budgets must be non-empty")
    for s in strategies:
        if s not in STRATEGIES:
            raise ValueError(f"unknown strategy {s!r}; expected one of {STRATEGIES}")
    for b in budgets:
        if not 1 <= b <= g.n:
            raise ValueError(f"budgets must lie in [1, n]; got {b} with n={g.n}")

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
            for rep in range(reps):
                res = sample(g, strategy, budget, cell_seed(seed, strategy, budget, rep))
                sample_fm = float(labels[res.nodes].mean())
                sample_deg = float(degrees[res.nodes].mean())
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
