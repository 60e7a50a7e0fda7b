"""Node rankings and minority-visibility metrics.

The visibility curve reports, for each k in {5, 10, ..., 100} percent, the
minority fraction among the top ceil(k*n/100) nodes of a ranking.  The
inequity score ME is the signed mean deviation of that curve from the
population minority fraction over the k < 100 entries: positive means the
ranking amplifies minority visibility, negative means it reduces it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _check
from .graph import AttributedGraph

__all__ = [
    "PageRankResult",
    "VisibilityCurve",
    "RankReport",
    "pagerank",
    "rank_nodes",
    "visibility",
    "gini",
    "rank_report",
]

VISIBILITY_KS = tuple(range(5, 101, 5))


@dataclass(frozen=True)
class PageRankResult:
    scores: np.ndarray
    iterations: int
    converged: bool


@dataclass(frozen=True)
class VisibilityCurve:
    """Minority fraction among the top-k% of a ranking, k in {5,...,100}."""

    ks: np.ndarray
    fractions: np.ndarray
    metric: str
    f_m: float


@dataclass(frozen=True)
class RankReport:
    curve: VisibilityCurve
    gini: float
    me: float


def pagerank(
    g: AttributedGraph,
    damping: float = 0.85,
    tol: float = 1e-10,
    max_iter: int = 200,
) -> PageRankResult:
    """Power-iteration PageRank with uniform teleport.

    Dangling nodes (no out-edges; isolated nodes when undirected) spread
    their mass uniformly inside the damping term.  Iteration stops when the
    L1 change drops below ``tol``; hitting ``max_iter`` first is reported
    through ``converged=False`` with the last iterate, not an exception
    (``max_iter=0``: the uniform start).
    """
    n = g.n
    _check.interval("damping", damping, 0, 1, open_high=True)
    _check.interval("tol", tol, 0)
    max_iter = _check.count("max_iter", max_iter)
    csr = g.csr()
    outdeg = csr.out_degree()
    dangling = outdeg == 0
    outdeg_safe = np.maximum(outdeg, 1)
    heads = csr.indices.copy()  # np.bincount copies a read-only input on every call; copy it once

    pr = np.full(n, 1.0 / n)
    base = (1.0 - damping) / n
    for it in range(1, max_iter + 1):
        contrib = pr / outdeg_safe
        flow = np.bincount(heads, weights=np.repeat(contrib, outdeg), minlength=n)
        dangling_mass = float(pr[dangling].sum())
        new = base + damping * (flow + dangling_mass / n)
        delta = float(np.abs(new - pr).sum())
        pr = new
        if delta < tol:
            return PageRankResult(scores=pr, iterations=it, converged=True)
    return PageRankResult(scores=pr, iterations=max_iter, converged=False)


def _metric_scores(g: AttributedGraph, metric: str) -> np.ndarray:
    if metric == "degree":
        return g.total_degree_vector().astype(np.float64)
    if metric == "indegree":
        if not g.directed:
            raise ValueError("indegree ranking requires a directed graph")
        return g.csr().in_degree().astype(np.float64)
    if metric == "pagerank":
        return pagerank(g).scores
    raise ValueError(f"unknown metric {metric!r}; expected degree, indegree, or pagerank")


def _order(scores: np.ndarray) -> np.ndarray:
    return np.lexsort((np.arange(scores.size), -scores)).astype(np.int64)


def rank_nodes(g: AttributedGraph, metric: str) -> np.ndarray:
    """Node ids sorted by metric score, descending; ties by ascending id."""
    return _order(_metric_scores(g, metric))


def top_degree_nodes(g: AttributedGraph, k: int) -> np.ndarray:
    """The first k nodes of ``rank_nodes(g, "degree")``, in ascending id order.

    An exact top-k in O(n): the keys ``(max degree - degree) * n + id`` are
    distinct and order nodes as that ranking does, so the k smallest keys,
    found by a partition and not a full sort, name the same set.
    """
    n = g.n
    k = _check.count("k", k, 1, n)
    degree = g.total_degree_vector()
    keys = (degree.max() - degree) * n + np.arange(n, dtype=np.int64)
    if k < n:
        keys = np.partition(keys, k - 1)[:k]
    return np.sort(keys % n)


def visibility(g: AttributedGraph, metric: str) -> VisibilityCurve:
    """Minority fraction in the top-k% for k = 5, 10, ..., 100.

    Requires both classes to be present; the k=100 entry equals the
    population minority fraction by construction.
    """
    return _curve(g, metric, _metric_scores(g, metric))


def _curve(g: AttributedGraph, metric: str, scores: np.ndarray) -> VisibilityCurve:
    counts = g.class_counts()
    if counts[0] == 0 or counts[1] == 0:
        raise ValueError("visibility needs both classes present in the graph")
    order = _order(scores)
    labels = g.labels
    n = g.n
    fractions = np.empty(len(VISIBILITY_KS))
    for i, k in enumerate(VISIBILITY_KS):
        top = (k * n + 99) // 100  # ceil(k*n/100)
        fractions[i] = labels[order[:top]].mean()
    return VisibilityCurve(
        ks=np.asarray(VISIBILITY_KS, dtype=np.int64),
        fractions=fractions,
        metric=metric,
        f_m=g.minority_fraction,
    )


def gini(values: np.ndarray) -> float:
    """Gini coefficient of a non-negative sample via the sorted-gap identity.

    G = sum_{i,j} |x_i - x_j| / (2 n^2 mean); empty, negative, or all-zero
    input is rejected. Over the sorted sample this equals
    sum_k (x_(k+1) - x_(k)) k (n - k) / (n sum x), a sum of non-negative
    terms, so G >= 0 exactly and a constant sample gives exactly 0.
    """
    x = np.asarray(values, dtype=np.float64)
    if x.size == 0:
        raise ValueError("gini needs a non-empty sample")
    if not np.all(np.isfinite(x)):
        raise ValueError("gini needs finite values")
    if np.any(x < 0.0):
        raise ValueError("gini is defined for non-negative values only")
    total = float(x.sum())
    if total == 0.0:
        raise ValueError("gini is undefined for an all-zero sample")
    gaps = np.diff(np.sort(x))
    n = x.size
    k = np.arange(1, n, dtype=np.float64)
    return float((gaps * k * (n - k)).sum() / (n * total))


def rank_report(g: AttributedGraph, metric: str) -> RankReport:
    """Visibility curve plus inequality (gini) and inequity (ME) summaries."""
    scores = _metric_scores(g, metric)
    curve = _curve(g, metric, scores)
    below = curve.ks < 100
    me = float((curve.fractions[below] - curve.f_m).mean())
    return RankReport(curve=curve, gini=gini(scores), me=me)
