"""Contagion simulation with group-dependent transmission.

``cascade`` is a discrete-time independent cascade: a node activated at
step t gets exactly one chance, at step t+1, to activate each neighbor
that was inactive when the step began, succeeding with probability p_in
for a same-class neighbor and p_out otherwise.  ``threshold_cascade`` is
the deterministic complex-contagion counterpart: an inactive node turns
active once the active fraction of its (in-)neighborhood reaches theta.

Attempts inside a step run in ascending node id (frontier order, then
neighbor order) and every attempt consumes one rng draw whether or not
the target was already activated earlier in the same step, so draw
sequences do not depend on within-step race outcomes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import AttributedGraph
from .ranking import rank_nodes
from .rng import sample_without_replacement

__all__ = [
    "CascadeTrace",
    "EqualityReport",
    "cascade",
    "threshold_cascade",
    "equality_report",
    "seeding",
    "crossing_time",
    "SEED_CONDITIONS",
]

SEED_CONDITIONS = ("uniform", "majority-only", "minority-only", "top-degree")


@dataclass(frozen=True)
class CascadeTrace:
    """Outcome of one contagion run.

    ``activation_time[v]`` is the step at which v turned active, -1 for
    never.  ``class_fractions[t, c]`` is the informed fraction of class c
    at step t (rows 0..T with T the last step that activated anyone); an
    empty class reports 0.0 throughout.
    """

    activation_time: np.ndarray
    seeds: np.ndarray
    params: dict[str, float]
    class_fractions: np.ndarray
    class_counts: tuple[int, int]

    @property
    def n_steps(self) -> int:
        return self.class_fractions.shape[0] - 1

    def overall_fractions(self) -> np.ndarray:
        n0, n1 = self.class_counts
        n = n0 + n1
        return (self.class_fractions[:, 0] * n0 + self.class_fractions[:, 1] * n1) / n


@dataclass(frozen=True)
class EqualityReport:
    """Equality/efficiency summary of a cascade.

    ``equality[t]`` is the smaller class informed fraction over the larger
    (1.0 when both are zero); ``efficiency`` is the first step at which the
    overall informed fraction reaches one half, or None if it never does.
    """

    equality: np.ndarray
    efficiency: int | None
    terminal_fractions: tuple[float, float]
    overall: np.ndarray


def _check_seeds(g: AttributedGraph, seeds) -> np.ndarray:
    arr = np.asarray(seeds, dtype=np.int64)
    if arr.size == 0:
        raise ValueError("seed set must be non-empty")
    if arr.min() < 0 or arr.max() >= g.n:
        raise ValueError("seed ids out of range")
    arr = np.unique(arr)
    return arr


def _fractions_from_times(times: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, tuple[int, int]]:
    n0 = int((labels == 0).sum())
    n1 = int((labels == 1).sum())
    horizon = int(times.max()) if times.size else 0
    horizon = max(horizon, 0)
    rows = np.zeros((horizon + 1, 2))
    informed = times >= 0
    for c, size in ((0, n0), (1, n1)):
        if size:
            per_step = np.bincount(times[informed & (labels == c)], minlength=horizon + 1)
            rows[:, c] = np.cumsum(per_step) / size
    return rows, (n0, n1)


def cascade(
    g: AttributedGraph,
    seeds,
    p_in: float,
    p_out: float,
    rng: np.random.Generator,
    max_steps: int | None = None,
) -> CascadeTrace:
    """Independent cascade with within/across-class transmission rates."""
    for name, p in (("p_in", p_in), ("p_out", p_out)):
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"{name} must lie in [0, 1], got {p}")
    seeds = _check_seeds(g, seeds)
    if max_steps is None:
        max_steps = 10 * g.n
    csr = g.csr()
    labels = g.labels
    times = np.full(g.n, -1, dtype=np.int64)
    times[seeds] = 0
    frontier = seeds

    t = 0
    while frontier.size and t < max_steps:
        t += 1
        # one roll per (frontier node, inactive neighbor) attempt, in the
        # documented order: the same draws as one scalar draw per attempt
        src, dst = csr.rows(frontier)
        attempt = times[dst] < 0
        src, dst = src[attempt], dst[attempt]
        p = np.where(labels[dst] == labels[src], p_in, p_out)
        frontier = np.unique(dst[rng.random(dst.size) < p])
        times[frontier] = t

    rows, counts = _fractions_from_times(times, labels)
    return CascadeTrace(
        activation_time=times,
        seeds=seeds,
        params={"p_in": float(p_in), "p_out": float(p_out)},
        class_fractions=rows,
        class_counts=counts,
    )


def threshold_cascade(
    g: AttributedGraph,
    seeds,
    theta: float,
    max_steps: int | None = None,
) -> CascadeTrace:
    """Deterministic synchronous threshold contagion.

    An inactive node activates when the active fraction of its neighborhood
    (in-neighborhood when directed) reaches ``theta``; nodes with no
    relevant neighbors never activate.  Stops at the fixed point.
    """
    if not 0.0 < theta <= 1.0:
        raise ValueError(f"theta must lie in (0, 1], got {theta}")
    seeds = _check_seeds(g, seeds)
    if max_steps is None:
        max_steps = 10 * g.n

    n = g.n
    csr = g.csr()
    relevant_deg = csr.in_degree()
    needed = theta * relevant_deg - 1e-12
    active_in = np.zeros(n, dtype=np.int64)
    times = np.full(n, -1, dtype=np.int64)
    times[seeds] = 0
    newly = seeds
    for t in range(1, max_steps + 1):
        _, nbrs = csr.rows(newly)
        nbrs, hits = np.unique(nbrs, return_counts=True)
        active_in[nbrs] += hits
        # after step 1 only the out-neighbors of the nodes activated last
        # step have a changed count, so only they can turn ready; step 1
        # tests every node, since a threshold within the 1e-12 tolerance
        # of zero needs no active in-neighbor
        candidates = nbrs if t > 1 else np.flatnonzero(relevant_deg)
        candidates = candidates[times[candidates] < 0]
        newly = candidates[active_in[candidates] >= needed[candidates]]
        if not newly.size:
            break
        times[newly] = t

    rows, counts = _fractions_from_times(times, g.labels)
    return CascadeTrace(
        activation_time=times,
        seeds=seeds,
        params={"theta": float(theta)},
        class_fractions=rows,
        class_counts=counts,
    )


def equality_report(trace: CascadeTrace, labels: np.ndarray) -> EqualityReport:
    """Equality index series, time-to-half coverage, terminal fractions."""
    labels = np.asarray(labels)
    if labels.size != trace.activation_time.size:
        raise ValueError("labels length does not match the cascade")
    rows, counts = _fractions_from_times(trace.activation_time, labels)
    lo = rows.min(axis=1)
    hi = rows.max(axis=1)
    equality = np.where(hi > 0.0, np.divide(lo, np.where(hi > 0.0, hi, 1.0)), 1.0)
    n0, n1 = counts
    overall = (rows[:, 0] * n0 + rows[:, 1] * n1) / (n0 + n1)
    reached = np.nonzero(overall >= 0.5)[0]
    efficiency = int(reached[0]) if reached.size else None
    return EqualityReport(
        equality=equality,
        efficiency=efficiency,
        terminal_fractions=(float(rows[-1, 0]), float(rows[-1, 1])),
        overall=overall,
    )


def crossing_time(series: np.ndarray, level: float) -> float | None:
    """First (fractionally interpolated) time a non-decreasing series hits level.

    Returns 0.0 when the series starts at or above the level, None when it
    never reaches it; otherwise interpolates linearly between the last step
    below and the first step at-or-above, giving sub-step resolution for
    group comparisons of informed-fraction curves.
    """
    series = np.asarray(series, dtype=np.float64)
    idx = np.nonzero(series >= level)[0]
    if idx.size == 0:
        return None
    t = int(idx[0])
    if t == 0:
        return 0.0
    before, after = series[t - 1], series[t]
    return t - 1 + (level - before) / (after - before)


def seeding(
    g: AttributedGraph,
    condition: str,
    count: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Pick a seed set under a named condition; returns sorted node ids.

    uniform draws from all nodes, majority-only / minority-only from one
    class, all uniformly without replacement; top-degree takes the highest
    total-degree nodes deterministically (rng unused).
    """
    if condition not in SEED_CONDITIONS:
        raise ValueError(
            f"unknown seeding condition {condition!r}; expected one of {SEED_CONDITIONS}"
        )
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if condition == "top-degree":
        if count > g.n:
            raise ValueError(f"count {count} exceeds n={g.n}")
        return np.sort(rank_nodes(g, "degree")[:count])
    if condition == "uniform":
        pool = np.arange(g.n, dtype=np.int64)
    elif condition == "majority-only":
        pool = np.nonzero(g.labels == 0)[0]
    else:
        pool = np.nonzero(g.labels == 1)[0]
    if count > pool.size:
        raise ValueError(
            f"count {count} infeasible for condition {condition!r} (pool size {pool.size})"
        )
    idx = sample_without_replacement(rng, pool.size, count)
    return np.sort(pool[idx])
