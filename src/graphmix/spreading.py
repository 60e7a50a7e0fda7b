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

A threshold run reads each node's row once, in the step after the node
activates: O(E) row entries in all and O(frontier row entries) per step,
so a long, thin cascade (a ring lattice advances a few nodes per step)
costs time linear in its length.  Small frontiers are walked entry by
entry and large ones in array calls (see ``threshold_cascade``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _check
from .graph import AttributedGraph
from .ranking import top_degree_nodes
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

# a threshold step whose frontier rows hold fewer entries than this walks
# them in Python; larger frontiers take the array step
_SCALAR_STEP_ENTRIES = 64


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
    arr = np.asarray(seeds)
    if arr.size == 0:
        raise ValueError("seed set must be non-empty")
    # a cast would truncate 1.9 to node 1 and read True as node 1
    if arr.dtype == bool or not np.issubdtype(arr.dtype, np.integer):
        raise ValueError(f"seed ids must be integers, got {arr.dtype}")
    if arr.min() < 0 or arr.max() >= g.n:
        raise ValueError("seed ids out of range")
    return np.unique(arr.astype(np.int64))


def _step_cap(g: AttributedGraph, max_steps: int | None) -> int:
    return 10 * g.n if max_steps is None else _check.count("max_steps", max_steps)


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
    _check.interval("p_in", p_in, 0, 1)
    _check.interval("p_out", p_out, 0, 1)
    seeds = _check_seeds(g, seeds)
    max_steps = _step_cap(g, max_steps)
    csr = g.csr()
    labels = g.labels
    times = np.full(g.n, -1, dtype=np.int64)
    times[seeds] = 0
    frontier = seeds
    mark = np.zeros(g.n, dtype=bool)  # a step's activations, cleared after each step

    t = 0
    while frontier.size and t < max_steps:
        t += 1
        # one roll per (frontier node, inactive neighbor) attempt, in the
        # documented order: the same draws as one scalar draw per attempt
        src, dst = csr.rows(frontier)
        attempt = times[dst] < 0
        src, dst = src[attempt], dst[attempt]
        p = np.where(labels[dst] == labels[src], p_in, p_out)
        hit = dst[rng.random(dst.size) < p]
        # the next frontier, ascending and without repeats
        mark[hit] = True
        frontier = np.flatnonzero(mark)
        mark[frontier] = False
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

    ``left[v]`` counts the active in-neighbors v still needs: an integer
    count c meets ``c >= theta * deg - 1e-12`` exactly when
    ``c >= ceil(theta * deg - 1e-12)``, and v activates in the step its
    count reaches 0.  Each step reads only the rows of the nodes the
    previous step activated, so a run costs O(E) row entries in all and
    a step O(its frontier's row entries).  Frontiers with fewer than
    ``_SCALAR_STEP_ENTRIES`` row entries are walked one entry at a time,
    which saves some thirty numpy calls per step; larger ones take the
    array step.  The switch is a constant, not an option: it trades
    Python's per-entry cost against numpy's per-call cost, which depend on
    the interpreter and not on the input, and both forms give the same
    times.  Each form alone loses on one kind of input (Python 3.11,
    numpy 2.4, a shared 2-vCPU Xeon): the array step alone takes 194 ms
    against 15 ms on a 10 000-node ring lattice with 2 neighbours per
    side at theta 0.5 (2 500 thin steps), and the entry walk alone 15 ms
    against 5 ms over three top-degree cascades (theta 0.05, 0.1, 0.2) on
    a 2 000-node dpah network (a few wide steps).
    """
    _check.interval("theta", theta, 0, 1, open_low=True)
    seeds = _check_seeds(g, seeds)
    max_steps = _step_cap(g, max_steps)

    csr = g.csr()
    relevant_deg = csr.in_degree()
    out_deg = csr.out_degree()
    # theta * deg - 1e-12 > -1, so the ceiling is never negative
    left = np.ceil(theta * relevant_deg - 1e-12).astype(np.int64)
    times = np.full(g.n, -1, dtype=np.int64)
    times[seeds] = 0
    # a threshold within the tolerance of zero needs no active in-neighbor:
    # those nodes activate at step 1 beside the seeds' reach
    ready = np.flatnonzero((left == 0) & (relevant_deg > 0) & (times < 0))
    if max_steps:
        times[ready] = 1
    # from here on left <= 0 marks a node that is active or has no
    # in-neighbors: no row entry counts towards it again
    left[left == 0] = -1
    left[seeds] = -1
    ptr, idx = memoryview(csr.indptr), memoryview(csr.indices)
    left_mv, times_mv = memoryview(left), memoryview(times)

    frontier = seeds
    entries = int(out_deg[seeds].sum())
    for t in range(1, max_steps + 1):
        if entries < _SCALAR_STEP_ENTRIES:
            newly = []
            entries = 0
            for u in frontier if isinstance(frontier, list) else frontier.tolist():
                for v in idx[ptr[u]:ptr[u + 1]]:
                    c = left_mv[v]
                    if c > 0:
                        left_mv[v] = c - 1
                        if c == 1:
                            newly.append(v)
                            times_mv[v] = t
                            entries += ptr[v + 1] - ptr[v]
        else:
            _, nbrs = csr.rows(np.asarray(frontier, dtype=np.int64))
            nbrs, hits = np.unique(nbrs, return_counts=True)
            left[nbrs] -= hits
            newly = nbrs[(left[nbrs] <= 0) & (times[nbrs] < 0)]
            times[newly] = t
            entries = int(out_deg[newly].sum())
        if t == 1 and ready.size:
            newly = np.concatenate([ready, np.asarray(newly, dtype=np.int64)])
            entries = int(out_deg[newly].sum())
        if not len(newly):
            break
        frontier = newly

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
    group comparisons of informed-fraction curves.  ``level`` lies in [0, 1].
    """
    _check.interval("level", level, 0, 1)
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
    # uniform and top-degree draw from every node, the class conditions from one class
    pool = np.arange(g.n, dtype=np.int64)
    if condition.endswith("-only"):
        pool = pool[g.labels == int(condition == "minority-only")]
    count = _check.count(f"count for {condition}", count, 1, pool.size)
    if condition == "top-degree":
        return top_degree_nodes(g, count)
    idx = sample_without_replacement(rng, pool.size, count)
    return np.sort(pool[idx])
