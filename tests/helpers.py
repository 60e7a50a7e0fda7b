"""Shared test utilities.

``brute_force_loglik`` is an intentionally naive, dict-based replay of the
growth likelihood written independently of graphmix.inference: it rebuilds
the graph state event by event and computes each pick probability from the
full weight map.  Agreement between the two implementations is what the
oracle-equivalence tests check, so this module must not call into the
vectorized scoring paths.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import minimize_scalar
from scipy.special import zeta

from graphmix.generate import EventKind, GrowthTrace
from graphmix.graph import AttributedGraph


def brute_force_loglik(
    trace: GrowthTrace, model: str, h: float | None = None, p_tc: float | None = None
) -> tuple[float, int]:
    labels = [int(x) for x in trace.labels]
    if trace.directed:
        return _brute_directed(trace, model, labels, h)
    return _brute_undirected(trace, model, labels, h, p_tc)


def _brute_undirected(trace, model, labels, h, p_tc):
    n = len(labels)
    m = trace.m or 0
    nbrs = {i: set() for i in range(n)}
    deg = [0] * n
    for i in range(m):
        for j in range(i + 1, m):
            nbrs[i].add(j)
            nbrs[j].add(i)
    for i in range(m):
        deg[i] = m - 1

    events = list(zip(trace.sources.tolist(), trace.targets.tolist(), trace.kinds.tolist()))
    total = 0.0
    scored = 0
    i = 0
    while i < len(events):
        v = events[i][0]
        group = []
        while i < len(events) and events[i][0] == v:
            group.append(events[i])
            i += 1
        snap = deg[:]
        chosen: list[int] = []
        for j, (_, t, kraw) in enumerate(group):
            kind = EventKind(kraw)
            eligible = [u for u in range(v) if u not in chosen]
            if kind is EventKind.FALLBACK_UNIFORM:
                total += math.log(1.0 / len(eligible))
            else:
                scored += 1
                if model == "pa":
                    w = {u: float(snap[u]) for u in eligible}
                else:
                    w = {
                        u: (h if labels[u] == labels[v] else 1.0 - h) * snap[u]
                        for u in eligible
                    }
                wsum = sum(w.values())
                base = w[t] / wsum if wsum > 0.0 else 1.0 / len(eligible)
                p = base
                if model == "patch" and j >= 1:
                    tcs: set[int] = set()
                    for c in chosen:
                        tcs |= nbrs[c]
                    tcs.discard(v)
                    tcs -= set(chosen)
                    if tcs:
                        hit = 1.0 / len(tcs) if t in tcs else 0.0
                        p = p_tc * hit + (1.0 - p_tc) * base
                total += math.log(p) if p > 0.0 else float("-inf")
            chosen.append(t)
        for t in chosen:
            nbrs[v].add(t)
            nbrs[t].add(v)
            deg[t] += 1
        deg[v] += len(chosen)
    return total, scored


def _brute_directed(trace, model, labels, h):
    n = len(labels)
    out = {i: set() for i in range(n)}
    indeg = [0] * n
    total = 0.0
    scored = 0
    for s, t in zip(trace.sources.tolist(), trace.targets.tolist()):
        eligible = [u for u in range(n) if u != s and u not in out[s]]
        if model == "dpa":
            w = {u: indeg[u] + 1.0 for u in eligible}
        elif model == "dh":
            w = {u: (h if labels[u] == labels[s] else 1.0 - h) for u in eligible}
        else:
            w = {
                u: (h if labels[u] == labels[s] else 1.0 - h) * (indeg[u] + 1.0)
                for u in eligible
            }
        wsum = sum(w.values())
        p = w[t] / wsum if wsum > 0.0 else 0.0
        total += math.log(p) if p > 0.0 else float("-inf")
        scored += 1
        out[s].add(t)
        indeg[t] += 1
    return total, scored


def power_law_alpha(degrees: np.ndarray, x_min: int = 10) -> float | None:
    """Discrete power-law tail exponent by maximum likelihood.

    Fits P(x) ~ x^(-alpha) / zeta(alpha, x_min) to the degrees >= x_min;
    returns None when fewer than 10 tail observations exist.
    """
    tail = np.asarray(degrees, dtype=np.float64)
    tail = tail[tail >= x_min]
    if tail.size < 10:
        return None
    log_sum = float(np.log(tail).sum())
    n = tail.size

    def neg_loglik(alpha: float) -> float:
        return n * math.log(zeta(alpha, x_min)) + alpha * log_sum

    res = minimize_scalar(neg_loglik, bounds=(1.05, 6.0), method="bounded")
    return float(res.x)


def random_graph(n: int, directed: bool, p: float, rng: np.random.Generator) -> AttributedGraph:
    """Erdos-Renyi-style labeled graph for io and property tests."""
    labels = (rng.random(n) < 0.3).astype(np.int8)
    g = AttributedGraph(directed, labels)
    for u in range(n):
        for v in range(n if directed else u):
            if u == v:
                continue
            if rng.random() < p:
                g.add_edge(u, v)
    return g


def naive_threshold_times(g: AttributedGraph, seeds, theta: float, max_steps: int) -> list[int]:
    """Synchronous threshold contagion recounting every node at every step.

    Reads the adjacency sets, not the array form: a node's relevant
    neighbours are its in-neighbours (all neighbours when undirected), and
    an inactive node with at least one of them activates once the active
    share reaches theta (within the 1e-12 tolerance).
    """
    n = g.n
    in_nbrs: list[list[int]] = [[] for _ in range(n)]
    for u in range(n):
        for v in g.neighbors(u):
            in_nbrs[v].append(u)
    times = [-1] * n
    for s in seeds:
        times[int(s)] = 0
    for t in range(1, max_steps + 1):
        ready = [
            v for v in range(n)
            if times[v] < 0 and in_nbrs[v]
            and sum(times[u] >= 0 for u in in_nbrs[v]) >= theta * len(in_nbrs[v]) - 1e-12
        ]
        if not ready:
            break
        for v in ready:
            times[v] = t
    return times


def naive_cascade_times(g: AttributedGraph, seeds, p_in: float, p_out: float, rng, max_steps: int) -> list[int]:
    """Independent cascade with one scalar draw per attempt, in the
    documented order: frontier ascending, then sorted neighbour sets."""
    labels = g.labels
    times = [-1] * g.n
    for s in seeds:
        times[int(s)] = 0
    frontier = sorted({int(s) for s in seeds})
    t = 0
    while frontier and t < max_steps:
        t += 1
        inactive_at_start = [x < 0 for x in times]
        newly = []
        for u in frontier:
            for v in sorted(g.neighbors(u)):
                if not inactive_at_start[v]:
                    continue
                roll = rng.random()
                p = p_in if labels[v] == labels[u] else p_out
                if roll < p and times[v] < 0:
                    times[v] = t
                    newly.append(v)
        frontier = sorted(newly)
    return times
