"""Shared test utilities: the oracles the library's kernels must match.

An oracle is the definition of what it checks and imports nothing private
from ``graphmix`` (a tier-1 test parses this module to hold that), so a
fault in a kernel's design cannot pass on both sides.

``brute_force_loglik`` is an intentionally naive, dict-based replay of the
growth likelihood: it rebuilds the graph state event by event and computes
each pick probability from the full weight map.  Where the library blocks,
chunks or sorts, the other likelihood oracles state the definition in one
array or one loop: ``reference_affinity_logp`` is ln(a * weight) - ln(h *
den_same + (1 - h) * den_diff) of every event at every h;
``full_patch_grid`` is the patch likelihood at every (h, p_tc) cell, which
the library prunes; ``reference_triadic_sets`` builds each triadic-closure
set as a Python set; ``reference_excluded_mass`` replays a directed trace
event by event and sums indeg + 1 over each source's earlier targets.

``array_sample_without_replacement`` and ``rebuilt_pool_snowball`` are the
earlier, slower forms of two samplers (swaps on a full index array, and a
snowball that rebuilds its sorted re-seed pool from scratch); the library's
samplers must draw the same indices and nodes.  ``reference_uniform_edge``
and ``reference_random_walk`` are the crawl kernels as they read the graph
through numpy scalars and row slices, one ``rand_below`` per decision, with
a uniform fill from a Python set of ``range(n)``; the library's kernels
must return the same nodes.

``reference_csr`` builds the neighbour lists edge by edge and raises the
first bad edge's ``EdgeError``; the constructor must agree bit for bit.

``reference_generate`` grows a trace by the generator kernels as they
were with one call per draw: ``reference_endpoint_pick`` for every
rejection-sampled target, ``reference_tc_pick`` for every triadic-closure
target, ``rand_below`` for every uniform index, a per-edge ``indeg + 1``
array for the directed exact scan, and a scalar ``pick_from_cumulative``
per directed source, from the sources' own jumped stream, over the
activities with those of saturated sources (by class counts) set to 0.
It stays a kernel, not a definition: the draw protocol is what fixes the
bits of a seeded trace, and no shorter statement draws the same doubles.
The library inlines those draws and must give the same trace.
``reference_write_network`` and ``reference_write_trace`` are the writers
as one f-string per row; the library's numpy byte writer must give the
same bytes.
"""

from __future__ import annotations

import math
from collections import deque

import numpy as np
from scipy.optimize import minimize_scalar
from scipy.special import zeta

from graphmix.generate import (
    EVENT_KIND_NAMES,
    UNDIRECTED_MODELS,
    EventKind,
    GenParams,
    GrowthTrace,
    sample_activity,
)
from graphmix.graph import AttributedGraph, EdgeError, assign_classes
from graphmix.inference import PTC_GRID
from graphmix.rng import (
    UniformStream,
    make_rng,
    pick_from_cumulative,
    rand_below,
    sample_without_replacement,
    weighted_pick,
)
from graphmix.sampling import RESTART_PROB


def brute_force_loglik(
    trace: GrowthTrace, model: str, h: float | None = None, p_tc: float | None = None
) -> tuple[float, int]:
    labels = [int(x) for x in trace.labels]
    if trace.directed:
        return _brute_directed(trace, model, labels, h)
    return _brute_undirected(trace, model, labels, h, p_tc)


def _log_ratio(num: float, den: float) -> float:
    """log(num / den) from the two logs: the quotient underflows to 0 for a subnormal affinity."""
    return math.log(num) - math.log(den) if num > 0.0 else float("-inf")


def _log_add(a: float, b: float) -> float:
    """log(exp(a) + exp(b)), without leaving log space."""
    hi, lo = max(a, b), min(a, b)
    return hi if lo == float("-inf") else hi + math.log1p(math.exp(lo - hi))


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
                log_p = _log_ratio(w[t], wsum) if wsum > 0.0 else -math.log(len(eligible))
                if model == "patch" and j >= 1:
                    tcs: set[int] = set()
                    for c in chosen:
                        tcs |= nbrs[c]
                    tcs.discard(v)
                    tcs -= set(chosen)
                    if tcs and t in tcs:
                        log_p = _log_add(_log_ratio(p_tc, len(tcs)), _log_ratio(1.0 - p_tc, 1.0) + log_p)
                    elif tcs:
                        log_p += _log_ratio(1.0 - p_tc, 1.0)
                total += log_p
            chosen.append(t)
        for t in chosen:
            nbrs[v].add(t)
            nbrs[t].add(v)
            deg[t] += 1
        deg[v] += len(chosen)
    return total, scored


def reference_affinity_logp(h, same, weight, den_same, den_diff, fill, by_den: bool) -> np.ndarray:
    """ln P of each event under affinity weighting, shape (len(h), n_events).

    P = a * weight / (h * den_same + (1 - h) * den_diff), where a is h for a
    same-class target and 1 - h otherwise (``weight`` None: 1).  Where the
    denominator (``by_den``) or else the numerator is not positive, ln P is
    ``fill``.
    """
    h = h[:, None]
    num = np.where(same, h, 1.0 - h)
    if weight is not None:
        num = num * weight
    den = h * den_same + (1.0 - h) * den_diff
    with np.errstate(divide="ignore", invalid="ignore"):
        logp = np.log(num) - np.log(den)
    return np.where((den if by_den else num) <= 0.0, fill, logp)


def reference_aff_pick_logprob(stats, h_values) -> np.ndarray:
    """ln P of each scored event of undirected replay statistics under the affinity pick."""
    return reference_affinity_logp(
        h_values, stats.same, stats.weight, stats.sum_same, stats.sum_diff, stats.fill, True
    )


def full_patch_grid(stats, h_values, ptc_values=None) -> np.ndarray:
    """The patch log-likelihood at every (h, p_tc) cell, one h row at a time.

    A row is its base (the fallback constant plus the affinity ln P summed
    over the pure events, then over the miss events) plus n_miss * ln(1 - p)
    plus the sum over the hit events of ln((1 - p) * P_aff + p / |tc|),
    mixed in log space where P_aff is below the normal range but ln P_aff is
    finite.  p / |tc| is rounded as the library rounds it, p * (1 / |tc|),
    and each sum is over the same contiguous values in the same order.
    """
    logp_aff = reference_aff_pick_logprob(stats, h_values)
    p = (PTC_GRID if ptc_values is None else ptc_values)[:, None]
    pure, hit = ~stats.mixture, stats.mixture & stats.tc_hit
    miss = stats.mixture & ~stats.tc_hit
    n_miss = int(miss.sum())
    with np.errstate(divide="ignore", invalid="ignore"):
        miss_term = n_miss * np.log(1.0 - p[:, 0]) if n_miss else np.zeros(p.size)
        p_tc = p * (1.0 / stats.tc_size[hit])
        out = np.empty((h_values.size, p.size))
        for i, row in enumerate(logp_aff):
            base = stats.const_loglik + row[pure].sum()
            if n_miss:
                base = base + row[miss].sum()
            ln_aff = row[hit]
            p_aff = np.exp(ln_aff)
            mix = np.log((1.0 - p) * p_aff + p_tc)
            under = (p_aff < np.finfo(np.float64).tiny) & (ln_aff > -np.inf)
            mix[:, under] = np.logaddexp(np.log(p_tc[:, under]), np.log1p(-p) + ln_aff[under])
            out[i] = base + miss_term + mix.sum(axis=1)
    return out


def reference_triadic_sets(trace: GrowthTrace) -> tuple[np.ndarray, np.ndarray]:
    """Each event's triadic-closure set size, and whether its pick lies in the set.

    The set of an event of arrival v is the union of the below-v
    neighbourhoods of the arrival's earlier picks, minus those picks; a
    neighbourhood is read from the graph of the whole trace, the seed
    clique of its first m nodes included.
    """
    src, tgt = trace.sources.tolist(), trace.targets.tolist()
    seed = [(u, w) for w in range(trace.m or 0) for u in range(w)]
    adj = [set() for _ in range(trace.n)]
    for s, t in seed + list(zip(src, tgt)):
        adj[s].add(t)
        adj[t].add(s)
    size = np.zeros(len(src), dtype=np.int64)
    hit = np.zeros(len(src), dtype=bool)
    earlier: list[int] = []
    for i, (v, t) in enumerate(zip(src, tgt)):
        if i and src[i - 1] != v:
            earlier = []
        tc = {u for pick in earlier for u in adj[pick] if u < v} - set(earlier)
        size[i], hit[i] = len(tc), t in tc
        earlier.append(t)
    return size, hit


def reference_excluded_mass(trace: GrowthTrace) -> tuple[np.ndarray, np.ndarray]:
    """The directed replay's excluded (indeg + 1) mass at each event, own class and other.

    Replays the events in order: at event i of source s, the mass sums
    indeg(u) + 1 before i over the targets u of s's earlier events, split
    by whether u is in s's class.
    """
    labels = trace.labels.tolist()
    indeg = [0] * trace.n
    earlier: list[list[int]] = [[] for _ in range(trace.n)]
    mass = [[0] * len(trace), [0] * len(trace)]
    for i, (s, t) in enumerate(zip(trace.sources.tolist(), trace.targets.tolist())):
        for u in earlier[s]:
            mass[labels[u] != labels[s]][i] += indeg[u] + 1
        earlier[s].append(t)
        indeg[t] += 1
    return np.array(mass[0], dtype=np.int64), np.array(mass[1], dtype=np.int64)


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
        total += _log_ratio(w[t], sum(w.values()))
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


def array_sample_without_replacement(rng, n: int, k: int) -> np.ndarray:
    """Partial Fisher-Yates swapping the items of a full index array."""
    pool = np.arange(n)
    for i in range(k):
        j = i + rand_below(rng, n - i)
        pool[i], pool[j] = pool[j], pool[i]
    return pool[:k].copy()


def rebuilt_pool_snowball(g: AttributedGraph, size: int, rng) -> list[int]:
    """Snowball crawl that re-seeds from ``sorted(set(range(n)) - sampled)``, rebuilt each time."""
    csr = g.csr()
    sampled: set[int] = set()
    queue: deque[int] = deque()
    while len(sampled) < size:
        if not queue:
            if sampled:
                pool = sorted(set(range(g.n)) - sampled)
                start = pool[rand_below(rng, len(pool))]
            else:
                start = rand_below(rng, g.n)
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


def reference_uniform_edge(g: AttributedGraph, size: int, rng) -> list[int]:
    """Uniform edges, both endpoints in until the budget; isolated nodes filled from ``set(range(n))``."""
    src, dst = g.edge_arrays()
    covered = int(np.count_nonzero(g.total_degree_vector()))
    sampled: set[int] = set()
    while len(sampled) < min(size, covered):
        i = rand_below(rng, src.size)
        for node in (int(src[i]), int(dst[i])):
            if len(sampled) >= size:
                break
            sampled.add(node)
    if len(sampled) < size:
        pool = sorted(set(range(g.n)) - sampled)
        for i in sample_without_replacement(rng, len(pool), size - len(sampled)):
            sampled.add(pool[i])
    return list(sampled)


def reference_random_walk(g: AttributedGraph, size: int, rng) -> list[int]:
    """Walk over ``csr.row(current)`` with teleports, one ``rand_below`` per move."""
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


def random_graph(n: int, directed: bool, p: float, rng: np.random.Generator) -> AttributedGraph:
    """Erdos-Renyi-style labeled graph for io and property tests."""
    labels = (rng.random(n) < 0.3).astype(np.int8)
    edges = [
        (u, v)
        for u in range(n)
        for v in range(n if directed else u)
        if u != v and rng.random() < p
    ]
    return AttributedGraph(directed, labels, edges)


def reference_csr(directed: bool, n: int, edges) -> tuple[np.ndarray, np.ndarray]:
    """(indptr, indices) of the graph on 0..n-1 with these (source, target) edges.

    Builds the neighbour lists edge by edge, and raises the EdgeError of the
    first edge that leaves 0..n-1, is a self-loop, or repeats an earlier
    edge (in either orientation when undirected).
    """
    rows: list[list[int]] = [[] for _ in range(n)]
    seen: set[tuple[int, int]] = set()
    for i, (u, v) in enumerate(edges):
        if not (0 <= u < n and 0 <= v < n):
            raise EdgeError(i, f"edge ({u},{v}) references a node outside 0..{n - 1}")
        if u == v:
            raise EdgeError(i, f"self-loop ({u},{v})")
        if (u, v) in seen:
            raise EdgeError(i, f"duplicate edge ({u},{v})")
        seen.add((u, v))
        rows[u].append(v)
        if not directed:
            seen.add((v, u))
            rows[v].append(u)
    indptr = np.cumsum([0] + [len(row) for row in rows], dtype=np.int64)
    return indptr, np.array([v for row in rows for v in sorted(row)], dtype=np.int64)


def adjacency_lists(g: AttributedGraph) -> list[list[int]]:
    """Sorted neighbour lists (out-neighbours when directed) from the canonical edge list."""
    adj: list[list[int]] = [[] for _ in range(g.n)]
    for u, v in g.edges():
        adj[u].append(v)
        if not g.directed:
            adj[v].append(u)
    return [sorted(row) for row in adj]


def naive_threshold_times(g: AttributedGraph, seeds, theta: float, max_steps: int) -> list[int]:
    """Synchronous threshold contagion recounting every node at every step.

    Reads the edge list, not the array form: a node's relevant neighbours
    are its in-neighbours (all neighbours when undirected), and an inactive
    node with at least one of them activates once the active share reaches
    theta (within the 1e-12 tolerance).
    """
    n = g.n
    in_nbrs: list[list[int]] = [[] for _ in range(n)]
    for u, row in enumerate(adjacency_lists(g)):
        for v in row:
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
    documented order: frontier ascending, then sorted neighbour lists."""
    adj = adjacency_lists(g)
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
            for v in adj[u]:
                if not inactive_at_start[v]:
                    continue
                roll = rng.random()
                p = p_in if labels[v] == labels[u] else p_out
                if roll < p and times[v] < 0:
                    times[v] = t
                    newly.append(v)
        frontier = sorted(newly)
    return times


def reference_generate(params: GenParams, max_rejections: int) -> GrowthTrace:
    """The trace of :func:`graphmix.generate.generate`, grown by the reference kernels below."""
    params.validate()
    rng = make_rng(params.seed)
    if params.model == "pa":
        return reference_grow(np.zeros(params.n, dtype=np.int8), params.m, None, None, rng, max_rejections)
    labels = assign_classes(params.n, params.f_m, rng)
    if params.model in UNDIRECTED_MODELS:
        return reference_grow(labels, params.m, params.H, params.p_tc, rng, max_rejections)
    return reference_place_directed(params, labels, rng, max_rejections)


_NO_ENTRIES = ((), ())


def reference_endpoint_pick(rng, affinity, heads, tails, excluded, max_rejections: int) -> int:
    """One rejection-sampled target from the entries ``heads[c] + tails[c]`` of class c, or -1."""
    w0 = affinity[0] * (len(heads[0]) + len(tails[0]))
    w1 = affinity[1] * (len(heads[1]) + len(tails[1]))
    for _ in range(max_rejections):
        c = 0 if rng.random() * (w0 + w1) < w0 or w1 == 0.0 else 1
        head, tail = heads[c], tails[c]
        i = rand_below(rng, len(head) + len(tail))
        u = head[i] if i < len(head) else tail[i - len(head)]
        if u not in excluded:
            return u
    return -1


def reference_tc_pick(rng, lists, chosen, max_rejections: int) -> int:
    """One triadic-closure target: an entry of ``lists`` end to end, kept unless chosen or in an earlier list; or -1."""
    entries = [(k, u) for k, nodes in enumerate(lists) for u in nodes]
    for _ in range(max_rejections if entries else 0):
        k, u = entries[rand_below(rng, len(entries))]
        if u not in chosen and all(u not in nodes for nodes in lists[:k]):
            return u
    candidates = sorted(set().union(*lists).difference(chosen))
    return candidates[rand_below(rng, len(candidates))] if candidates else -1


def reference_grow(labels, m: int, H, p_tc, rng, max_rejections: int) -> GrowthTrace:
    """The undirected growth loop with one ``reference_endpoint_pick`` and ``rand_below`` call per draw."""
    rng = UniformStream(rng)
    n = labels.size
    nbrs = [[u for u in range(m) if u != i] if i < m else [] for i in range(n)] if p_tc else None
    affinity = np.ones((2, 2)) if H is None else H.matrix
    aff_rows = affinity.tolist()
    cls = labels.tolist()
    deg = [m - 1] * m + [0] * (n - m)
    ends: list[list[int]] = [[], []]
    for u in range(m):
        ends[cls[u]].extend([u] * (m - 1))

    srcs, tgts, kinds = [], [], []
    for v in range(m, n):
        a0, a1 = aff_rows[cls[v]]
        chosen: list[int] = []
        chosen_mass = [0, 0]
        for j in range(m):
            kind = EventKind.PAH_PICK
            target = -1
            if p_tc is not None and j >= 1 and p_tc > 0.0:
                attempt_tc = True if p_tc >= 1.0 else rng.random() < p_tc
                if attempt_tc:
                    target = reference_tc_pick(rng, [nbrs[u] for u in chosen], chosen, max_rejections)
                    if target >= 0:
                        kind = EventKind.TC_PICK
            if target < 0:
                if (a0 > 0.0 and len(ends[0]) > chosen_mass[0]) or (a1 > 0.0 and len(ends[1]) > chosen_mass[1]):
                    target = reference_endpoint_pick(rng, (a0, a1), _NO_ENTRIES, ends, chosen, max_rejections)
                    if target < 0:
                        w = affinity[cls[v]][labels[:v]] * np.array(deg[:v], dtype=np.float64)
                        w[chosen] = 0.0
                        target = weighted_pick(rng, w)
                else:
                    kind = EventKind.FALLBACK_UNIFORM
                    target = rand_below(rng, v)
                    while target in chosen:
                        target = rand_below(rng, v)
            chosen.append(target)
            chosen_mass[cls[target]] += deg[target]
            srcs.append(v)
            tgts.append(target)
            kinds.append(int(kind))
        for t in chosen:
            deg[t] += 1
            ends[cls[t]].append(t)
        deg[v] = m
        ends[cls[v]].extend([v] * m)
        if nbrs is not None:
            nbrs[v] = sorted(chosen)
            for t in chosen:
                nbrs[t].append(v)
    return GrowthTrace(
        directed=False, labels=labels, sources=np.asarray(srcs, dtype=np.int64),
        targets=np.asarray(tgts, dtype=np.int64), kinds=np.asarray(kinds, dtype=np.int8), m=m,
    )


def reference_place_directed(params: GenParams, labels, rng, max_rejections: int) -> GrowthTrace:
    """The directed placement loop with a per-edge ``indeg + 1`` array and one ``reference_endpoint_pick`` per target."""
    model, n, H = params.model, params.n, params.H
    target_edges = round(params.d * n * (n - 1))
    activity = sample_activity(n, params.gamma_a, rng)
    source_rng = np.random.Generator(rng.bit_generator.jumped())
    rng = UniformStream(rng)
    cls = labels.tolist()
    affinity = np.ones((2, 2)) if H is None else H.matrix
    aff_rows = affinity.tolist()
    members = ([u for u in range(n) if cls[u] == 0], [u for u in range(n) if cls[u] == 1])
    in_ends: tuple[list[int], list[int]] = ([], [])
    tails = _NO_ENTRIES if model == "dh" else in_ends
    blocked: list[set[int]] = [{u} for u in range(n)]
    blocked_count = [[1 - c, c] for c in cls]

    def saturated(s: int) -> bool:
        (a0, a1), (b0, b1) = aff_rows[cls[s]], blocked_count[s]
        return not ((a0 > 0.0 and len(members[0]) > b0) or (a1 > 0.0 and len(members[1]) > b1))

    activity[[saturated(u) for u in range(n)]] = 0.0  # a saturated source has activity 0
    ind1 = np.ones(n, dtype=np.float64)
    srcs, tgts = [], []
    while len(srcs) < target_edges:
        s = pick_from_cumulative(source_rng, np.cumsum(activity))
        t = reference_endpoint_pick(rng, aff_rows[cls[s]], members, tails, blocked[s], max_rejections)
        if t < 0:
            w = affinity[cls[s]][labels]
            if model != "dh":
                w = w * ind1
            w[list(blocked[s])] = 0.0
            t = weighted_pick(rng, w)
        blocked[s].add(t)
        blocked_count[s][cls[t]] += 1
        in_ends[cls[t]].append(t)
        ind1[t] += 1.0
        srcs.append(s)
        tgts.append(t)
        if saturated(s):
            activity[s] = 0.0
    return GrowthTrace(
        directed=True, labels=labels, sources=np.asarray(srcs, dtype=np.int64),
        targets=np.asarray(tgts, dtype=np.int64),
        kinds=np.full(len(srcs), int(EventKind.DIRECTED_PICK), dtype=np.int8),
    )


def reference_write_network(g: AttributedGraph) -> tuple[bytes, bytes]:
    """The bytes of the node and edge files, one f-string per row."""
    lines = ["id,class"] + [f"{i},{c}" for i, c in enumerate(g.labels.tolist())]
    nodes = "\n".join(lines) + "\n"
    lines = ["source,target"] + [f"{u},{v}" for u, v in g.edges()]
    return nodes.encode(), ("\n".join(lines) + "\n").encode()


def reference_write_trace(sources, targets, kinds) -> bytes:
    """The bytes of a trace file of these event arrays, one f-string per event."""
    names = [EVENT_KIND_NAMES[kind] for kind in EventKind]
    lines = ["source,target,kind"] + [
        f"{s},{t},{names[k]}" for s, t, k in zip(sources.tolist(), targets.tolist(), kinds.tolist())
    ]
    return ("\n".join(lines) + "\n").encode()
