"""Growth-replay likelihoods, grid MLE, and model selection.

The likelihood of a trace under a candidate model is the product of the
per-event pick probabilities obtained by replaying the trace: the graph
state is reconstructed before each event and the recorded target's
probability under the candidate's weights is accumulated.  Scoring rules:

* events flagged ``fallback-uniform`` contribute ``ln(1/|eligible|)``
  regardless of parameters (they carry no parameter information and are
  tallied separately from the scored-event count);
* an unflagged event whose candidate weights sum to zero is scored with the
  model's own uniform fallback, ``ln(1/|eligible|)`` (undirected family
  only; the directed family has no fallback, so it scores ``-inf``);
* an unflagged event whose target weight is zero while the total is
  positive scores ``-inf`` (impossible under the candidate);
* for the triadic-closure model the per-event probability is the mixture
  ``p_tc * P_tc + (1 - p_tc) * P_aff`` with the latent branch marginalized;
  the triadic component is uniform over the candidate triangle-closing set
  and collapses to the affinity pick when that set is empty.

Replay is done once per trace, as array operations, to extract per-event
sufficient statistics; evaluating the likelihood over a whole parameter grid
is then a vectorized array computation.  A trace must rebuild a simple
graph: one that repeats an edge (the same target twice in one arrival, or a
directed pair twice) or leaves ``0..n-1`` raises ``ValueError`` before
anything is scored.

* Undirected: in a growth trace, and in the order-assumed trace of
  :func:`trace_from_graph`, edge {u, w} exists before arrival v exactly when
  max(u, w) < v.  So what arrival v sees of a node's neighbourhood is the
  prefix below v of its row in the rebuilt graph's CSR: snapshot degrees are
  one ``searchsorted``, class degree totals and the mass already chosen in
  an arrival are (grouped) cumulative sums, and the triadic-closure sets
  come from a stable sort of (arrival, exposed node) keys.  Cost:
  O(E log E) plus the sum of the picked targets' snapshot degrees.
* Directed: target in-degrees, class totals and excluded counts are
  stable-sort ranks and grouped cumulative sums.  The (indeg + 1) mass of a
  source's earlier targets is path dependent; it is summed over every pair
  of one source's events, O(sum of squared out-degrees) sorted lookups done
  in bounded chunks.
* Grids are evaluated a few h rows (and p_tc rows) at a time into reused
  buffers; pah and patch share one affinity pass.  Blocking changes no
  result: every row still sums the same contiguous run of events, so grids,
  fits and Bayes factors are byte-identical to an unblocked evaluation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np
from scipy.special import gammaincc

from .generate import (
    DIRECTED_MODELS,
    UNDIRECTED_MODELS,
    EventKind,
    GrowthTrace,
    rebuild_graph,
)
from .graph import AttributedGraph
from .rng import make_rng, sample_without_replacement

__all__ = [
    "H_GRID",
    "PTC_GRID",
    "FitReport",
    "PairComparison",
    "SelectionTable",
    "mixing_counts",
    "homophily_estimate",
    "replay_loglik",
    "replay_event_probabilities",
    "fit_model",
    "lrt",
    "bayes_factor",
    "select_model",
    "trace_from_graph",
]

# Shared symmetric-affinity grid, step 0.01; ties in the MLE break toward
# the smaller value (argmax returns the first maximum on the ascending grid).
H_GRID = np.round(np.linspace(0.0, 1.0, 101), 2)
PTC_GRID = H_GRID

_MODEL_K = {"pa": 0, "pah": 1, "patch": 2, "dpa": 0, "dh": 1, "dpah": 1}

# Pairs (nested, full) differing only by neutralizing parameters.
NESTED_PAIRS = {("pa", "pah"), ("pa", "patch"), ("pah", "patch"), ("dpa", "dpah")}

_trapz = getattr(np, "trapezoid", None) or np.trapz


# ---------------------------------------------------------------------------
# mixing counts
# ---------------------------------------------------------------------------

def mixing_counts(g: AttributedGraph) -> np.ndarray:
    """2x2 edge counts by class pair.

    Directed: cell [a, b] counts edges a->b and the cells sum to |E|.
    Undirected: each edge is counted once; the diagonal holds same-class
    counts and both off-diagonal cells hold the (single) cross-class count,
    so |E| = c[0,0] + c[1,1] + c[0,1].
    """
    src, dst = g.edge_arrays()
    counts = np.bincount(2 * g.labels[src] + g.labels[dst], minlength=4).reshape(2, 2)
    if not g.directed:
        counts[0, 1] = counts[1, 0] = counts[0, 1] + counts[1, 0]
    return counts


def homophily_estimate(g: AttributedGraph) -> float | None:
    """Fraction of same-class edges; None when the graph has no edges."""
    if g.num_edges == 0:
        return None
    counts = mixing_counts(g)
    return float((counts[0, 0] + counts[1, 1]) / g.num_edges)


# ---------------------------------------------------------------------------
# replay statistics
# ---------------------------------------------------------------------------

@dataclass
class _UndirectedStats:
    """Per-event sufficient statistics for the undirected family."""

    n_events: int
    n_fallback: int
    const_loglik: float  # summed fallback contributions
    deg_t: np.ndarray    # snapshot degree of the recorded target
    same: np.ndarray     # target class == source class
    sum_same: np.ndarray  # eligible degree sum, source's class
    sum_diff: np.ndarray  # eligible degree sum, other class
    n_elig: np.ndarray
    mixture: np.ndarray  # non-first pick with a non-empty triadic set
    tc_size: np.ndarray
    tc_hit: np.ndarray


@dataclass
class _DirectedStats:
    """Per-event sufficient statistics for the directed family."""

    n_events: int
    same: np.ndarray
    ind1_t: np.ndarray    # indeg(target) + 1 before the event
    sum_same: np.ndarray  # eligible (indeg+1) sum, source's class
    sum_diff: np.ndarray
    cnt_same: np.ndarray  # eligible node counts by class
    cnt_diff: np.ndarray
    n_fallback: int = 0
    const_loglik: float = 0.0


# Event pairs handled at once by the chunked pair passes of the replay statistics.
_PAIR_CHUNK = 1 << 16


def _arrival_groups(trace: GrowthTrace) -> np.ndarray:
    """Validate growth order; return where each source's run of events starts, then len(trace)."""
    src, tgt = trace.sources, trace.targets
    bad_target = tgt >= src
    bad_order = src < np.concatenate(([-1], src[:-1]))
    bad = np.flatnonzero(bad_target | bad_order)
    if bad.size:
        i = int(bad[0])
        s, t = int(src[i]), int(tgt[i])
        if bad_target[i]:
            raise ValueError(f"event {i}: target {t} not below source {s}; not a growth trace")
        raise ValueError(f"event {i}: source {s} out of arrival order")
    if trace.m is not None and not np.array_equal(src, np.repeat(np.arange(trace.m, trace.n), trace.m)):
        raise ValueError("trace does not have m events per arrival for every node >= m")
    new = np.ones(src.size, dtype=bool)
    new[1:] = src[1:] != src[:-1]
    return np.append(np.flatnonzero(new), src.size)


def _group_exclusive_cumsum(x: np.ndarray, first: np.ndarray) -> np.ndarray:
    """Sum of ``x`` over the earlier positions of each position's group (``first``: group start)."""
    before = np.cumsum(x) - x
    return before - before[first]


def _chunk_cuts(cum: np.ndarray) -> np.ndarray:
    """Indices into ``cum``, the cumulative cost at each allowed cut (from 0),
    that split it into runs of about _PAIR_CHUNK."""
    cuts = np.searchsorted(cum, np.arange(_PAIR_CHUNK, cum[-1], _PAIR_CHUNK))
    return np.unique(np.concatenate(([0], cuts, [cum.size - 1])))


def _undirected_stats(trace: GrowthTrace) -> _UndirectedStats:
    if trace.directed:
        raise ValueError("trace is directed; undirected stats requested")
    starts = _arrival_groups(trace)
    csr = rebuild_graph(trace).csr()
    n, labels = trace.n, trace.labels
    src = trace.sources.astype(np.int64)
    tgt = trace.targets.astype(np.int64)
    first = np.repeat(starts[:-1], np.diff(starts))  # first event of each event's arrival
    n_elig = src - (np.arange(src.size) - first)

    # An edge {u, w} exists before arrival v exactly when max(u, w) < v, so
    # a target's neighbourhood at arrival v is its CSR row below v.
    deg = csr.count_below(tgt, src)
    cls_v = labels[src]
    same = labels[tgt] == cls_v
    # degree totals by class over the nodes below v: the endpoint classes of
    # every edge, counted from its later endpoint on
    later = np.repeat(np.arange(n, dtype=np.int64), csr.out_degree())
    lower = csr.indices < later
    later = later[lower]
    ends = np.bincount(
        np.concatenate((2 * later + labels[later], 2 * later + labels[csr.indices[lower]])),
        minlength=2 * n,
    )
    tot = np.zeros((n + 1, 2), dtype=np.int64)
    tot[1:] = ends.reshape(n, 2).cumsum(axis=0)
    # minus the degree mass the arrival has already chosen
    sum_same = tot[src, cls_v] - _group_exclusive_cumsum(np.where(same, deg, 0), first)
    sum_diff = tot[src, 1 - cls_v] - _group_exclusive_cumsum(np.where(same, 0, deg), first)
    tc_size, tc_hit = _triadic_sets(csr, src, tgt, deg, starts)

    fallback = trace.kinds == EventKind.FALLBACK_UNIFORM
    const = 0.0
    for elig in n_elig[fallback].tolist():  # summed in event order
        const -= math.log(elig)
    scored = ~fallback
    return _UndirectedStats(
        n_events=int(scored.sum()),
        n_fallback=int(fallback.sum()),
        const_loglik=const,
        deg_t=deg[scored].astype(np.float64),
        same=same[scored],
        sum_same=sum_same[scored].astype(np.float64),
        sum_diff=sum_diff[scored].astype(np.float64),
        n_elig=n_elig[scored].astype(np.float64),
        mixture=tc_size[scored] > 0,
        tc_size=tc_size[scored].astype(np.float64),
        tc_hit=tc_hit[scored],
    )


def _triadic_sets(csr, src, tgt, deg, starts) -> tuple[np.ndarray, np.ndarray]:
    """Size of each pick's triadic-closure set, and whether the pick lies in it.

    The set of a pick is the union of the below-v rows of its arrival's
    earlier picks, minus those picks.  A node first exposed by event f and
    picked by event c (the arrival's last event if never) is in the sets of
    events f+1..c.  Each node's first exposure comes from a stable sort of
    (v, node) keys, whole arrivals at a time.
    """
    n_events = src.size
    n = csr.indptr.size - 1
    stop = np.repeat(starts[1:], np.diff(starts))
    exposed = np.where(stop - np.arange(n_events) > 1, deg, 0)  # an arrival's last pick exposes nothing
    pick_keys = src * n + tgt
    pick_order = np.argsort(pick_keys)  # moves events only within their arrival
    sorted_picks = pick_keys[pick_order]
    diff = np.zeros(n_events + 1, dtype=np.int64)
    hit = np.zeros(n_events, dtype=bool)
    cuts = starts[_chunk_cuts(np.concatenate(([0], np.cumsum(exposed)))[starts])]
    for lo, hi in zip(cuts[:-1].tolist(), cuts[1:].tolist()):
        ev = lo + np.flatnonzero(exposed[lo:hi])
        if not ev.size:
            continue
        lens = exposed[ev]
        by = np.repeat(ev, lens)
        keys = src[by] * n + csr.rows(tgt[ev], lens)[1]
        order = np.argsort(keys, kind="stable")  # equal keys keep event order
        keys = keys[order]
        head = np.ones(keys.size, dtype=bool)
        head[1:] = keys[1:] != keys[:-1]
        keys, by = keys[head], by[order[head]]
        at = lo + np.minimum(np.searchsorted(sorted_picks[lo:hi], keys), hi - lo - 1)
        last = np.where(sorted_picks[at] == keys, pick_order[at], stop[by] - 1)
        live = by < last
        diff[lo:hi + 1] += np.bincount(by[live] + 1 - lo, minlength=hi - lo + 1)
        diff[lo:hi + 1] -= np.bincount(last[live] + 1 - lo, minlength=hi - lo + 1)
        at = np.minimum(np.searchsorted(keys, pick_keys[lo:hi]), keys.size - 1)
        hit[lo:hi] = (keys[at] == pick_keys[lo:hi]) & (by[at] < np.arange(lo, hi))
    return np.cumsum(diff[:-1]), hit


def _directed_stats(trace: GrowthTrace) -> _DirectedStats:
    if not trace.directed:
        raise ValueError("trace is undirected; directed stats requested")
    rebuild_graph(trace)  # rejects repeated and out-of-range edges
    n, labels = trace.n, trace.labels
    src = trace.sources.astype(np.int64)
    tgt = trace.targets.astype(np.int64)
    n_events = src.size
    idx = np.arange(n_events)
    n1 = int(labels.sum())
    n_class = np.array([n - n1, n1])
    cls_s = labels[src]
    same = labels[tgt] == cls_s

    # indeg(u) + 1 before event i: 1 + u's earlier events as a target
    by_target = np.argsort(tgt, kind="stable")
    tkeys = tgt[by_target] * n_events + by_target
    tstart = np.searchsorted(tkeys, np.arange(n + 1) * n_events)
    ind1_t = 1 + np.searchsorted(tkeys, tgt * n_events + idx) - tstart[tgt]
    ind1_s = 1 + np.searchsorted(tkeys, src * n_events + idx) - tstart[src]
    # (indeg + 1) totals by class: one per node plus the earlier picks of the class
    picks1 = np.cumsum(labels[tgt]) - labels[tgt]
    own1 = cls_s == 1
    tot_own = n_class[cls_s] + np.where(own1, picks1, idx - picks1)
    tot_oth = n_class[1 - cls_s] + np.where(own1, idx - picks1, picks1)

    # the source's earlier targets by class: their count and their (indeg + 1) mass
    by_source = np.argsort(src, kind="stable")
    first = np.searchsorted(src[by_source], src[by_source])
    same_sorted = same[by_source]
    excl_own, excl_oth = np.empty((2, n_events), dtype=np.int64)
    excl_own[by_source] = _group_exclusive_cumsum(same_sorted, first)
    excl_oth[by_source] = _group_exclusive_cumsum(~same_sorted, first)
    mass_own, mass_oth = _excluded_mass(tgt, same, by_source, first, tkeys, tstart)

    return _DirectedStats(
        n_events=n_events,
        same=same,
        ind1_t=ind1_t.astype(np.float64),
        sum_same=(tot_own - ind1_s - mass_own).astype(np.float64),
        sum_diff=(tot_oth - mass_oth).astype(np.float64),
        cnt_same=(n_class[cls_s] - 1 - excl_own).astype(np.float64),
        cnt_diff=(n_class[1 - cls_s] - excl_oth).astype(np.float64),
    )


def _excluded_mass(tgt, same, by_source, first, tkeys, tstart) -> tuple[np.ndarray, np.ndarray]:
    """Sum of indeg(u) + 1 at event i over the source's earlier targets u, own class and other.

    Pair scheme: every pair (k, i) of events of one source with k < i
    looks up indeg(t_k) before i, O(sum of squared out-degrees) lookups
    in chunks of about _PAIR_CHUNK pairs.
    """
    n_events = tgt.size
    rank = np.arange(n_events) - first  # earlier events of the same source
    cum = np.concatenate(([0], np.cumsum(rank)))
    mass = np.zeros((2, n_events), dtype=np.int64)
    cuts = _chunk_cuts(cum)
    for lo, hi in zip(cuts[:-1].tolist(), cuts[1:].tolist()):
        r = rank[lo:hi]
        later = np.repeat(np.arange(lo, hi), r)
        earlier = first[later] + np.arange(later.size) - np.repeat(cum[lo:hi] - cum[lo], r)
        i, k = by_source[later], by_source[earlier]
        u = tgt[k]
        needles = u * n_events + i
        order = np.argsort(needles)
        val = np.empty(needles.size, dtype=np.int64)
        val[order] = np.searchsorted(tkeys, needles[order])
        val += 1 - tstart[u]
        own = same[k]
        seg = np.concatenate(([0], np.cumsum(r)))
        for c, w in ((0, own), (1, ~own)):
            cs = np.concatenate(([0], np.cumsum(val * w)))
            mass[c, lo:hi] = cs[seg[1:]] - cs[seg[:-1]]
    out = np.empty_like(mass)
    out[:, by_source] = mass
    return out[0], out[1]


def _stats_for(trace: GrowthTrace):
    return _directed_stats(trace) if trace.directed else _undirected_stats(trace)


# ---------------------------------------------------------------------------
# grid likelihood evaluation
# ---------------------------------------------------------------------------

# Bytes of one block of grid rows; a block's few temporaries stay in cache.
_BLOCK_BYTES = 1 << 19


def _block_rows(row_len: int) -> int:
    return max(1, _BLOCK_BYTES // (8 * max(row_len, 1)))


def _affinity_logp(h, same, weight, den_same, den_diff, fill, by_den: bool, row_sums: bool):
    """ln P of each event under affinity weighting, one block of h rows at a time.

    P = a * weight / (h * den_same + (1 - h) * den_diff), where a is h for a
    same-class target and 1 - h otherwise.  Where the denominator
    (``by_den``) or else the target weight is not positive, ln P is
    ``fill``.  Returns the (len(h), n_events) array, or its row sums.
    """
    n_rows, n_cols = h.size, same.size
    step = _block_rows(n_cols)
    out = np.empty(n_rows) if row_sums else np.empty((n_rows, n_cols))
    bufs = np.empty((3, min(step, n_rows), n_cols))
    cut = np.empty(bufs.shape[1:], dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore"):
        for a in range(0, n_rows, step):
            b = min(a + step, n_rows)
            hc = h[a:b, None]
            w = bufs[0, :b - a] if row_sums else out[a:b]
            den, tmp, bad = bufs[1, :b - a], bufs[2, :b - a], cut[:b - a]
            np.copyto(w, 1.0 - hc)
            np.copyto(w, hc, where=same)
            if weight is not None:
                w *= weight
            np.multiply(hc, den_same, out=den)
            np.multiply(1.0 - hc, den_diff, out=tmp)
            den += tmp
            np.less_equal(den if by_den else w, 0.0, out=bad)
            np.log(w, out=w)
            np.log(den, out=den)
            w -= den
            np.copyto(w, fill, where=bad)
            if row_sums:
                out[a:b] = w.sum(axis=1)
    return out


def _aff_pick_logprob(stats: _UndirectedStats, h: np.ndarray, row_sums: bool = False) -> np.ndarray:
    """ln P of each scored event under affinity-weighted attachment.

    Shape (len(h), n_events), or its row sums.  A zero denominator means
    the candidate's own weights vanish, which triggers the model's uniform
    fallback.
    """
    with np.errstate(divide="ignore"):
        fallback = -np.log(stats.n_elig)
    return _affinity_logp(
        h, stats.same, stats.deg_t, stats.sum_same, stats.sum_diff, fallback, True, row_sums
    )


def _pa_logprob(stats: _UndirectedStats) -> np.ndarray:
    den = stats.sum_same + stats.sum_diff
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(den > 0.0, np.log(stats.deg_t) - np.log(den), -np.log(stats.n_elig))


def _loglik_grid_undirected(
    stats: _UndirectedStats,
    model: str,
    h_values: np.ndarray,
    ptc_values: np.ndarray | None = None,
    logp_aff: np.ndarray | None = None,
) -> np.ndarray:
    """Log-likelihood over h_values (x ptc_values for patch).

    ``logp_aff`` is ``_aff_pick_logprob(stats, h_values)`` when the caller
    already has it.
    """
    if stats.n_events == 0:
        raise ValueError("trace has zero scoreable events")
    if model == "pa":
        return np.asarray(stats.const_loglik + _pa_logprob(stats).sum())
    if model == "pah":
        if logp_aff is None:
            return stats.const_loglik + _aff_pick_logprob(stats, h_values, row_sums=True)
        return stats.const_loglik + logp_aff.sum(axis=1)
    if model != "patch":
        raise ValueError(f"not an undirected model: {model!r}")
    if logp_aff is None:
        logp_aff = _aff_pick_logprob(stats, h_values)

    ptc = PTC_GRID if ptc_values is None else ptc_values
    pure = ~stats.mixture
    hit = stats.mixture & stats.tc_hit
    miss = stats.mixture & ~stats.tc_hit
    n_miss = int(miss.sum())
    with np.errstate(divide="ignore"):
        log_ptc_off = np.log(1.0 - ptc)  # -inf at p_tc = 1
    miss_term = n_miss * log_ptc_off if n_miss else np.zeros_like(ptc)
    # p_tc * P_tc + (1 - p_tc) * P_aff of each hit event, a block of p_tc rows at a time
    tc_part = ptc[:, None] * (1.0 / stats.tc_size[hit])[None, :]
    aff_share = (1.0 - ptc)[:, None]
    step = _block_rows(tc_part.shape[1])
    buf = np.empty((min(step, ptc.size), tc_part.shape[1]))
    hit_term = np.empty(ptc.size)
    out = np.empty((h_values.size, ptc.size))
    for hi in range(h_values.size):
        row = logp_aff[hi]
        base = stats.const_loglik + row[pure].sum()
        if n_miss:
            base = base + row[miss].sum()
        p_aff_hit = np.exp(row[hit])
        with np.errstate(divide="ignore", invalid="ignore"):
            for a in range(0, ptc.size, step):
                b = min(a + step, ptc.size)
                mix = buf[:b - a]
                np.multiply(aff_share[a:b], p_aff_hit, out=mix)
                mix += tc_part[a:b]
                np.log(mix, out=mix)
                hit_term[a:b] = mix.sum(axis=1)
        out[hi] = base + miss_term + hit_term
    return out


def _loglik_grid_directed(
    stats: _DirectedStats, model: str, h_values: np.ndarray
) -> np.ndarray:
    if stats.n_events == 0:
        raise ValueError("trace has zero scoreable events")
    if model == "dpa":
        den = stats.sum_same + stats.sum_diff
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.asarray((np.log(stats.ind1_t) - np.log(den)).sum())
    if model == "dh":
        weight, den_same, den_diff = None, stats.cnt_same, stats.cnt_diff
    elif model == "dpah":
        weight, den_same, den_diff = stats.ind1_t, stats.sum_same, stats.sum_diff
    else:
        raise ValueError(f"not a directed model: {model!r}")
    # den >= wsel, so wsel == 0 covers both the zero-probability-target
    # case and the no-candidate-has-weight case (no fallback when directed)
    return _affinity_logp(h_values, stats.same, weight, den_same, den_diff, -np.inf, False, True)


def _check_family(trace: GrowthTrace, model: str) -> None:
    model = model.lower()
    if model in UNDIRECTED_MODELS:
        if trace.directed:
            raise ValueError(f"model {model} is undirected but the trace is directed")
    elif model in DIRECTED_MODELS:
        if not trace.directed:
            raise ValueError(f"model {model} is directed but the trace is undirected")
    else:
        raise ValueError(f"unknown model {model!r}")


def _check_param(name: str, value: float | None) -> float:
    if value is None:
        raise ValueError(f"parameter {name} is required for this model")
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"parameter {name} must lie in [0, 1], got {value}")
    return float(value)


def replay_loglik(
    trace: GrowthTrace,
    model: str,
    h: float | None = None,
    p_tc: float | None = None,
) -> tuple[float, int]:
    """Log-likelihood of the trace under a candidate model at fixed params.

    Returns ``(logL, n_events)`` where ``n_events`` counts the scored
    (non-fallback) pick events.  ``h`` is the symmetric affinity for pah,
    patch, dh, and dpah; ``p_tc`` the triadic-closure probability for patch.
    """
    model = model.lower()
    _check_family(trace, model)
    stats = _stats_for(trace)
    if model in ("pa", "dpa"):
        grid = (
            _loglik_grid_directed(stats, model, H_GRID)
            if model == "dpa"
            else _loglik_grid_undirected(stats, model, H_GRID)
        )
        return float(grid), stats.n_events
    hv = np.array([_check_param("h", h)])
    if model == "patch":
        pv = np.array([_check_param("p_tc", p_tc)])
        grid = _loglik_grid_undirected(stats, model, hv, pv)
        return float(grid[0, 0]), stats.n_events
    if model == "pah":
        grid = _loglik_grid_undirected(stats, model, hv)
    else:
        grid = _loglik_grid_directed(stats, model, hv)
    return float(grid[0]), stats.n_events


# ---------------------------------------------------------------------------
# fitting and selection
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FitReport:
    """Grid-MLE result for one candidate model on one trace."""

    model: str
    h_hat: float | None
    p_tc_hat: float | None
    log_lik: float
    k: int
    n_events: int
    n_fallback: int
    aic: float
    bic: float
    order_assumed: bool = False

    @classmethod
    def build(cls, model, h_hat, p_tc_hat, log_lik, n_events, n_fallback, order_assumed=False):
        k = _MODEL_K[model]
        return cls(
            model=model,
            h_hat=h_hat,
            p_tc_hat=p_tc_hat,
            log_lik=float(log_lik),
            k=k,
            n_events=n_events,
            n_fallback=n_fallback,
            aic=2.0 * k - 2.0 * float(log_lik),
            bic=k * math.log(n_events) - 2.0 * float(log_lik),
            order_assumed=order_assumed,
        )


@dataclass(frozen=True)
class PairComparison:
    """Pairwise comparison; model_a always has k <= k of model_b.

    ``log10_bf`` is log10 of the marginal-likelihood ratio Z_a / Z_b under
    uniform grid priors.  The LRT fields are filled only for nested pairs
    (a nested within b).
    """

    model_a: str
    model_b: str
    log10_bf: float
    lrt_stat: float | None = None
    lrt_df: int | None = None
    lrt_p: float | None = None


@dataclass(frozen=True)
class SelectionTable:
    fits: list[FitReport]
    comparisons: list[PairComparison]
    criterion: str

    @property
    def best(self) -> FitReport:
        return self.fits[0]


def _fit_from_grid(model: str, grid: np.ndarray, stats, order_assumed: bool) -> FitReport:
    if model in ("pa", "dpa"):
        h_hat = p_hat = None
        logl = float(grid)
    elif model == "patch":
        flat = int(np.argmax(grid))
        hi, pi = divmod(flat, grid.shape[1])
        h_hat, p_hat = float(H_GRID[hi]), float(PTC_GRID[pi])
        logl = float(grid[hi, pi])
    else:
        hi = int(np.argmax(grid))
        h_hat, p_hat = float(H_GRID[hi]), None
        logl = float(grid[hi])
    return FitReport.build(
        model, h_hat, p_hat, logl, stats.n_events, stats.n_fallback, order_assumed
    )


def _model_grids(stats, models) -> dict[str, np.ndarray]:
    """Grid of each model; pah and patch share one affinity pass."""
    if isinstance(stats, _DirectedStats):
        return {m: _loglik_grid_directed(stats, m, H_GRID) for m in models}
    logp_aff = None
    if "pah" in models and "patch" in models and stats.n_events:
        logp_aff = _aff_pick_logprob(stats, H_GRID)
    return {m: _loglik_grid_undirected(stats, m, H_GRID, logp_aff=logp_aff) for m in models}


def fit_model(trace: GrowthTrace, model: str) -> FitReport:
    """Grid maximum-likelihood fit of one model to one trace."""
    model = model.lower()
    _check_family(trace, model)
    stats = _stats_for(trace)
    grid = _model_grids(stats, [model])[model]
    return _fit_from_grid(model, grid, stats, trace.order_assumed)


def lrt(nested: FitReport, full: FitReport) -> tuple[float, int, float]:
    """Likelihood-ratio test of a nested model against its fuller model.

    Returns ``(statistic, df, p)`` with the statistic clamped at zero and
    the p-value from the chi-square upper tail (regularized incomplete
    gamma function).
    """
    if (nested.model, full.model) not in NESTED_PAIRS:
        raise ValueError(f"models {nested.model!r} and {full.model!r} are not nested")
    stat = max(0.0, 2.0 * (full.log_lik - nested.log_lik))
    df = full.k - nested.k
    p = float(gammaincc(df / 2.0, stat / 2.0))
    return stat, df, p


def _log_trapz(logf: np.ndarray, dx: float) -> float:
    peak = float(np.max(logf))
    if peak == -np.inf:
        return -np.inf
    return peak + math.log(float(_trapz(np.exp(logf - peak), dx=dx)))


def _log_marginal(model: str, grid: np.ndarray) -> float:
    """Log marginal likelihood under a uniform prior over the grid range."""
    if model in ("pa", "dpa"):
        return float(grid)
    if model == "patch":
        peak = float(np.max(grid))
        if peak == -np.inf:
            return -np.inf
        inner = _trapz(np.exp(grid - peak), dx=0.01, axis=1)
        return peak + math.log(float(_trapz(inner, dx=0.01)))
    return _log_trapz(grid, dx=0.01)


def bayes_factor(trace: GrowthTrace, model_a: str, model_b: str) -> float:
    """log10 Bayes factor of model_a over model_b on one trace."""
    model_a, model_b = model_a.lower(), model_b.lower()
    _check_family(trace, model_a)
    _check_family(trace, model_b)
    grids = _model_grids(_stats_for(trace), [model_a, model_b])
    za = _log_marginal(model_a, grids[model_a])
    zb = _log_marginal(model_b, grids[model_b])
    return (za - zb) / math.log(10.0)


def select_model(
    trace: GrowthTrace, candidates: list[str], criterion: str = "bic"
) -> SelectionTable:
    """Fit every candidate and rank them, with pairwise comparisons.

    Candidates must be distinct and from one family.  Ranking is ascending
    by ``criterion`` (``"bic"`` default, ``"aic"`` supported).  Pairs are
    enumerated with the smaller-k model first; the LRT is filled for nested
    pairs only, the Bayes factor for all pairs.
    """
    candidates = [c.lower() for c in candidates]
    if not candidates:
        raise ValueError("candidate list must be non-empty")
    if len(set(candidates)) != len(candidates):
        raise ValueError("candidate list contains duplicates")
    if criterion not in ("bic", "aic"):
        raise ValueError(f"criterion must be 'bic' or 'aic', got {criterion!r}")
    for c in candidates:
        _check_family(trace, c)

    stats = _stats_for(trace)
    grids = _model_grids(stats, candidates)
    fits = {c: _fit_from_grid(c, grids[c], stats, trace.order_assumed) for c in candidates}
    marginals = {c: _log_marginal(c, grids[c]) for c in candidates}

    ordered = sorted(candidates, key=lambda c: (_MODEL_K[c], c))
    comparisons = []
    for a, b in combinations(ordered, 2):
        bf = (marginals[a] - marginals[b]) / math.log(10.0)
        if (a, b) in NESTED_PAIRS:
            stat, df, p = lrt(fits[a], fits[b])
            comparisons.append(PairComparison(a, b, bf, stat, df, p))
        else:
            comparisons.append(PairComparison(a, b, bf))

    key = (lambda f: (f.bic, f.model)) if criterion == "bic" else (lambda f: (f.aic, f.model))
    ranked = sorted(fits.values(), key=key)
    return SelectionTable(fits=ranked, comparisons=comparisons, criterion=criterion)


# ---------------------------------------------------------------------------
# traces for networks without recorded arrival order
# ---------------------------------------------------------------------------

def trace_from_graph(g: AttributedGraph, seed: int = 0) -> GrowthTrace:
    """Synthesize an order-assumed trace from a bare network.

    Undirected graphs are replayed in node-id order: each node's edges to
    lower ids are treated as its arrival picks (ascending target id).
    Directed graphs get a uniformly random edge order drawn from ``seed``.
    The resulting trace carries ``order_assumed=True``.
    """
    if g.directed:
        srcs, tgts = g.edge_arrays()
        order = sample_without_replacement(make_rng(seed), srcs.size, srcs.size)
        return GrowthTrace(
            directed=True, labels=g.labels, sources=srcs[order], targets=tgts[order],
            kinds=np.full(srcs.size, int(EventKind.DIRECTED_PICK), dtype=np.int8),
            order_assumed=True,
        )
    csr = g.csr()
    owner = np.repeat(np.arange(g.n, dtype=np.int64), csr.out_degree())
    lower = csr.indices < owner
    return GrowthTrace(
        directed=False,
        labels=g.labels,
        sources=owner[lower],
        targets=csr.indices[lower],
        kinds=np.full(int(lower.sum()), int(EventKind.PAH_PICK), dtype=np.int8),
        m=None,
        order_assumed=True,
    )


# ---------------------------------------------------------------------------
# reference replay (full per-event probability vectors)
# ---------------------------------------------------------------------------

def replay_event_probabilities(
    trace: GrowthTrace,
    model: str,
    h: float | None = None,
    p_tc: float | None = None,
):
    """Yield (eligible ids, pick probabilities) for every event in order.

    A direct replay of the scoring rules materializing the full probability
    vector per event; intended for diagnostics and tests (O(n) per event,
    streamed so long traces do not pile up in memory).  Each vector sums
    to 1 except for events impossible under the candidate, which come back
    all-zero.
    """
    model = model.lower()
    _check_family(trace, model)
    if model in ("pah", "patch", "dh", "dpah"):
        h = _check_param("h", h)
    if model == "patch":
        p_tc = _check_param("p_tc", p_tc)
    if trace.directed:
        rebuild_graph(trace)  # rejects repeated and out-of-range edges
        return _replay_vectors_directed(trace, model, h)
    starts = _arrival_groups(trace)
    return _replay_vectors_undirected(trace, model, h, p_tc, starts, rebuild_graph(trace).csr())


def _replay_vectors_undirected(trace, model, h, p_tc, starts, csr):
    labels = trace.labels
    m = trace.m or 0
    deg = np.zeros(trace.n, dtype=np.float64)
    deg[:m] = max(m - 1, 0)
    aff = None if h is None else np.array([h, 1.0 - h])

    for lo, hi in zip(starts[:-1].tolist(), starts[1:].tolist()):
        v = int(trace.sources[lo])
        cls_v = int(labels[v])
        free = np.ones(v, dtype=bool)   # not yet chosen in this arrival
        near = np.zeros(v, dtype=bool)  # below-v neighbours of the chosen targets
        for i in range(lo, hi):
            t = int(trace.targets[i])
            kind = EventKind(trace.kinds[i])
            eligible = np.flatnonzero(free)
            if kind is EventKind.FALLBACK_UNIFORM:
                probs = np.full(eligible.size, 1.0 / eligible.size)
            else:
                if model == "pa":
                    w = deg[eligible].copy()
                else:
                    w = aff[np.where(labels[eligible] == cls_v, 0, 1)] * deg[eligible]
                total = w.sum()
                probs = w / total if total > 0.0 else np.full(eligible.size, 1.0 / eligible.size)
                if model == "patch":
                    tc = near & free
                    tc_size = int(np.count_nonzero(tc))
                    if tc_size:
                        probs *= 1.0 - p_tc
                        probs[tc[eligible]] += p_tc / tc_size
            yield eligible, probs
            free[t] = False
            if model == "patch":
                row = csr.row(t)
                near[row[:np.searchsorted(row, v)]] = True
        deg[trace.targets[lo:hi]] += 1.0
        deg[v] += float(hi - lo)


def _replay_vectors_directed(trace, model, h):
    n = trace.n
    labels = trace.labels
    ind1 = np.ones(n, dtype=np.float64)
    out_adj: list[set[int]] = [set() for _ in range(n)]
    aff = None if h is None else np.array([h, 1.0 - h])

    for s, t, _ in trace.events():
        cs = int(labels[s])
        mask = np.ones(n, dtype=bool)
        mask[s] = False
        if out_adj[s]:
            mask[list(out_adj[s])] = False
        eligible = np.nonzero(mask)[0]
        if model == "dpa":
            w = ind1[eligible].copy()
        elif model == "dh":
            w = aff[np.where(labels[eligible] == cs, 0, 1)].copy()
        else:
            w = aff[np.where(labels[eligible] == cs, 0, 1)] * ind1[eligible]
        total = w.sum()
        probs = w / total if total > 0.0 else np.zeros(eligible.size)
        yield eligible, probs
        out_adj[s].add(t)
        ind1[t] += 1.0
