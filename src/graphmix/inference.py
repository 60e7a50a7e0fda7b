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

Replay is done once per trace to extract per-event sufficient statistics;
evaluating the likelihood over a whole parameter grid is then a vectorized
array computation, which is what makes the 101x101 grid MLE cheap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np
from scipy.special import gammaincc

from .generate import (
    DIRECTED_MODELS,
    UNDIRECTED_MODELS,
    EventKind,
    GrowthTrace,
)
from .graph import AttributedGraph, MixingMatrix
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


def _arrival_groups(trace: GrowthTrace) -> list[tuple[int, list[int]]]:
    """Group event indices by source, validating growth order."""
    groups: list[tuple[int, list[int]]] = []
    sources = trace.sources
    targets = trace.targets
    prev = -1
    for i in range(len(sources)):
        s, t = int(sources[i]), int(targets[i])
        if t >= s:
            raise ValueError(f"event {i}: target {t} not below source {s}; not a growth trace")
        if s < prev:
            raise ValueError(f"event {i}: source {s} out of arrival order")
        if s == prev:
            groups[-1][1].append(i)
        else:
            groups.append((s, [i]))
            prev = s
    if trace.m is not None:
        expected = [(v, trace.m) for v in range(trace.m, trace.n)]
        actual = [(s, len(idx)) for s, idx in groups]
        if actual != expected:
            raise ValueError("trace does not have m events per arrival for every node >= m")
    return groups


def _undirected_stats(trace: GrowthTrace) -> _UndirectedStats:
    if trace.directed:
        raise ValueError("trace is directed; undirected stats requested")
    n = trace.n
    labels = trace.labels
    m = trace.m or 0
    adj: list[set[int]] = [set() for _ in range(n)]
    deg = np.zeros(n, dtype=np.float64)
    for i in range(m):
        for j in range(i + 1, m):
            adj[i].add(j)
            adj[j].add(i)
    deg[:m] = max(m - 1, 0)

    tot = [0.0, 0.0]  # degree sums over already-arrived nodes, by class
    joined = 0

    deg_t: list[float] = []
    same: list[bool] = []
    sum_same: list[float] = []
    sum_diff: list[float] = []
    n_elig: list[int] = []
    mixture: list[bool] = []
    tc_size: list[int] = []
    tc_hit: list[bool] = []
    n_fallback = 0
    const = 0.0

    for v, idxs in _arrival_groups(trace):
        while joined < v:
            tot[labels[joined]] += deg[joined]
            joined += 1
        cls_v = int(labels[v])
        adj_used = [0.0, 0.0]  # degree mass of already-chosen targets, by class
        chosen: list[int] = []
        for j, i in enumerate(idxs):
            t = int(trace.targets[i])
            kind = EventKind(trace.kinds[i])
            elig = v - len(chosen)
            if kind is EventKind.FALLBACK_UNIFORM:
                n_fallback += 1
                const -= math.log(elig)
            else:
                deg_t.append(deg[t])
                is_same = labels[t] == cls_v
                same.append(bool(is_same))
                s_own = tot[cls_v] - adj_used[cls_v]
                s_oth = tot[1 - cls_v] - adj_used[1 - cls_v]
                sum_same.append(s_own)
                sum_diff.append(s_oth)
                n_elig.append(elig)
                if j == 0:
                    mixture.append(False)
                    tc_size.append(0)
                    tc_hit.append(False)
                else:
                    tc = set()
                    for u in chosen:
                        tc |= adj[u]
                    tc.discard(v)
                    tc.difference_update(chosen)
                    mixture.append(bool(tc))
                    tc_size.append(len(tc))
                    tc_hit.append(t in tc)
            adj_used[labels[t]] += deg[t]
            chosen.append(t)
        for t in chosen:
            adj[v].add(t)
            adj[t].add(v)
            deg[t] += 1.0
            tot[labels[t]] += 1.0
        deg[v] += float(len(chosen))

    return _UndirectedStats(
        n_events=len(deg_t),
        n_fallback=n_fallback,
        const_loglik=const,
        deg_t=np.asarray(deg_t),
        same=np.asarray(same, dtype=bool),
        sum_same=np.asarray(sum_same),
        sum_diff=np.asarray(sum_diff),
        n_elig=np.asarray(n_elig, dtype=np.float64),
        mixture=np.asarray(mixture, dtype=bool),
        tc_size=np.asarray(tc_size, dtype=np.float64),
        tc_hit=np.asarray(tc_hit, dtype=bool),
    )


def _directed_stats(trace: GrowthTrace) -> _DirectedStats:
    if not trace.directed:
        raise ValueError("trace is undirected; directed stats requested")
    n = trace.n
    labels = trace.labels
    n_class = [int((labels == 0).sum()), int((labels == 1).sum())]
    ind1 = np.ones(n, dtype=np.float64)
    tot_ind1 = [float(n_class[0]), float(n_class[1])]
    out_adj: list[set[int]] = [set() for _ in range(n)]

    same: list[bool] = []
    ind1_t: list[float] = []
    sum_same: list[float] = []
    sum_diff: list[float] = []
    cnt_same: list[float] = []
    cnt_diff: list[float] = []

    for i in range(len(trace)):
        s, t = int(trace.sources[i]), int(trace.targets[i])
        cs = int(labels[s])
        excl_sum = [0.0, 0.0]
        excl_cnt = [0, 0]
        for u in out_adj[s]:
            cu = labels[u]
            excl_sum[cu] += ind1[u]
            excl_cnt[cu] += 1
        s_own = tot_ind1[cs] - ind1[s] - excl_sum[cs]
        s_oth = tot_ind1[1 - cs] - excl_sum[1 - cs]
        c_own = n_class[cs] - 1 - excl_cnt[cs]
        c_oth = n_class[1 - cs] - excl_cnt[1 - cs]
        same.append(labels[t] == cs)
        ind1_t.append(ind1[t])
        sum_same.append(s_own)
        sum_diff.append(s_oth)
        cnt_same.append(float(c_own))
        cnt_diff.append(float(c_oth))
        out_adj[s].add(t)
        ind1[t] += 1.0
        tot_ind1[labels[t]] += 1.0

    return _DirectedStats(
        n_events=len(same),
        same=np.asarray(same, dtype=bool),
        ind1_t=np.asarray(ind1_t),
        sum_same=np.asarray(sum_same),
        sum_diff=np.asarray(sum_diff),
        cnt_same=np.asarray(cnt_same),
        cnt_diff=np.asarray(cnt_diff),
    )


def _stats_for(trace: GrowthTrace):
    return _directed_stats(trace) if trace.directed else _undirected_stats(trace)


# ---------------------------------------------------------------------------
# grid likelihood evaluation
# ---------------------------------------------------------------------------

def _aff_pick_logprob(stats: _UndirectedStats, h: np.ndarray) -> np.ndarray:
    """ln P of each scored event under affinity-weighted attachment.

    Shape (len(h), n_events).  A zero denominator means the candidate's own
    weights vanish, which triggers the model's uniform fallback.
    """
    hc = h[:, None]
    wsel = np.where(stats.same[None, :], hc, 1.0 - hc) * stats.deg_t[None, :]
    den = hc * stats.sum_same[None, :] + (1.0 - hc) * stats.sum_diff[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        logp = np.where(den > 0.0, np.log(wsel) - np.log(den), -np.log(stats.n_elig)[None, :])
    return logp


def _pa_logprob(stats: _UndirectedStats) -> np.ndarray:
    den = stats.sum_same + stats.sum_diff
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(den > 0.0, np.log(stats.deg_t) - np.log(den), -np.log(stats.n_elig))


def _loglik_grid_undirected(
    stats: _UndirectedStats,
    model: str,
    h_values: np.ndarray,
    ptc_values: np.ndarray | None = None,
) -> np.ndarray:
    if stats.n_events == 0:
        raise ValueError("trace has zero scoreable events")
    if model == "pa":
        return np.asarray(stats.const_loglik + _pa_logprob(stats).sum())
    if model == "pah":
        return stats.const_loglik + _aff_pick_logprob(stats, h_values).sum(axis=1)
    if model != "patch":
        raise ValueError(f"not an undirected model: {model!r}")

    ptc = PTC_GRID if ptc_values is None else ptc_values
    pure = ~stats.mixture
    hit = stats.mixture & stats.tc_hit
    miss = stats.mixture & ~stats.tc_hit
    n_miss = int(miss.sum())
    with np.errstate(divide="ignore"):
        log_ptc_off = np.log(1.0 - ptc)  # -inf at p_tc = 1
    tc_prob_hit = 1.0 / stats.tc_size[hit]

    logp_aff = _aff_pick_logprob(stats, h_values)
    out = np.empty((h_values.size, ptc.size))
    for hi in range(h_values.size):
        row = logp_aff[hi]
        base = stats.const_loglik + row[pure].sum()
        if n_miss:
            base = base + row[miss].sum()
            miss_term = n_miss * log_ptc_off
        else:
            miss_term = np.zeros_like(ptc)
        p_aff_hit = np.exp(row[hit])
        with np.errstate(divide="ignore", invalid="ignore"):
            hit_term = np.log(
                ptc[:, None] * tc_prob_hit[None, :]
                + (1.0 - ptc)[:, None] * p_aff_hit[None, :]
            ).sum(axis=1)
        out[hi] = base + miss_term + hit_term
    return out


def _loglik_grid_directed(
    stats: _DirectedStats, model: str, h_values: np.ndarray
) -> np.ndarray:
    if stats.n_events == 0:
        raise ValueError("trace has zero scoreable events")
    with np.errstate(divide="ignore", invalid="ignore"):
        if model == "dpa":
            den = stats.sum_same + stats.sum_diff
            return np.asarray((np.log(stats.ind1_t) - np.log(den)).sum())
        hc = h_values[:, None]
        if model == "dh":
            wsel = np.where(stats.same[None, :], hc, 1.0 - hc)
            den = hc * stats.cnt_same[None, :] + (1.0 - hc) * stats.cnt_diff[None, :]
        elif model == "dpah":
            wsel = np.where(stats.same[None, :], hc, 1.0 - hc) * stats.ind1_t[None, :]
            den = hc * stats.sum_same[None, :] + (1.0 - hc) * stats.sum_diff[None, :]
        else:
            raise ValueError(f"not a directed model: {model!r}")
        # den >= wsel, so wsel == 0 covers both the zero-probability-target
        # case and the no-candidate-has-weight case (no fallback when directed)
        logp = np.where(wsel > 0, np.log(wsel) - np.log(den), -np.inf)
        return logp.sum(axis=1)


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


def _model_grid(stats, model: str) -> np.ndarray:
    if isinstance(stats, _DirectedStats):
        return _loglik_grid_directed(stats, model, H_GRID)
    return _loglik_grid_undirected(stats, model, H_GRID)


def fit_model(trace: GrowthTrace, model: str) -> FitReport:
    """Grid maximum-likelihood fit of one model to one trace."""
    model = model.lower()
    _check_family(trace, model)
    stats = _stats_for(trace)
    grid = _model_grid(stats, model)
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
    stats = _stats_for(trace)
    za = _log_marginal(model_a, _model_grid(stats, model_a))
    zb = _log_marginal(model_b, _model_grid(stats, model_b))
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
    grids = {c: _model_grid(stats, c) for c in candidates}
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
        return _replay_vectors_directed(trace, model, h)
    return _replay_vectors_undirected(trace, model, h, p_tc)


def _replay_vectors_undirected(trace, model, h, p_tc):
    n = trace.n
    labels = trace.labels
    m = trace.m or 0
    adj: list[set[int]] = [set() for _ in range(n)]
    deg = np.zeros(n, dtype=np.float64)
    for i in range(m):
        for j in range(i + 1, m):
            adj[i].add(j)
            adj[j].add(i)
    deg[:m] = max(m - 1, 0)
    aff = None if h is None else np.array([h, 1.0 - h])

    for v, idxs in _arrival_groups(trace):
        chosen: list[int] = []
        cls_v = int(labels[v])
        for j, i in enumerate(idxs):
            t = int(trace.targets[i])
            kind = EventKind(trace.kinds[i])
            eligible = np.array([u for u in range(v) if u not in chosen], dtype=np.int64)
            if kind is EventKind.FALLBACK_UNIFORM:
                probs = np.full(eligible.size, 1.0 / eligible.size)
            else:
                if model == "pa":
                    w = deg[eligible].copy()
                else:
                    w = aff[np.where(labels[eligible] == cls_v, 0, 1)] * deg[eligible]
                total = w.sum()
                base = w / total if total > 0.0 else np.full(eligible.size, 1.0 / eligible.size)
                if model == "patch" and j >= 1:
                    tc = set()
                    for u in chosen:
                        tc |= adj[u]
                    tc.discard(v)
                    tc.difference_update(chosen)
                    if tc:
                        probs = (1.0 - p_tc) * base
                        pos = np.isin(eligible, sorted(tc))
                        probs[pos] += p_tc / len(tc)
                    else:
                        probs = base
                else:
                    probs = base
            yield eligible, probs
            chosen.append(t)
        for t in chosen:
            adj[v].add(t)
            adj[t].add(v)
            deg[t] += 1.0
        deg[v] += float(len(chosen))


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
