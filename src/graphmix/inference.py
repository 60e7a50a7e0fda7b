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
is then a vectorized array computation.  A :class:`GrowthTrace` is
checked whole, and its arrays frozen, when it is built: growth order and
a simple replayed graph, ``trace.graph``, included.  So every trace can be
scored, and scoring reads the trace's graph without building or checking
one.

* Undirected: in a growth trace, and in the order-assumed trace of
  :func:`trace_from_graph`, edge {u, w} exists before arrival v exactly when
  max(u, w) < v.  So what arrival v sees of a node's neighbourhood is the
  prefix below v of its row in the trace graph's CSR: snapshot degrees are
  one ``searchsorted``, and class degree totals and the mass already chosen
  in an arrival are (grouped) cumulative sums: O(E log E).  Only patch
  reads the triadic-closure sets, so they are built only when patch is
  scored: one sort of distinct (arrival, node, event) keys, a key per entry
  of the picked targets' rows below v (their snapshot degrees summed).
* Directed: target in-degrees, class totals and excluded counts are
  stable-sort ranks and grouped cumulative sums.  The (indeg + 1) mass of a
  source's earlier targets is path dependent.  Its part that grows after an
  event k is counted from the shorter of k's two lists of later events, its
  source's or its target's: O(sum over k of min(later out-events, later
  in-events)) sorted lookups, at most O(E * sqrt(E)), done in bounded
  chunks (see :func:`_excluded_mass`).
* Every model's grid has one shape: h rows x p_tc columns, with a
  length-1 axis for each parameter the model lacks (``_PARAMS``).  pa and
  dpa are 1 x 1, pah, dh and dpah 101 x 1, patch 101 x 101, so one argmax,
  one marginal and one fixed-parameter replay serve all six models.
* Grids are evaluated a few rows at a time into reused buffers, and no
  (h rows, events) array exists.  ln(a(h) * weight) takes 2 x (distinct
  weights) values per row, so each row logs that table and reads it by
  event code.  An event's ln P is monotone in h (non-decreasing for a
  same-class target, non-increasing for another), so two scored h rows
  bound every row between them, and only the rows that can come within
  800 of the peak are scored (see :func:`_row_search`): 40, 33 and 34 of
  101 for pah, dh and dpah on the benchmark traces, 28-32 at 2e5 events.
  The patch grid scores only the cells that can reach an output, found
  by a search along its concave p_tc rows (see :func:`_patch_grid`).  A
  skipped row or cell is ``-inf``: its true value is more than 745 below
  the peak, where ``exp`` is exactly 0, so it changes no fit, LRT or Bayes
  factor, and every computed value is the double a full evaluation gives.
  ``select_model`` with pa, pah and patch on
  ``gen_patch(100000, 3, 0.3, 0.8, 0.5, seed=1)`` takes 0.4 s on a 2-vCPU
  host (0.65 s with every h row), at a process peak of 99 MB RSS.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import NamedTuple

import numpy as np

from . import _check
from .generate import DIRECTED_MODELS, EventKind, GrowthTrace
from .graph import AttributedGraph, distinct
from .rng import check_seed, make_rng, sample_without_replacement

__all__ = [
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

# The free parameters of each model, in grid-axis order: h indexes a
# likelihood grid's rows and p_tc its columns, and each parameter a model
# lacks is a length-1 axis.
_PARAMS = {"pa": (), "pah": ("h",), "patch": ("h", "p_tc"), "dpa": (), "dh": ("h",), "dpah": ("h",)}
_MODEL_K = {model: len(params) for model, params in _PARAMS.items()}

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
class _Stats:
    """Per-event sufficient statistics of a trace's scored events, either family."""

    n_events: int
    n_fallback: int
    const_loglik: float   # summed fallback contributions
    same: np.ndarray      # target class == source class
    weight: np.ndarray    # the target's pick weight: degree, or indeg + 1 when directed
    sum_same: np.ndarray  # eligible weight sum, source's class
    sum_diff: np.ndarray  # eligible weight sum, other class
    # ln P where the candidate's weights vanish: the uniform fallback
    # -ln(eligible) per event, or -inf for the directed family, which has none
    fill: np.ndarray | float
    # eligible node counts by class, which dh alone reads: directed only
    cnt_same: np.ndarray | None = None
    cnt_diff: np.ndarray | None = None
    # the triadic-closure sets, which patch alone reads: None unless requested
    mixture: np.ndarray | None = None  # non-first pick with a non-empty triadic set
    tc_size: np.ndarray | None = None
    tc_hit: np.ndarray | None = None


# Event pairs handled at once by the chunked pair passes of the replay statistics.
_PAIR_CHUNK = 1 << 16

# The bits of a non-negative int64, the width of the triadic-closure sort keys.
_KEY_BITS = 63


def _arrival_groups(trace: GrowthTrace) -> np.ndarray:
    """Where each source's run of events starts, then len(trace)."""
    src = trace.sources
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
    return distinct(np.concatenate(([0], cuts, [cum.size - 1])))


def _undirected_stats(trace: GrowthTrace, triadic: bool) -> _Stats:
    """The per-event statistics of an undirected trace; with ``triadic``,
    the triadic-closure sets too (patch reads them, pa and pah do not)."""
    csr = trace.graph.csr()
    starts = _arrival_groups(trace)
    n, labels = trace.n, trace.labels
    src, tgt = trace.sources, trace.targets
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

    fallback = trace.kinds == EventKind.FALLBACK_UNIFORM
    const = 0.0
    for elig in n_elig[fallback].tolist():  # summed in event order
        const -= math.log(elig)
    scored = ~fallback
    stats = _Stats(
        n_events=int(scored.sum()),
        n_fallback=int(fallback.sum()),
        const_loglik=const,
        same=same[scored],
        weight=deg[scored].astype(np.float64),
        sum_same=sum_same[scored].astype(np.float64),
        sum_diff=sum_diff[scored].astype(np.float64),
        fill=-np.log(n_elig[scored].astype(np.float64)),
    )
    if triadic:
        tc_size, tc_hit = _triadic_sets(csr, tgt, deg, starts, first)
        stats.mixture = tc_size[scored] > 0
        stats.tc_size = tc_size[scored].astype(np.float64)
        stats.tc_hit = tc_hit[scored]
    return stats


def _triadic_sets(csr, tgt, deg, starts, first) -> tuple[np.ndarray, np.ndarray]:
    """Size of each pick's triadic-closure set, and whether the pick lies in it.

    The set of a pick is the union of the below-v rows of its arrival's
    earlier picks, minus those picks.  One sort, a chunk of whole arrivals
    at a time, lines up each (arrival, node)'s pick and its exposures (its
    entries in the rows of the arrival's picks but the last) in event
    order.  A run that opens with an exposure by event f puts the node in
    the sets from f+1 on; a pick that does not open its run is a hit, and
    takes the node out of the sets after it; a run that opens with the
    pick adds nothing.  The keys are the distinct bit fields ``arrival |
    node | event | is a pick``, arrival and event counted from the chunk's
    first (see :func:`_key_chunks`).
    """
    runs = np.diff(starts)
    arrival = np.repeat(np.arange(runs.size), runs)
    exposed = deg.copy()
    exposed[starts[1:] - 1] = 0  # an arrival's last pick exposes nothing
    cuts, node_at, arrival_at = _key_chunks(starts, exposed, csr.indptr.size - 1)
    nodes = csr.indices << node_at
    opened = np.zeros(tgt.size, dtype=np.int64)  # the runs each event opens
    hit = np.zeros(tgt.size, dtype=bool)
    # a chunk's int64 keys live in two buffers sized once for the largest chunk
    bounds = starts[cuts]
    n_keys = np.diff(np.concatenate(([0], np.cumsum(exposed)))[bounds]) + np.diff(bounds)
    buffers = np.empty((2, int(n_keys.max(initial=0))), dtype=np.int64)
    for a0, a1 in zip(cuts[:-1].tolist(), cuts[1:].tolist()):
        lo, hi = int(starts[a0]), int(starts[a1])
        ev = np.flatnonzero(exposed[lo:hi])
        if not ev.size:
            continue
        base = ((arrival[lo:hi] - a0) << arrival_at) | (np.arange(hi - lo) << 1)
        lens = exposed[lo + ev]
        row_ends = np.cumsum(lens)
        n_exposed = int(row_ends[-1])
        keys, field = buffers[:, :n_exposed + hi - lo]
        # the exposures' keys, then the picks'
        at = np.repeat(csr.indptr[tgt[lo + ev]] - row_ends + lens, lens)
        at += np.arange(n_exposed)
        np.take(nodes, at, out=keys[:n_exposed], mode="clip")  # in range; "clip" takes no copy
        keys[:n_exposed] += np.repeat(base[ev], lens)
        np.add(tgt[lo:hi] << node_at, base + 1, out=keys[n_exposed:])
        keys.sort()
        np.right_shift(keys, node_at, out=field)  # (arrival, node)
        opens = np.ones(keys.size, dtype=bool)
        np.not_equal(field[1:], field[:-1], out=opens[1:])
        is_pick = np.bitwise_and(keys, 1, out=field) != 0
        np.bitwise_and(keys, (1 << node_at) - 1, out=field)
        field >>= 1  # the event
        # picks that do not open their run are hits; exposures that do are
        # counted, and every other key past the chunk's events
        hit[lo + field[opens < is_pick]] = True
        field[opens <= is_pick] = hi - lo
        opened[lo:hi] = np.bincount(field, minlength=hi - lo + 1)[:hi - lo]
    return _group_exclusive_cumsum(opened - hit, first), hit


def _key_chunks(starts, exposed, n: int) -> tuple[np.ndarray, int, int]:
    """The arrivals that start each chunk of :func:`_triadic_sets` (then
    the arrival count), and where its keys' node and arrival fields start.

    Chunks hold about _PAIR_CHUNK exposures, and are cut further so that
    the arrival field has at most ``_KEY_BITS`` minus the bits below it:
    every key fits in int64.  One arrival does while n and the longest
    chunk's event count are below 2**31.
    """
    cuts = _chunk_cuts(np.concatenate(([0], np.cumsum(exposed)))[starts])
    node_at = int(np.diff(starts[cuts]).max(initial=0)).bit_length() + 1
    arrival_at = node_at + (n - 1).bit_length()
    cuts = distinct(np.concatenate((cuts, np.arange(0, starts.size - 1, 1 << (_KEY_BITS - arrival_at)))))
    return cuts, node_at, arrival_at


def _directed_stats(trace: GrowthTrace) -> _Stats:
    n, labels = trace.n, trace.labels
    src, tgt = trace.sources, trace.targets
    n_events = src.size
    idx = np.arange(n_events)
    n1 = int(labels.sum())
    n_class = np.array([n - n1, n1])
    cls_s = labels[src]
    same = labels[tgt] == cls_s

    # indeg(u) + 1 before event i: 1 + u's earlier events as a target
    targets = _key_runs(tgt, n)
    sources = _key_runs(src, n)
    by_source = sources.order
    ind1_t = 1 + targets.place - targets.start[tgt]
    # the source's keys s_i * E + i, looked up in ascending order (no key is
    # in both sets, as that would be a self-loop)
    ind1_s = np.empty(n_events, dtype=np.int64)
    ind1_s[by_source] = np.searchsorted(targets.keys, sources.keys)
    ind1_s += 1 - targets.start[src]

    # the source's earlier targets by class: their (indeg + 1) mass and their count
    first = sources.start[src[by_source]]
    mass_own, mass_oth = _excluded_mass(src, tgt, same, ind1_t, sources, targets, first)
    same_sorted = same[by_source]
    excl_own, excl_oth = np.empty((2, n_events), dtype=np.int64)
    excl_own[by_source] = _group_exclusive_cumsum(same_sorted, first)
    excl_oth[by_source] = _group_exclusive_cumsum(~same_sorted, first)
    # the float fields below are the peak of memory: free the sort arrays first
    del targets, sources, by_source, first, same_sorted

    # (indeg + 1) totals by class: one per node plus the earlier picks of the class
    picks1 = np.cumsum(labels[tgt]) - labels[tgt]
    own1 = cls_s == 1
    tot_own = n_class[cls_s] + np.where(own1, picks1, idx - picks1)
    tot_oth = n_class[1 - cls_s] + np.where(own1, idx - picks1, picks1)

    return _Stats(
        n_events=n_events,
        n_fallback=0,
        const_loglik=0.0,
        same=same,
        weight=ind1_t.astype(np.float64),
        sum_same=(tot_own - ind1_s - mass_own).astype(np.float64),
        sum_diff=(tot_oth - mass_oth).astype(np.float64),
        fill=-np.inf,
        cnt_same=(n_class[cls_s] - 1 - excl_own).astype(np.float64),
        cnt_diff=(n_class[1 - cls_s] - excl_oth).astype(np.float64),
    )


class _Runs(NamedTuple):
    """Events stably sorted by a node key in 0..n-1 (see :func:`_key_runs`)."""

    keys: np.ndarray   # the sorted keys ``key * E + event``
    order: np.ndarray  # the events in that order
    place: np.ndarray  # each event's position in it
    start: np.ndarray  # where each key's run starts (n + 1 values)


def _key_runs(keys: np.ndarray, n: int) -> _Runs:
    """The events stably sorted by ``keys``.

    The keys ``key * E + event`` are distinct, so a plain sort of them is
    the stable order, at a fraction of the cost of a stable ``argsort``.
    """
    n_events = keys.size
    sorted_keys = np.sort(keys * n_events + np.arange(n_events))
    order = sorted_keys % n_events
    place = np.empty(n_events, dtype=np.int64)
    place[order] = np.arange(n_events)
    start = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys, minlength=n), out=start[1:])
    return _Runs(sorted_keys, order, place, start)


def _pair_runs(order: np.ndarray, counts: np.ndarray, place: np.ndarray):
    """Yield ``(k, r, pos)`` over ``order`` in chunks of about _PAIR_CHUNK
    pairs: the chunk's events k, their pair counts r (``counts`` is given
    in ``order``'s order) and, event after event, the r positions after
    ``place[k]``."""
    cum = np.zeros(counts.size + 1, dtype=np.int64)
    np.cumsum(counts, out=cum[1:])
    cuts = _chunk_cuts(cum)
    for lo, hi in zip(cuts[:-1].tolist(), cuts[1:].tolist()):
        n_pairs = int(cum[hi] - cum[lo])
        if n_pairs:
            k, r = order[lo:hi], counts[lo:hi]
            yield k, r, np.repeat(place[k] + 1 - (cum[lo:hi] - cum[lo]), r) + np.arange(n_pairs)


def _excluded_mass(src, tgt, same, ind1_t, sources, targets, first) -> tuple[np.ndarray, np.ndarray]:
    """Sum of indeg(u) + 1 at event i over the source's earlier targets u, own class and other.

    ``sources`` and ``targets`` are the :func:`_key_runs` of the source and
    target ids, ``first`` the start of each by-source position's run.  An
    earlier event k of the source adds ``ind1_t[k] + 1 + Y(k, i)``, where
    ``Y(k, i)`` counts the events k < j < i that also pick t_k.  The first
    part is one grouped cumulative sum in by-source order.  Y is counted
    from the shorter of k's two lists of later events.  From the source's
    (i): ``Y(k, i)`` for each, a ``searchsorted`` in the target keys.  From
    the target's (j): +1 from the source's first event after j on, a
    ``searchsorted`` in the source keys.  The work is O(sum over k of
    min(later out-events, later in-events)), which is O(E * sqrt(E)) on any
    trace (Chiba & Nishizeki 1985), in chunks of about _PAIR_CHUNK pairs.
    """
    (skeys, by_source, pos_s, sstart), (tkeys, by_target, pos_t, tstart) = sources, targets
    n_events = tgt.size
    # each event's later events as a source and as a target, in by-target
    # order; the longer list's count is zeroed (on a tie, the target's)
    from_s = sstart[src[by_target] + 1] - pos_s[by_target] - 1
    from_t = tstart[tgt[by_target] + 1] - np.arange(n_events) - 1
    shorter_s = from_s <= from_t
    from_s[~shorter_s] = 0
    from_t[shorter_s] = 0
    # by-source order, one row per class: `spread` reaches the source's
    # events after a position, `here` that position alone
    own = same[by_source]
    spread = np.zeros((2, n_events), dtype=np.int64)
    spread[0, own] = ind1_t[by_source[own]] + 1
    spread[1, ~own] = ind1_t[by_source[~own]] + 1
    here = np.zeros((2, n_events), dtype=np.int64)
    flat_spread, flat_here = spread.reshape(-1), here.reshape(-1)
    for k, r, p in _pair_runs(by_target, from_s, pos_s):
        y = np.searchsorted(tkeys, np.repeat(tgt[k] * n_events, r) + by_source[p])
        y -= np.repeat(pos_t[k] + 1, r)
        np.add.at(flat_here, np.repeat(np.where(same[k], 0, n_events), r) + p, y)
    for k, r, q in _pair_runs(by_target, from_t, pos_t):
        # p: the source's first event after j, or the end of its run; a +1
        # at p - 1 reaches p and on (from the run's last event, nothing)
        p = np.searchsorted(skeys, np.repeat(src[k] * n_events, r) + by_target[q])
        np.add.at(flat_spread, np.repeat(np.where(same[k], -1, n_events - 1), r) + p, 1)
    del from_s, from_t  # before the cumulative sums, the peak of memory
    for c in range(2):
        here[c] += _group_exclusive_cumsum(spread[c], first)
    spread[:, by_source] = here  # back to event order
    return spread[0], spread[1]


def _stats_for(trace: GrowthTrace, triadic: bool):
    return _directed_stats(trace) if trace.directed else _undirected_stats(trace, triadic)


# ---------------------------------------------------------------------------
# grid likelihood evaluation
# ---------------------------------------------------------------------------

# Bytes of one block of grid rows; a block's few temporaries stay in cache.
_BLOCK_BYTES = 1 << 19


def _block_rows(row_len: int) -> int:
    return max(1, _BLOCK_BYTES // (8 * max(row_len, 1)))


class _Affinity:
    """ln P of each event under affinity weighting, a block of h rows at a time.

    P = a * weight / (h * den_same + (1 - h) * den_diff), where a is h for a
    same-class target and 1 - h otherwise (``weight`` None: 1).  Where the
    denominator is not positive, ln P is ``fill``.  The denominator sums
    the target's own weight too, so it is at least the numerator: where it
    is positive, a zero numerator logs to ``-inf`` by itself, which is the
    impossible-target score of both families and the directed family's
    fill.  ln(a * weight) takes at most 2 x (distinct weights) values in a
    row, so each row logs that table once and reads it by a per-event code:
    the same doubles as one log per event.
    """

    def __init__(self, same, weight, den_same, den_diff, fill):
        if weight is None:
            self.weights, code = np.ones(1), np.zeros(same.size, dtype=np.intp)
        else:
            self.weights, code = np.unique(weight, return_inverse=True)
        # a row's table: h * weights, then (1 - h) * weights
        self.code = np.where(same, code, code + self.weights.size)
        self.den_same, self.den_diff, self.fill = den_same, den_diff, fill
        self.by_class = np.argsort(~same, kind="stable")  # the same-class events first
        self.n_same = int(np.count_nonzero(same))

    def blocks(self, h: np.ndarray):
        """Yield ``(a, b, logp)``: ln P at h rows a..b-1, in a buffer reused by the next block."""
        n_rows, n_cols = h.size, self.code.size
        step = _block_rows(n_cols)
        shape = (min(step, n_rows), n_cols)
        logp, den, tmp = np.empty(shape), np.empty(shape), np.empty(shape)
        bad = np.empty(shape, dtype=bool)
        with np.errstate(divide="ignore", invalid="ignore"):
            for a in range(0, n_rows, step):
                b = min(a + step, n_rows)
                hc = h[a:b, None]
                w, d, t, cut = logp[:b - a], den[:b - a], tmp[:b - a], bad[:b - a]
                num = np.concatenate((hc * self.weights, (1.0 - hc) * self.weights), axis=1)
                np.multiply(hc, self.den_same, out=d)
                np.multiply(1.0 - hc, self.den_diff, out=t)
                d += t
                np.less_equal(d, 0.0, out=cut)
                np.log(num, out=num)
                np.take(num, self.code, axis=1, out=w, mode="clip")
                np.log(d, out=d)
                w -= d
                if cut.any():
                    np.copyto(w, self.fill, where=cut)
                yield a, b, w

    def sums(self, h: np.ndarray) -> np.ndarray:
        """Per h row, ln P summed over every event, then over the same-class
        and over the other-class events (in class order: these only bound
        rows, see :func:`_row_search`).  Shape (3, len(h))."""
        out = np.empty((3, h.size))
        for a, b, logp in self.blocks(h):
            out[0, a:b] = logp.sum(axis=1)
            by_class = logp.take(self.by_class, axis=1)
            out[1, a:b] = by_class[:, :self.n_same].sum(axis=1)
            out[2, a:b] = by_class[:, self.n_same:].sum(axis=1)
        return out


def _patch_events(stats: _Stats) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Indices of the pure affinity, hit and miss events of the triadic-closure mixture.

    A row gathered by event indices is the same 1-D copy as by a boolean
    mask, at a fraction of the cost.
    """
    if stats.mixture is None:
        raise RuntimeError("replay statistics built without the triadic-closure sets")
    return (
        np.flatnonzero(~stats.mixture),
        np.flatnonzero(stats.mixture & stats.tc_hit),
        np.flatnonzero(stats.mixture & ~stats.tc_hit),
    )


def _affinity(stats: _Stats, model: str, events=slice(None)) -> _Affinity:
    """The affinity pick of the scored ``events`` under pah, dh or dpah.

    dh weighs each eligible node by its affinity alone, so its
    denominators are the eligible counts.  Where a denominator vanishes,
    ln P is ``stats.fill``.
    """
    fill = stats.fill if np.ndim(stats.fill) == 0 else stats.fill[events]
    if model == "dh":
        return _Affinity(stats.same[events], None, stats.cnt_same[events], stats.cnt_diff[events], fill)
    return _Affinity(stats.same[events], stats.weight[events], stats.sum_same[events], stats.sum_diff[events], fill)


def _pa_logprob(stats: _Stats) -> np.ndarray:
    """ln P of each scored event under pa (weight: degree) or dpa (in-degree + 1).

    A directed event's denominator is at least its weight, so only undirected events take the fill."""
    den = stats.sum_same + stats.sum_diff
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(den > 0.0, np.log(stats.weight) - np.log(den), stats.fill)


_TINY = np.finfo(np.float64).tiny  # the smallest normal double

# A grid cell this far below the grid's peak adds exactly 0.0 to both trapz
# passes of the marginal likelihood and is never the argmax: float64 exp(x)
# is 0.0 for x < -745.14 (below half the smallest subnormal, 2**-1075).
_UNDERFLOW_CUT = 800.0

# Hit terms (cells x hit events) per call of the patch search: a row's first
# window and each widening step take at least 3 cells and about this many
# terms, so a row of a short trace is one call.
_CELL_BATCH = 1 << 14


def _row_search(n_rows: int, score, lift: float) -> np.ndarray:
    """Each h row's maximum where the row can reach an output, else ``-inf``.

    ``score(rows, peak)`` gives rows' maxima (h ascending) and their ln P
    sums over same-class and other-class events.  P = w / (S + (1/h - 1) *
    D) rises with h for a same-class target and falls for another (also
    with the fill: a denominator vanishes only where S or D, which holds
    the target's weight, is 0), so ``lift + same[b] + other[a]`` bounds
    every row strictly between scored rows a < b.  Rows first, middle and
    last are scored, then the middle row of each interval whose bound
    reaches the running peak minus _UNDERFLOW_CUT, until none does.
    """
    value = np.full(n_rows, -np.inf)
    same, other = np.empty((2, n_rows))
    scored = np.zeros(n_rows, dtype=bool)
    rows = distinct([0, (n_rows - 1) // 2, n_rows - 1])
    while rows.size:
        value[rows], same[rows], other[rows] = score(rows, value.max())
        scored[rows] = True
        known = np.flatnonzero(scored)
        a, b = known[:-1], known[1:]
        bound = lift + same[b] + other[a]
        reach = (bound >= value.max() - _UNDERFLOW_CUT) & (bound > -np.inf)
        rows = ((a + b) // 2)[(b - a > 1) & reach]
    return value


class _PatchCells:
    """Patch log-likelihood cells, one h row and any run of p_tc values at a time.

    A cell is ``base_h + n_miss * log(1 - p_tc)`` plus, over the hit
    events, ``log(p_tc / |tc| + (1 - p_tc) * P_aff)``.  :meth:`use_bases`
    sets rows' bases; a row's hit ``ln P_aff`` is evaluated when the row is
    first used.  Row ``len(h)``, base 0, has each hit's cap on ``P_aff``.
    Every run is evaluated by the same elementwise operations and one
    contiguous row sum per cell, so a cell's bits do not depend on the
    cells evaluated with it.
    """

    def __init__(self, stats: _Stats, h: np.ndarray, ptc: np.ndarray):
        self.h, self.ptc = h, ptc
        pure, hit, miss = _patch_events(stats)
        self.base_aff = [_affinity(stats, "pah", events) for events in (pure, miss)]
        self.const = stats.const_loglik
        self.bases = np.append(np.full(h.size, -np.inf), 0.0)  # each row's p_tc-free part
        self.hit_aff = _affinity(stats, "pah", hit)
        # P_aff <= w / S for a same-class hit and w / D for another; 1 where S or D is 0
        den_same, den_diff = stats.sum_same[hit], stats.sum_diff[hit]
        cap = np.divide(stats.weight[hit], np.where(stats.same[hit], den_same, den_diff),
                        out=np.ones(hit.size), where=(den_same > 0) & (den_diff > 0))
        with np.errstate(divide="ignore"):
            self.log_cap = np.log(cap)
            log_ptc_off = np.log(1.0 - ptc)  # -inf at p_tc = 1
        n_miss = miss.size
        self.miss_term = n_miss * log_ptc_off if n_miss else np.zeros_like(ptc)
        self.inv_tc = 1.0 / stats.tc_size[hit]
        # p_tc * P_tc of each hit event, a p_tc row computed when first used
        self.tc_rows = [None] * ptc.size
        self.aff_share = (1.0 - ptc)[:, None]
        self.step = _block_rows(self.inv_tc.size)
        self.buf = np.empty((min(self.step, ptc.size), self.inv_tc.size))
        self.current = -1

    def use_bases(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Set the bases of h rows ``rows``; return their ln P sums over the
        same-class and over the other-class pure and miss events."""
        pure, miss = (aff.sums(self.h[rows]) for aff in self.base_aff)
        # no miss event adds 0.0, which changes no base: const + pure is never -0.0
        self.bases[rows] = self.const + pure[0] + miss[0]
        return pure[1:] + miss[1:]

    def _use_row(self, hi: int) -> None:
        if hi != self.current:
            if hi == self.h.size:
                self.logp_aff_hit = self.log_cap
            else:
                (_, _, logp), = self.hit_aff.blocks(self.h[hi:hi + 1])
                self.logp_aff_hit = logp[0]
            self.p_aff_hit = np.exp(self.logp_aff_hit)
            # where P_aff underflows below the normal range (to a subnormal
            # or 0) but ln P_aff is finite, mix in log space
            self.under = np.flatnonzero((self.p_aff_hit < _TINY) & (self.logp_aff_hit > -np.inf))
            self.current = hi

    def cells(self, hi: int, a: int, b: int) -> np.ndarray:
        """Row ``hi``'s cells at p_tc values a..b-1, a block of p_tc rows at a time."""
        self._use_row(hi)
        base, ptc, tc_rows, under = self.bases[hi], self.ptc, self.tc_rows, self.under
        hit_term = np.empty(b - a)
        with np.errstate(divide="ignore", invalid="ignore"):
            for c in range(a, b, self.step):
                d = min(c + self.step, b)
                # p_tc * P_tc + (1 - p_tc) * P_aff of each hit event
                mix = self.buf[:d - c]
                np.multiply(self.aff_share[c:d], self.p_aff_hit, out=mix)
                for r in range(c, d):
                    if tc_rows[r] is None:
                        tc_rows[r] = ptc[r] * self.inv_tc
                    mix[r - c] += tc_rows[r]
                np.log(mix, out=mix)
                if under.size:
                    mix[:, under] = np.logaddexp(
                        np.log([tc_rows[r][under] for r in range(c, d)]),
                        np.log1p(-ptc[c:d])[:, None] + self.logp_aff_hit[under],
                    )
                hit_term[c - a:d - a] = mix.sum(axis=1)
        return base + self.miss_term[a:b] + hit_term


def _loglik_grid(stats, model: str, h_values=H_GRID, ptc_values=PTC_GRID) -> np.ndarray:
    """Log-likelihood of ``model`` over h_values (rows, ascending) x ptc_values (columns).

    An axis of a parameter the model lacks has length 1 and its values are
    not read: pa and dpa give 1 x 1, pah, dh and dpah len(h_values) x 1.
    Only the rows (and patch cells) that can reach an output are scored;
    the others are ``-inf`` (see :func:`_row_search`).
    """
    if stats.n_events == 0:
        raise ValueError("trace has zero scoreable events")
    if model == "patch":
        return _patch_grid(stats, h_values, ptc_values)
    if not _PARAMS[model]:
        return np.full((1, 1), stats.const_loglik + _pa_logprob(stats).sum())
    kernel, const = _affinity(stats, model), stats.const_loglik
    lift = np.array([[const], [0.0], [0.0]])  # onto each row's total
    return _row_search(h_values.size, lambda rows, peak: kernel.sums(h_values[rows]) + lift, const)[:, None]


def _patch_grid(stats: _Stats, h_values, ptc_values) -> np.ndarray:
    """The patch log-likelihood grid (``ptc_values`` ascending).

    It holds only the cells that can reach the argmax or the two trapz
    passes over ``exp(grid - peak)`` of the marginal; every other cell is
    ``-inf``.  At a fixed h a cell is a base plus ``n_miss * log(1 - p)``
    plus a sum of ``log(p / |tc| + (1 - p) * P_aff)``: concave in p.  A
    hit's ``P_aff`` is at most w / S for a same-class target and w / D for
    another (1 where S or D is 0) at every h, so the cap row's maximum
    ``cap`` bounds every row above its base, and :func:`_row_search` over
    the pure and miss events, ``cap`` added, finds the rows.  Pass 1 climbs
    a found row to its maximum where its ``base + cap`` reaches the running
    peak minus ``_UNDERFLOW_CUT``, highest bound first.  Pass 2 widens each
    row whose maximum reaches that cut until its outermost cells fall below
    it; by concavity every cell beyond is lower still.  A skipped cell is
    more than 745.14 below the peak, so its ``exp`` is 0.0 as that of
    ``-inf`` and it is not the argmax; a computed one has the bits of a
    full evaluation, so fits, LRTs and Bayes factors are byte-identical to
    one.  On the benchmark's patch trace (n = 1e4) 40 of 101 rows are
    found and 29 climbed, 696 cells against 903; at 2e5 events 30 and 13,
    144 cells against 399.
    """
    cells = _PatchCells(stats, h_values, ptc_values)
    n_h, n_p = h_values.size, ptc_values.size
    out = np.full((n_h + 1, n_p), -np.inf)  # the last row is the cap row
    width = min(n_p, max(3, _CELL_BATCH // max(cells.inv_tc.size, 1)))

    def widen(hi: int, lo: int, up: int, new_lo: int, new_up: int) -> tuple[int, int]:
        if new_lo < lo:
            out[hi, new_lo:lo] = cells.cells(hi, new_lo, lo)
        if up < new_up:
            out[hi, up:new_up] = cells.cells(hi, up, new_up)
        return new_lo, new_up

    # pass 1: a climbed row's [lo, up) of computed cells holds its maximum
    spans = {}
    top = n_p // 2

    def climb(hi: int) -> float:
        nonlocal top
        lo = max(0, min(top - width // 2, n_p - width))
        lo, up = widen(hi, lo, lo, lo, lo + width)
        step = width
        while True:
            top = lo + int(np.argmax(out[hi, lo:up]))
            if top == up - 1 and up < n_p:
                lo, up = widen(hi, lo, up, lo, min(up + step, n_p))
            elif top == lo and lo > 0:
                lo, up = widen(hi, lo, up, max(lo - step, 0), up)
            else:
                break
            step *= 2
        spans[hi] = (lo, up)
        return out[hi, top]

    cap = climb(n_h)
    del spans[n_h]

    def score(rows, peak):
        same, other = cells.use_bases(rows)
        bound = cells.bases[rows] + cap
        value = np.full(rows.size, -np.inf)
        for j in np.argsort(-bound, kind="stable"):
            if bound[j] > -np.inf and bound[j] >= peak - _UNDERFLOW_CUT:
                value[j] = climb(int(rows[j]))
                peak = max(peak, value[j])
        return value, same, other

    _row_search(n_h, score, stats.const_loglik + cap)

    # pass 2: widen the rows that reach the cut.  Rows are taken towards the
    # peak's row from either end, each first widened to the span of the one
    # before, which is about the same or a little narrower: the same cells
    # as steps of `width` alone, in fewer calls.
    grid = out[:n_h]
    row_max = grid.max(axis=1)
    cut = float(row_max.max()) - _UNDERFLOW_CUT
    top = int(np.argmax(row_max))
    for rows in ([hi for hi in sorted(spans) if hi <= top], [hi for hi in sorted(spans)[::-1] if hi > top]):
        left, right = n_p, 0
        for hi in rows:
            lo, up = spans[hi]
            if row_max[hi] < cut:
                continue
            while lo > 0 and grid[hi, lo] >= cut:
                lo, up = widen(hi, lo, up, max(min(lo - width, left), 0), up)
            while up < n_p and grid[hi, up - 1] >= cut:
                lo, up = widen(hi, lo, up, lo, min(max(up + width, right), n_p))
            left, right = lo, up
    return grid


def _check_family(trace: GrowthTrace, model: str) -> None:
    if model not in _PARAMS:
        raise ValueError(f"unknown model {model!r}")
    directed = model in DIRECTED_MODELS
    if directed != trace.directed:
        kind = ("undirected", "directed")
        raise ValueError(f"model {model} is {kind[directed]} but the trace is {kind[trace.directed]}")


def _check_param(name: str, value: float | None) -> float:
    if value is None:
        raise ValueError(f"parameter {name} is required for this model")
    return float(_check.interval(f"parameter {name}", value, 0, 1))


def _checked_params(model: str, h: float | None, p_tc: float | None) -> tuple:
    """``(h, p_tc)``: each checked if ``model`` has it, else None."""
    values = (("h", h), ("p_tc", p_tc))
    return tuple(_check_param(name, v) if name in _PARAMS[model] else None for name, v in values)


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
    stats = _stats_for(trace, model == "patch")
    h, p_tc = _checked_params(model, h, p_tc)
    # a 1 x 1 grid; the value None stands on an axis the model lacks, which is not read
    grid = _loglik_grid(stats, model, np.array([h]), np.array([p_tc]))
    return float(grid[0, 0]), stats.n_events


# ---------------------------------------------------------------------------
# fitting and selection
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FitReport:
    """Grid-MLE result for one candidate model on one trace; no estimate where every grid value is -inf."""

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
        k, log_lik = _MODEL_K[model], float(log_lik)
        aic, bic = 2.0 * k - 2.0 * log_lik, k * math.log(n_events) - 2.0 * log_lik
        return cls(model, h_hat, p_tc_hat, log_lik, k, n_events, n_fallback, aic, bic, order_assumed)


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
    hi, pi = divmod(int(np.argmax(grid)), grid.shape[1])
    params = _PARAMS[model] if grid[hi, pi] > -np.inf else ()  # no estimate where no value can give the trace
    h_hat = float(H_GRID[hi]) if "h" in params else None
    p_hat = float(PTC_GRID[pi]) if "p_tc" in params else None
    return FitReport.build(
        model, h_hat, p_hat, grid[hi, pi], stats.n_events, stats.n_fallback, order_assumed
    )


def _log_marginal(grid: np.ndarray) -> float:
    """Log marginal likelihood under a uniform prior over the grid range."""
    peak = float(np.max(grid))
    if peak == -np.inf:
        return -np.inf
    z = np.exp(grid - peak)
    for axis in (1, 0):  # p_tc, then h; the axis of a parameter the model lacks has one value
        z = _trapz(z, dx=0.01, axis=axis) if z.shape[axis] > 1 else z.take(0, axis)
    return peak + math.log(float(z))


def _fit_models(trace: GrowthTrace, models: list[str]) -> tuple[dict, dict]:
    """The grid fit and the log marginal likelihood of each (lower-case) model.

    One replay serves every model.  The triadic-closure sets are built
    only when patch is scored.
    """
    for model in models:
        _check_family(trace, model)
    stats = _stats_for(trace, "patch" in models)
    fits, marginals = {}, {}
    for model in models:
        grid = _loglik_grid(stats, model)
        fits[model] = _fit_from_grid(model, grid, stats, trace.order_assumed)
        marginals[model] = _log_marginal(grid)
    return fits, marginals


def fit_model(trace: GrowthTrace, model: str) -> FitReport:
    """Grid maximum-likelihood fit of one model to one trace."""
    model = model.lower()
    return _fit_models(trace, [model])[0][model]


def lrt(nested: FitReport, full: FitReport) -> tuple[float, int, float]:
    """Likelihood-ratio test of a nested model against its fuller model.

    Returns ``(statistic, df, p)``: the statistic clamped at zero and its
    chi-square tail, ``erfc(sqrt(stat / 2))`` at df 1, ``exp(-stat / 2)`` at
    df 2 (the only dfs: each nested pair adds h, p_tc or both).

    Both fits must come from one trace.  Fits whose ``n_events``,
    ``n_fallback`` or ``order_assumed`` differ cannot, and are refused; the
    check is partial, so fits of two traces with equal counts still pass.
    A fuller fit of log-likelihood -inf has no ratio and is refused.
    """
    if (nested.model, full.model) not in NESTED_PAIRS:
        raise ValueError(f"models {nested.model!r} and {full.model!r} are not nested")
    for name in ("n_events", "n_fallback", "order_assumed"):
        a, b = getattr(nested, name), getattr(full, name)
        if a != b:
            raise ValueError(f"the fits come from different traces: {name} {a} and {b}")
    if full.log_lik == -math.inf:
        raise ValueError(f"no value of model {full.model!r} gives the trace: there is no likelihood ratio")
    stat = max(0.0, 2.0 * (full.log_lik - nested.log_lik))
    df = full.k - nested.k
    p = math.erfc(math.sqrt(stat / 2.0)) if df == 1 else math.exp(-stat / 2.0)
    return stat, df, p


def bayes_factor(trace: GrowthTrace, model_a: str, model_b: str) -> float:
    """log10 Bayes factor of model_a over model_b on one trace."""
    model_a, model_b = model_a.lower(), model_b.lower()
    z = _fit_models(trace, [model_a, model_b])[1]
    return (z[model_a] - z[model_b]) / math.log(10.0)


def select_model(
    trace: GrowthTrace, candidates: list[str], criterion: str = "bic"
) -> SelectionTable:
    """Fit every candidate and rank them, with pairwise comparisons.

    Candidates must be distinct and from one family.  Ranking is ascending
    by ``criterion`` (``"bic"`` default, ``"aic"`` supported).  Pairs are
    enumerated with the smaller-k model first; the LRT is filled for nested
    pairs whose fuller fit is finite, the Bayes factor for all pairs.
    """
    candidates = [c.lower() for c in candidates]
    if not candidates:
        raise ValueError("candidate list must be non-empty")
    if len(set(candidates)) != len(candidates):
        raise ValueError("candidate list contains duplicates")
    if criterion not in ("bic", "aic"):
        raise ValueError(f"criterion must be 'bic' or 'aic', got {criterion!r}")
    fits, marginals = _fit_models(trace, candidates)

    ordered = sorted(candidates, key=lambda c: (_MODEL_K[c], c))
    comparisons = []
    for a, b in combinations(ordered, 2):
        bf = (marginals[a] - marginals[b]) / math.log(10.0)
        if (a, b) in NESTED_PAIRS and fits[b].log_lik > -math.inf:
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
    The resulting trace carries ``order_assumed=True``, and its ``graph``
    is ``g`` itself: the events are ``g``'s own edges.
    """
    check_seed(seed)  # also where no order is drawn
    if g.directed:
        srcs, tgts = g.edge_arrays()
        order = sample_without_replacement(make_rng(seed), srcs.size, srcs.size)
        srcs, tgts = srcs[order], tgts[order]
    else:
        csr = g.csr()
        owner = np.repeat(np.arange(g.n, dtype=np.int64), csr.out_degree())
        lower = csr.indices < owner
        srcs, tgts = owner[lower], csr.indices[lower]
    kinds = np.full(srcs.size, int(EventKind.DIRECTED_PICK if g.directed else EventKind.PAH_PICK), dtype=np.int8)
    return GrowthTrace(g.directed, g.labels, srcs, tgts, kinds, order_assumed=True, replays=g)


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
    h, p_tc = _checked_params(model, h, p_tc)
    if trace.directed:
        return _replay_vectors_directed(trace, model, h)
    return _replay_vectors_undirected(trace, model, h, p_tc)


def _replay_vectors_undirected(trace, model, h, p_tc):
    labels, csr, starts = trace.labels, trace.graph.csr(), _arrival_groups(trace)
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
    ind1 = np.ones(n, dtype=np.float64)
    # target weights by source class, kept current as in-degrees grow
    if model == "dpa":
        weights = (ind1, ind1)
    else:
        aff = np.array([h, 1.0 - h])
        class_aff = tuple(aff[np.where(trace.labels == c, 0, 1)] for c in (0, 1))
        weights = class_aff if model == "dh" else tuple(a * ind1 for a in class_aff)
    # the out-neighbours of s before event i are the targets of s's earlier events:
    # a prefix of s's row when the events are grouped by source in event order
    order = np.argsort(trace.sources, kind="stable")
    by_source = trace.targets[order]
    row_start = np.searchsorted(trace.sources[order], trace.sources).tolist()
    row_pos = np.empty(len(order), dtype=np.int64)
    row_pos[order] = np.arange(len(order))

    for s, t, lo, hi in zip(trace.sources.tolist(), trace.targets.tolist(), row_start, row_pos.tolist()):
        mask = np.ones(n, dtype=bool)
        mask[s] = False
        mask[by_source[lo:hi]] = False
        eligible = mask.nonzero()[0]
        w = weights[trace.labels[s]][eligible]
        total = w.sum()
        probs = w / total if total > 0.0 else np.zeros(eligible.size)
        yield eligible, probs
        ind1[t] += 1.0
        if model == "dpah":
            for w_c, a_c in zip(weights, class_aff):
                w_c[t] = a_c[t] * ind1[t]
