"""The six generative network models.

Undirected growth family (labels fixed upfront, nodes arrive one at a time
and attach m edges each):

* ``pa``    -- plain preferential attachment,
* ``pah``   -- preferential attachment weighted by class affinity,
* ``patch`` -- ``pah`` plus a triadic-closure step that, with probability
  ``p_tc``, closes a triangle through an already-chosen target.

Directed fixed-n family (all nodes exist upfront, edges placed until a
density target is met; sources drawn by heavy-tailed activity):

* ``dpa``  -- target weight indeg+1,
* ``dh``   -- target weight class affinity only,
* ``dpah`` -- target weight affinity * (indeg+1).

Every generator returns ``(AttributedGraph, GrowthTrace)``.  The trace is
the ordered record of edge events; replaying it from the seed state
reproduces the final graph exactly and enables exact pick-by-pick
likelihoods (see :mod:`graphmix.inference`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum
from typing import Iterator

import numpy as np

from .graph import AttributedGraph, MixingMatrix, assign_classes
from .rng import make_rng, pick_from_cumulative, rand_below, weighted_pick

__all__ = [
    "EventKind",
    "GrowthTrace",
    "GenParams",
    "SaturationError",
    "UNDIRECTED_MODELS",
    "DIRECTED_MODELS",
    "ALL_MODELS",
    "gen_pa",
    "gen_pah",
    "gen_patch",
    "gen_directed",
    "generate",
    "sample_activity",
    "activity_from_uniform",
    "rebuild_graph",
]

UNDIRECTED_MODELS = ("pa", "pah", "patch")
DIRECTED_MODELS = ("dpa", "dh", "dpah")
ALL_MODELS = UNDIRECTED_MODELS + DIRECTED_MODELS

# Consecutive failed source draws tolerated before a directed generator
# declares the density target unreachable.
SATURATION_RETRIES = 1000


class SaturationError(RuntimeError):
    """Directed generator cannot place the density-mandated edge count."""

    def __init__(self, placed: int, target: int):
        self.placed = placed
        self.target = target
        super().__init__(
            f"saturated after {SATURATION_RETRIES} consecutive failed source draws: "
            f"placed {placed} of {target} edges"
        )


class EventKind(IntEnum):
    PAH_PICK = 0
    TC_PICK = 1
    FALLBACK_UNIFORM = 2
    DIRECTED_PICK = 3


EVENT_KIND_NAMES = {
    EventKind.PAH_PICK: "pah-pick",
    EventKind.TC_PICK: "tc-pick",
    EventKind.FALLBACK_UNIFORM: "fallback-uniform",
    EventKind.DIRECTED_PICK: "directed-pick",
}
EVENT_KIND_FROM_NAME = {v: k for k, v in EVENT_KIND_NAMES.items()}


@dataclass(frozen=True)
class GrowthTrace:
    """Ordered edge events plus the context needed to replay them.

    For undirected growth traces ``m`` is the per-arrival edge count and the
    replay start state is a complete graph on nodes ``0..m-1``; sources then
    run ``m..n-1`` with exactly ``m`` events each.  ``m is None`` marks a
    synthesized trace (edge order assumed, empty start state, sources
    non-decreasing with arbitrary group sizes).  Directed traces replay from
    an empty n-node graph in event order.
    """

    directed: bool
    labels: np.ndarray
    sources: np.ndarray
    targets: np.ndarray
    kinds: np.ndarray
    m: int | None = None
    order_assumed: bool = False

    @property
    def n(self) -> int:
        return self.labels.size

    def __len__(self) -> int:
        return self.sources.size

    def events(self) -> Iterator[tuple[int, int, EventKind]]:
        for s, t, k in zip(self.sources, self.targets, self.kinds):
            yield int(s), int(t), EventKind(k)


@dataclass(frozen=True)
class GenParams:
    """Full parameter record for any of the six models.

    Parameters irrelevant to the chosen model may be left ``None``.
    """

    model: str
    n: int
    seed: int = 0
    m: int | None = None
    f_m: float | None = None
    H: MixingMatrix | None = None
    p_tc: float | None = None
    d: float | None = None
    gamma_a: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "model", self.model.lower())

    def validate(self) -> None:
        if self.model not in ALL_MODELS:
            raise ValueError(f"unknown model {self.model!r}; expected one of {ALL_MODELS}")
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if self.model in UNDIRECTED_MODELS:
            if self.m is None or not 1 <= self.m < self.n:
                raise ValueError(f"need 1 <= m < n for model {self.model}, got m={self.m}")
            if self.model in ("pah", "patch"):
                if self.f_m is None or self.H is None:
                    raise ValueError(f"model {self.model} requires f_m and H")
            if self.model == "patch":
                if self.p_tc is None or not 0.0 <= self.p_tc <= 1.0:
                    raise ValueError(f"p_tc must lie in [0, 1], got {self.p_tc}")
        else:
            if self.d is None or not 0.0 < self.d <= 1.0:
                raise ValueError(f"density d must lie in (0, 1], got {self.d}")
            if round(self.d * self.n * (self.n - 1)) < 1:
                raise ValueError("density target round(d*n*(n-1)) must be >= 1")
            if self.f_m is None:
                raise ValueError(f"model {self.model} requires f_m")
            if self.model in ("dh", "dpah") and self.H is None:
                raise ValueError(f"model {self.model} requires H")
            if self.gamma_a is not None and self.gamma_a <= 1.0:
                raise ValueError(f"gamma_a must be > 1, got {self.gamma_a}")


def generate(params: GenParams) -> tuple[AttributedGraph, GrowthTrace]:
    """Dispatch to the generator named by ``params.model``."""
    params.validate()
    model = params.model
    if model == "pa":
        return gen_pa(params.n, params.m, params.seed)
    if model == "pah":
        return gen_pah(params.n, params.m, params.f_m, params.H, params.seed)
    if model == "patch":
        return gen_patch(params.n, params.m, params.f_m, params.H, params.p_tc, params.seed)
    gamma_a = 2.5 if params.gamma_a is None else params.gamma_a
    return gen_directed(model, params.n, params.d, params.f_m, params.H, gamma_a, params.seed)


# ---------------------------------------------------------------------------
# activity
# ---------------------------------------------------------------------------

def activity_from_uniform(u: np.ndarray | float, gamma_a: float) -> np.ndarray | float:
    """Inverse-CDF map from uniform [0,1) draws to Pareto(x_min=1) activity."""
    if gamma_a <= 1.0:
        raise ValueError(f"gamma_a must be > 1, got {gamma_a}")
    return (1.0 - np.asarray(u, dtype=np.float64)) ** (-1.0 / (gamma_a - 1.0))


def sample_activity(n: int, gamma_a: float, rng: np.random.Generator) -> np.ndarray:
    """i.i.d. per-node activity from a continuous Pareto with minimum 1."""
    return activity_from_uniform(rng.random(n), gamma_a)


# ---------------------------------------------------------------------------
# undirected growth family
# ---------------------------------------------------------------------------

def gen_pa(n: int, m: int, seed: int) -> tuple[AttributedGraph, GrowthTrace]:
    """Preferential-attachment growth; all nodes carry the majority label."""
    _check_growth_args(n, m)
    rng = make_rng(seed)
    labels = np.zeros(n, dtype=np.int8)
    return _grow(labels, m, None, None, rng)


def gen_pah(
    n: int, m: int, f_m: float, H: MixingMatrix | float, seed: int
) -> tuple[AttributedGraph, GrowthTrace]:
    """Preferential attachment with class-affinity (homophily) weighting."""
    _check_growth_args(n, m)
    H = _as_mixing(H)
    rng = make_rng(seed)
    labels = assign_classes(n, f_m, rng)
    return _grow(labels, m, H, None, rng)


def gen_patch(
    n: int, m: int, f_m: float, H: MixingMatrix | float, p_tc: float, seed: int
) -> tuple[AttributedGraph, GrowthTrace]:
    """PAH growth with a triadic-closure step.

    The first edge of each arriving node is always an affinity-weighted
    pick.  Each later edge attempts, with probability ``p_tc``, a uniform
    pick among neighbors of the targets already chosen in this arrival
    (triangle closure); an empty candidate set falls back to the
    affinity-weighted pick.  ``p_tc`` values of exactly 0 or 1 skip the
    branch draw, so ``p_tc=0`` reproduces ``gen_pah`` draw-for-draw.
    """
    _check_growth_args(n, m)
    if not 0.0 <= p_tc <= 1.0:
        raise ValueError(f"p_tc must lie in [0, 1], got {p_tc}")
    H = _as_mixing(H)
    rng = make_rng(seed)
    labels = assign_classes(n, f_m, rng)
    return _grow(labels, m, H, p_tc, rng)


def _check_growth_args(n: int, m: int) -> None:
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not 1 <= m < n:
        raise ValueError(f"need 1 <= m < n, got m={m}, n={n}")


def _as_mixing(H: MixingMatrix | float) -> MixingMatrix:
    if isinstance(H, MixingMatrix):
        return H
    return MixingMatrix.symmetric(float(H))


def _grow(
    labels: np.ndarray,
    m: int,
    H: MixingMatrix | None,
    p_tc: float | None,
    rng: np.random.Generator,
) -> tuple[AttributedGraph, GrowthTrace]:
    """Shared growth loop for pa (H=None), pah, and patch (p_tc set).

    Degrees seen by an arriving node are a snapshot taken before any of its
    own edges are inserted; the eligible set shrinks as its picks accumulate
    (without-replacement multi-pick).
    """
    n = labels.size
    g = AttributedGraph(False, labels)
    for i in range(m):
        for j in range(i + 1, m):
            g.add_edge(i, j)
    deg = np.zeros(n, dtype=np.float64)
    deg[:m] = m - 1

    srcs: list[int] = []
    tgts: list[int] = []
    kinds: list[int] = []

    for v in range(m, n):
        if H is None:
            w = deg[:v].copy()
        else:
            w = H.row(labels[v])[labels[:v]] * deg[:v]
        chosen: list[int] = []
        for j in range(m):
            kind = EventKind.PAH_PICK
            target = -1
            if p_tc is not None and j >= 1 and p_tc > 0.0:
                attempt_tc = True if p_tc >= 1.0 else rng.random() < p_tc
                if attempt_tc:
                    tc_set = set()
                    for u in chosen:
                        tc_set |= g.neighbors(u)
                    tc_set.discard(v)
                    tc_set.difference_update(chosen)
                    if tc_set:
                        candidates = sorted(tc_set)
                        target = candidates[rand_below(rng, len(candidates))]
                        kind = EventKind.TC_PICK
            if target < 0:
                if w.sum() > 0.0:
                    target = weighted_pick(rng, w)
                else:
                    eligible = [u for u in range(v) if u not in chosen]
                    target = eligible[rand_below(rng, len(eligible))]
                    kind = EventKind.FALLBACK_UNIFORM
            w[target] = 0.0
            chosen.append(target)
            srcs.append(v)
            tgts.append(target)
            kinds.append(int(kind))
        for t in chosen:
            g.add_edge(v, t)
            deg[t] += 1.0
        deg[v] = m

    trace = GrowthTrace(
        directed=False,
        labels=labels,
        sources=np.asarray(srcs, dtype=np.int64),
        targets=np.asarray(tgts, dtype=np.int64),
        kinds=np.asarray(kinds, dtype=np.int8),
        m=m,
    )
    return g, trace


# ---------------------------------------------------------------------------
# directed fixed-n family
# ---------------------------------------------------------------------------

def gen_directed(
    model: str,
    n: int,
    d: float,
    f_m: float,
    H: MixingMatrix | float | None = None,
    gamma_a: float = 2.5,
    seed: int = 0,
) -> tuple[AttributedGraph, GrowthTrace]:
    """Directed generator: dpa, dh, or dpah.

    All n nodes exist upfront with labels and Pareto activity.  Edges are
    placed one at a time until ``round(d*n*(n-1))`` exist: the source is
    drawn proportionally to activity, the target from the admissible set
    (no self-loop, edge absent) under the model's weights.  A source draw
    whose admissible weights vanish is simply redrawn; the run aborts with
    :class:`SaturationError` after 1000 consecutive failures.
    """
    model = model.lower()
    if model not in DIRECTED_MODELS:
        raise ValueError(f"model must be one of {DIRECTED_MODELS}, got {model!r}")
    if n < 2:
        raise ValueError(f"directed models need n >= 2, got {n}")
    if not 0.0 < d <= 1.0:
        raise ValueError(f"density d must lie in (0, 1], got {d}")
    target_edges = round(d * n * (n - 1))
    if target_edges < 1:
        raise ValueError("density target round(d*n*(n-1)) must be >= 1")
    if model in ("dh", "dpah"):
        if H is None:
            raise ValueError(f"model {model} requires a mixing matrix")
        H = _as_mixing(H)

    rng = make_rng(seed)
    labels = assign_classes(n, f_m, rng)
    activity = sample_activity(n, gamma_a, rng)
    activity_cum = np.cumsum(activity)

    g = AttributedGraph(True, labels)
    ind1 = np.ones(n, dtype=np.float64)  # indeg + 1 smoothing
    if H is not None:
        affinity = [H.row(0)[labels], H.row(1)[labels]]

    srcs: list[int] = []
    tgts: list[int] = []
    failures = 0
    while g.num_edges < target_edges:
        s = pick_from_cumulative(rng, activity_cum)
        if model == "dpa":
            w = ind1.copy()
        elif model == "dh":
            w = affinity[labels[s]].copy()
        else:
            w = affinity[labels[s]] * ind1
        w[s] = 0.0
        out = g.neighbors(s)
        if out:
            w[list(out)] = 0.0
        if w.sum() > 0.0:
            t = weighted_pick(rng, w)
            g.add_edge(s, t)
            ind1[t] += 1.0
            srcs.append(s)
            tgts.append(t)
            failures = 0
        else:
            failures += 1
            if failures >= SATURATION_RETRIES:
                raise SaturationError(g.num_edges, target_edges)

    trace = GrowthTrace(
        directed=True,
        labels=labels,
        sources=np.asarray(srcs, dtype=np.int64),
        targets=np.asarray(tgts, dtype=np.int64),
        kinds=np.full(len(srcs), int(EventKind.DIRECTED_PICK), dtype=np.int8),
    )
    return g, trace


# ---------------------------------------------------------------------------
# trace replay (structure only; likelihoods live in graphmix.inference)
# ---------------------------------------------------------------------------

def rebuild_graph(trace: GrowthTrace) -> AttributedGraph:
    """Reconstruct the final graph from a trace; raises on corrupt traces."""
    g = AttributedGraph(trace.directed, trace.labels)
    if not trace.directed and trace.m:
        for i in range(trace.m):
            for j in range(i + 1, trace.m):
                g.add_edge(i, j)
    for s, t, _ in trace.events():
        if not g.add_edge(s, t):
            raise ValueError(f"trace replays an invalid edge ({s}, {t})")
    return g
