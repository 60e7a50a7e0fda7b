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

from dataclasses import dataclass, fields
from enum import IntEnum

import numpy as np

from . import _check
from .graph import AttributedGraph, EdgeError, MixingMatrix, assign_classes, own_labels
from .rng import UniformStream, make_rng, pick_from_cumulative, weighted_pick

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

# Rejected trials of the endpoint sampler before a pick switches to the
# exact O(n) scan; any cap leaves the pick distribution unchanged.
_MAX_REJECTIONS = 8


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


@dataclass(frozen=True, eq=False)
class GrowthTrace:
    """Ordered edge events plus the context needed to replay them.

    For undirected growth traces ``m`` is the per-arrival edge count and the
    replay start state is a complete graph on nodes ``0..m-1``; sources then
    run ``m..n-1`` with exactly ``m`` events each.  ``m is None`` marks a
    synthesized trace (edge order assumed, empty start state, sources
    non-decreasing with arbitrary group sizes).  Directed traces replay from
    an empty n-node graph in event order.

    A trace is checked once, when built: ``ValueError`` names a
    ``directed`` or ``order_assumed`` flag that is not a bool, event arrays
    that are not flat integer (not bool, not float) arrays of one length,
    an id outside ``0..n-1``, a kind code not of the trace's family, labels
    that are not n 0s and 1s, or an ``m`` on a directed trace, outside
    ``1..n-1`` or without m events per arrival.  The trace keeps read-only
    copies: int8 labels and kinds, int64 sources and targets.  A repeated
    edge is refused by :func:`rebuild_graph`'s graph, the growth order when
    the trace is scored.  Traces compare equal field by field.
    """

    directed: bool
    labels: np.ndarray
    sources: np.ndarray
    targets: np.ndarray
    kinds: np.ndarray
    m: int | None = None
    order_assumed: bool = False

    def __post_init__(self):
        for name in ("directed", "order_assumed"):
            flag = getattr(self, name)
            if not isinstance(flag, (bool, np.bool_)):  # "no" would read as true
                raise ValueError(f"trace {name} must be a bool, got {type(flag).__name__} {flag!r}")
            object.__setattr__(self, name, bool(flag))
        labels = own_labels(self.labels)
        n = labels.size
        names = ("sources", "targets", "kinds")
        src, tgt, kinds = events = [np.asarray(getattr(self, name)) for name in names]
        shapes = [a.shape for a in events]
        if len(shapes[0]) != 1 or shapes.count(shapes[0]) != 3:
            raise ValueError(f"trace sources, targets and kinds must be flat and of one length, got shapes {shapes}")
        for name, a in zip(names, events):
            # a cast would read 0.7 as node 0 and True as node 1
            if a.dtype == bool or not np.issubdtype(a.dtype, np.integer):
                raise ValueError(f"trace {name} must be integers, got {a.dtype}")
        outside = np.flatnonzero((src < 0) | (src >= n) | (tgt < 0) | (tgt >= n))
        if outside.size:
            i = int(outside[0])
            raise ValueError(f"event {i} ({src[i]},{tgt[i]}) references a node outside 0..{n - 1}")
        last = int(EventKind.DIRECTED_PICK)  # the last kind code, the directed family's only one
        bad = np.flatnonzero((kinds < 0) | (kinds > last) | ((kinds == last) != self.directed))
        if bad.size:
            i, family = int(bad[0]), "directed" if self.directed else "undirected"
            raise ValueError(f"event {i}: kind code {kinds[i]} is not a kind of {family} event")
        if self.m is not None:
            if self.directed:
                raise ValueError(f"a directed trace has no per-arrival edge count m, got m={self.m!r}")
            m = _check.count("m", self.m, 1, n - 1)
            if not is_growth_layout(src, n, m):
                raise ValueError("trace does not have m events per arrival for every node >= m")
        for name, a in zip(names, events):
            a = a.astype(np.int8 if name == "kinds" else np.int64)  # a copy of its own, as the labels
            a.setflags(write=False)
            object.__setattr__(self, name, a)
        object.__setattr__(self, "labels", labels)

    @property
    def n(self) -> int:
        return self.labels.size

    def __len__(self) -> int:
        return self.sources.size

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GrowthTrace):
            return NotImplemented
        return all(np.array_equal(getattr(self, f.name), getattr(other, f.name)) for f in fields(self))

    __hash__ = None


def is_growth_layout(sources: np.ndarray, n: int, m: int) -> bool:
    """Whether ``sources`` are the arrivals m..n-1 in order, m events each (sizes first: a large m builds nothing)."""
    return len(sources) == (n - m) * m and np.array_equal(sources, np.repeat(np.arange(m, n), m))


# The parameters each model reads besides n and seed: the only model -> parameter table.
_MODEL_PARAMS = {
    "pa": ("m",),
    "pah": ("m", "f_m", "H"),
    "patch": ("m", "f_m", "H", "p_tc"),
    "dpa": ("d", "f_m", "gamma_a"),
    "dh": ("d", "f_m", "H", "gamma_a"),
    "dpah": ("d", "f_m", "H", "gamma_a"),
}
_PARAM_NOUNS = {"m": "m", "f_m": "minority fraction", "H": "mixing matrix",
                "p_tc": "p_tc", "d": "density d", "gamma_a": "gamma_a"}


@dataclass(frozen=True)
class GenParams:
    """Full parameter record for any of the six models.

    A model reads ``n``, ``seed`` and the parameters ``_MODEL_PARAMS`` lists
    for it; the others stay ``None``.  The model name is lower-cased, a float
    ``H`` stands for ``MixingMatrix.symmetric(H)``, and a directed model's
    ``gamma_a`` defaults to 2.5.
    """

    model: str
    n: int
    seed: int = 0
    m: int | None = None
    f_m: float | None = None
    H: MixingMatrix | float | None = None
    p_tc: float | None = None
    d: float | None = None
    gamma_a: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "model", self.model.lower())
        if self.H is not None and not isinstance(self.H, MixingMatrix):
            object.__setattr__(self, "H", MixingMatrix.symmetric(float(self.H)))
        if self.gamma_a is None and "gamma_a" in _MODEL_PARAMS.get(self.model, ()):
            object.__setattr__(self, "gamma_a", 2.5)

    def validate(self) -> None:
        """Reject an unknown model, a missing or unread parameter, a size that is not an
        integer (``bool`` included), and out-of-range values.

        The entries of ``H`` are checked where the mixing matrix is built.
        """
        if self.model not in _MODEL_PARAMS:
            raise ValueError(f"unknown model {self.model!r}; expected one of {ALL_MODELS}")
        reads = _MODEL_PARAMS[self.model]
        for name, noun in _PARAM_NOUNS.items():
            if name in reads and getattr(self, name) is None:
                raise ValueError(f"model {self.model} requires {noun}")
            if name not in reads and getattr(self, name) is not None:
                raise ValueError(f"model {self.model} takes no {noun}")
        n = _check.count("n", self.n, 1)
        if self.m is not None:
            _check.count("m", self.m, 1, n - 1)
        if self.f_m is not None:
            _check.interval("minority fraction", self.f_m, 0, 0.5)
        if self.p_tc is not None:
            _check.interval("p_tc", self.p_tc, 0, 1)
        if self.d is not None:
            _check.interval("density d", self.d, 0, 1, open_low=True)
            _check.count("density target round(d*n*(n-1))", round(self.d * n * (n - 1)), 1)
        if self.gamma_a is not None:
            _check.interval("gamma_a", self.gamma_a, 1, open_low=True)


def generate(params: GenParams) -> tuple[AttributedGraph, GrowthTrace]:
    """Validate ``params`` once, then grow its network; every ``gen_*`` function runs through here."""
    params.validate()
    rng = make_rng(params.seed)
    if params.model == "pa":
        return _grow(np.zeros(params.n, dtype=np.int8), params.m, None, None, rng)
    labels = assign_classes(params.n, params.f_m, rng)
    if params.model in UNDIRECTED_MODELS:
        return _grow(labels, params.m, params.H, params.p_tc, rng)
    return _place_directed(params, labels, rng)


# ---------------------------------------------------------------------------
# activity
# ---------------------------------------------------------------------------

def activity_from_uniform(u: np.ndarray | float, gamma_a: float) -> np.ndarray | float:
    """Inverse-CDF map from uniform [0,1) draws to Pareto(x_min=1) activity."""
    _check.interval("gamma_a", gamma_a, 1, open_low=True)
    return (1.0 - np.asarray(u, dtype=np.float64)) ** (-1.0 / (gamma_a - 1.0))


def sample_activity(n: int, gamma_a: float, rng: np.random.Generator) -> np.ndarray:
    """i.i.d. per-node activity from a continuous Pareto with minimum 1."""
    return activity_from_uniform(rng.random(_check.count("n", n)), gamma_a)


# ---------------------------------------------------------------------------
# undirected growth family
# ---------------------------------------------------------------------------

def gen_pa(n: int, m: int, seed: int) -> tuple[AttributedGraph, GrowthTrace]:
    """Preferential-attachment growth; all nodes carry the majority label."""
    return generate(GenParams("pa", n, seed, m=m))


def gen_pah(
    n: int, m: int, f_m: float, H: MixingMatrix | float, seed: int
) -> tuple[AttributedGraph, GrowthTrace]:
    """Preferential attachment with class-affinity (homophily) weighting."""
    return generate(GenParams("pah", n, seed, m=m, f_m=f_m, H=H))


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
    return generate(GenParams("patch", n, seed, m=m, f_m=f_m, H=H, p_tc=p_tc))


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

    A scored pick draws target u with probability proportional to
    ``H[c_v, c_u] * deg(u)`` over the nodes not yet chosen in this arrival.
    The sampler (Batagelj & Brandes, Phys. Rev. E 71, 036113, 2005, split by
    class) keeps, per class, an endpoint list holding each node once per
    unit of degree; an arrival's own edges are appended after it, so the
    lists are the snapshot.  One trial draws class c with probability
    proportional to ``H[c_v, c] * len(ends[c])`` and a uniform entry of
    ``ends[c]``: node u comes up with probability proportional to
    ``H[c_v, c_u] * deg(u)``, and the trial is rejected when u is already
    chosen.  Every trial of a pick accepts with the same probability, and an
    accepted target has the exact pick distribution, so after
    ``_MAX_REJECTIONS`` rejected trials the pick can switch to the exact O(v)
    scan (``weighted_pick`` over the full weight vector) without changing
    that distribution.  Expected cost is O(1) per pick; only the rare scan
    is O(v).  A trial takes two doubles u and u': class 0 when
    ``u * (w_0 + w_1) < w_0`` or ``w_1 == 0``, with ``w_c = H[c_v, c] *
    len(ends[c])``, else class 1; then entry ``int(u' * len(ends[c]))``.
    Every uniform index (a triadic-closure candidate, a fallback-uniform
    node) is likewise ``int(u * k)`` of one double.

    Whether any weight is left at all is decided on integers: class c has
    weight left when ``H[c_v, c] > 0`` and its degree total exceeds the
    degree of its chosen targets.  When no class has, the pick is a
    ``FALLBACK_UNIFORM`` one over the unchosen nodes below v.

    Triadic closure keeps each node's neighbours as a list in ascending
    order: a node's own targets, sorted when it arrives, then each later
    arrival that picks it, appended.  The triangle-closing set of a second
    pick is the first target's list as it stands (no node in it is the
    arrival or the first target), so it is drawn from directly; later picks
    draw from the sorted union of the chosen targets' lists minus those
    targets.

    ``rng`` is drawn from as a :class:`UniformStream`; the caller gives up
    the generator.
    """
    rng = UniformStream(rng)
    random = rng.random
    n = labels.size
    # ascending neighbour lists only for triadic closure, which draws from them
    nbrs = [[u for u in range(m) if u != i] if i < m else [] for i in range(n)] if p_tc else None
    affinity = np.ones((2, 2)) if H is None else H.matrix
    aff_rows = affinity.tolist()
    cls = labels.tolist()
    deg = [m - 1] * m + [0] * (n - m)
    ends: list[list[int]] = [[], []]  # one entry per unit of degree, by class
    for u in range(m):
        ends[cls[u]].extend([u] * (m - 1))
    e0, e1 = ends
    pah_pick, tc_pick = int(EventKind.PAH_PICK), int(EventKind.TC_PICK)
    fallback_uniform = int(EventKind.FALLBACK_UNIFORM)

    srcs: list[int] = []
    tgts: list[int] = []
    kinds: list[int] = []

    for v in range(m, n):
        a0, a1 = aff_rows[cls[v]]
        chosen: list[int] = []
        chosen_mass = [0, 0]  # degree of the targets chosen so far, by class
        for j in range(m):
            kind = pah_pick
            target = -1
            if p_tc is not None and j >= 1 and p_tc > 0.0:
                attempt_tc = True if p_tc >= 1.0 else random() < p_tc
                if attempt_tc:
                    if j == 1:
                        candidates = nbrs[chosen[0]]
                    else:
                        tc_set = set()
                        for u in chosen:
                            tc_set.update(nbrs[u])
                        tc_set.difference_update(chosen)
                        candidates = sorted(tc_set)
                    if candidates:
                        target = candidates[int(random() * len(candidates))]
                        kind = tc_pick
            if target < 0:
                if (a0 > 0.0 and len(e0) > chosen_mass[0]) or (a1 > 0.0 and len(e1) > chosen_mass[1]):
                    w0 = a0 * len(e0)
                    w1 = a1 * len(e1)
                    for _ in range(_MAX_REJECTIONS):
                        # a class of zero weight never comes up, also when u * total rounds up to w0
                        e = e0 if random() * (w0 + w1) < w0 or w1 == 0.0 else e1
                        target = e[int(random() * len(e))]
                        if target not in chosen:
                            break
                    else:
                        w = affinity[cls[v]][labels[:v]] * np.array(deg[:v], dtype=np.float64)
                        w[chosen] = 0.0
                        target = weighted_pick(rng, w)
                else:
                    kind = fallback_uniform
                    target = int(random() * v)
                    while target in chosen:
                        target = int(random() * v)
            chosen.append(target)
            chosen_mass[cls[target]] += deg[target]
            srcs.append(v)
            tgts.append(target)
            kinds.append(kind)
        for t in chosen:
            deg[t] += 1
            ends[cls[t]].append(t)
        deg[v] = m
        ends[cls[v]].extend([v] * m)
        if nbrs is not None:
            nbrs[v] = sorted(chosen)
            for t in chosen:
                nbrs[t].append(v)

    trace = GrowthTrace(False, labels, srcs, tgts, kinds, m=m)
    return rebuild_graph(trace), trace


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

    Target weight ``indeg+1`` is a mixture: the class-c total is
    ``n_c + indeg_c``, so a uniform entry of the members of c followed by
    one entry per unit of in-degree of c (the in-endpoint list) is node u
    with probability ``(indeg(u)+1) / (n_c + indeg_c)``.  The target is
    rejection-sampled like an undirected pick (see :func:`_grow`): class c
    with probability proportional to ``H[c_s, c] * (n_c + indeg_c)`` (dpa:
    affinity 1; dh: ``H[c_s, c] * n_c`` over the members alone), redrawn
    when it is s or an existing out-neighbour, and after
    ``_MAX_REJECTIONS`` rejected trials drawn by the exact O(n) scan.  A
    trial draws the class from one double as in :func:`_grow` and entry
    ``i = int(u' * (n_c + indeg_c))`` of class c from the next: member i
    when ``i < n_c``, else in-endpoint ``i - n_c`` (dh: ``int(u' * n_c)``,
    a member).  The scan weighs node u by ``H[c_s, c_u] * (indeg(u) + 1)``
    (dh: ``H[c_s, c_u]``), the in-degrees counted from the targets placed
    so far.
    Whether any admissible weight is left is decided on integers: class c
    has some when its affinity is positive and it has a member that is
    neither s nor an out-neighbour of s.
    """
    if model.lower() not in DIRECTED_MODELS:
        raise ValueError(f"model must be one of {DIRECTED_MODELS}, got {model!r}")
    return generate(GenParams(model, n, seed, f_m=f_m, H=H, d=d, gamma_a=gamma_a))


def _place_directed(
    params: GenParams, labels: np.ndarray, rng: np.random.Generator
) -> tuple[AttributedGraph, GrowthTrace]:
    """The edge placement loop of :func:`gen_directed`; gives up the generator ``rng``."""
    model, n, H = params.model, params.n, params.H
    target_edges = round(params.d * n * (n - 1))
    activity = sample_activity(n, params.gamma_a, rng)
    activity_cum = np.cumsum(activity).tolist()
    rng = UniformStream(rng)
    random = rng.random

    cls = labels.tolist()
    affinity = np.ones((2, 2)) if H is None else H.matrix
    aff_rows = affinity.tolist()
    members0 = [u for u in range(n) if cls[u] == 0]
    members1 = [u for u in range(n) if cls[u] == 1]
    n0, n1 = len(members0), len(members1)
    # one entry per unit of in-degree, by class; dh weighs the members alone and leaves them empty
    tails = ([], [])
    tails0, tails1 = tails
    count_indeg = model != "dh"
    # each source's inadmissible targets (itself and its out-neighbours), as a set and by class
    blocked: list[set[int]] = [{u} for u in range(n)]
    blocked_count = [[1 - c, c] for c in cls]

    srcs: list[int] = []
    tgts: list[int] = []
    failures = 0
    while len(srcs) < target_edges:
        s = pick_from_cumulative(rng, activity_cum)
        a0, a1 = aff_rows[cls[s]]
        b0, b1 = blocked_count[s]
        if not ((a0 > 0.0 and n0 > b0) or (a1 > 0.0 and n1 > b1)):
            failures += 1
            if failures >= SATURATION_RETRIES:
                raise SaturationError(len(srcs), target_edges)
            continue
        excluded = blocked[s]
        k0 = n0 + len(tails0)
        k1 = n1 + len(tails1)
        w0 = a0 * k0
        w1 = a1 * k1
        for _ in range(_MAX_REJECTIONS):
            # a class of zero weight never comes up, also when u * total rounds up to w0
            if random() * (w0 + w1) < w0 or w1 == 0.0:
                i = int(random() * k0)
                t = members0[i] if i < n0 else tails0[i - n0]
            else:
                i = int(random() * k1)
                t = members1[i] if i < n1 else tails1[i - n1]
            if t not in excluded:
                break
        else:
            w = affinity[cls[s]][labels]
            if count_indeg:
                w = w * (np.bincount(np.array(tgts, dtype=np.int64), minlength=n) + 1.0)
            w[list(excluded)] = 0.0
            t = weighted_pick(rng, w)
        c = cls[t]
        excluded.add(t)
        blocked_count[s][c] += 1
        if count_indeg:
            tails[c].append(t)
        srcs.append(s)
        tgts.append(t)
        failures = 0

    trace = GrowthTrace(True, labels, srcs, tgts, np.full(len(srcs), int(EventKind.DIRECTED_PICK), dtype=np.int8))
    return rebuild_graph(trace), trace


# ---------------------------------------------------------------------------
# trace replay (structure only; likelihoods live in graphmix.inference)
# ---------------------------------------------------------------------------

def rebuild_graph(trace: GrowthTrace) -> AttributedGraph:
    """Reconstruct the final graph from a trace; ValueError if it replays a self-loop or a repeated edge."""
    m = trace.m or 0
    start = np.column_stack(np.triu_indices(m, 1))
    edges = np.concatenate((start, np.column_stack((trace.sources, trace.targets))))
    try:
        return AttributedGraph(trace.directed, trace.labels, edges)
    except EdgeError as exc:
        raise ValueError(f"trace replays an invalid edge: {exc.reason}") from None
