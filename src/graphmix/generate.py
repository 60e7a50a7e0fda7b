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

from bisect import bisect_left
from dataclasses import KW_ONLY, InitVar, dataclass, field, fields
from enum import IntEnum

import numpy as np

from . import _check
from . import rng as _rng
from .graph import AttributedGraph, EdgeError, MixingMatrix, assign_classes, own_labels
from .rng import UniformStream, check_seed, make_rng, picks_from_cumulative, weighted_pick
# no longer called here: the benchmark's tracer wraps this name by getattr (bench/tracer.py:135)
from .rng import pick_from_cumulative  # noqa: F401

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
]

UNDIRECTED_MODELS = ("pa", "pah", "patch")
DIRECTED_MODELS = ("dpa", "dh", "dpah")
ALL_MODELS = UNDIRECTED_MODELS + DIRECTED_MODELS

# Rejected trials of a rejection-sampled pick (an endpoint, or a later
# triadic-closure target) before it switches to its exact draw (the O(n)
# scan, or the sorted union); any cap leaves the pick distribution unchanged.
_MAX_REJECTIONS = 8


class SaturationError(RuntimeError):
    """A directed density target above the capacity the affinities admit (see :meth:`GenParams.validate`)."""

    def __init__(self, capacity: int, target: int):
        self.capacity = capacity
        self.target = target
        super().__init__(f"density target of {target} edges is more than the {capacity} the affinities admit")


class TraceError(ValueError):
    """Event ``event`` of a trace is refused; the message says why."""

    def __init__(self, event: int, message: str):
        self.event = event
        super().__init__(message)


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

    A trace is checked here, once, when built: ``ValueError`` names a
    ``directed`` or ``order_assumed`` flag that is not a bool, event arrays
    that are not flat integer (not bool, not float) arrays of one length,
    labels that are not n 0s and 1s, and an ``m`` on a directed trace,
    outside ``1..n-1`` or without m events per arrival.  Its subclass
    :class:`TraceError` names the first event with an id outside
    ``0..n-1`` or a kind code not of the family, an undirected event whose
    target is not below its source or whose source is below the one
    before, and a replayed edge that repeats one or is a self-loop.  The
    trace keeps read-only copies: int8 labels and kinds, int64 sources and
    targets, and ``graph``, the :class:`AttributedGraph` its replay builds
    (the start clique and every event).  Traces compare equal field by
    field; ``graph`` follows from the fields and is not compared.

    ``replays`` (keyword only) is the graph the events rebuild, as in
    :func:`graphmix.inference.trace_from_graph`: it is kept as ``graph``
    and nothing is built.  Any other graph is refused with "trace does not
    rebuild the network it was given", unless the replay repeats an edge
    or makes a self-loop: that event's TraceError is raised instead.
    """

    directed: bool
    labels: np.ndarray
    sources: np.ndarray
    targets: np.ndarray
    kinds: np.ndarray
    m: int | None = None
    order_assumed: bool = False
    graph: AttributedGraph = field(init=False, repr=False, compare=False)
    _: KW_ONLY
    replays: InitVar[AttributedGraph | None] = None

    def __post_init__(self, replays: AttributedGraph | None):
        for name in ("directed", "order_assumed"):
            flag = getattr(self, name)
            if not isinstance(flag, (bool, np.bool_)):  # "no" would read as true
                raise ValueError(f"trace {name} must be a bool, got {type(flag).__name__} {flag!r}")
            object.__setattr__(self, name, bool(flag))
        labels = own_labels(self.labels)
        n = labels.size
        names = ("sources", "targets", "kinds")
        src, tgt, kinds = events = [np.array(getattr(self, name)) for name in names]  # a copy of its own, as the labels
        shapes = [a.shape for a in events]
        if len(shapes[0]) != 1 or shapes.count(shapes[0]) != 3:
            raise ValueError(f"trace sources, targets and kinds must be flat and of one length, got shapes {shapes}")
        for name, a in zip(names, events):
            # a cast would read 0.7 as node 0 and True as node 1
            if a.dtype == bool or not np.issubdtype(a.dtype, np.integer):
                raise ValueError(f"trace {name} must be integers, got {a.dtype}")
        outside = (src < 0) | (src >= n) | (tgt < 0) | (tgt >= n)
        last = int(EventKind.DIRECTED_PICK)  # the last kind code, the directed family's only one
        bad = np.flatnonzero(outside | (kinds < 0) | (kinds > last) | ((kinds == last) != self.directed))
        if bad.size:
            i, family = int(bad[0]), "directed" if self.directed else "undirected"
            if outside[i]:
                raise TraceError(i, f"event {i} ({src[i]},{tgt[i]}) references a node outside 0..{n - 1}")
            raise TraceError(i, f"event {i}: kind code {kinds[i]} is not a kind of {family} event")
        if self.m is not None:
            if self.directed:
                raise ValueError(f"a directed trace has no per-arrival edge count m, got m={self.m!r}")
            m = _check.count("m", self.m, 1, n - 1)
            if not is_growth_layout(src, n, m):
                raise ValueError("trace does not have m events per arrival for every node >= m")
        if not self.directed:  # growth order
            bad = np.flatnonzero((tgt >= src) | (src < np.concatenate(([0], src[:-1]))))
            if bad.size:
                i = int(bad[0])
                if tgt[i] >= src[i]:
                    raise TraceError(i, f"event {i}: target {tgt[i]} not below source {src[i]}; not a growth trace")
                raise TraceError(i, f"event {i}: source {src[i]} out of arrival order")
        for name, a in zip(names, events):
            a = a.astype(np.int8 if name == "kinds" else np.int64, copy=False)
            a.setflags(write=False)
            object.__setattr__(self, name, a)
        del src, tgt, kinds, events, a  # no copy made for the checks outlives them into the graph build
        object.__setattr__(self, "labels", labels)
        start = np.column_stack(np.triu_indices(self.m or 0, 1))
        edges = np.concatenate((start, np.column_stack((self.sources, self.targets))))
        if replays is None or not (replays.directed == self.directed and np.array_equal(replays.labels, labels)
                                   and _holds_exactly(replays, edges)):
            try:  # with a graph given, built only to name a repeated edge or a self-loop
                built = AttributedGraph(self.directed, labels, edges)
            except EdgeError as exc:
                raise TraceError(exc.index - len(start), f"trace replays an invalid edge: {exc.reason}") from None
            if replays is not None:
                raise ValueError("trace does not rebuild the network it was given")
            replays = built
        object.__setattr__(self, "graph", replays)

    @property
    def n(self) -> int:
        return self.labels.size

    def __len__(self) -> int:
        return self.sources.size

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GrowthTrace):
            return NotImplemented
        return all(np.array_equal(getattr(self, f.name), getattr(other, f.name)) for f in fields(self) if f.compare)

    __hash__ = None


def _holds_exactly(g: AttributedGraph, edges: np.ndarray) -> bool:
    """Whether ``edges`` are ``g``'s edges, each once: their sorted row-major keys (both ways when undirected) are g's."""
    n, csr = g.n, g.csr()
    keys = edges[:, 0] * n + edges[:, 1]
    if not g.directed:
        keys = np.concatenate((keys, edges[:, 1] * n + edges[:, 0]))
    keys.sort()
    return np.array_equal(keys, np.repeat(np.arange(n, dtype=np.int64) * n, csr.out_degree()) + csr.indices)


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
        """Reject an unknown model, a missing or unread parameter, a size or seed that is
        not an integer (``bool`` included), and out-of-range values, then, with
        :class:`SaturationError`, a directed density target above the capacity: the sum of
        the n sources' :func:`_rooms`, over the class sizes :func:`assign_classes` gives.

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
        check_seed(self.seed)
        if self.m is not None:
            _check.count("m", self.m, 1, n - 1)
        if self.f_m is not None:
            _check.interval("minority fraction", self.f_m, 0, 0.5)
        if self.p_tc is not None:
            _check.interval("p_tc", self.p_tc, 0, 1)
        if self.gamma_a is not None:
            _check.interval("gamma_a", self.gamma_a, 1, open_low=True)
        if self.d is not None:
            _check.interval("density d", self.d, 0, 1, open_low=True)
            target = _check.count("density target round(d*n*(n-1))", round(self.d * n * (n - 1)), 1)
            sizes = [n - round(n * self.f_m), round(n * self.f_m)]
            capacity = sum(size * room for size, room in zip(sizes, _rooms(sizes, self.H)))
            if target > capacity:
                raise SaturationError(capacity, target)


def _rooms(sizes: list[int], H: MixingMatrix | None) -> list[int]:
    """Per class c, how many targets a source of c can link to: the classes of positive affinity, less itself."""
    affinity = np.ones((2, 2)) if H is None else H.matrix
    return [sum(size for a, size in zip(row, sizes) if a > 0.0) - (row[c] > 0.0)
            for c, row in enumerate(affinity.tolist())]


def generate(params: GenParams) -> tuple[AttributedGraph, GrowthTrace]:
    """Validate ``params`` once, grow its network, then build its trace from the events once the
    loop's state is freed; every ``gen_*`` function runs through here."""
    params.validate()
    rng = make_rng(params.seed)
    n, m = params.n, params.m
    labels = np.zeros(n, dtype=np.int8) if params.model == "pa" else assign_classes(n, params.f_m, rng)
    if params.model in DIRECTED_MODELS:
        sources, targets = _place_directed(params, labels, rng)
        trace = GrowthTrace(True, labels, sources, targets, np.full(len(sources), EventKind.DIRECTED_PICK, np.int8))
    else:
        targets, kinds = _grow(labels, m, params.H, params.p_tc, rng)
        trace = GrowthTrace(False, labels, np.repeat(np.arange(m, n), m), targets, kinds, m=m)
    return trace.graph, trace


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
    (triangle closure), a set that growth from the m-clique never leaves
    empty.  Once two or more targets are chosen, the uniform pick is drawn
    by rejection over their neighbour lists, with the exact draw from their
    union after ``_MAX_REJECTIONS`` rejected trials (see :func:`_grow`).
    ``p_tc`` values of exactly 0 or 1 skip the branch draw, so ``p_tc=0``
    reproduces ``gen_pah`` draw-for-draw.
    """
    return generate(GenParams("patch", n, seed, m=m, f_m=f_m, H=H, p_tc=p_tc))


def _grow(
    labels: np.ndarray,
    m: int,
    H: MixingMatrix | None,
    p_tc: float | None,
    rng: np.random.Generator,
) -> tuple[list[int], list[int]]:
    """Shared growth loop for pa (H=None), pah, and patch (p_tc set): the events' targets and kind codes.

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
    arrival or the first target), so it is drawn from directly.  A later
    pick is rejection-sampled like a scored one (:func:`_closure_pick`): a
    uniform entry of the chosen targets' lists laid end to end, redrawn when
    it is a chosen target or an earlier list holds it, so every node of the
    triangle-closing set comes up with the same probability per trial.
    After ``_MAX_REJECTIONS`` rejected trials it is drawn exactly from the
    sorted union of the lists minus the chosen targets; a cap of 0 makes
    every later pick that exact draw.  The set is never empty: a list holds
    m - 1 or more nodes (clique neighbours, or an arrival's m targets), never
    its own, and at most j - 1 <= m - 2 of them are chosen before pick j.

    The loop reads its doubles through a :class:`UniformStream` over
    ``rng``, which draws ahead, so the caller gives up the generator.
    """
    rng = UniformStream(rng)
    random = rng.next
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

    tgts: list[int] = []
    kinds: list[int] = []

    for v in range(m, n):
        a0, a1 = aff_rows[cls[v]]
        chosen: list[int] = []
        chosen_mass = [0, 0]  # degree of the targets chosen so far, by class
        for j in range(m):
            if j and p_tc and (p_tc >= 1.0 or random() < p_tc):
                kind = tc_pick
                if j == 1:
                    candidates = nbrs[chosen[0]]
                    target = candidates[int(random() * len(candidates))]
                else:
                    target = _closure_pick(random, [nbrs[u] for u in chosen], chosen)
            elif (a0 > 0.0 and len(e0) > chosen_mass[0]) or (a1 > 0.0 and len(e1) > chosen_mass[1]):
                kind = pah_pick
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

    return tgts, kinds


def _closure_pick(random, lists: list[list[int]], chosen: list[int]) -> int:
    """A uniform node of the ascending ``lists`` that is not in ``chosen``; :func:`_grow` ensures one exists.

    A trial draws entry ``int(u * T)`` of the lists laid end to end (T
    entries) and keeps its node when it is not chosen and no earlier list
    holds it, so each candidate is kept with probability 1/T and a kept
    node is uniform.  After ``_MAX_REJECTIONS`` rejected trials the node is
    entry ``int(u * k)`` of the sorted union minus ``chosen`` (k nodes).
    """
    total = sum(map(len, lists))
    for _ in range(_MAX_REJECTIONS):
        i = int(random() * total)
        k = 0
        while i >= len(lists[k]):
            i -= len(lists[k])
            k += 1
        x = lists[k][i]
        if x in chosen:
            continue
        for earlier in lists[:k]:
            b = bisect_left(earlier, x)
            if b < len(earlier) and earlier[b] == x:
                break
        else:
            return x
    candidates = sorted(set().union(*lists).difference(chosen))
    return candidates[int(random() * len(candidates))]


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
    (no self-loop, edge absent) under the model's weights.  A target above
    what the affinities admit is refused before any draw with
    :class:`SaturationError` (see :meth:`GenParams.validate`).

    Sources are i.i.d., one double each, drawn in blocks from a generator
    of their own on ``rng.bit_generator.jumped()`` taken after the
    activities, and targets from the run's generator, so no bit depends on
    the block size.  A source whose out-edges fill its room gets activity 0,
    and the rest of its block maps over the new cumulative activities: as
    redrawing an i.i.d. draw that lands on it samples the other sources'
    activities, this is placement with redraws, in distribution.

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
    """
    if model.lower() not in DIRECTED_MODELS:
        raise ValueError(f"model must be one of {DIRECTED_MODELS}, got {model!r}")
    return generate(GenParams(model, n, seed, f_m=f_m, H=H, d=d, gamma_a=gamma_a))


def _place_directed(
    params: GenParams, labels: np.ndarray, rng: np.random.Generator
) -> tuple[np.ndarray, list[int]]:
    """The edge placement loop of :func:`gen_directed`: the events' sources and targets; gives up the generator ``rng``."""
    model, n, H = params.model, params.n, params.H
    target_edges = round(params.d * n * (n - 1))
    activity = sample_activity(n, params.gamma_a, rng)
    source_rng = np.random.Generator(rng.bit_generator.jumped())  # a stream of their own, drawn from in blocks
    rng = UniformStream(rng)
    random = rng.next

    cls = labels.tolist()
    affinity = np.ones((2, 2)) if H is None else H.matrix
    aff_rows = affinity.tolist()
    # per class, the members, then one entry per unit of in-degree (dh weighs the members alone)
    pools = ([u for u in range(n) if cls[u] == 0], [u for u in range(n) if cls[u] == 1])
    pool0, pool1 = pools
    count_indeg = model != "dh"
    # each source's inadmissible targets: itself and its out-neighbours, who are all in classes of
    # positive affinity; it is saturated once they number its room plus itself
    blocked: list[set[int]] = [{u} for u in range(n)]
    rooms = _rooms([len(pool0), len(pool1)], H)
    by_class = [(*row, room + 1) for row, room in zip(aff_rows, rooms)]
    rows = [by_class[c] for c in cls]  # each source's affinities and the size of its saturated set
    activity[np.take(rooms, labels) == 0] = 0.0  # a saturated source never comes up
    activity_cum = np.cumsum(activity)

    sources = np.empty(target_edges, dtype=np.int64)
    tgts: list[int] = []
    indeg, counted = np.zeros(n, dtype=np.int64), 0  # the in-degrees of tgts[:counted], for the exact scan
    trials = range(_MAX_REJECTIONS)
    place = tgts.append
    while len(tgts) < target_edges:
        doubles = source_rng.random(min(target_edges - len(tgts), _rng.STREAM_BLOCK_CAP))
        while len(doubles):
            start = len(tgts)
            block = picks_from_cumulative(activity_cum, doubles)
            for s in block.tolist():
                excluded = blocked[s]
                a0, a1, full = rows[s]
                w0 = a0 * len(pool0)
                w1 = a1 * len(pool1)
                for _ in trials:
                    # a class of zero weight never comes up, also when u * total rounds up to w0
                    pool = pool0 if random() * (w0 + w1) < w0 or w1 == 0.0 else pool1
                    t = pool[int(random() * len(pool))]
                    if t not in excluded:
                        break
                else:
                    w = affinity[cls[s]][labels]
                    if count_indeg:
                        indeg += np.bincount(np.array(tgts[counted:], dtype=np.int64), minlength=n)
                        counted = len(tgts)
                        w = w * (indeg + 1.0)
                    w[list(excluded)] = 0.0
                    t = weighted_pick(rng, w)
                excluded.add(t)
                if count_indeg:
                    pools[cls[t]].append(t)
                place(t)
                if len(excluded) == full:  # s is saturated: the rest of the block is drawn without it
                    activity[s] = 0.0
                    activity_cum = np.cumsum(activity)
                    break
            sources[start:len(tgts)] = block[:len(tgts) - start]
            doubles = doubles[len(tgts) - start:]

    return sources, tgts
