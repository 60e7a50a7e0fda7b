import hashlib
import importlib.util
import itertools
import math
import re
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.stats import chisquare, kstest

import graphmix.cli
import graphmix.generate
import graphmix.ranking
import graphmix.sampling
from graphmix.generate import (
    ALL_MODELS,
    EventKind,
    GenParams,
    GrowthTrace,
    SaturationError,
    TraceError,
    activity_from_uniform,
    gen_directed,
    gen_pa,
    gen_pah,
    gen_patch,
    generate,
    sample_activity,
)
from graphmix.graph import AttributedGraph, MixingMatrix, assign_classes
from graphmix.inference import fit_model, replay_event_probabilities, trace_from_graph
from graphmix.netio import read_trace, write_trace
from graphmix.rng import check_seed, make_rng

from helpers import reference_generate


def undirected_edge_count(n, m):
    return m * (m - 1) // 2 + (n - m) * m


# -- undirected growth --------------------------------------------------------


@pytest.mark.parametrize("n,m", [(2, 1), (10, 1), (10, 3), (50, 5)])
def test_pa_edge_count_exact(n, m):
    g, trace = gen_pa(n, m, seed=1)
    assert g.num_edges == undirected_edge_count(n, m)
    assert len(trace) == (n - m) * m


def test_pah_edge_count_and_labels():
    g, trace = gen_pah(200, 2, 0.3, 0.8, seed=3)
    assert g.num_edges == undirected_edge_count(200, 2)
    assert int(g.labels.sum()) == round(200 * 0.3)
    assert trace.m == 2


def test_patch_edge_count():
    g, _ = gen_patch(150, 4, 0.2, 0.7, 0.5, seed=5)
    assert g.num_edges == undirected_edge_count(150, 4)


def _generated_pairs():
    return [
        gen_pa(60, 2, seed=0),
        gen_pah(60, 3, 0.3, 0.2, seed=1),
        gen_patch(60, 3, 0.3, 0.8, 0.6, seed=2),
        gen_directed("dpah", 50, 0.02, 0.3, 0.7, seed=3),
    ]


def test_trace_rebuild_matches_generated_graph():
    for g, trace in _generated_pairs():
        m = trace.m or 0
        clique = [(u, v) for u in range(m) for v in range(u + 1, m)]
        events = list(zip(trace.sources.tolist(), trace.targets.tolist()))
        assert AttributedGraph(trace.directed, trace.labels, clique + events) == g


def test_a_generated_network_is_its_traces_graph():
    for g, trace in _generated_pairs():
        assert g is trace.graph
    with pytest.raises(AttributeError):
        trace.graph = g  # a trace cannot change, its graph included


def test_a_written_source_array_changes_no_generated_network():
    entries = np.array([[0.8, 0.2], [0.2, 0.8]])
    H = MixingMatrix(entries)
    g, trace = gen_pah(50, 2, 0.3, H, seed=1)
    entries[0, 0] = 5.0  # the caller's array, written after the check
    assert gen_pah(50, 2, 0.3, H, seed=1)[0] == g
    assert not np.shares_memory(g.labels, trace.labels)


def test_package_attribute_is_the_generate_module():
    import graphmix
    import graphmix.generate as module

    assert module is sys.modules["graphmix.generate"] is graphmix.generate
    assert callable(module.weighted_pick) and callable(module.generate)
    assert "generate" not in graphmix.__all__

    # the package exports each module's ``__all__``, once, and nothing else
    names = "generate graph inference netio ranking rng sampling spreading".split()
    modules = [importlib.import_module(f"graphmix.{name}") for name in names]
    assert graphmix.__all__ == [name for m in modules for name in m.__all__]
    assert len(set(graphmix.__all__)) == len(graphmix.__all__) == 62
    for m in modules:
        assert not set(m.__all__) & {*names, "cli"}, m.__name__
        for name in m.__all__:
            obj = getattr(m, name)
            assert getattr(graphmix, name) is obj
            assert getattr(obj, "__module__", m.__name__) == m.__name__, name
    star: dict = {}
    exec("from graphmix import *", star)
    del star["__builtins__"]
    assert sorted(star) == sorted(graphmix.__all__)


def test_generation_deterministic_per_seed():
    a, ta = gen_pah(100, 2, 0.2, 0.8, seed=7)
    b, tb = gen_pah(100, 2, 0.2, 0.8, seed=7)
    assert a == b
    assert np.array_equal(ta.targets, tb.targets)
    c, _ = gen_pah(100, 2, 0.2, 0.8, seed=8)
    assert a != c


def test_patch_ptc_zero_reproduces_pah_draw_for_draw():
    ga, ta = gen_pah(120, 3, 0.3, 0.6, seed=11)
    gb, tb = gen_patch(120, 3, 0.3, 0.6, 0.0, seed=11)
    assert ga == gb
    assert np.array_equal(ta.targets, tb.targets)
    assert np.array_equal(ta.kinds, tb.kinds)


def test_pa_trace_has_only_pah_or_fallback_kinds():
    _, trace = gen_pa(80, 2, seed=2)
    kinds = set(trace.kinds.tolist())
    assert kinds <= {int(EventKind.PAH_PICK), int(EventKind.FALLBACK_UNIFORM)}


@pytest.mark.parametrize("m", [2, 3, 4, 6])
def test_patch_ptc_one_closes_triangles_when_possible(m):
    _, trace = gen_patch(100, m, 0.3, 0.5, 1.0, seed=4)
    # with p_tc=1 every non-first pick is a tc-pick: growth from the m-clique
    # leaves each chosen target at least m - 1 neighbours besides itself, and
    # at most m - 2 of them are chosen, so the candidate set is never empty
    later_picks = trace.kinds.reshape(-1, m)[:, 1:]
    assert (later_picks == int(EventKind.TC_PICK)).all()


def test_pah_h1_scored_picks_stay_same_class():
    g, trace = gen_pah(150, 2, 0.3, 1.0, seed=6)
    scored = trace.kinds == EventKind.PAH_PICK
    assert np.array_equal(trace.labels[trace.sources[scored]], trace.labels[trace.targets[scored]])


def test_trace_sources_shape():
    _, trace = gen_pah(40, 3, 0.2, 0.4, seed=9)
    srcs = trace.sources.reshape(-1, 3)
    assert np.array_equal(srcs[:, 0], np.arange(3, 40))
    assert (srcs == srcs[:, :1]).all()


# -- the trace record ---------------------------------------------------------


def _trace_fields(directed, **changes):
    """The fields of a valid 4-node trace (m = 2 when undirected), with ``changes``."""
    if directed:
        fields = dict(directed=True, labels=[0, 0, 1, 1], sources=[0, 1], targets=[1, 2], kinds=[3, 3])
    else:
        fields = dict(directed=False, labels=[0, 0, 1, 1], sources=[2, 2, 3, 3], targets=[0, 1, 0, 1],
                      kinds=[0, 0, 0, 0], m=2)
    fields.update(changes)
    return {k: np.array(v) if isinstance(v, list) else v for k, v in fields.items()}


@pytest.mark.parametrize(
    "directed,changes,message",
    [
        (True, dict(sources=[[0, 1]], targets=[[1, 2]], kinds=[[3, 3]]), "must be flat and of one length"),
        (True, dict(kinds=[3]), "must be flat and of one length, got shapes [(2,), (2,), (1,)]"),
        (False, dict(sources=[2, 2], targets=[0, 1], kinds=[0]), "must be flat and of one length"),
        (False, dict(targets=[0.7, 1, 0, 1]), "trace targets must be integers, got float64"),
        (True, dict(sources=[False, True]), "trace sources must be integers, got bool"),
        (True, dict(kinds=[3.0, 3.0]), "trace kinds must be integers, got float64"),
        (True, dict(sources=[0, -3], targets=[1, 2]), "event 1 (-3,2) references a node outside 0..3"),
        (True, dict(sources=[0, 2], targets=[1, -7]), "event 1 (2,-7) references a node outside 0..3"),
        (True, dict(sources=[0, 4], targets=[1, 0]), "event 1 (4,0) references a node outside 0..3"),
        (True, dict(kinds=[3, 4]), "event 1: kind code 4 is not a kind of directed event"),
        (True, dict(kinds=[-1, 3]), "event 0: kind code -1 is not a kind of directed event"),
        (True, dict(kinds=[2, 0]), "event 0: kind code 2 is not a kind of directed event"),
        (False, dict(kinds=[0, 3, 7, 0]), "event 1: kind code 3 is not a kind of undirected event"),
        (False, dict(kinds=[0, 1, 7, 0]), "event 2: kind code 7 is not a kind of undirected event"),
        # checked before the int8 cast, which would read 259 as 3
        (True, dict(kinds=[3, 259]), "event 1: kind code 259 is not a kind of directed event"),
        (True, dict(labels=[0, 2, 1, 1]), "labels must be 0 (majority) or 1 (minority)"),
        (True, dict(labels=[]), "label list must be non-empty"),
        (True, dict(labels=[[0, 0, 1, 1]]), "labels must be one per node, a flat list; got shape (1, 4)"),
        (True, dict(m=7), "a directed trace has no per-arrival edge count m, got m=7"),
        (False, dict(order_assumed="no"), "trace order_assumed must be a bool, got str 'no'"),
        (False, dict(order_assumed=1), "trace order_assumed must be a bool, got int 1"),
        (False, dict(m=0), "m must lie in [1, 3], got 0"),
        (False, dict(m=4), "m must lie in [1, 3], got 4"),
        (False, dict(m=True), "m must be an integer, got bool True"),
        (False, dict(m=2.0), "m must be an integer, got float 2.0"),
        (False, dict(sources=[2, 2, 3], targets=[0, 1, 0], kinds=[0, 0, 0]),
         "trace does not have m events per arrival for every node >= m"),
        (False, dict(m=1), "trace does not have m events per arrival for every node >= m"),
        # growth order and a simple replay: once refused only when the trace was scored
        (False, dict(sources=[1, 2, 3], targets=[2, 0, 0], kinds=[0, 0, 0], m=1),
         "event 0: target 2 not below source 1; "),
        (False, dict(sources=[2, 1], targets=[0, 0], kinds=[0, 0], m=None), "event 1: source 1 out of arrival order"),
        # an edge repeated within an arrival would be scored with its degree counted twice
        (False, dict(targets=[0, 0, 0, 1]), "duplicate edge"),
        (True, dict(sources=[0, 1, 0], targets=[1, 2, 1], kinds=[3, 3, 3]), "duplicate edge"),
        (True, dict(sources=[0, 2], targets=[1, 2]), "trace replays an invalid edge: self-loop (2,2)"),
    ],
)
def test_trace_constructor_refusals(directed, changes, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        GrowthTrace(**_trace_fields(directed, **changes))


def test_the_first_bad_event_is_named_whatever_its_fault():
    # once the id scan ran first, so the bad id of event 3 hid the bad kind of event 0
    with pytest.raises(TraceError, match=re.escape("event 0: kind code 3 is not a kind of undirected event")) as exc:
        GrowthTrace(**_trace_fields(False, sources=[2, 2, 3, 9], kinds=[3, 0, 0, 0]))
    assert exc.value.event == 0


def test_trace_flags_are_bools():
    # a string once passed for true, so the kind check named a good kind code
    with pytest.raises(ValueError, match="trace directed must be a bool, got str 'no'"):
        GrowthTrace("no", [0, 1, 1], [0, 1], [1, 2], [3, 3])
    trace = GrowthTrace(**dict(_trace_fields(True, order_assumed=np.True_), directed=np.True_))
    assert trace.directed is True and trace.order_assumed is True
    assert fit_model(trace, "dpa").order_assumed is True


@pytest.mark.parametrize("directed", [False, True], ids=["undirected", "directed"])
def test_a_trace_keeps_a_graph_given_only_when_it_replays_to_it(directed):
    grow = (lambda seed: gen_directed("dpah", 30, 0.1, 0.3, 0.8, seed=seed)) if directed else (
        lambda seed: gen_pah(30, 2, 0.3, 0.8, seed=seed))
    g, trace = grow(1)
    fields = {name: getattr(trace, name) for name in ("directed", "labels", "sources", "targets", "kinds", "m")}
    assert GrowthTrace(**fields, replays=g).graph is g
    edges = list(g.edges())
    assert trace_from_graph(g, seed=2).graph is g
    same_size = AttributedGraph(directed, g.labels, list(grow(2)[0].edges()))
    assert same_size.num_edges == g.num_edges and same_size != g
    for other in (AttributedGraph(not directed, g.labels, edges[:1]), AttributedGraph(directed, 1 - g.labels, edges),
                  AttributedGraph(directed, g.labels, edges[1:]), same_size):
        with pytest.raises(ValueError, match="trace does not rebuild the network it was given"):
            GrowthTrace(**fields, replays=other)


@pytest.mark.parametrize("directed", [False, True], ids=["undirected", "directed"])
def test_a_valid_trace_keeps_read_only_copies(directed):
    fields = _trace_fields(directed, labels=[0, 0, 1, 1.0])
    fields["sources"] = fields["sources"].astype(np.uint16)
    trace = GrowthTrace(**fields)
    for name, dtype in [("labels", np.int8), ("sources", np.int64), ("targets", np.int64), ("kinds", np.int8)]:
        array = getattr(trace, name)
        assert array.dtype == dtype and not array.flags.writeable, name
        assert np.array_equal(array, fields[name]) and not np.shares_memory(array, fields[name]), name


def _traces_of_every_origin(tmp_path):
    g, generated = gen_pah(60, 2, 0.3, 0.8, seed=1)
    dg, directed = gen_directed("dpah", 40, 0.05, 0.3, 0.8, seed=1)
    return [
        generated, directed, trace_from_graph(g), trace_from_graph(dg, seed=2),
        read_trace(write_trace(generated, tmp_path / "u_trace.csv"), g),
        read_trace(write_trace(directed, tmp_path / "d_trace.csv"), dg),
    ]


def test_every_trace_is_read_only_whatever_its_origin(tmp_path):
    for trace in _traces_of_every_origin(tmp_path):
        for name in ("labels", "sources", "targets", "kinds"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(trace, name)[0] = 0


def test_a_checked_trace_cannot_change():
    _, tr = gen_pah(500, 2, 0.3, 0.8, seed=1)
    with pytest.raises(ValueError, match="read-only"):
        tr.targets[-2], tr.targets[-1] = tr.targets[-1], tr.targets[-2]
    with pytest.raises(ValueError, match="read-only"):
        tr.labels[0] = 1 - tr.labels[0]
    assert fit_model(tr, "pah").log_lik == -4750.454878051801


def test_writing_the_arrays_a_trace_was_built_from_changes_no_fit():
    _, tr = gen_pah(500, 2, 0.3, 0.8, seed=1)
    arrays = {name: getattr(tr, name).copy() for name in ("labels", "sources", "targets", "kinds")}
    built = GrowthTrace(directed=False, m=2, **arrays)
    assert fit_model(built, "pah").log_lik == -4750.454878051801
    arrays["targets"][-2:] = arrays["targets"][-2:][::-1].copy()
    arrays["labels"][:] = 1 - arrays["labels"]
    assert fit_model(built, "pah").log_lik == -4750.454878051801


def test_traces_compare_field_by_field(tmp_path):
    traces = _traces_of_every_origin(tmp_path)
    again = _traces_of_every_origin(tmp_path)
    for i, trace in enumerate(traces):
        for j, other in enumerate(again):
            assert (trace == other) is (i == j or {i, j} == {0, 4} or {i, j} == {1, 5})
    fields = _trace_fields(False)
    assert GrowthTrace(**fields) != GrowthTrace(**dict(fields, m=None))
    assert GrowthTrace(**fields) != GrowthTrace(**dict(fields, order_assumed=True))
    assert GrowthTrace(**fields) != GrowthTrace(**dict(fields, labels=np.array([0, 1, 1, 1])))
    assert GrowthTrace(**fields) != "trace"
    with pytest.raises(TypeError, match="unhashable"):
        hash(traces[0])


def test_growth_argument_validation():
    with pytest.raises(ValueError):
        gen_pa(5, 0, seed=0)
    with pytest.raises(ValueError):
        gen_pa(5, 5, seed=0)
    with pytest.raises(ValueError):
        gen_patch(10, 2, 0.3, 0.5, 1.5, seed=0)


# -- directed family -----------------------------------------------------------


@pytest.mark.parametrize("model", ["dpa", "dh", "dpah"])
def test_directed_edge_count_exact(model):
    H = 0.7 if model != "dpa" else None
    g, trace = gen_directed(model, 80, 0.01, 0.3, H, seed=2)
    want = round(0.01 * 80 * 79)
    assert g.num_edges == want
    assert len(trace) == want
    assert trace.directed


def test_directed_no_self_loops_or_duplicates():
    g, _ = gen_directed("dpa", 60, 0.02, 0.2, seed=5)
    seen = set()
    for u, v in g.edges():
        assert u != v
        assert (u, v) not in seen
        seen.add((u, v))


def test_dh_pure_homophily_saturates():
    # h=1.0 with two classes of 2 nodes allows only 4 same-class ordered
    # pairs; a density of 1.0 demands 12 edges, so the generator must abort.
    with pytest.raises(SaturationError) as err:
        gen_directed("dh", 4, 1.0, 0.5, 1.0, seed=0)
    assert err.value.placed == 4
    assert err.value.target == 12


def test_directed_sources_follow_the_activities_recomputed_from_the_seed():
    # Under positive affinities a source saturates only at n - 1 out-edges, so below that
    # every source draw places an edge and the sources of a trace are i.i.d. draws from
    # the activities, which the seed fixes: labels first, then activities, as drawn.
    # The targets draw from another stream, so the three models place the same sources.
    n, d, f_m, gamma_a = 60, 0.1, 0.3, 3.5
    observed, expected = [], []
    for seed in range(40):
        sources = [gen_directed(model, n, d, f_m, H, gamma_a, seed=seed)[1].sources
                   for model, H in (("dpah", 0.8), ("dpa", None), ("dh", 0.8))]
        assert all(np.array_equal(sources[0], other) for other in sources[1:])
        counts = np.bincount(sources[0], minlength=n)
        assert counts.max() < n - 1
        rng = make_rng(seed)
        assign_classes(n, f_m, rng)
        activity = sample_activity(n, gamma_a, rng)
        observed.append(counts)
        expected.append(counts.sum() * activity / activity.sum())
    assert chisquare(np.concatenate(observed), np.concatenate(expected)).pvalue > 1e-3


def _bench_tracer():
    path = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# what the benchmark's tracer wraps, by owner; a name that is gone fails its install
_TRACED_NAMES = {
    graphmix.cli: ("generate", "read_network", "read_trace", "write_network", "write_trace", "write_config",
                   "select_model", "rank_report", "benchmark", "seeding", "cascade", "threshold_cascade",
                   "equality_report"),
    graphmix.generate: ("weighted_pick", "pick_from_cumulative"),
    AttributedGraph: ("edges",),
    graphmix.ranking: ("pagerank",),
    graphmix.sampling: ("sample",),
}


def test_the_tracer_wraps_its_names_and_changes_no_directed_trace():
    untraced = gen_directed("dpah", 300, 0.02, 0.3, 0.8, 3.5, seed=1)[1]
    names = {(owner, attr): getattr(owner, attr) for owner, attrs in _TRACED_NAMES.items() for attr in attrs}
    tracing = _bench_tracer()
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        unwrapped = [attr for (owner, attr), orig in names.items() if getattr(owner, attr) is orig]
        traced = gen_directed("dpah", 300, 0.02, 0.3, 0.8, 3.5, seed=1)[1]
    finally:
        tracer.restore()
    assert not unwrapped
    assert all(getattr(owner, attr) is orig for (owner, attr), orig in names.items())
    assert traced == untraced and len(traced) > 0


def test_dpah_h1_edges_same_class_only():
    g, _ = gen_directed("dpah", 100, 0.005, 0.3, 1.0, seed=8)
    for u, v in g.edges():
        assert g.labels[u] == g.labels[v]


def test_directed_argument_validation():
    with pytest.raises(ValueError):
        gen_directed("dpa", 1, 0.5, 0.2, seed=0)
    with pytest.raises(ValueError):
        gen_directed("dpa", 10, 0.0, 0.2, seed=0)
    with pytest.raises(ValueError):
        gen_directed("dh", 10, 0.1, 0.2, None, seed=0)
    with pytest.raises(ValueError):
        gen_directed("nope", 10, 0.1, 0.2, seed=0)


@pytest.mark.parametrize("H", [1.0, MixingMatrix.symmetric(1.0)], ids=["float", "matrix"])
def test_dpa_rejects_a_mixing_matrix(H):
    with pytest.raises(ValueError, match="model dpa takes no mixing matrix"):
        gen_directed("dpa", 30, 0.05, 0.3, H, seed=0)


# -- exactness of the samplers --------------------------------------------------

# (model, generator, model parameters for the replay); small networks, so that
# rejected trials, the exact scan and fallback-uniform picks all occur
EXACTNESS_CASES = {
    "pa-m1": ("pa", lambda seed: gen_pa(30, 1, seed), {}),
    "pa-m4": ("pa", lambda seed: gen_pa(30, 4, seed), {}),
    "pah": ("pah", lambda seed: gen_pah(40, 2, 0.3, 0.8, seed), {"h": 0.8}),
    "pah-h1": ("pah", lambda seed: gen_pah(40, 3, 0.3, 1.0, seed), {"h": 1.0}),
    "patch": ("patch", lambda seed: gen_patch(40, 3, 0.3, 0.8, 0.5, seed), {"h": 0.8, "p_tc": 0.5}),
    "dpa": ("dpa", lambda seed: gen_directed("dpa", 30, 0.3, 0.3, seed=seed), {}),
    "dh": ("dh", lambda seed: gen_directed("dh", 30, 0.3, 0.3, 0.8, seed=seed), {"h": 0.8}),
    "dpah": ("dpah", lambda seed: gen_directed("dpah", 30, 0.3, 0.3, 0.8, seed=seed), {"h": 0.8}),
}


def _randomised_pits(trace, model, params, rng):
    """F(t-) + U * p_t of every event, nodes ordered by (probability, class, id)."""
    pits = []
    events = replay_event_probabilities(trace, model, **params)
    for (eligible, probs), t in zip(events, trace.targets):
        order = np.lexsort((eligible, trace.labels[eligible], probs))
        eligible, probs = eligible[order], probs[order]
        k = int(np.flatnonzero(eligible == t)[0])
        assert probs[k] > 0.0
        pits.append(probs[:k].sum() + rng.random() * probs[k])
    return pits


@pytest.mark.parametrize("path", ["sampler", "exact-scan"])
@pytest.mark.parametrize("case", sorted(EXACTNESS_CASES))
def test_generated_picks_follow_the_replayed_pick_distribution(case, path, monkeypatch):
    # Under the exact per-event probabilities the randomised PIT of every
    # event is an independent U(0, 1) draw, whatever the sampler does inside.
    # With no rejected trial allowed, every scored pick takes the exact scan.
    model, make, params = EXACTNESS_CASES[case]
    scans = []
    exact_scan = graphmix.generate.weighted_pick
    monkeypatch.setattr(graphmix.generate, "weighted_pick", lambda rng, w: scans.append(1) or exact_scan(rng, w))
    if path == "exact-scan":
        monkeypatch.setattr(graphmix.generate, "_MAX_REJECTIONS", 0)
    rng = np.random.default_rng(1)
    pits = []
    scored = 0
    for seed in range(60):
        _, trace = make(seed)
        pits += _randomised_pits(trace, model, params, rng)
        scored += int(np.isin(trace.kinds, (EventKind.PAH_PICK, EventKind.DIRECTED_PICK)).sum())
    assert kstest(pits, "uniform").pvalue > 1e-3
    if path == "exact-scan":
        assert len(scans) == scored
    elif case == "pa-m1":
        # one pick per arrival has no chosen target to reject; node 0 starts with degree 0
        assert not scans and trace.kinds[0] == EventKind.FALLBACK_UNIFORM
    else:
        assert 0 < len(scans) < scored / 4, "the exact scan never ran, or took over the sampler's work"


# (generator, h, cap); p_tc = 1 makes every later pick a triadic-closure one, and the
# dense case, under a cap of one trial, sends many of them to the exact draw
LATER_TC_CASES = {
    "m3": (lambda seed: gen_patch(200, 3, 0.3, 0.8, 1.0, seed), 0.8, 8),
    "m4": (lambda seed: gen_patch(200, 4, 0.3, 0.8, 1.0, seed), 0.8, 8),
    "dense": (lambda seed: gen_patch(30, 8, 0.5, 0.5, 1.0, seed), 0.5, 1),
}


def test_later_closure_picks_are_uniform_over_the_triangle_closing_set(monkeypatch):
    # The randomised PIT of every tc pick with two or more chosen targets,
    # nodes in id order, under the exact per-event probabilities.  A draw that
    # kept an entry another chosen target's list also holds would favour the
    # common neighbours of the chosen targets.
    exact = []
    closure_pick = graphmix.generate._closure_pick

    def counted(random, lists, chosen):
        draws = []
        target = closure_pick(lambda: draws.append(1) or random(), lists, chosen)
        exact.append(len(draws) > graphmix.generate._MAX_REJECTIONS)
        return target

    monkeypatch.setattr(graphmix.generate, "_closure_pick", counted)
    rng = np.random.default_rng(2)
    counts = {}
    for case, (make, h, cap) in LATER_TC_CASES.items():
        monkeypatch.setattr(graphmix.generate, "_MAX_REJECTIONS", cap)
        exact.clear()
        pits = []
        for seed in range(30):
            _, trace = make(seed)
            later = (np.arange(len(trace)) % trace.m >= 2) & (trace.kinds == EventKind.TC_PICK)
            events = replay_event_probabilities(trace, "patch", h, 1.0)
            for (eligible, probs), t, keep in zip(events, trace.targets, later):
                if keep:
                    k = int(np.searchsorted(eligible, t))
                    assert eligible[k] == t and probs[k] > 0.0
                    pits.append(probs[:k].sum() + rng.random() * probs[k])
        counts[case] = np.histogram(pits, bins=10, range=(0.0, 1.0))[0]
        assert chisquare(counts[case]).pvalue > 1e-3, (case, counts[case])
        if case == "dense":
            assert 0.1 * len(exact) < sum(exact) < len(exact), "the exact draw never ran, or always ran"
    assert chisquare(sum(counts.values())).pvalue > 1e-3


# -- the inlined draws against the one-call-per-draw kernels --------------------------


@st.composite
def _small_params(draw):
    model = draw(st.sampled_from(ALL_MODELS))
    seed = draw(st.integers(0, 2**32 - 1))
    if model == "pa":
        n = draw(st.integers(2, 40))
        return GenParams(model, n, seed, m=draw(st.integers(1, min(4, n - 1))))
    f_m = draw(st.sampled_from([0.0, 0.2, 0.5]))
    # entries of 0 and 1 leave a class without weight, or a source without admissible targets
    entries = draw(st.lists(st.sampled_from([0.0, 1.0, 0.3, 0.8]), min_size=4, max_size=4))
    H = MixingMatrix(np.reshape(entries, (2, 2)))
    if model in ("pah", "patch"):
        n = draw(st.integers(2, 40))
        p_tc = draw(st.sampled_from([0.0, 0.5, 1.0])) if model == "patch" else None
        return GenParams(model, n, seed, m=draw(st.integers(1, min(4, n - 1))), f_m=f_m, H=H, p_tc=p_tc)
    n = draw(st.integers(2, 25))
    d = draw(st.sampled_from([0.05, 0.2, 0.5, 1.0]))
    assume(round(d * n * (n - 1)) >= 1)
    gamma_a = draw(st.sampled_from([1.5, 3.5]))
    return GenParams(model, n, seed, d=d, f_m=f_m, H=None if model == "dpa" else H, gamma_a=gamma_a)


def _trace_or_error(grow):
    try:
        trace = grow()
    except SaturationError as exc:
        return str(exc)
    return trace.sources.tolist(), trace.targets.tolist(), trace.kinds.tolist()


def _later_closure_examples(test):
    # patch at m = 3 and 4 draws later closure targets by rejection; at caps 1
    # and 8 each row fails when a trial keeps an entry an earlier list holds,
    # which the hypothesis draws reach only now and then
    for m, p_tc, cap in itertools.product((3, 4), (0.5, 1.0), (0, 1, 8)):
        test = example(params=GenParams("patch", 20, 1, m=m, f_m=0.3, H=0.8, p_tc=p_tc), cap=cap)(test)
    return test


def _saturation_examples(test):
    # a directed source saturates once it blocks every member of its classes of positive
    # affinity: under a zero off-diagonal, under a zero diagonal (itself blocked besides
    # them), from the start under an all-zero row, and at density 1 in SaturationError
    rows = ([[1.0, 0.0], [0.0, 1.0]], [[0.0, 1.0], [1.0, 0.0]], [[0.0, 0.0], [0.8, 0.3]])
    for model, H, d, cap in itertools.product(("dh", "dpah"), rows, (0.2, 1.0), (0, 8)):
        test = example(params=GenParams(model, 20, 1, d=d, f_m=0.3, H=MixingMatrix(np.array(H))), cap=cap)(test)
    return example(params=GenParams("dpa", 20, 1, d=1.0, f_m=0.3), cap=8)(test)


@settings(max_examples=250, deadline=None)
@given(params=_small_params(), cap=st.sampled_from([0, 1, 8]))
@_later_closure_examples
@_saturation_examples
def test_generators_grow_the_reference_kernels_trace(params, cap):
    # a cap of 0 or 1 rejected trials sends many picks to the exact scan
    with mock.patch.object(graphmix.generate, "_MAX_REJECTIONS", cap):
        got = _trace_or_error(lambda: generate(params)[1])
    assert got == _trace_or_error(lambda: reference_generate(params, cap))


@pytest.mark.parametrize("args,digest", [
    ((2000, 3, 0.3, 0.8, 0.5, 1), "52034d7960330540f374e63c2d171bb7b3a579987e1a3be9ce1bab19e01e9939"),
    ((2000, 4, 0.3, 0.8, 0.7, 2), "714f925542b2068f6dcf91f9fccce112357b9fa637286c760d071c3b30f3f55f"),
])
def test_no_rejected_trial_draws_the_sorted_union_seeded_traces(args, digest, tmp_path, monkeypatch):
    # With no rejected trial allowed, every later closure pick is the exact
    # draw from the sorted union, and every scored pick the exact scan: the
    # trace bytes recorded before later closure picks were rejection-sampled.
    monkeypatch.setattr(graphmix.generate, "_MAX_REJECTIONS", 0)
    write_trace(gen_patch(*args)[1], tmp_path / "trace.csv")
    assert hashlib.sha256((tmp_path / "trace.csv").read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("grow,bound", [
    (lambda: gen_directed("dpah", 3000, 0.005, 0.3, 0.8, seed=1), 190),
    (lambda: gen_patch(10000, 3, 0.3, 0.8, 0.5, seed=1), 150),
], ids=["dpah", "patch"])
def test_generator_peak_memory_per_edge(grow, bound):
    # the loops once built the trace, and with it the graph, before they
    # returned: the directed loop's per-source sets and the event lists were
    # still held during the graph build (about 210-230 and 200 B per edge)
    tracemalloc.start()
    try:
        _, trace = grow()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < bound * len(trace), peak / len(trace)


# -- activity -------------------------------------------------------------------


def test_activity_inverse_cdf_known_point():
    # (1 - 0.75)^(-1/(2-1)) = 4
    assert activity_from_uniform(0.75, 2.0) == pytest.approx(4.0)


def test_activity_minimum_is_one():
    vals = sample_activity(5000, 2.5, make_rng(3))
    assert vals.min() >= 1.0
    # mean of a Pareto with x_min=1, gamma=2.5 is (gamma-1)/(gamma-2) = 3
    assert abs(vals.mean() - 3.0) < 0.5


def test_activity_rejects_gamma_at_or_below_one():
    with pytest.raises(ValueError):
        activity_from_uniform(0.5, 1.0)
    with pytest.raises(ValueError, match="gamma_a must be > 1, got nan"):
        activity_from_uniform(0.5, float("nan"))


def test_gen_directed_rejects_nan_gamma():
    with pytest.raises(ValueError, match="gamma_a must be > 1, got nan"):
        gen_directed("dpa", 200, 0.02, 0.3, None, gamma_a=float("nan"), seed=1)


# -- params / dispatcher ---------------------------------------------------------


def test_generate_dispatch_matches_direct_calls():
    p = GenParams(model="pah", n=50, seed=4, m=2, f_m=0.3, H=MixingMatrix.symmetric(0.7))
    g1, _ = generate(p)
    g2, _ = gen_pah(50, 2, 0.3, 0.7, seed=4)
    assert g1 == g2


def test_genparams_validation_messages():
    with pytest.raises(ValueError):
        GenParams(model="zzz", n=10).validate()
    with pytest.raises(ValueError):
        GenParams(model="pa", n=10).validate()  # missing m
    with pytest.raises(ValueError):
        GenParams(model="pah", n=10, m=2).validate()  # missing f_m/H
    with pytest.raises(ValueError):
        GenParams(model="dpa", n=10, d=0.1).validate()  # missing f_m
    with pytest.raises(ValueError):
        GenParams(model="dpa", n=10, d=0.1, f_m=0.2, gamma_a=1.0).validate()


@pytest.mark.parametrize("seed", [-1, True])
def test_genparams_validate_checks_the_seed(seed):
    with pytest.raises(ValueError) as refusal:
        check_seed(seed)
    with pytest.raises(ValueError, match=re.escape(str(refusal.value))):
        GenParams(model="pa", n=10, m=1, seed=seed).validate()


def test_genparams_takes_numpy_integer_sizes():
    # the integer check admits every Integral but bool, numpy's integers included
    assert gen_pa(np.int64(40), np.int32(2), 3)[0] == gen_pa(40, 2, 3)[0]
    with pytest.raises(ValueError, match="m must be an integer"):
        GenParams(model="pa", n=40, m=np.float64(2.0)).validate()


def test_genparams_model_case_insensitive():
    assert GenParams(model="PA", n=10, m=1).model == "pa"


# what each model reads besides n and seed (the README model table), and a
# valid value of every such parameter
MODEL_READS = {
    "pa": {"m"},
    "pah": {"m", "f_m", "H"},
    "patch": {"m", "f_m", "H", "p_tc"},
    "dpa": {"d", "f_m", "gamma_a"},
    "dh": {"d", "f_m", "H", "gamma_a"},
    "dpah": {"d", "f_m", "H", "gamma_a"},
}
VALID_VALUES = {"m": 2, "f_m": 0.3, "H": 0.8, "p_tc": 0.5, "d": 0.05, "gamma_a": 3.0}


@pytest.mark.parametrize("param", sorted(VALID_VALUES))
@pytest.mark.parametrize("model", sorted(MODEL_READS))
def test_genparams_rejects_missing_and_unread_parameters(model, param):
    reads = {name: VALID_VALUES[name] for name in MODEL_READS[model]}
    GenParams(model=model, n=40, **reads).validate()
    if param not in MODEL_READS[model]:
        with pytest.raises(ValueError, match=f"model {model} takes no "):
            GenParams(model=model, n=40, **reads, **{param: VALID_VALUES[param]}).validate()
    elif param == "gamma_a":
        del reads[param]
        assert GenParams(model=model, n=40, **reads).gamma_a == 2.5
    else:
        del reads[param]
        with pytest.raises(ValueError, match=f"model {model} requires "):
            GenParams(model=model, n=40, **reads).validate()


def test_missing_minority_fraction_is_a_value_error():
    with pytest.raises(ValueError, match="model pah requires minority fraction"):
        gen_pah(50, 2, None, 0.8, 1)
    with pytest.raises(ValueError, match="model patch requires p_tc"):
        gen_patch(50, 2, 0.3, 0.8, None, 1)
