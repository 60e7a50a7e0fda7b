import importlib.util
import math
import re
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.stats import kstest

import graphmix.generate
from graphmix.generate import (
    ALL_MODELS,
    EventKind,
    GenParams,
    GrowthTrace,
    SaturationError,
    activity_from_uniform,
    gen_directed,
    gen_pa,
    gen_pah,
    gen_patch,
    generate,
    rebuild_graph,
    sample_activity,
)
from graphmix.graph import AttributedGraph, MixingMatrix
from graphmix.inference import fit_model, replay_event_probabilities, trace_from_graph
from graphmix.netio import read_trace, write_trace
from graphmix.rng import make_rng

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


def test_trace_rebuild_matches_generated_graph():
    for g, trace in [
        gen_pa(60, 2, seed=0),
        gen_pah(60, 3, 0.3, 0.2, seed=1),
        gen_patch(60, 3, 0.3, 0.8, 0.6, seed=2),
        gen_directed("dpah", 50, 0.02, 0.3, 0.7, seed=3),
    ]:
        assert rebuild_graph(trace) == g


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
    assert len(set(graphmix.__all__)) == len(graphmix.__all__) == 63
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


def test_patch_ptc_one_closes_triangles_when_possible():
    _, trace = gen_patch(100, 2, 0.3, 0.5, 1.0, seed=4)
    # with p_tc=1 every non-first pick must be a tc-pick unless the
    # candidate set was empty, which cannot happen for m=2 after the first
    # pick on a connected growth graph (the first target has m seed edges).
    second_picks = trace.kinds.reshape(-1, 2)[:, 1]
    assert (second_picks == int(EventKind.TC_PICK)).all()


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
    ],
)
def test_trace_constructor_refusals(directed, changes, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        GrowthTrace(**_trace_fields(directed, **changes))


def test_trace_flags_are_bools():
    # a string once passed for true, so the kind check named a good kind code
    with pytest.raises(ValueError, match="trace directed must be a bool, got str 'no'"):
        GrowthTrace("no", [0, 1, 1], [0, 1], [1, 2], [3, 3])
    trace = GrowthTrace(**dict(_trace_fields(True, order_assumed=np.True_), directed=np.True_))
    assert trace.directed is True and trace.order_assumed is True
    assert fit_model(trace, "dpa").order_assumed is True


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


def _bench_tracer():
    path = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_source_draws_equal_the_directed_event_count():
    # The benchmark's tracer counts source draws by wrapping the name
    # pick_from_cumulative in graphmix.generate, so the generator must look
    # it up there on every draw; this network needs no source redraw.
    tracing = _bench_tracer()
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        _, trace = gen_directed("dpah", 300, 0.02, 0.3, 0.8, 3.5, seed=1)
    finally:
        tracer.restore()
    assert tracer.summary().count("rng.pick_from_cumulative") == len(trace) > 0


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


@settings(max_examples=250, deadline=None)
@given(params=_small_params(), cap=st.sampled_from([0, 1, 8]))
def test_generators_grow_the_reference_kernels_trace(params, cap):
    # a cap of 0 or 1 rejected trials sends many picks to the exact scan
    with mock.patch.object(graphmix.generate, "_MAX_REJECTIONS", cap):
        got = _trace_or_error(lambda: generate(params)[1])
    assert got == _trace_or_error(lambda: reference_generate(params, cap))


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
