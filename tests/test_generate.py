import math

import numpy as np
import pytest

from graphmix.generate import (
    EventKind,
    GenParams,
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
from graphmix.rng import make_rng


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
    labels = trace.labels
    for s, t, kind in trace.events():
        if kind is EventKind.PAH_PICK:
            assert labels[s] == labels[t]


def test_trace_sources_shape():
    _, trace = gen_pah(40, 3, 0.2, 0.4, seed=9)
    srcs = trace.sources.reshape(-1, 3)
    assert np.array_equal(srcs[:, 0], np.arange(3, 40))
    assert (srcs == srcs[:, :1]).all()


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


def test_genparams_model_case_insensitive():
    assert GenParams(model="PA", n=10, m=1).model == "pa"
