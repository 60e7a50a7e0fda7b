import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphmix.graph import AttributedGraph
from graphmix.rng import make_rng, sample_without_replacement
from graphmix.spreading import (
    SEED_CONDITIONS,
    cascade,
    crossing_time,
    equality_report,
    seeding,
    threshold_cascade,
)

from helpers import naive_cascade_times, naive_threshold_times, random_graph


def _complete(labels):
    n = len(labels)
    return AttributedGraph(False, labels, [(u, v) for u in range(n) for v in range(u + 1, n)])


# -- independent cascade ---------------------------------------------------------


def test_certain_transmission_floods_component_in_bfs_time():
    g = _complete([0, 0, 1, 1])
    trace = cascade(g, [0], p_in=1.0, p_out=1.0, rng=make_rng(0))
    assert trace.activation_time.tolist() == [0, 1, 1, 1]
    assert trace.n_steps == 1
    assert trace.class_fractions[-1].tolist() == [1.0, 1.0]


def test_zero_transmission_keeps_seeds_only():
    g = _complete([0, 0, 1, 1])
    trace = cascade(g, [2], p_in=0.0, p_out=0.0, rng=make_rng(0))
    assert trace.activation_time.tolist() == [-1, -1, 0, -1]
    assert trace.n_steps == 0
    assert trace.class_fractions.tolist() == [[0.0, 0.5]]


def test_certain_transmission_on_path_gives_distance_times():
    g = AttributedGraph(False, [0, 0, 1], [(0, 1), (1, 2)])
    trace = cascade(g, [0], p_in=1.0, p_out=1.0, rng=make_rng(3))
    assert trace.activation_time.tolist() == [0, 1, 2]


def test_max_steps_truncates_the_cascade():
    g = AttributedGraph(False, [0] * 5, [(i, i + 1) for i in range(4)])
    trace = cascade(g, [0], 1.0, 1.0, rng=make_rng(1), max_steps=2)
    assert trace.activation_time.tolist() == [0, 1, 2, -1, -1]


def test_cascade_determinism_and_param_validation():
    g = random_graph(40, directed=False, p=0.1, rng=make_rng(2))
    a = cascade(g, [0, 1], 0.3, 0.1, rng=make_rng(7))
    b = cascade(g, [0, 1], 0.3, 0.1, rng=make_rng(7))
    assert np.array_equal(a.activation_time, b.activation_time)
    with pytest.raises(ValueError):
        cascade(g, [0], 1.2, 0.5, rng=make_rng(0))
    with pytest.raises(ValueError):
        cascade(g, [0], 0.5, -0.1, rng=make_rng(0))
    with pytest.raises(ValueError):
        cascade(g, [], 0.5, 0.5, rng=make_rng(0))
    with pytest.raises(ValueError):
        cascade(g, [40], 0.5, 0.5, rng=make_rng(0))


def test_equal_rates_make_the_cascade_label_blind():
    rng = make_rng(11)
    base = random_graph(50, directed=False, p=0.12, rng=rng)
    flipped = AttributedGraph(False, 1 - base.labels, list(base.edges()))
    a = cascade(base, [3], 0.4, 0.4, rng=make_rng(5))
    b = cascade(flipped, [3], 0.4, 0.4, rng=make_rng(5))
    assert np.array_equal(a.activation_time, b.activation_time)


def test_fraction_series_is_monotone_and_seeded_at_zero():
    g = random_graph(60, directed=False, p=0.08, rng=make_rng(4))
    trace = cascade(g, [0, 5, 9], 0.5, 0.2, rng=make_rng(9))
    assert np.all(np.diff(trace.class_fractions, axis=0) >= -1e-15)
    assert np.all(trace.activation_time[trace.seeds] == 0)
    others = np.setdiff1d(np.arange(g.n), trace.seeds)
    assert np.all(
        (trace.activation_time[others] == -1) | (trace.activation_time[others] >= 1)
    )
    overall = trace.overall_fractions()
    assert overall.shape == (trace.n_steps + 1,)
    assert np.all((overall >= 0) & (overall <= 1))


def test_directed_cascade_follows_edge_direction():
    g = AttributedGraph(True, [0, 0, 0], [(0, 1), (2, 1)])
    trace = cascade(g, [0], 1.0, 1.0, rng=make_rng(0))
    # 1 is reachable from 0; 2 is not (its edge points the wrong way)
    assert trace.activation_time.tolist() == [0, 1, -1]


@given(st.integers(2, 25), st.booleans(), st.floats(0.05, 0.5), st.floats(0.0, 1.0),
       st.floats(0.0, 1.0), st.integers(0, 2**32 - 1), st.integers(1, 4), st.integers(1, 30))
@settings(max_examples=60, deadline=None)
def test_cascade_matches_scalar_draw_reference(n, directed, p, p_in, p_out, seed, n_seeds, max_steps):
    g = random_graph(n, directed, p, make_rng(seed))
    seeds = sample_without_replacement(make_rng(seed + 1), n, min(n_seeds, n))
    rng, ref_rng = make_rng(seed + 2), make_rng(seed + 2)
    trace = cascade(g, seeds, p_in, p_out, rng, max_steps=max_steps)
    assert trace.activation_time.tolist() == naive_cascade_times(g, seeds, p_in, p_out, ref_rng, max_steps)
    assert rng.random() == ref_rng.random()  # same number of draws consumed


# -- threshold cascade -------------------------------------------------------------


@given(st.integers(2, 25), st.booleans(), st.floats(0.05, 0.5),
       st.sampled_from([1e-13, 0.1, 0.25, 1 / 3, 0.5, 0.75, 1.0]),
       st.integers(0, 2**32 - 1), st.integers(1, 4), st.integers(1, 30))
@settings(max_examples=60, deadline=None)
def test_threshold_matches_full_recount_reference(n, directed, p, theta, seed, n_seeds, max_steps):
    g = random_graph(n, directed, p, make_rng(seed))
    seeds = sample_without_replacement(make_rng(seed + 1), n, min(n_seeds, n))
    trace = threshold_cascade(g, seeds, theta, max_steps=max_steps)
    expected = naive_threshold_times(g, seeds, theta, max_steps)
    assert trace.activation_time.tolist() == expected
    labels = g.labels.tolist()
    for t in range(trace.n_steps + 1):
        for c in (0, 1):
            size = labels.count(c)
            informed = sum(1 for v in range(n) if labels[v] == c and 0 <= expected[v] <= t)
            assert trace.class_fractions[t, c] == (informed / size if size else 0.0)



def test_threshold_half_spreads_along_a_path():
    g = AttributedGraph(False, [0, 0, 1], [(0, 1), (1, 2)])
    trace = threshold_cascade(g, [0], theta=0.5)
    assert trace.activation_time.tolist() == [0, 1, 2]


def test_threshold_leaves_follow_a_seeded_hub():
    g = AttributedGraph(False, [1, 0, 0, 0, 0], [(0, j) for j in range(1, 5)])
    trace = threshold_cascade(g, [0], theta=0.6)
    assert trace.activation_time.tolist() == [0, 1, 1, 1, 1]


def test_threshold_blocks_in_a_dense_clique():
    g = _complete([0, 0, 1, 1])
    trace = threshold_cascade(g, [0], theta=0.6)
    # each inactive node sees 1/3 active, below theta: no activation at all
    assert trace.activation_time.tolist() == [0, -1, -1, -1]


def test_threshold_boundary_counts_as_reached():
    g = AttributedGraph(False, [0, 1, 0, 0], [(0, 1), (0, 2), (0, 3)])
    trace = threshold_cascade(g, [1], theta=1 / 3)
    # hub 0 sees exactly 1/3 of its 3 neighbors: activates at t=1
    assert trace.activation_time.tolist() == [1, 0, 2, 2]


def test_threshold_is_deterministic_and_validates_theta():
    g = random_graph(30, directed=False, p=0.15, rng=make_rng(8))
    a = threshold_cascade(g, [0, 1], theta=0.4)
    b = threshold_cascade(g, [0, 1], theta=0.4)
    assert np.array_equal(a.activation_time, b.activation_time)
    with pytest.raises(ValueError):
        threshold_cascade(g, [0], theta=0.0)
    with pytest.raises(ValueError):
        threshold_cascade(g, [0], theta=1.5)


def test_threshold_ignores_isolated_nodes():
    g = AttributedGraph(False, [0, 0, 1], [(0, 1)])
    trace = threshold_cascade(g, [0], theta=0.1)
    assert trace.activation_time.tolist() == [0, 1, -1]


# -- equality summaries -------------------------------------------------------------


def test_equality_report_full_coverage_is_one():
    g = _complete([0, 0, 1, 1])
    trace = cascade(g, [0], 1.0, 1.0, rng=make_rng(0))
    rep = equality_report(trace, g.labels)
    assert rep.equality[-1] == pytest.approx(1.0)
    assert rep.terminal_fractions == (1.0, 1.0)
    assert rep.efficiency == 1  # overall hits 1/2 at the first step


def test_equality_report_one_sided_cascade():
    g = AttributedGraph(False, [0, 0, 1, 1], [(0, 1)])
    trace = cascade(g, [0], 1.0, 1.0, rng=make_rng(0))
    rep = equality_report(trace, g.labels)
    assert rep.equality.tolist() == [0.0, 0.0]
    assert rep.terminal_fractions == (1.0, 0.0)
    assert rep.efficiency == 1  # 2 of 4 nodes informed at t=1


def test_equality_report_efficiency_none_when_half_unreached():
    g = _complete([0, 0, 1, 1])
    trace = cascade(g, [0], 0.0, 0.0, rng=make_rng(0))
    rep = equality_report(trace, g.labels)
    assert rep.efficiency is None
    assert rep.overall.tolist() == [0.25]


def test_equality_report_rejects_wrong_label_length():
    g = _complete([0, 0, 1, 1])
    trace = cascade(g, [0], 1.0, 1.0, rng=make_rng(0))
    with pytest.raises(ValueError):
        equality_report(trace, np.zeros(3, dtype=np.int8))


# -- crossing time ------------------------------------------------------------------


def test_crossing_time_interpolates():
    assert crossing_time(np.array([0.0, 0.25, 0.75]), 0.5) == pytest.approx(1.5)
    assert crossing_time(np.array([0.0, 0.5]), 0.5) == pytest.approx(1.0)
    assert crossing_time(np.array([0.6, 0.9]), 0.5) == 0.0
    assert crossing_time(np.array([0.0, 0.4, 0.45]), 0.5) is None


# -- seeding ------------------------------------------------------------------------


def test_seeding_conditions_respect_their_pools():
    g = random_graph(40, directed=False, p=0.1, rng=make_rng(12))
    minority = set(np.nonzero(g.labels == 1)[0].tolist())
    majority = set(np.nonzero(g.labels == 0)[0].tolist())
    s_min = seeding(g, "minority-only", 3, make_rng(1))
    s_maj = seeding(g, "majority-only", 3, make_rng(1))
    assert set(s_min.tolist()) <= minority
    assert set(s_maj.tolist()) <= majority
    assert np.all(np.diff(s_min) > 0)


def test_seeding_top_degree_is_deterministic():
    g = AttributedGraph(False, [0, 0, 1, 0], [(0, 1), (0, 2), (0, 3), (1, 2)])
    assert seeding(g, "top-degree", 2, make_rng(0)).tolist() == [0, 1]
    assert seeding(g, "top-degree", 2, make_rng(99)).tolist() == [0, 1]


def test_seeding_determinism_and_validation():
    g = random_graph(20, directed=False, p=0.2, rng=make_rng(13))
    a = seeding(g, "uniform", 5, make_rng(3))
    b = seeding(g, "uniform", 5, make_rng(3))
    assert np.array_equal(a, b)
    with pytest.raises(ValueError):
        seeding(g, "hubs", 2, make_rng(0))
    with pytest.raises(ValueError):
        seeding(g, "uniform", 0, make_rng(0))
    with pytest.raises(ValueError):
        seeding(g, "uniform", 21, make_rng(0))
    n_min = int(g.labels.sum())
    with pytest.raises(ValueError):
        seeding(g, "minority-only", n_min + 1, make_rng(0))
    assert set(SEED_CONDITIONS) == {
        "uniform", "majority-only", "minority-only", "top-degree"
    }
