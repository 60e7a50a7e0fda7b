import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphmix.graph import AttributedGraph
from graphmix.rng import make_rng, sample_without_replacement
from graphmix.spreading import (
    _SCALAR_STEP_ENTRIES,
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


def test_negative_step_caps_are_rejected():
    g = AttributedGraph(False, [0, 0, 1], [(0, 1), (1, 2)])
    with pytest.raises(ValueError, match="max_steps must be >= 0, got -3"):
        cascade(g, [0], 1.0, 1.0, rng=make_rng(0), max_steps=-3)
    with pytest.raises(ValueError, match="max_steps must be >= 0, got -1"):
        threshold_cascade(g, [0], 0.5, max_steps=-1)
    # a cap of 0 keeps the seeds only, also for nodes that need no neighbor
    assert cascade(g, [0], 1.0, 1.0, rng=make_rng(0), max_steps=0).activation_time.tolist() == [0, -1, -1]
    assert threshold_cascade(g, [0], 1e-13, max_steps=0).activation_time.tolist() == [0, -1, -1]
    assert threshold_cascade(g, [0], 1e-13, max_steps=1).activation_time.tolist() == [0, 1, 1]


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


@pytest.mark.parametrize(
    "run",
    [
        lambda g, seeds: cascade(g, seeds, 0.5, 0.5, rng=make_rng(0)),
        lambda g, seeds: threshold_cascade(g, seeds, theta=0.5),
    ],
    ids=["cascade", "threshold"],
)
def test_seed_ids_must_be_integers(run):
    g = _complete([0, 0, 1, 1])
    for seeds, dtype in (([1.9], "float64"), ([True, 2.7], "float64"), ([True], "bool"), (np.array([1.0]), "float64")):
        with pytest.raises(ValueError, match=f"seed ids must be integers, got {dtype}"):
            run(g, seeds)
    with pytest.raises(ValueError, match="seed set must be non-empty"):
        run(g, [])
    with pytest.raises(ValueError, match="seed set must be non-empty"):
        run(g, np.array([], dtype=np.float64))
    for seeds in ([1, 2], np.array([2, 1, 2], dtype=np.int32), np.array([1, 2], dtype=np.uint8)):
        assert run(g, seeds).seeds.tolist() == [1, 2]


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
    overall = equality_report(trace, g.labels).overall
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



def _hub_and_chain(directed: bool, hub_size: int, chain: int, rng) -> AttributedGraph:
    """Node 0 links to 1..hub_size; a chain runs on from hub_size, with a few random chords."""
    n = hub_size + chain
    edges = {(0, j) for j in range(1, hub_size + 1)}
    edges |= {(j, j + 1) for j in range(hub_size, n - 1)}
    edges |= {(int(u), int(v)) for u, v in rng.integers(1, n, size=(n // 20, 2)) if u != v}
    if directed:  # the chain also runs back, so a chain seed reaches the hub
        edges |= {(j + 1, j) for j in range(hub_size, n - 1)} | {(hub_size, 0)}
    else:
        edges = {(min(u, v), max(u, v)) for u, v in edges}
    return AttributedGraph(directed, (rng.random(n) < 0.3).astype(np.int8), sorted(edges))


def _frontier_entries(g: AttributedGraph, times: list[int]) -> list[int]:
    """Row entries each step reads: the out-rows of the nodes active since the step before."""
    out_deg = g.csr().out_degree()
    t = np.asarray(times)
    return [int(out_deg[t == s].sum()) for s in range(max(t.max(), 0) + 1)]


_BOUNDARY_THETAS = (1e-13, 1 / 7, 2 / 7, 0.25, 1 / 3, 0.4, 0.5, 3 / 7, 0.6, 2 / 3, 0.75, 1.0)


@pytest.mark.parametrize("directed", [False, True])
def test_threshold_step_forms_match_the_recount_reference_across_the_switch(directed):
    rng = make_rng(21 if directed else 20)
    graphs = [
        _hub_and_chain(directed, 150, 250, rng),
        _hub_and_chain(directed, 70, 300, rng),
        random_graph(220, directed, 0.03, rng),
        random_graph(300, directed, 0.08, rng),
    ]
    small = large = 0
    for gi, g in enumerate(graphs):
        seed_sets = [[0], [g.n - 1], [5, 9], sample_without_replacement(rng, g.n, 6)]
        for seeds in seed_sets:
            for theta in _BOUNDARY_THETAS:
                full = naive_threshold_times(g, seeds, theta, 10 * g.n)
                entries = _frontier_entries(g, full)
                small += sum(e < _SCALAR_STEP_ENTRIES for e in entries[:-1])
                large += sum(e >= _SCALAR_STEP_ENTRIES for e in entries[:-1])
                horizon = max(full)
                # caps landing on either step form, plus the fixed point
                for cap in sorted({0, 1, 2, horizon // 2, max(horizon - 1, 0), horizon, 10 * g.n}):
                    want = full if cap >= horizon else naive_threshold_times(g, seeds, theta, cap)
                    got = threshold_cascade(g, seeds, theta, max_steps=cap).activation_time.tolist()
                    assert got == want, (gi, list(seeds), theta, cap)
    # the battery runs both step forms many times
    assert small > 50 and large > 50, (small, large)


def test_threshold_on_a_ring_lattice_follows_ring_distance():
    # theta 1/2 with 2 neighbors per side: the first inactive node past
    # either end of the active block sees 2 of its 4 neighbors active, so
    # the block grows by one node per side and step
    n, block = 1000, 4
    edges = sorted({(min(i, (i + d) % n), max(i, (i + d) % n)) for i in range(n) for d in (1, 2)})
    labels = (np.arange(n) % 3 == 0).astype(np.int8)
    g = AttributedGraph(False, labels, edges)
    trace = threshold_cascade(g, list(range(block)), 0.5)
    i = np.arange(n)
    dist = np.where(i < block, 0, np.minimum(i - (block - 1), n - i))
    assert trace.activation_time.tolist() == dist.tolist()
    assert trace.n_steps == dist.max() == (n - block) // 2


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


@pytest.mark.parametrize(
    "labels,message",
    [
        ([2] * 200, "labels must be 0 (majority) or 1 (minority)"),
        ([0.5] * 200, "labels must be 0 (majority) or 1 (minority)"),
        (np.zeros((10, 20)), "labels must be one per node, a flat list; got shape (10, 20)"),
    ],
)
def test_equality_report_rejects_labels_that_are_not_classes(labels, message):
    # such labels once gave terminal fractions (0, 0), a NaN overall series, or a broadcast error
    g = random_graph(200, False, 0.05, make_rng(1))
    trace = cascade(g, [0, 1], 0.3, 0.1, make_rng(1))
    with pytest.raises(ValueError, match=re.escape(message)):
        equality_report(trace, labels)


# -- crossing time ------------------------------------------------------------------


def test_crossing_time_interpolates():
    assert crossing_time(np.array([0.0, 0.25, 0.75]), 0.5) == pytest.approx(1.5)
    assert crossing_time(np.array([0.0, 0.5]), 0.5) == pytest.approx(1.0)
    assert crossing_time(np.array([0.6, 0.9]), 0.5) == 0.0
    assert crossing_time(np.array([0.0, 0.4, 0.45]), 0.5) is None


@pytest.mark.parametrize("level", [-1.0, 1.5])
def test_crossing_time_refuses_a_level_outside_the_unit_interval(level):
    with pytest.raises(ValueError, match=r"level must lie in \[0, 1\]"):
        crossing_time(np.array([0.0, 0.4, 0.9]), level)


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


@pytest.mark.parametrize("condition", SEED_CONDITIONS)
def test_seeding_count_is_checked_against_its_pool(condition):
    # one check for every condition; top-degree's pool is every node
    g = random_graph(20, directed=False, p=0.2, rng=make_rng(13))
    pool = {"majority-only": int((g.labels == 0).sum()), "minority-only": int(g.labels.sum())}.get(condition, g.n)
    assert seeding(g, condition, pool, make_rng(0)).size == pool
    for bad in (0, pool + 1):
        with pytest.raises(ValueError, match=rf"count for {condition} must lie in \[1, {pool}\], got {bad}"):
            seeding(g, condition, bad, make_rng(0))
