import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from graphmix.graph import AttributedGraph
from graphmix.ranking import (
    VISIBILITY_KS,
    gini,
    pagerank,
    rank_nodes,
    rank_report,
    top_degree_nodes,
    visibility,
)
from graphmix.rng import make_rng

from helpers import random_graph


# -- pagerank ---------------------------------------------------------------------


def test_pagerank_two_cycle_splits_evenly():
    g = AttributedGraph(True, [0, 1], [(0, 1), (1, 0)])
    res = pagerank(g)
    assert res.converged
    assert res.scores == pytest.approx([0.5, 0.5], abs=1e-12)


def test_pagerank_single_edge_frozen_fixed_point():
    # 0 -> 1 with a dangling node 1; exact solution pr = (20/57, 37/57)
    g = AttributedGraph(True, [0, 1], [(0, 1)])
    res = pagerank(g)
    assert res.converged
    assert res.scores[0] == pytest.approx(0.3508771929824561, abs=1e-9)
    assert res.scores[1] == pytest.approx(0.6491228070175438, abs=1e-9)
    assert res.scores.sum() == pytest.approx(1.0, abs=1e-12)


def test_pagerank_directed_ring_is_uniform():
    n = 5
    g = AttributedGraph(True, [0] * n, [(i, (i + 1) % n) for i in range(n)])
    res = pagerank(g)
    assert res.scores == pytest.approx([1 / n] * n, abs=1e-9)


def test_pagerank_undirected_symmetry_and_mass():
    g = AttributedGraph(False, [0, 1, 0], [(0, 1), (1, 2)])
    res = pagerank(g)
    assert res.scores.sum() == pytest.approx(1.0, abs=1e-12)
    assert res.scores[0] == pytest.approx(res.scores[2], abs=1e-12)
    assert res.scores[1] > res.scores[0]


def test_pagerank_reports_non_convergence():
    g = AttributedGraph(True, [0, 1], [(0, 1)])
    res = pagerank(g, max_iter=1)
    assert not res.converged
    assert res.iterations == 1
    assert res.scores.sum() == pytest.approx(1.0, abs=1e-12)


def test_pagerank_iteration_cap_validation():
    g = AttributedGraph(True, [0, 1], [(0, 1)])
    with pytest.raises(ValueError, match="max_iter must be >= 0, got -1"):
        pagerank(g, max_iter=-1)
    res = pagerank(g, max_iter=0)
    assert not res.converged and res.iterations == 0
    assert res.scores.tolist() == [0.5, 0.5]


def test_pagerank_damping_validation():
    g = AttributedGraph(True, [0, 1], [(0, 1)])
    with pytest.raises(ValueError):
        pagerank(g, damping=1.0)
    with pytest.raises(ValueError):
        pagerank(g, damping=-0.1)


def test_pagerank_zero_damping_is_uniform():
    g = AttributedGraph(True, [0, 1, 0], [(0, 1), (0, 2)])
    res = pagerank(g, damping=0.0)
    assert res.scores == pytest.approx([1 / 3] * 3, abs=1e-12)


# -- rankings ---------------------------------------------------------------------


def test_rank_nodes_orders_by_score_then_id():
    g = AttributedGraph(True, [0, 0, 0], [(0, 1), (0, 2), (1, 2)])
    assert rank_nodes(g, "indegree").tolist() == [2, 1, 0]
    # triangle: all degrees tie -> ascending ids
    t = AttributedGraph(False, [0, 0, 1], [(0, 1), (0, 2), (1, 2)])
    assert rank_nodes(t, "degree").tolist() == [0, 1, 2]


def test_rank_nodes_star_degree_and_pagerank_agree():
    labels = [0] * 6
    g = AttributedGraph(False, labels, [(0, j) for j in range(1, 6)])
    assert rank_nodes(g, "degree")[0] == 0
    assert rank_nodes(g, "pagerank")[0] == 0


@pytest.mark.parametrize("directed", [False, True])
def test_top_degree_nodes_are_the_head_of_the_degree_ranking(directed):
    rng = make_rng(12)
    # sparse graphs tie many degrees, isolated nodes included; n = 1 too
    for n, p in [(1, 0.0), (2, 0.0), (2, 1.0), (9, 0.3), (40, 0.05), (40, 0.3), (200, 0.02)]:
        g = random_graph(n, directed, p, rng)
        order = rank_nodes(g, "degree")
        for k in sorted({1, 2, n // 2, n - 1, n} & set(range(1, n + 1))):
            got = top_degree_nodes(g, k)
            assert got.dtype == np.int64
            assert got.tolist() == np.sort(order[:k]).tolist(), (n, p, k)


def test_top_degree_nodes_rejects_k_outside_1_to_n():
    g = AttributedGraph(False, [0, 1, 0], [(0, 1)])
    for k in (0, 4, -1):
        with pytest.raises(ValueError, match="k must lie in"):
            top_degree_nodes(g, k)


def test_indegree_requires_directed():
    g = AttributedGraph(False, [0, 1], [(0, 1)])
    with pytest.raises(ValueError):
        rank_nodes(g, "indegree")
    with pytest.raises(ValueError):
        rank_nodes(g, "betweenness")


# -- visibility -------------------------------------------------------------------


def _two_hubAttributedGraph(minority_on_top):
    # nodes 0,1 are high-degree hubs; 8,9 untouched low-degree
    labels = np.zeros(10, dtype=np.int8)
    if minority_on_top:
        labels[[0, 1]] = 1
    else:
        labels[[8, 9]] = 1
    edges = [(0, j) for j in range(2, 8)] + [(1, j) for j in range(2, 8)]
    return AttributedGraph(False, labels, edges)


def test_visibility_minority_hubs_saturate_small_k():
    curve = visibility(_two_hubAttributedGraph(True), "degree")
    assert curve.ks.tolist() == list(VISIBILITY_KS)
    by_k = dict(zip(curve.ks.tolist(), curve.fractions.tolist()))
    assert by_k[10] == 1.0  # top-1 node is a minority hub
    assert by_k[20] == 1.0  # top-2 both minority
    assert by_k[100] == pytest.approx(0.2)


def test_visibility_minority_in_periphery():
    curve = visibility(_two_hubAttributedGraph(False), "degree")
    by_k = dict(zip(curve.ks.tolist(), curve.fractions.tolist()))
    assert by_k[10] == 0.0
    assert by_k[50] == 0.0  # top-5 are all majority
    assert by_k[100] == pytest.approx(0.2)


def test_visibility_top_counts_round_up():
    # n=3: k=5 -> top-1, k=34 is not on the grid; check k=35 -> ceil(1.05)=2
    g = AttributedGraph(False, [1, 0, 0], [(0, 1), (0, 2)])
    curve = visibility(g, "degree")
    by_k = dict(zip(curve.ks.tolist(), curve.fractions.tolist()))
    assert by_k[5] == 1.0  # ceil(0.15) = 1 node: the minority hub
    assert by_k[35] == 0.5  # ceil(1.05) = 2 nodes
    assert by_k[100] == pytest.approx(1 / 3)


def test_visibility_requires_both_classes():
    g = AttributedGraph(False, [0, 0], [(0, 1)])
    with pytest.raises(ValueError):
        visibility(g, "degree")


# -- gini ---------------------------------------------------------------------------


def test_gini_frozen_examples():
    assert gini(np.array([0, 0, 0, 1.0])) == pytest.approx(0.75, abs=1e-12)
    assert gini(np.array([1.0, 2.0, 3.0, 4.0])) == pytest.approx(0.25, abs=1e-12)
    assert gini(np.array([5.0, 5.0, 5.0])) == pytest.approx(0.0, abs=1e-12)


def test_gini_is_order_free():
    a = np.array([3.0, 1.0, 4.0, 1.0, 5.0])
    assert gini(a) == pytest.approx(gini(np.sort(a)[::-1]), abs=1e-12)


@given(
    st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=1, max_size=30)
    .filter(lambda xs: sum(xs) > 1e-9)
)
@example([1.9, 1.9])
@example([42.704098174691, 42.704098174691])
def test_gini_scale_invariant_and_bounded(xs):
    x = np.array(xs)
    g = gini(x)
    assert 0.0 <= g < 1.0
    assert gini(3.7 * x) == pytest.approx(g, abs=1e-9)


def test_gini_validation():
    with pytest.raises(ValueError):
        gini(np.array([]))
    with pytest.raises(ValueError):
        gini(np.array([1.0, -0.5]))
    with pytest.raises(ValueError):
        gini(np.array([0.0, 0.0]))
    with pytest.raises(ValueError):
        gini(np.array([1.0, np.nan]))


# -- report -----------------------------------------------------------------------


def test_rank_report_me_and_bounds():
    rep = rank_report(_two_hubAttributedGraph(True), "degree")
    below = rep.curve.ks < 100
    want = float((rep.curve.fractions[below] - rep.curve.f_m).mean())
    assert rep.me == pytest.approx(want, abs=1e-12)
    assert rep.me > 0  # minority over-represented at the top
    assert -rep.curve.f_m <= rep.me <= 1 - rep.curve.f_m
    assert 0.0 <= rep.gini < 1.0


def test_rank_report_periphery_has_negative_me():
    rep = rank_report(_two_hubAttributedGraph(False), "degree")
    assert rep.me < 0


def test_rank_report_computes_pagerank_once(monkeypatch):
    import graphmix.ranking as ranking

    calls = []

    def counted(g, *args, **kwargs):
        calls.append(g)
        return pagerank(g, *args, **kwargs)

    monkeypatch.setattr(ranking, "pagerank", counted)
    rep = rank_report(_two_hubAttributedGraph(True), "pagerank")
    assert len(calls) == 1
    assert rep.gini == gini(pagerank(_two_hubAttributedGraph(True)).scores)
