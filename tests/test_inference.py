import math

import numpy as np
import pytest

from graphmix.generate import (
    EventKind,
    GrowthTrace,
    gen_directed,
    gen_pa,
    gen_pah,
    gen_patch,
)
from graphmix.graph import AttributedGraph
from graphmix.inference import (
    H_GRID,
    PTC_GRID,
    FitReport,
    bayes_factor,
    fit_model,
    homophily_estimate,
    lrt,
    mixing_counts,
    replay_event_probabilities,
    replay_loglik,
    select_model,
    trace_from_graph,
)

from helpers import brute_force_loglik


def test_grid_definition():
    assert H_GRID.size == 101
    assert H_GRID[0] == 0.0 and H_GRID[-1] == 1.0
    assert H_GRID[37] == 0.37
    assert np.array_equal(H_GRID, PTC_GRID)


# -- frozen small cases ---------------------------------------------------------


def test_pa_three_node_hand_value():
    # n=3, m=1: the single scored event picks between two degree-1 nodes.
    _, trace = gen_pa(3, 1, seed=0)
    ll, n_events = replay_loglik(trace, "pa")
    assert ll == math.log(0.5)
    assert n_events == 1


def test_two_node_trace_has_no_scoreable_events():
    # n=2, m=1: the only event is a uniform fallback (the seed node has
    # degree zero), so there is nothing to fit.
    _, trace = gen_pa(2, 1, seed=0)
    with pytest.raises(ValueError):
        fit_model(trace, "pa")


def test_aic_bic_frozen_values():
    rep = FitReport.build("pah", 0.5, None, -10.0, 100, 0)
    assert rep.k == 1
    assert rep.aic == pytest.approx(22.0, abs=1e-12)
    assert rep.bic == pytest.approx(24.605170185988092, abs=1e-12)


def test_lrt_frozen_chi2_tail():
    nested = FitReport.build("pa", None, None, -12.0, 100, 0)
    full = FitReport.build("pah", 0.5, None, -10.0, 100, 0)
    stat, df, p = lrt(nested, full)
    assert stat == pytest.approx(4.0)
    assert df == 1
    # chi-square df=1 upper tail at 4.0
    assert p == pytest.approx(0.04550026389635842, abs=1e-12)


def test_lrt_clamps_negative_statistics():
    nested = FitReport.build("pa", None, None, -10.0, 100, 0)
    full = FitReport.build("pah", 0.5, None, -10.5, 100, 0)
    stat, df, p = lrt(nested, full)
    assert stat == 0.0
    assert p == 1.0


def test_lrt_rejects_non_nested_pairs():
    dh = FitReport.build("dh", 0.5, None, -10.0, 50, 0)
    dpah = FitReport.build("dpah", 0.5, None, -9.0, 50, 0)
    with pytest.raises(ValueError):
        lrt(dh, dpah)
    pa = FitReport.build("pa", None, None, -10.0, 50, 0)
    pah = FitReport.build("pah", 0.5, None, -9.0, 50, 0)
    with pytest.raises(ValueError):
        lrt(pah, pa)  # arguments must be (nested, full)


# -- oracle agreement -----------------------------------------------------------


@pytest.mark.parametrize(
    "model,kwargs,maker",
    [
        ("pa", {}, lambda s: gen_pa(80, 2, seed=s)),
        ("pah", {"h": 0.73}, lambda s: gen_pah(80, 2, 0.3, 0.6, seed=s)),
        ("pah", {"h": 1.0}, lambda s: gen_pah(80, 2, 0.3, 0.9, seed=s)),
        ("pah", {"h": 0.0}, lambda s: gen_pah(80, 2, 0.3, 0.2, seed=s)),
        ("patch", {"h": 0.6, "p_tc": 0.4}, lambda s: gen_patch(80, 3, 0.3, 0.6, 0.5, seed=s)),
        ("patch", {"h": 0.5, "p_tc": 1.0}, lambda s: gen_patch(80, 2, 0.3, 0.7, 0.9, seed=s)),
        ("patch", {"h": 0.5, "p_tc": 0.0}, lambda s: gen_patch(80, 2, 0.3, 0.7, 0.2, seed=s)),
        ("dpa", {}, lambda s: gen_directed("dpa", 60, 0.02, 0.3, seed=s)),
        ("dh", {"h": 0.55}, lambda s: gen_directed("dh", 60, 0.02, 0.3, 0.8, seed=s)),
        ("dpah", {"h": 0.8}, lambda s: gen_directed("dpah", 60, 0.02, 0.3, 0.8, seed=s)),
    ],
)
def test_replay_matches_brute_force(model, kwargs, maker):
    for seed in (0, 1):
        _, trace = maker(seed)
        want, want_n = brute_force_loglik(trace, model, **kwargs)
        got, got_n = replay_loglik(trace, model, **kwargs)
        assert got_n == want_n
        if math.isinf(want):
            assert math.isinf(got)
        else:
            assert got == pytest.approx(want, abs=1e-9)


def test_cross_model_scoring_matches_brute_force():
    # score traces under models other than their generator
    _, trace = gen_patch(70, 2, 0.3, 0.8, 0.5, seed=3)
    for model, kwargs in [("pa", {}), ("pah", {"h": 0.35})]:
        want, _ = brute_force_loglik(trace, model, **kwargs)
        got, _ = replay_loglik(trace, model, **kwargs)
        assert got == pytest.approx(want, abs=1e-9)


def test_event_probabilities_sum_to_one():
    _, trace = gen_patch(50, 2, 0.3, 0.7, 0.6, seed=1)
    for ids, probs in replay_event_probabilities(trace, "patch", h=0.4, p_tc=0.3):
        assert ids.size == probs.size
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)
        assert (probs >= 0).all()


def test_fit_maximum_beats_coarse_grid_rescan():
    _, trace = gen_pah(120, 2, 0.3, 0.8, seed=5)
    fit = fit_model(trace, "pah")
    at_hat, _ = replay_loglik(trace, "pah", h=fit.h_hat)
    assert at_hat == pytest.approx(fit.log_lik, abs=1e-9)
    for h in np.linspace(0, 1, 21):
        ll, _ = replay_loglik(trace, "pah", h=round(float(h), 2))
        assert ll <= fit.log_lik + 1e-9


def test_fallback_flagged_events_are_parameter_free():
    labels = np.array([0, 1, 1], dtype=np.int8)
    trace = GrowthTrace(
        directed=False,
        labels=labels,
        sources=np.array([1, 2]),
        targets=np.array([0, 1]),
        kinds=np.array(
            [int(EventKind.FALLBACK_UNIFORM), int(EventKind.PAH_PICK)], dtype=np.int8
        ),
        m=1,
    )
    ll_low, n = replay_loglik(trace, "pah", h=0.1)
    ll_high, _ = replay_loglik(trace, "pah", h=0.9)
    assert n == 1  # the flagged event is not scored
    # the scored cross-class event dominates; values differ across h
    assert ll_low != ll_high
    fit = fit_model(trace, "pah")
    assert fit.n_fallback == 1
    assert fit.n_events == 1


def test_impossible_event_scores_minus_infinity():
    labels = np.array([0, 1], dtype=np.int8)
    trace = GrowthTrace(
        directed=True,
        labels=labels,
        sources=np.array([0]),
        targets=np.array([1]),
        kinds=np.array([int(EventKind.DIRECTED_PICK)], dtype=np.int8),
    )
    ll, _ = replay_loglik(trace, "dh", h=1.0)
    assert ll == -math.inf


def test_family_mismatch_rejected():
    _, undirected = gen_pa(10, 1, seed=0)
    _, directed = gen_directed("dpa", 10, 0.05, 0.2, seed=0)
    with pytest.raises(ValueError):
        replay_loglik(undirected, "dpa")
    with pytest.raises(ValueError):
        replay_loglik(directed, "pa")
    with pytest.raises(ValueError):
        replay_loglik(undirected, "pah")  # h missing
    with pytest.raises(ValueError):
        replay_loglik(undirected, "pah", h=1.5)


def test_corrupt_traces_rejected():
    labels = np.zeros(4, dtype=np.int8)
    bad_target = GrowthTrace(
        directed=False, labels=labels,
        sources=np.array([1]), targets=np.array([2]),
        kinds=np.array([0], dtype=np.int8), m=1,
    )
    with pytest.raises(ValueError):
        replay_loglik(bad_target, "pa")
    out_of_order = GrowthTrace(
        directed=False, labels=labels,
        sources=np.array([2, 1]), targets=np.array([0, 0]),
        kinds=np.array([0, 0], dtype=np.int8), m=1,
    )
    with pytest.raises(ValueError):
        replay_loglik(out_of_order, "pa")
    wrong_arity = GrowthTrace(
        directed=False, labels=labels,
        sources=np.array([2, 2, 3]), targets=np.array([0, 1, 0]),
        kinds=np.array([0, 0, 0], dtype=np.int8), m=2,
    )
    with pytest.raises(ValueError):
        replay_loglik(wrong_arity, "pa")


# -- neutrality -----------------------------------------------------------------


def test_neutral_affinity_equals_plain_pa_exactly():
    _, trace = gen_pah(300, 2, 0.3, 0.8, seed=2)
    for (ia, pa), (ib, pb) in zip(
        replay_event_probabilities(trace, "pah", h=0.5),
        replay_event_probabilities(trace, "pa"),
    ):
        assert np.array_equal(ia, ib)
        assert np.array_equal(pa, pb)


def test_neutral_directed_affinity_equals_dpa_exactly():
    _, trace = gen_directed("dpah", 100, 0.01, 0.3, 0.7, seed=2)
    for (_, pa), (_, pb) in zip(
        replay_event_probabilities(trace, "dpah", h=0.5),
        replay_event_probabilities(trace, "dpa"),
    ):
        assert np.array_equal(pa, pb)


# -- nesting and selection --------------------------------------------------------


def test_nested_model_likelihood_ordering():
    _, trace = gen_patch(400, 2, 0.3, 0.7, 0.5, seed=13)
    ll_pa = fit_model(trace, "pa").log_lik
    ll_pah = fit_model(trace, "pah").log_lik
    ll_patch = fit_model(trace, "patch").log_lik
    assert ll_pah >= ll_pa - 1e-9
    assert ll_patch >= ll_pah - 1e-9


def test_select_model_orders_by_criterion_and_shares_n_events():
    _, trace = gen_pah(800, 2, 0.3, 0.8, seed=4)
    table = select_model(trace, ["patch", "pa", "pah"])
    assert table.best.model == "pah"
    bics = [f.bic for f in table.fits]
    assert bics == sorted(bics)
    assert len({f.n_events for f in table.fits}) == 1
    assert {(c.model_a, c.model_b) for c in table.comparisons} == {
        ("pa", "pah"), ("pa", "patch"), ("pah", "patch"),
    }
    for c in table.comparisons:
        assert c.lrt_p is not None  # all three undirected pairs are nested


def test_select_model_directed_nested_flags():
    _, trace = gen_directed("dpah", 150, 0.01, 0.3, 0.8, seed=6)
    table = select_model(trace, ["dh", "dpa", "dpah"])
    by_pair = {(c.model_a, c.model_b): c for c in table.comparisons}
    assert by_pair[("dpa", "dpah")].lrt_p is not None
    assert by_pair[("dpa", "dh")].lrt_p is None
    assert by_pair[("dh", "dpah")].lrt_p is None


def test_select_model_validation():
    _, trace = gen_pa(20, 1, seed=0)
    with pytest.raises(ValueError):
        select_model(trace, [])
    with pytest.raises(ValueError):
        select_model(trace, ["pa", "pa"])
    with pytest.raises(ValueError):
        select_model(trace, ["pa", "dpa"])
    with pytest.raises(ValueError):
        select_model(trace, ["pa"], criterion="logL")


def test_bayes_factor_antisymmetric_and_directional():
    _, trace = gen_pah(600, 2, 0.3, 0.9, seed=8)
    bf = bayes_factor(trace, "pah", "pa")
    assert bf > 1.0  # strong homophily: pah clearly preferred
    assert bayes_factor(trace, "pa", "pah") == pytest.approx(-bf, abs=1e-9)


def test_mle_recovers_grid_point_on_small_sample():
    _, trace = gen_pah(1200, 2, 0.3, 0.2, seed=10)
    fit = fit_model(trace, "pah")
    assert abs(fit.h_hat - 0.2) <= 0.06


# -- mixing summaries --------------------------------------------------------------


def test_mixing_counts_undirected_triangle():
    g = AttributedGraph(False, [0, 0, 1], [(0, 1), (0, 2), (1, 2)])
    counts = mixing_counts(g)
    assert counts[0, 0] == 1
    assert counts[1, 1] == 0
    assert counts[0, 1] == counts[1, 0] == 2
    assert homophily_estimate(g) == pytest.approx(1 / 3)


def test_mixing_counts_directed():
    g = AttributedGraph(True, [0, 1], [(0, 1), (1, 0)])
    counts = mixing_counts(g)
    assert counts[0, 1] == 1 and counts[1, 0] == 1
    assert counts.sum() == g.num_edges
    assert homophily_estimate(g) == 0.0


def test_homophily_estimate_none_without_edges():
    g = AttributedGraph(False, [0, 1], [])
    assert homophily_estimate(g) is None


# -- order-assumed traces ------------------------------------------------------------


def test_trace_from_graph_undirected_scores_and_flags():
    g, _ = gen_pah(100, 2, 0.3, 0.8, seed=3)
    trace = trace_from_graph(g)
    assert trace.order_assumed
    fit = fit_model(trace, "pah")
    assert fit.order_assumed
    assert math.isfinite(fit.log_lik)


def test_trace_from_graph_directed_seeded_shuffle():
    g, _ = gen_directed("dpa", 40, 0.02, 0.3, seed=1)
    a = trace_from_graph(g, seed=5)
    b = trace_from_graph(g, seed=5)
    c = trace_from_graph(g, seed=6)
    assert np.array_equal(a.sources, b.sources)
    assert not np.array_equal(a.sources, c.sources)
    assert sorted(zip(a.sources.tolist(), a.targets.tolist())) == sorted(g.edges())


def test_trace_from_graph_matches_brute_force():
    g, _ = gen_pah(60, 2, 0.3, 0.7, seed=9)
    trace = trace_from_graph(g)
    want, _ = brute_force_loglik(trace, "pah", h=0.8)
    got, _ = replay_loglik(trace, "pah", h=0.8)
    assert got == pytest.approx(want, abs=1e-9)
