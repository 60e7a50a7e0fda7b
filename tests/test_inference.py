import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st
from scipy.special import gammaincc

import graphmix.inference as inference
from graphmix.generate import (
    EventKind,
    GrowthTrace,
    SaturationError,
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

from helpers import (
    brute_force_loglik,
    full_patch_grid,
    reference_aff_pick_logprob,
    reference_affinity_logp,
    reference_excluded_mass,
    reference_triadic_sets,
)


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


@pytest.mark.parametrize("nested_model, full_model, df", [("pa", "pah", 1), ("pa", "patch", 2)])
def test_lrt_tail_matches_the_incomplete_gamma_oracle(nested_model, full_model, df):
    stats = np.concatenate(
        [np.geomspace(1e-12, 1.0, 2001), np.linspace(0.0, 1400.0, 20001), [np.inf]]
    )
    nested = FitReport.build(nested_model, None, None, 0.0, 100, 0)
    for stat in stats.tolist():
        full = FitReport.build(full_model, 0.5, None, stat / 2.0, 100, 0)
        got_stat, got_df, p = lrt(nested, full)
        assert (got_stat, got_df) == (stat, df)
        want = float(gammaincc(df / 2.0, stat / 2.0))
        if want == 0.0:
            assert p == 0.0, stat
        else:
            assert abs(p - want) <= 1e-12 * want, (stat, p, want)


def test_nested_pairs_have_a_closed_form_tail():
    # lrt's closed forms cover df 1 and 2 only
    for nested_model, full_model in inference.NESTED_PAIRS:
        df = inference._MODEL_K[full_model] - inference._MODEL_K[nested_model]
        assert df in (1, 2), (nested_model, full_model, df)


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


def test_patch_at_ptc_zero_matches_pah_when_the_affinity_underflows():
    # At a subnormal h the affinity probability of some triadic hits is
    # below the normal range; mixing it with the triadic share in
    # probability space would lose it (at p_tc = 0 the sum was -inf).
    _, trace = gen_pah(30, 2, 0.4, 0.5, seed=0)
    want, want_n = replay_loglik(trace, "pah", h=5e-324)
    got, got_n = replay_loglik(trace, "patch", h=5e-324, p_tc=0.0)
    assert math.isfinite(got) and got_n == want_n
    assert got == pytest.approx(want, rel=1e-12)
    for p_tc in (0.0, 1e-300, 0.3):
        oracle, _ = brute_force_loglik(trace, "patch", h=5e-324, p_tc=p_tc)
        got, _ = replay_loglik(trace, "patch", h=5e-324, p_tc=p_tc)
        assert got == pytest.approx(oracle, rel=1e-12)


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
    # what the constructor refuses is in test_generate.py's refusal table; these
    # traces are built, then refused when scored
    labels = np.zeros(4, dtype=np.int8)

    def events(directed, sources, targets, m=None):
        kinds = np.full(len(sources), int(EventKind.DIRECTED_PICK if directed else EventKind.PAH_PICK), dtype=np.int8)
        return GrowthTrace(directed, labels, np.array(sources), np.array(targets), kinds, m=m)

    corrupt = [
        (lambda: events(False, [1, 2, 3], [2, 0, 0], m=1), "pa", "event 0: target 2 not below source 1; "),
        (lambda: events(False, [2, 1], [0, 0]), "pa", "event 1: source 1 out of arrival order"),
        # an edge repeated within an arrival would be scored with its degree counted twice
        (lambda: events(False, [2, 2, 3, 3], [0, 0, 0, 1], m=2), "pa", "duplicate edge"),
        (lambda: events(True, [0, 1, 0], [1, 2, 1]), "dpa", "duplicate edge"),
    ]
    for make, model, message in corrupt:
        with pytest.raises(ValueError, match=message):
            replay_loglik(make(), model)
        with pytest.raises(ValueError, match=message):
            replay_event_probabilities(make(), model)


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


@pytest.mark.parametrize("make, models", [
    (lambda: gen_patch(400, 2, 0.3, 0.7, 0.5, seed=3), ["pa", "pah", "patch"]),
    (lambda: gen_directed("dpah", 300, 0.03, 0.3, 0.6, seed=4), ["dpa", "dh", "dpah"]),
], ids=["undirected", "directed"])
def test_fit_bayes_factor_and_selection_agree(make, models):
    # fit_model, bayes_factor and select_model share one fit path
    _, trace = make()
    for model in models:
        assert fit_model(trace, model) == select_model(trace, [model]).best
    comparisons = select_model(trace, models).comparisons
    assert len(comparisons) == 3
    for c in comparisons:
        assert bayes_factor(trace, c.model_a, c.model_b) == c.log10_bf
        assert bayes_factor(trace, c.model_b, c.model_a) == -c.log10_bf


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


# -- frozen selection at benchmark-like sizes ------------------------------------------


def _fx(text):
    return None if text is None else float.fromhex(text)


# (model, h_hat, p_tc_hat, log_lik, k, n_events, n_fallback, aic, bic, order_assumed) in
# ranked order, then (model_a, model_b, log10_bf); recorded from the per-event replay loop
# that the array kernel replaced.  These sizes run every grid block, p_tc block and pair
# chunk more than once.
_FROZEN_SELECTIONS = {
    "patch": (
        [
            ("patch", "0x1.999999999999ap-1", "0x1.f5c28f5c28f5cp-2", "-0x1.8aafb289737c2p+15",
             2, 8991, 0, "0x1.8ab3b289737c2p+16", "0x1.8ac1e7c63bb6fp+16", False),
            ("pah", "0x1.7ae147ae147aep-1", None, "-0x1.ccfdfe227a674p+15",
             1, 8991, 0, "0x1.ccfffe227a674p+16", "0x1.cd0718c0de84bp+16", False),
            ("pa", None, None, "-0x1.d38d3192dd704p+15",
             0, 8991, 0, "0x1.d38d3192dd704p+16", "0x1.d38d3192dd704p+16", False),
        ],
        [("pa", "pah", "-0x1.6ad9989734df4p+8"), ("pa", "patch", "-0x1.f9e214d9ed4a1p+11"),
         ("pah", "patch", "-0x1.cc86e1c706ae3p+11")],
    ),
    "order-assumed": (
        [
            ("patch", "0x1.8a3d70a3d70a4p-1", "0x1.e147ae147ae14p-2", "-0x1.91fcbf4110c5dp+15",
             2, 8994, 0, "0x1.9200bf4110c5dp+16", "0x1.920ef4a993244p+16", True),
            ("pah", "0x1.7ae147ae147aep-1", None, "-0x1.ccdd32d081081p+15",
             1, 8994, 0, "0x1.ccdf32d081081p+16", "0x1.cce64d84c2375p+16", True),
            ("pa", None, None, "-0x1.d36fa81e4dbc2p+15",
             0, 8994, 0, "0x1.d36fa81e4dbc2p+16", "0x1.d36fa81e4dbc2p+16", True),
        ],
        [("pa", "pah", "-0x1.6b914b28c26bfp+8"), ("pa", "patch", "-0x1.c65bb794bbb1dp+11"),
         ("pah", "patch", "-0x1.98e98e2fa3645p+11")],
    ),
    "dpah": (
        [
            ("dpah", "0x1.999999999999ap-1", None, "-0x1.f7a1ccc74ca19p+15",
             1, 9990, 0, "0x1.f7a3ccc74ca19p+16", "0x1.f7ab025e98e00p+16", False),
            ("dpa", None, None, "-0x1.01454d19242acp+16",
             0, 9990, 0, "0x1.01454d19242acp+17", "0x1.01454d19242acp+17", False),
            ("dh", "0x1.947ae147ae148p-1", None, "-0x1.077c392fe4267p+16",
             1, 9990, 0, "0x1.077d392fe4267p+17", "0x1.0780d3fb8a45bp+17", False),
        ],
        [("dpa", "dh", "0x1.5a6dff18532d0p+9"), ("dpa", "dpah", "-0x1.2e530010e18c0p+9"),
         ("dh", "dpah", "-0x1.44607f949a5c8p+10")],
    ),
}


def test_select_model_frozen_values_at_benchmark_like_sizes():
    g, patch = gen_patch(3000, 3, 0.3, 0.8, 0.5, seed=1)
    _, dpah = gen_directed("dpah", 1000, 0.01, 0.3, 0.8, gamma_a=3.5, seed=1)
    cases = {
        "patch": (patch, ["pa", "pah", "patch"]),
        "order-assumed": (trace_from_graph(g), ["pa", "pah", "patch"]),
        "dpah": (dpah, ["dpa", "dh", "dpah"]),
    }
    for name, (trace, models) in cases.items():
        fits, comparisons = _FROZEN_SELECTIONS[name]
        table = select_model(trace, models)
        assert [
            (f.model, f.h_hat, f.p_tc_hat, f.log_lik, f.k, f.n_events, f.n_fallback, f.aic, f.bic,
             f.order_assumed)
            for f in table.fits
        ] == [
            (m, _fx(h), _fx(p), _fx(ll), k, ne, nf, _fx(aic), _fx(bic), oa)
            for m, h, p, ll, k, ne, nf, aic, bic, oa in fits
        ], name
        assert [(c.model_a, c.model_b, c.log10_bf) for c in table.comparisons] == [
            (a, b, _fx(bf)) for a, b, bf in comparisons
        ], name


# -- pruned patch grid against the full evaluation -------------------------------------

# traces scored under patch: pah and patch growth across p_tc, one with
# fallback-uniform events (h = 0), and a longer one where most cells are pruned
_GRID_TRACES = {
    "pah": lambda: gen_pah(400, 2, 0.3, 0.7, seed=3),
    **{f"patch-ptc-{p}": (lambda p=p: gen_patch(400, 2, 0.3, 0.7, p, seed=3)) for p in (0.0, 0.2, 0.9, 1.0)},
    "fallback": lambda: gen_patch(300, 2, 0.2, 0.0, 0.5, seed=2),
    "long": lambda: gen_patch(2000, 3, 0.3, 0.8, 0.5, seed=1),
}


def _bits(x):
    return np.asarray(x, dtype=np.float64).view(np.int64)


_loglik_grid = inference._loglik_grid


def _reference_logp(stats, model, h_values):
    """ln P of every scored event at every h under pah, dh or dpah."""
    if model == "pah":
        return reference_aff_pick_logprob(stats, h_values)
    weight, den_same, den_diff = {
        "dh": (None, stats.cnt_same, stats.cnt_diff),
        "dpah": (stats.weight, stats.sum_same, stats.sum_diff),
    }[model]
    return reference_affinity_logp(h_values, stats.same, weight, den_same, den_diff, -np.inf, False)


def _full_grid(stats, model, h_values=H_GRID, ptc_values=PTC_GRID):
    """Every row and cell of a model's grid, from the reference kernels (pa and dpa: the library's 1 x 1)."""
    if model == "patch":
        return full_patch_grid(stats, h_values, ptc_values)
    if model in ("pa", "dpa"):
        return _loglik_grid(stats, model, h_values, ptc_values)
    return (stats.const_loglik + _reference_logp(stats, model, h_values).sum(axis=1))[:, None]


def _assert_outputs_match_the_full_grids(trace, models, monkeypatch):
    """select_model, fit_model and bayes_factor give what they give on the full grids."""
    def outputs():
        return select_model(trace, models), fit_model(trace, models[-1]), bayes_factor(trace, *models[-2:])

    got = outputs()
    monkeypatch.setattr(inference, "_loglik_grid", _full_grid)
    assert repr(got) == repr(outputs())


def _assert_pruned_grid_matches(stats, h_values):
    """Every computed cell has the full evaluation's bits; every skipped one cannot reach an output."""
    full = full_patch_grid(stats, h_values)
    got = inference._loglik_grid(stats, "patch", h_values)
    kept = got > -np.inf
    assert np.array_equal(_bits(got[kept]), _bits(full[kept]))
    skipped = full[~kept]
    assert ((skipped == -np.inf) | (skipped < full.max() - 745.2)).all()
    assert inference._fit_from_grid("patch", got, stats, False) == inference._fit_from_grid(
        "patch", full, stats, False)
    assert repr(inference._log_marginal(got)) == repr(inference._log_marginal(full))
    return int(np.count_nonzero(~kept & (full > -np.inf)))


@pytest.mark.parametrize("narrow", [False, True])
@pytest.mark.parametrize("name", list(_GRID_TRACES))
def test_pruned_patch_grid_matches_the_full_evaluation(name, narrow, monkeypatch):
    if narrow:  # 3-cell windows, so that every row's search climbs and widens
        monkeypatch.setattr(inference, "_CELL_BATCH", 1)
    _, trace = _GRID_TRACES[name]()
    stats = inference._undirected_stats(trace, triadic=True)
    if name == "fallback":
        assert stats.n_fallback > 0
    pruned = _assert_pruned_grid_matches(stats, H_GRID)
    if name == "long":
        assert pruned > H_GRID.size * PTC_GRID.size // 2  # the search does skip cells
    if narrow:
        return

    _assert_outputs_match_the_full_grids(trace, ["pa", "pah", "patch"], monkeypatch)


def test_pruned_patch_grid_with_an_underflowing_affinity():
    # at a subnormal h some hit events mix in log space
    _, trace = gen_pah(30, 2, 0.4, 0.5, seed=0)
    stats = inference._undirected_stats(trace, triadic=True)
    _assert_pruned_grid_matches(stats, np.array([5e-324, 1e-300, 0.3, 0.5]))
    for h_values, ptc_values in ((np.array([5e-324]), np.array([0.0])), (np.array([0.4]), np.array([0.7]))):
        one = inference._loglik_grid(stats, "patch", h_values, ptc_values)
        full = full_patch_grid(stats, h_values, ptc_values)
        assert one.shape == (1, 1) and _bits(one) == _bits(full)


@pytest.mark.parametrize("name", list(_GRID_TRACES))
def test_patch_hit_caps_bound_the_affinity_at_every_h(name):
    # the cap row's P_aff (w / S same-class, w / D other, 1 where S or D is 0)
    # is at least every hit's P_aff at every h, up to rounding; where S and D
    # are positive it is reached, at h = 1 or 0
    _, trace = _GRID_TRACES[name]()
    stats = inference._undirected_stats(trace, triadic=True)
    hit = inference._patch_events(stats)[1]
    log_cap = inference._PatchCells(stats, H_GRID, PTC_GRID).log_cap
    logp = reference_aff_pick_logprob(stats, _KERNEL_H)[:, hit]
    assert (logp <= log_cap + 1e-12).all()
    both = (stats.sum_same[hit] > 0) & (stats.sum_diff[hit] > 0)
    assert np.allclose(logp.max(axis=0)[both], log_cap[both], rtol=0, atol=1e-12)


@pytest.mark.parametrize("h", [5e-324, 0.37, 0.8])
def test_patch_cells_have_the_same_bits_in_any_block_height(h):
    # the grid evaluates a few p_tc rows at a time; each cell's row sum must
    # not depend on how many rows share its block
    _, trace = gen_patch(500, 3, 0.3, 0.7, 0.5, seed=4)
    stats = inference._undirected_stats(trace, triadic=True)
    h_values = np.array([h])
    cells = inference._PatchCells(stats, h_values, PTC_GRID)
    cells.use_bases(np.array([0]))
    assert cells.step >= PTC_GRID.size  # all 101 rows in one block
    whole = cells.cells(0, 0, PTC_GRID.size)
    if h == 5e-324:
        assert cells.under.size
    for height in range(1, 7):
        for a in range(0, PTC_GRID.size, height):
            b = min(a + height, PTC_GRID.size)
            assert np.array_equal(_bits(cells.cells(0, a, b)), _bits(whole[a:b])), (height, a)


# -- the lookup affinity kernel against its definition, one full array -----------------

# h rows with the bad-entry path (0 and 1), subnormal and tiny affinities
_KERNEL_H = np.concatenate((H_GRID, [5e-324, 1e-300, 1.0 - 2.0**-53]))

_KERNEL_TRACES = {
    "pah": lambda: gen_pah(400, 2, 0.3, 0.7, seed=3),
    "patch": lambda: gen_patch(400, 2, 0.3, 0.7, 0.5, seed=3),
    "fallback": lambda: gen_patch(300, 2, 0.2, 0.0, 0.5, seed=2),
    "dh": lambda: gen_directed("dh", 200, 0.05, 0.3, 0.7, seed=1),
    "dpah": lambda: gen_directed("dpah", 300, 0.03, 0.3, 0.6, seed=4),
}


def _kernel_rows(kernel, h_values):
    out = np.empty((h_values.size, kernel.code.size))
    for a, b, logp in kernel.blocks(h_values):
        out[a:b] = logp
    return out


@pytest.mark.parametrize("rows_per_block", [None, 3])
@pytest.mark.parametrize("name", list(_KERNEL_TRACES))
def test_affinity_kernel_has_the_reference_bits(name, rows_per_block, monkeypatch):
    _, trace = _KERNEL_TRACES[name]()
    stats = inference._stats_for(trace, triadic=True)
    if rows_per_block:  # many blocks, the last one short
        monkeypatch.setattr(inference, "_BLOCK_BYTES", 8 * rows_per_block * stats.n_events)
    model = name if trace.directed else "pah"
    kernel = inference._affinity(stats, model)
    want = _reference_logp(stats, model, _KERNEL_H)
    if trace.directed:
        assert kernel.weights.size == (1 if name == "dh" else np.unique(stats.weight).size)
        assert (want[0] == -np.inf).any() and np.isfinite(want[50]).all()  # the -inf fill at h = 0
    else:
        # events whose denominator vanishes at h = 0 or 1 take the fallback fill
        assert ((stats.sum_diff <= 0) | (stats.sum_same <= 0)).any()
        assert (stats.n_fallback > 0) == (name == "fallback")
        for part in inference._patch_events(stats):  # patch evaluates the kernel on subsets
            sub = inference._affinity(stats, "pah", part)
            assert np.array_equal(_bits(_kernel_rows(sub, _KERNEL_H)), _bits(want[:, part]))
            assert np.array_equal(_bits(sub.sums(_KERNEL_H)[0]), _bits([row[part].sum() for row in want]))
    assert np.array_equal(_bits(_kernel_rows(kernel, _KERNEL_H)), _bits(want))
    total, same, other = kernel.sums(_KERNEL_H)
    assert np.array_equal(_bits(total), _bits(want.sum(axis=1)))
    assert np.array_equal(_bits(same), _bits([row[stats.same].sum() for row in want]))
    assert np.array_equal(_bits(other), _bits([row[~stats.same].sum() for row in want]))


# -- the h-row search against the full sweep -------------------------------------------


def _impossible_at_every_h():
    # node 3 picks node 0 of degree 0 while both class totals are positive;
    # node 2's pick, with every degree 0, takes the uniform fill
    g = AttributedGraph(False, [0, 0, 1, 0], [(1, 2), (0, 3)])
    return g, trace_from_graph(g)


# the kernel's directed traces, its fallback trace (pah's peak at h = 0.14,
# patch's at 0), traces peaked at h = 0 and at h = 1, and one -inf everywhere
_ROW_TRACES = {
    **{name: _KERNEL_TRACES[name] for name in ("dh", "dpah", "fallback")},
    "pah-peak-at-0": lambda: gen_pah(300, 2, 0.2, 0.0, seed=2),
    "dh-peak-at-1": lambda: gen_directed("dh", 300, 0.03, 0.3, 1.0, seed=4),
    "every-row-inf": _impossible_at_every_h,
}
_ROW_PEAKS = {"pah-peak-at-0": {"pah": 0.0}, "dh-peak-at-1": {"dh": 1.0, "dpah": 1.0}}


def _rows_missed(trace, h_values):
    """Check the h models' scored rows against the full sweep; count the
    skipped rows that could reach an output."""
    stats = inference._stats_for(trace, triadic=False)
    missed = 0
    for model in ("dh", "dpah") if trace.directed else ("pah",):
        full = _full_grid(stats, model, h_values)
        got = inference._loglik_grid(stats, model, h_values)
        kept = got > -np.inf
        assert np.array_equal(_bits(got[kept]), _bits(full[kept])), model
        skipped = full[~kept]
        missed += int(np.count_nonzero((skipped > -np.inf) & (skipped >= full.max() - 745.2)))
    return missed


@pytest.mark.parametrize("name", list(_ROW_TRACES))
def test_row_search_skips_only_rows_that_cannot_reach_an_output(name, monkeypatch):
    _, trace = _ROW_TRACES[name]()
    assert _rows_missed(trace, H_GRID) == 0
    models = ["dpa", "dh", "dpah"] if trace.directed else ["pa", "pah"]
    table = select_model(trace, models)
    if name in _ROW_PEAKS:
        assert {f.model: f.h_hat for f in table.fits if f.h_hat is not None} == _ROW_PEAKS[name]
    if name == "every-row-inf":
        assert all(f.log_lik == -np.inf for f in table.fits)
    _assert_outputs_match_the_full_grids(trace, models, monkeypatch)


def test_row_search_with_the_bound_endpoints_swapped_misses_rows():
    # on h descending, the bound reads same-class sums at each interval's
    # lower h and other-class sums at its upper h: the endpoints swapped
    missed = {name: _rows_missed(make()[1], H_GRID[::-1]) for name, make in _ROW_TRACES.items()}
    assert any(missed.values()), missed


# -- the excluded mass against an event-by-event replay ----------------------------------


def _hub_trace(n, hub, p, seed):
    """Node 0 as the source (``hub == "source"``) or the target of every edge
    it can take, every other edge with probability p, in a random order."""
    rng = np.random.default_rng(seed)
    pairs = np.array([(u, v) for u in range(n) for v in range(n) if u != v])
    keep = (pairs[:, 0 if hub == "source" else 1] == 0) | (rng.random(len(pairs)) < p)
    pairs = rng.permutation(pairs[keep])
    return GrowthTrace(
        directed=True, labels=rng.integers(0, 2, n).astype(np.int8), sources=pairs[:, 0],
        targets=pairs[:, 1], kinds=np.full(len(pairs), int(EventKind.DIRECTED_PICK), dtype=np.int8),
        order_assumed=True,
    )


def _excluded_mass_of(trace):
    """``_excluded_mass`` as ``_directed_stats`` calls it."""
    got = []
    kernel = inference._excluded_mass
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(inference, "_excluded_mass", lambda *args: got.append(kernel(*args)) or got[0])
        inference._directed_stats(trace)
    return got[0]


def _side_pairs(trace):
    """Pairs listed from the source's later events, and from the target's."""
    src, tgt = trace.sources.tolist(), trace.targets.tolist()
    later = [(src[k + 1:].count(s), tgt[k + 1:].count(t)) for k, (s, t) in enumerate(zip(src, tgt))]
    return sum(a for a, b in later if a <= b), sum(b for a, b in later if b < a)


@given(
    st.sampled_from(["dpa", "dh", "dpah", "hub-source", "hub-target"]),
    st.integers(5, 60),
    st.floats(0.05, 0.3),
    st.booleans(),
    st.sampled_from([None, 1, 7]),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=120, deadline=None)
def test_excluded_mass_matches_the_pair_reference(family, n, d, from_graph, chunk, seed):
    if family.startswith("hub"):
        trace = _hub_trace(n, family[4:], d, seed)
    else:
        try:
            g, trace = gen_directed(family, n, d, 0.3, None if family == "dpa" else 0.7, 2.5, seed=seed)
        except SaturationError:
            reject()
        if from_graph:
            trace = trace_from_graph(g, seed=seed)
    want = reference_excluded_mass(trace)
    with pytest.MonkeyPatch.context() as mp:
        if chunk:  # chunk cuts inside the runs of both sides
            mp.setattr(inference, "_PAIR_CHUNK", chunk)
        got = _excluded_mass_of(trace)
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


@pytest.mark.parametrize("hub", ["source", "target"])
def test_hub_traces_list_pairs_from_both_sides(hub):
    trace = _hub_trace(40, hub, 0.1, seed=5)
    by_source, by_target = _side_pairs(trace)
    assert by_source > 0 and by_target > 0, (by_source, by_target)
    got, want = _excluded_mass_of(trace), reference_excluded_mass(trace)
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


# -- the triadic-closure sets against their definition -------------------------------


def _assert_triadic_sets_match(trace):
    size, hit = reference_triadic_sets(trace)
    scored = trace.kinds != EventKind.FALLBACK_UNIFORM
    stats = inference._undirected_stats(trace, triadic=True)
    assert np.array_equal(stats.tc_size, size[scored])
    assert np.array_equal(stats.tc_hit, hit[scored])
    assert np.array_equal(stats.mixture, size[scored] > 0)


@given(
    st.sampled_from(["pah", "patch"]),
    st.integers(5, 80),
    st.integers(1, 4),
    st.floats(0.0, 1.0),
    st.booleans(),
    st.sampled_from([None, 1, 7]),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=120, deadline=None)
def test_triadic_sets_match_the_definition(family, n, m, p_tc, from_graph, chunk, seed):
    if family == "pah":
        g, trace = gen_pah(n, m, 0.3, 0.7, seed=seed)
    else:
        g, trace = gen_patch(n, m, 0.3, 0.7, p_tc, seed=seed)
    if from_graph:  # arrivals of any length, in node-id order
        trace = trace_from_graph(g, seed=seed)
    with pytest.MonkeyPatch.context() as mp:
        if chunk:  # chunk cuts between most arrivals
            mp.setattr(inference, "_PAIR_CHUNK", chunk)
        _assert_triadic_sets_match(trace)


@pytest.mark.parametrize("from_graph", [False, True])
def test_triadic_sets_match_the_definition_in_chunks_cut_for_the_key_width(from_graph, monkeypatch):
    # 80 nodes (7 bits) and one chunk of 231 or 234 events (8 bits, 9 with
    # the pick bit) leave 1 bit of a 17-bit key for the arrival: 2 arrivals a chunk
    g, trace = gen_patch(80, 3, 0.3, 0.7, 0.8, seed=6)
    if from_graph:
        trace = trace_from_graph(g)
    monkeypatch.setattr(inference, "_KEY_BITS", 17)
    plans = []
    key_chunks = inference._key_chunks
    monkeypatch.setattr(inference, "_key_chunks", lambda *args: plans.append(key_chunks(*args)) or plans[0])
    _assert_triadic_sets_match(trace)
    (cuts, _, arrival_at), = plans
    assert arrival_at == 16 and np.diff(cuts).max() == 2


def test_pa_and_pah_never_build_the_triadic_sets(monkeypatch):
    _, trace = gen_patch(400, 3, 0.3, 0.8, 0.5, seed=3)
    with_patch = select_model(trace, ["pa", "pah", "patch"])

    def refuse(*args):
        raise AssertionError("the triadic-closure sets were built")

    monkeypatch.setattr(inference, "_triadic_sets", refuse)
    table = select_model(trace, ["pa", "pah"])
    fit = fit_model(trace, "pah")
    bf = bayes_factor(trace, "pa", "pah")
    replay_loglik(trace, "pah", h=0.5)
    fits = {f.model: f for f in with_patch.fits}
    assert [repr(f) for f in table.fits] == [repr(fits[f.model]) for f in table.fits]
    assert repr(fit) == repr(fits["pah"])
    pa_pah = [c for c in with_patch.comparisons if (c.model_a, c.model_b) == ("pa", "pah")]
    assert repr(table.comparisons) == repr(pa_pah)
    assert repr(bf) == repr(pa_pah[0].log10_bf)
    with pytest.raises(RuntimeError, match="without the triadic-closure sets"):
        inference._patch_events(inference._undirected_stats(trace, triadic=False))


def test_select_memory_stays_below_one_grid_array():
    # pah with patch once held a 101 x (scored events) float64 array, and
    # patch a 101 x (hit events) array of p_tc * P_tc rows it mostly never read
    _, trace = gen_patch(20000, 3, 0.3, 0.8, 0.5, seed=1)
    n_hit = inference._patch_events(inference._undirected_stats(trace, triadic=True))[1].size
    tracemalloc.start()
    try:
        select_model(trace, ["pa", "pah", "patch"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < H_GRID.size * 8 * len(trace.sources), peak / len(trace.sources)
    assert peak < H_GRID.size * 8 * n_hit, (peak, n_hit)


# -- differential check against the brute-force oracle ---------------------------------


_UNIT = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))


@given(
    st.sampled_from(["pa", "pah", "patch", "dpa", "dh", "dpah"]),
    st.integers(5, 80),
    st.integers(1, 3),
    st.one_of(st.just(0.0), st.floats(0.0, 0.5)),
    _UNIT,
    _UNIT,
    st.booleans(),
    st.data(),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=80, deadline=None)
def test_replay_matches_brute_force_on_random_traces(gen, n, m, f_m, h, p_tc, from_graph, data, seed):
    if gen in ("dpa", "dh", "dpah"):
        d = data.draw(st.floats(0.05, 0.25))
        try:
            g, trace = gen_directed(gen, n, d, f_m, None if gen == "dpa" else h, seed=seed)
        except SaturationError:
            reject()
        models = ["dpa", "dh", "dpah"]
    else:
        g, trace = {
            "pa": lambda: gen_pa(n, m, seed=seed),
            "pah": lambda: gen_pah(n, m, f_m, h, seed=seed),
            "patch": lambda: gen_patch(n, m, f_m, h, p_tc, seed=seed),
        }[gen]()
        models = ["pa", "pah", "patch"]
    if from_graph:
        trace = trace_from_graph(g, seed=seed)
    model = data.draw(st.sampled_from(models))
    kwargs = {}
    if model not in ("pa", "dpa"):
        kwargs["h"] = data.draw(_UNIT)
    if model == "patch":
        kwargs["p_tc"] = data.draw(_UNIT)
    want, want_n = brute_force_loglik(trace, model, **kwargs)
    if want_n == 0:
        with pytest.raises(ValueError, match="zero scoreable events"):
            replay_loglik(trace, model, **kwargs)
        return
    got, got_n = replay_loglik(trace, model, **kwargs)
    assert got_n == want_n
    if math.isinf(want):
        assert got == want
    else:
        # near-zero affinities give |logL| ~ 1e5, where summation order alone moves ~1e-9
        assert got == pytest.approx(want, rel=1e-12, abs=1e-9)
