import math

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

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
    # an edge repeated within an arrival would be scored with its degree counted twice
    repeated_target = GrowthTrace(
        directed=False, labels=labels,
        sources=np.array([2, 2, 3, 3]), targets=np.array([0, 0, 0, 1]),
        kinds=np.array([0, 0, 0, 0], dtype=np.int8), m=2,
    )
    with pytest.raises(ValueError, match="duplicate edge"):
        replay_loglik(repeated_target, "pa")
    with pytest.raises(ValueError, match="duplicate edge"):
        replay_event_probabilities(repeated_target, "pa")
    repeated_pair = GrowthTrace(
        directed=True, labels=labels,
        sources=np.array([0, 1, 0]), targets=np.array([1, 2, 1]),
        kinds=np.full(3, int(EventKind.DIRECTED_PICK), dtype=np.int8),
    )
    with pytest.raises(ValueError, match="duplicate edge"):
        replay_loglik(repeated_pair, "dpa")
    with pytest.raises(ValueError, match="duplicate edge"):
        replay_event_probabilities(repeated_pair, "dpa")


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
