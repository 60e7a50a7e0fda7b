"""End-to-end acceptance battery.

Every test exercises one release property at desk scale and prints exactly
one PASS/FAIL line to the real stdout, so the verdicts stay visible under
pytest's output capture.  The properties span structural exactness of the
generators, the scale-free tail, homophily-neutral reductions, parameter
and model recovery, ranking/sampling/spreading directionality, agreement
with an independent likelihood oracle, and byte-level determinism of the
command-line interface.
"""

import math
import subprocess
import sys

import numpy as np
import pytest

from graphmix.generate import (
    GenParams,
    SaturationError,
    gen_directed,
    gen_pa,
    gen_pah,
    gen_patch,
    generate,
)
from graphmix.graph import MixingMatrix
from graphmix.inference import (
    fit_model,
    replay_event_probabilities,
    replay_loglik,
    select_model,
)
from graphmix.netio import read_network, write_network
from graphmix.ranking import visibility
from graphmix.rng import make_rng
from graphmix.sampling import benchmark, sample
from graphmix.spreading import cascade, crossing_time, equality_report, seeding

from helpers import brute_force_loglik, power_law_alpha, random_graph


@pytest.fixture
def announce(capsys):
    """One visible PASS/FAIL line per criterion, bypassing output capture."""

    def _announce(num: int, name: str, ok: bool, detail: str) -> None:
        verdict = "PASS" if ok else "FAIL"
        with capsys.disabled():
            print(f"[acceptance {num:02d}] {name}: {verdict} ({detail})")

    return _announce


# -- 1: structural exactness ---------------------------------------------------------


def test_01_edge_counts_exact_for_random_parameters(announce):
    rng = np.random.default_rng(12345)
    models = ["pa", "pah", "patch", "dpa", "dh", "dpah"]
    bad = []
    saturated = 0
    for i in range(100):
        model = models[i % 6]
        h = MixingMatrix.symmetric(round(float(rng.uniform(0.05, 0.95)), 2))
        f_m = round(float(rng.uniform(0.1, 0.5)), 2)
        if model in ("pa", "pah", "patch"):
            n = int(rng.integers(10, 400))
            m = int(rng.integers(1, min(6, n)))
            params = GenParams(
                model=model, n=n, m=m, seed=i,
                f_m=None if model == "pa" else f_m,
                H=None if model == "pa" else h,
                p_tc=round(float(rng.uniform(0, 1)), 2) if model == "patch" else None,
            )
            expected = m * (m - 1) // 2 + (n - m) * m
        else:
            n = int(rng.integers(10, 300))
            d = round(float(rng.uniform(0.002, 0.08)), 4)
            params = GenParams(
                model=model, n=n, seed=i, f_m=f_m,
                H=None if model == "dpa" else h, d=d,
            )
            expected = round(d * n * (n - 1))
        try:
            g, _ = generate(params)
        except SaturationError as exc:
            # documented outcome: generator ran out of admissible dyads
            saturated += 1
            if not (0 <= exc.capacity < exc.target):
                bad.append((i, model, "bad saturation bookkeeping"))
            continue
        if g.num_edges != expected:
            bad.append((i, model, f"edges {g.num_edges} != {expected}"))
    ok = not bad
    announce(
        1,
        "edge counts exact for 100 random parameter draws",
        ok,
        f"{100 - len(bad)}/100 exact-or-saturated, {saturated} saturated" + (f"; first failure {bad[0]}" if bad else ""),
    )
    assert ok, bad[:5]


# -- 2: scale-free tail ---------------------------------------------------------------


def test_02_preferential_attachment_tail_exponent(announce):
    hits = 0
    alphas = []
    for seed in range(10):
        g, _ = gen_pa(20000, 2, seed=seed)
        alpha = power_law_alpha(g.total_degree_vector(), x_min=10)
        alphas.append(round(alpha, 3))
        if 2.6 <= alpha <= 3.4:
            hits += 1
    ok = hits >= 8
    announce(2, "degree-tail exponent within [2.6, 3.4]", ok, f"{hits}/10 runs, alphas={alphas}")
    assert ok, alphas


# -- 3: homophily-neutral reduction ----------------------------------------------------


def _streams_equal(trace, model_h, model_plain):
    for (ia, pa), (ib, pb) in zip(
        replay_event_probabilities(trace, model_h, h=0.5),
        replay_event_probabilities(trace, model_plain),
    ):
        if not (np.array_equal(ia, ib) and np.array_equal(pa, pb)):
            return False
    return True


def test_03_neutral_affinity_reduces_to_plain_preferential_attachment(announce):
    bad = []
    for seed in range(20):
        _, trace = gen_pah(2000, 2, 0.3, 0.5, seed=seed)
        if not _streams_equal(trace, "pah", "pa"):
            bad.append(("pah", seed))
        _, dtrace = gen_directed("dpah", 2000, 0.002, 0.3, 0.5, seed=seed)
        if not _streams_equal(dtrace, "dpah", "dpa"):
            bad.append(("dpah", seed))
    ok = not bad
    announce(
        3,
        "h=0.5 event probabilities bit-equal the neutral models",
        ok,
        f"{40 - len(bad)}/40 traces exact",
    )
    assert ok, bad


# -- 4: parameter recovery --------------------------------------------------------------


def test_04_grid_mle_recovers_generating_parameters(announce):
    pah_hits = 0
    pah_hats = []
    for seed in range(10):
        _, trace = gen_pah(5000, 2, 0.3, 0.8, seed=seed)
        fit = fit_model(trace, "pah")
        pah_hats.append(fit.h_hat)
        if abs(fit.h_hat - 0.8) <= 0.05:
            pah_hits += 1
    patch_hits = 0
    patch_hats = []
    for seed in range(10):
        _, trace = gen_patch(5000, 2, 0.3, 0.8, 0.7, seed=seed)
        fit = fit_model(trace, "patch")
        patch_hats.append((fit.h_hat, fit.p_tc_hat))
        if abs(fit.h_hat - 0.8) <= 0.1 and abs(fit.p_tc_hat - 0.7) <= 0.1:
            patch_hits += 1
    ok = pah_hits >= 9 and patch_hits >= 8
    announce(
        4,
        "grid MLE recovers h and p_tc",
        ok,
        f"pah {pah_hits}/10 within ±0.05, patch {patch_hits}/10 within ±0.1",
    )
    assert ok, (pah_hats, patch_hats)


# -- 5: selection recovery ----------------------------------------------------------------


def test_05_information_criteria_recover_the_generator(announce):
    n = 5000
    winners = 0
    trials = 0
    lrt_reject_on_pah = 0
    lrt_keep_on_pa = 0
    bf_on_pah = 0
    for seed in range(20):
        datasets = [
            ("pa", gen_pa(n, 2, seed=seed)[1]),
            ("pah", gen_pah(n, 2, 0.3, 0.8, seed=100 + seed)[1]),
            ("patch", gen_patch(n, 2, 0.3, 0.8, 0.7, seed=200 + seed)[1]),
        ]
        for truth, trace in datasets:
            table = select_model(trace, ["pa", "pah", "patch"])
            trials += 1
            if table.best.model == truth:
                winners += 1
            comp = {(c.model_a, c.model_b): c for c in table.comparisons}[("pa", "pah")]
            if truth == "pah":
                if comp.lrt_p < 0.01:
                    lrt_reject_on_pah += 1
                if -comp.log10_bf > 1.0:
                    bf_on_pah += 1
            elif truth == "pa":
                if comp.lrt_p >= 0.01:
                    lrt_keep_on_pa += 1
    ok = (
        winners >= round(0.9 * trials)
        and lrt_reject_on_pah >= 18
        and lrt_keep_on_pa >= 18
        and bf_on_pah >= 18
    )
    announce(
        5,
        "BIC winner, LRT decisions, and Bayes factors recover the generator",
        ok,
        f"bic {winners}/{trials}, lrt-reject {lrt_reject_on_pah}/20, "
        f"lrt-keep {lrt_keep_on_pa}/20, log10-bf>1 {bf_on_pah}/20",
    )
    assert ok


# -- 6: ranking directionality ---------------------------------------------------------------


def test_06_homophily_moves_minority_visibility_in_rankings(announce):
    medians = {}
    for h in (0.2, 0.5, 0.8):
        vals = []
        for seed in range(20):
            g, _ = gen_directed("dpah", 2000, 0.005, 0.2, h, seed=seed)
            curve = visibility(g, "indegree")
            vals.append(float(curve.fractions[curve.ks.tolist().index(10)]))
        medians[h] = float(np.median(vals))
    ok = (
        medians[0.2] > 0.2
        and abs(medians[0.5] - 0.2) <= 0.05
        and medians[0.8] < 0.2
    )
    announce(
        6,
        "top-10% indegree minority share tracks homophily",
        ok,
        f"medians h0.2={medians[0.2]:.3f}, h0.5={medians[0.5]:.3f}, h0.8={medians[0.8]:.3f}",
    )
    assert ok, medians


# -- 7: sampling bias -------------------------------------------------------------------------


def test_07_top_degree_sampling_under_represents_the_minority(announce):
    lower = 0
    for seed in range(20):
        g, _ = gen_pah(2000, 2, 0.2, 0.8, seed=seed)
        labels = g.labels
        top = sample(g, "top-degree", 200, seed=seed)
        uni = sample(g, "uniform-node", 200, seed=seed)
        if labels[top.nodes].mean() < labels[uni.nodes].mean():
            lower += 1
    g, _ = gen_pah(2000, 2, 0.2, 0.8, seed=0)
    rep = benchmark(g, ["uniform-node"], [200], reps=1000, seed=1)
    uni_bias = rep.cells[0].minority_bias
    ok = lower >= 18 and abs(uni_bias) <= 0.02
    announce(
        7,
        "degree-oracle sampling under-samples the minority, uniform stays unbiased",
        ok,
        f"paired lower {lower}/20, uniform-node bias {uni_bias:+.4f} over 1000 reps",
    )
    assert ok


# -- 8: spreading gap ---------------------------------------------------------------------------


def test_08_stronger_homophily_widens_the_group_spreading_gap(announce):
    medians = {}
    violations = []
    for h in (0.5, 0.9):
        gaps = []
        for seed in range(20):
            g, _ = gen_pah(2000, 2, 0.2, h, seed=seed)
            rng = make_rng(seed)
            seeds = seeding(g, "majority-only", 5, rng)
            trace = cascade(g, seeds, 0.4, 0.4, rng)
            c_minority = crossing_time(trace.class_fractions[:, 1], 0.5)
            c_majority = crossing_time(trace.class_fractions[:, 0], 0.5)
            if c_minority is None or c_majority is None:
                violations.append((h, seed, "undefined crossing"))
                continue
            gaps.append(c_minority - c_majority)
            rep = equality_report(trace)
            if not np.all((rep.equality >= 0.0) & (rep.equality <= 1.0)):
                violations.append((h, seed, "equality out of [0,1]"))
            if not np.all(np.diff(trace.class_fractions, axis=0) >= -1e-15):
                violations.append((h, seed, "non-monotone fractions"))
        medians[h] = float(np.median(gaps))
    ok = not violations and medians[0.9] > medians[0.5]
    announce(
        8,
        "time-to-half gap grows with homophily; equality and monotonicity hold",
        ok,
        f"median gap h0.5={medians[0.5]:+.3f}, h0.9={medians[0.9]:+.3f}, "
        f"{len(violations)} invariant violations",
    )
    assert ok, (medians, violations[:5])


# -- 9: oracle equivalence ----------------------------------------------------------------------


def test_09_replay_matches_independent_oracle(announce):
    rng = np.random.default_rng(777)
    checked = 0
    worst = 0.0
    bad = []
    for i in range(50):
        model = ["pa", "pah", "patch", "dpa", "dh", "dpah"][i % 6]
        n = int(rng.integers(20, 301))
        f_m = round(float(rng.uniform(0.2, 0.5)), 2)
        h_true = round(float(rng.uniform(0.1, 0.9)), 2)
        if model in ("pa", "pah", "patch"):
            m = int(rng.integers(1, 4))
            if model == "pa":
                _, trace = gen_pa(n, m, seed=i)
            elif model == "pah":
                _, trace = gen_pah(n, m, f_m, h_true, seed=i)
            else:
                _, trace = gen_patch(n, m, f_m, h_true, round(float(rng.uniform(0, 1)), 2), seed=i)
        else:
            d = round(float(rng.uniform(0.005, 0.04)), 3)
            _, trace = gen_directed(model, n, d, f_m, None if model == "dpa" else h_true, seed=i)
        h_eval = round(float(rng.uniform(0.05, 0.95)), 2)
        ptc_eval = round(float(rng.uniform(0.05, 0.95)), 2)
        kwargs = {}
        if model in ("pah", "patch", "dh", "dpah"):
            kwargs["h"] = h_eval
        if model == "patch":
            kwargs["p_tc"] = ptc_eval
        want, want_n = brute_force_loglik(trace, model, **kwargs)
        got, got_n = replay_loglik(trace, model, **kwargs)
        checked += 1
        if got_n != want_n:
            bad.append((i, model, "event count"))
        elif math.isinf(want) or math.isinf(got):
            if want != got:
                bad.append((i, model, f"{got} vs {want}"))
        else:
            err = abs(got - want)
            worst = max(worst, err)
            if err > 1e-9:
                bad.append((i, model, f"|diff|={err:.2e}"))
    _, tiny = gen_pa(3, 1, seed=0)
    ll, n_events = replay_loglik(tiny, "pa")
    exact = ll == math.log(0.5) and n_events == 1
    ok = not bad and exact
    announce(
        9,
        "replay log-likelihood matches a brute-force oracle",
        ok,
        f"{checked - len(bad)}/{checked} traces within 1e-9 (worst {worst:.2e}); "
        f"3-node case exact={exact}",
    )
    assert ok, bad[:5]


# -- 10: determinism and round-trip ---------------------------------------------------------------


def _snapshot(outdir, prefix):
    return {
        p.name: p.read_bytes() for p in sorted(outdir.glob(prefix + "_*"))
    }


def _run_cli(args):
    proc = subprocess.run(
        [sys.executable, "-m", "graphmix.cli", *args], capture_output=True, text=True
    )
    assert proc.returncode == 0, (args, proc.stderr)


def test_10_cli_determinism_and_network_roundtrip(announce, tmp_path):
    out = str(tmp_path)
    net = str(tmp_path / "net")
    trace = str(tmp_path / "net_trace.csv")
    commands = {
        "generate": ["generate", "--model", "pah", "--n", "300", "--m", "2",
                     "--fm", "0.3", "--h", "0.8", "--seed", "7",
                     "--out", out, "--prefix", "net"],
        "fit": ["fit", "--network", net, "--trace", trace, "--model", "pah",
                "--out", out, "--prefix", "fit"],
        "select": ["select", "--network", net, "--trace", trace,
                   "--models", "pa,pah,patch", "--out", out, "--prefix", "sel"],
        "rank": ["rank", "--network", net, "--metric", "degree",
                 "--out", out, "--prefix", "rank"],
        "sample": ["sample", "--network", net, "--strategies",
                   "uniform-node,snowball,top-degree", "--budgets", "30,90",
                   "--reps", "3", "--seed", "5", "--out", out, "--prefix", "smp"],
        "spread": ["spread", "--network", net, "--mode", "ic", "--p-in", "0.4",
                   "--p-out", "0.4", "--seed-condition", "top-degree",
                   "--seed-count", "3", "--seed", "5", "--out", out,
                   "--prefix", "spr"],
        "sweep": ["sweep", "--model", "pa", "--n", "60,90", "--m", "1",
                  "--seeds", "0:1:1", "--out", out, "--prefix", "swp"],
    }
    prefixes = {"generate": "net", "fit": "fit", "select": "sel", "rank": "rank",
                "sample": "smp", "spread": "spr", "sweep": "swp"}
    unstable = []
    for name, args in commands.items():
        _run_cli(args)
        first = _snapshot(tmp_path, prefixes[name])
        _run_cli(args)
        second = _snapshot(tmp_path, prefixes[name])
        if first != second or not first:
            unstable.append(name)

    rng = make_rng(99)
    mismatches = 0
    for i in range(100):
        g = random_graph(
            n=int(2 + (i * 7) % 79),
            directed=bool(i % 2),
            p=0.05 + (i % 5) * 0.08,
            rng=rng,
        )
        prefix = tmp_path / f"rt{i}"
        write_network(g, prefix)
        if read_network(prefix, directed=g.directed) != g:
            mismatches += 1
    ok = not unstable and mismatches == 0
    announce(
        10,
        "subcommands byte-stable across reruns; write/read is the identity",
        ok,
        f"{len(commands) - len(unstable)}/{len(commands)} subcommands stable, "
        f"{100 - mismatches}/100 graphs round-trip",
    )
    assert ok, (unstable, mismatches)
