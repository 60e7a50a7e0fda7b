import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import graphmix
from graphmix import cli
from graphmix.cli import main
from graphmix.generate import activity_from_uniform, gen_directed, gen_pa, gen_pah, gen_patch, sample_activity
from graphmix.graph import AttributedGraph, MixingMatrix, assign_classes
from graphmix.inference import replay_loglik, trace_from_graph
from graphmix.netio import format_value, read_config, write_network
from graphmix.ranking import pagerank, top_degree_nodes
from graphmix.rng import make_rng, rand_below, sample_without_replacement
from graphmix.sampling import STRATEGIES, benchmark, sample
from graphmix.spreading import cascade, crossing_time, equality_report, seeding, threshold_cascade

REPO_ROOT = Path(__file__).resolve().parents[1]
PACKAGE_PARENT = str(Path(graphmix.__file__).resolve().parents[1])


def run(*argv):
    return main(list(argv))


def _generate(tmp_path, name="net", **over):
    opts = {"model": "pah", "n": "300", "m": "2", "fm": "0.3", "h": "0.8", "seed": "1"}
    opts.update(over)
    argv = ["generate", "--out", str(tmp_path), "--prefix", name]
    for k, v in opts.items():
        if v is not None:  # None leaves a default flag out
            argv += [f"--{k.replace('_', '-')}", v]
    assert run(*argv) == 0
    return tmp_path / name


def _rows(path):
    lines = path.read_text().splitlines()
    return lines[0], [line.split(",") for line in lines[1:]]


# -- generate -------------------------------------------------------------------


def test_generate_writes_network_trace_and_config(tmp_path):
    prefix = _generate(tmp_path)
    for suffix in ("_nodes.csv", "_edges.csv", "_trace.csv", "_config.txt"):
        assert (tmp_path / (prefix.name + suffix)).is_file()
    cfg = read_config(tmp_path / "net_config.txt")
    assert cfg["command"] == "generate"
    assert cfg["h"] == "0.8"
    assert cfg["seed"] == "1"


def test_generate_same_seed_is_byte_identical(tmp_path):
    a = _generate(tmp_path / "a")
    b = _generate(tmp_path / "b")
    for suffix in ("_nodes.csv", "_edges.csv", "_trace.csv"):
        assert (
            a.with_name(a.name + suffix).read_bytes()
            == b.with_name(b.name + suffix).read_bytes()
        )


def test_generate_seed_changes_output(tmp_path):
    a = _generate(tmp_path / "a")
    b = _generate(tmp_path / "b", seed="2")
    assert (
        a.with_name(a.name + "_edges.csv").read_bytes()
        != b.with_name(b.name + "_edges.csv").read_bytes()
    )


def test_generate_directed_model(tmp_path):
    argv = [
        "generate", "--model", "dpah", "--n", "150", "--d", "0.01", "--fm", "0.25",
        "--h", "0.7", "--out", str(tmp_path), "--prefix", "d",
    ]
    assert run(*argv) == 0
    header, rows = _rows(tmp_path / "d_nodes.csv")
    assert header == "id,class" and len(rows) == 150


def test_generate_explicit_mixing_matrix(tmp_path):
    argv = [
        "generate", "--model", "pah", "--n", "100", "--m", "1", "--fm", "0.3",
        "--h00", "0.9", "--h01", "0.1", "--h10", "0.2", "--h11", "0.8",
        "--out", str(tmp_path), "--prefix", "mx",
    ]
    assert run(*argv) == 0


# -- fit and select --------------------------------------------------------------


def test_fit_with_trace_recovers_h(tmp_path):
    prefix = _generate(tmp_path, n="800")
    assert run(
        "fit", "--network", str(prefix), "--trace", str(tmp_path / "net_trace.csv"),
        "--model", "pah", "--out", str(tmp_path), "--prefix", "fit",
    ) == 0
    header, rows = _rows(tmp_path / "fit_selection.csv")
    assert header == "model,h_hat,ptc_hat,logL,k,n_events,AIC,BIC,order_assumed"
    assert len(rows) == 1
    row = dict(zip(header.split(","), rows[0]))
    assert row["model"] == "pah"
    assert row["order_assumed"] == "false"
    assert abs(float(row["h_hat"]) - 0.8) <= 0.1


def test_fit_without_trace_assumes_order(tmp_path):
    prefix = _generate(tmp_path)
    assert run(
        "fit", "--network", str(prefix), "--model", "pah",
        "--out", str(tmp_path), "--prefix", "fit",
    ) == 0
    header, rows = _rows(tmp_path / "fit_selection.csv")
    assert dict(zip(header.split(","), rows[0]))["order_assumed"] == "true"


def test_select_ranks_true_model_first(tmp_path):
    prefix = _generate(tmp_path, n="1000")
    assert run(
        "select", "--network", str(prefix), "--trace", str(tmp_path / "net_trace.csv"),
        "--models", "pa,pah,patch", "--out", str(tmp_path), "--prefix", "sel",
    ) == 0
    header, rows = _rows(tmp_path / "sel_selection.csv")
    assert rows[0][0] == "pah"
    assert {r[0] for r in rows} == {"pa", "pah", "patch"}
    cheader, crows = _rows(tmp_path / "sel_comparisons.csv")
    assert cheader == "model_a,model_b,log10_bf,lrt_stat,lrt_df,lrt_p"
    assert {(r[0], r[1]) for r in crows} == {
        ("pa", "pah"), ("pa", "patch"), ("pah", "patch"),
    }


def _permuted_pah():
    # a grown network's ids shuffled: no longer its arrival order
    g = gen_pah(2000, 2, 0.3, 0.8, seed=1)[0]
    perm = make_rng(2).permutation(g.n)
    labels = np.empty_like(g.labels)
    labels[perm] = g.labels
    return AttributedGraph(False, labels, perm[np.column_stack(g.edge_arrays())])


@pytest.mark.parametrize("network", [
    _permuted_pah,
    # node 3 picks node 2, of degree 0, while nodes 0 and 1 have degree 1
    lambda: AttributedGraph(False, [0, 1, 0, 1, 0, 1], [(0, 1), (0, 5), (1, 4), (2, 3), (3, 5)]),
], ids=["permuted-pah", "six-nodes"])
def test_a_fit_no_value_can_give_has_no_estimate(tmp_path, network):
    # once written as h_hat 0.0, ptc_hat 0.0 (the argmax of an all -inf grid) and LRT p 1.0
    write_network(network(), tmp_path / "x")
    assert run(
        "select", "--network", str(tmp_path / "x"), "--models", "pa,pah,patch",
        "--out", str(tmp_path), "--prefix", "s",
    ) == 0
    _, rows = _rows(tmp_path / "s_selection.csv")
    assert [row[1:4] for row in rows] == [["", "", "-inf"]] * 3
    _, rows = _rows(tmp_path / "s_comparisons.csv")
    assert [row[2:] for row in rows] == [["nan", "", "", ""]] * 3


_DIRECTED = {"model": "dpah", "n": "120", "d": "0.02", "fm": "0.3", "h": "0.8", "m": None}


@pytest.mark.parametrize("command,model_flag,directed", [
    ("fit", ["--model", "pah"], False),
    ("select", ["--models", "pa,pah"], False),
    ("select", ["--models", "dpa,dh,dpah", "--directed"], True),
])
def test_trace_of_another_network_is_rejected(tmp_path, capsys, command, model_flag, directed):
    opts = _DIRECTED if directed else {}
    a = _generate(tmp_path, "a", seed="1", **opts)
    _generate(tmp_path, "b", seed="2", **opts)
    assert run(
        command, "--network", str(a), "--trace", str(tmp_path / "b_trace.csv"), *model_flag,
        "--out", str(tmp_path), "--prefix", "out",
    ) == 1
    assert "trace does not rebuild the network" in capsys.readouterr().err
    assert not (tmp_path / "out_selection.csv").exists()


@pytest.mark.parametrize("command,model_flag", [("fit", ["--model", "patch"]), ("select", ["--models", "pa,pah,patch"])])
def test_scoring_a_trace_file_builds_the_network_once(tmp_path, monkeypatch, command, model_flag):
    prefix = _generate(tmp_path)
    builds = []
    init = AttributedGraph.__init__
    monkeypatch.setattr(AttributedGraph, "__init__", lambda self, *args: builds.append(args) or init(self, *args))
    assert run(
        command, "--network", str(prefix), "--trace", str(tmp_path / "net_trace.csv"), *model_flag,
        "--out", str(tmp_path), "--prefix", "out",
    ) == 0
    # read_network; the trace read with it keeps that graph, and the replay builds none
    assert len(builds) == 1


# -- rank -------------------------------------------------------------------------


def test_rank_visibility_file_layout(tmp_path):
    prefix = _generate(tmp_path)
    assert run(
        "rank", "--network", str(prefix), "--metric", "degree",
        "--out", str(tmp_path), "--prefix", "rk",
    ) == 0
    header, rows = _rows(tmp_path / "rk_visibility.csv")
    assert header == "k_percent,minority_fraction"
    assert len(rows) == 22  # 20 curve points + gini + me
    assert [r[0] for r in rows[:3]] == ["5", "10", "15"]
    assert rows[-2][0] == "gini" and rows[-1][0] == "me"
    k100 = dict((r[0], r[1]) for r in rows)["100"]
    assert float(k100) == pytest.approx(0.3, abs=1e-12)


def test_rank_indegree_on_undirected_fails(tmp_path):
    prefix = _generate(tmp_path)
    assert run(
        "rank", "--network", str(prefix), "--metric", "indegree",
        "--out", str(tmp_path), "--prefix", "rk",
    ) == 1


# -- sample -------------------------------------------------------------------------


def test_sample_bias_tables(tmp_path):
    prefix = _generate(tmp_path)
    assert run(
        "sample", "--network", str(prefix), "--strategies", "uniform-node,top-degree",
        "--budgets", "30,60", "--reps", "3", "--out", str(tmp_path), "--prefix", "sm",
    ) == 0
    header, rows = _rows(tmp_path / "sm_bias.csv")
    assert header.startswith("strategy,budget,reps,")
    assert "population_fm" in header and "population_mean_degree" in header
    assert len(rows) == 4
    _, reps = _rows(tmp_path / "sm_bias_reps.csv")
    assert len(reps) == 2 * 2 * 3


def test_sample_rejects_oversized_budget(tmp_path):
    prefix = _generate(tmp_path, n="50")
    assert run(
        "sample", "--network", str(prefix), "--budgets", "500",
        "--out", str(tmp_path), "--prefix", "sm",
    ) == 1


@pytest.mark.parametrize("seed", ["-1", "18446744073709551616"])
def test_sample_refuses_the_seeds_that_spread_refuses(tmp_path, capsys, seed):
    # sample's cell seeds are masked to 64 bits: -1 once ran, and 2**64 ran as seed 0
    prefix = _generate(tmp_path, n="50")
    for command, flags in (("sample", ["--budgets", "10"]), ("spread", ["--mode", "ic", "--p-in", "0.4", "--p-out", "0.4"])):
        argv = [command, "--network", str(prefix), *flags, "--seed", seed, "--out", str(tmp_path / "o"), "--prefix", "x"]
        assert run(*argv) == 1
        assert f"seed must lie in [0, {2**64 - 1}], got {seed}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


# -- spread -------------------------------------------------------------------------


def test_spread_ic_writes_series_equality_summary(tmp_path):
    prefix = _generate(tmp_path)
    assert run(
        "spread", "--network", str(prefix), "--mode", "ic", "--p-in", "0.4",
        "--p-out", "0.4", "--seed-condition", "top-degree", "--seed-count", "3",
        "--out", str(tmp_path), "--prefix", "sp",
    ) == 0
    sheader, srows = _rows(tmp_path / "sp_series.csv")
    assert sheader == "t,frac_class0,frac_class1,frac_all"
    assert srows[0][0] == "0"
    fracs = [float(r[3]) for r in srows]
    assert all(b >= a - 1e-15 for a, b in zip(fracs, fracs[1:]))
    eheader, erows = _rows(tmp_path / "sp_equality.csv")
    assert eheader == "t,equality" and len(erows) == len(srows)
    summary = dict(r for r in _rows(tmp_path / "sp_summary.csv")[1])
    assert "efficiency" in summary
    assert summary["seeds"].count(";") == 2


def test_spread_threshold_mode(tmp_path):
    prefix = _generate(tmp_path)
    assert run(
        "spread", "--network", str(prefix), "--mode", "threshold", "--theta", "0.2",
        "--seed-condition", "top-degree", "--seed-count", "5",
        "--out", str(tmp_path), "--prefix", "th",
    ) == 0
    assert (tmp_path / "th_summary.csv").is_file()


def test_spread_rejects_a_negative_step_cap(tmp_path, capsys):
    prefix = _generate(tmp_path)
    base = ["spread", "--network", str(prefix), "--out", str(tmp_path), "--prefix", "x", "--max-steps", "-3"]
    assert run(*base, "--mode", "threshold", "--theta", "0.2") == 1
    assert run(*base, "--mode", "ic", "--p-in", "0.4", "--p-out", "0.4") == 1
    assert "max_steps must be >= 0, got -3" in capsys.readouterr().err
    assert not (tmp_path / "x_series.csv").exists()


def test_spread_tables_match_a_row_writer_on_a_long_cascade(tmp_path):
    # threshold 1/2 on a ring with 2 neighbors per side advances one node
    # per side and step: 24 998 steps, and class fractions as small as
    # 2 / 33 333 (a float that prints as 6.0...e-05)
    n, block = 50_000, 4
    i = np.repeat(np.arange(n), 2)
    j = (i + np.tile([1, 2], n)) % n
    edges = np.unique(np.column_stack([np.minimum(i, j), np.maximum(i, j)]), axis=0)
    g = AttributedGraph(False, (np.arange(n) % 3 == 0).astype(np.int8), edges.tolist())
    write_network(g, tmp_path / "ring")
    assert run(
        "spread", "--network", str(tmp_path / "ring"), "--mode", "threshold", "--theta", "0.5",
        "--seed-condition", "top-degree", "--seed-count", str(block),
        "--out", str(tmp_path), "--prefix", "ring",
    ) == 0

    trace = threshold_cascade(g, np.arange(block), 0.5)
    report = equality_report(trace)
    assert trace.n_steps == (n - block) // 2

    def table(header, rows):
        text = "\n".join([header, *(",".join(format_value(c) for c in row) for row in rows)]) + "\n"
        # compared as lists of lines: a failure names the first differing
        # line instead of diffing a megabyte of text
        return text.encode().split(b"\n")

    fr = trace.class_fractions
    series = table(
        "t,frac_class0,frac_class1,frac_all",
        [[t, float(a), float(b), float(c)] for t, (a, b, c) in enumerate(zip(fr[:, 0], fr[:, 1], report.overall))],
    )
    equality = table("t,equality", [[t, float(e)] for t, e in enumerate(report.equality)])
    written = (tmp_path / "ring_series.csv").read_bytes().split(b"\n")
    assert written == series
    assert (tmp_path / "ring_equality.csv").read_bytes().split(b"\n") == equality
    assert written[1].split(b",")[:2] == [b"0", repr(2 / 33_333).encode()]
    assert written[-2].startswith(f"{trace.n_steps},".encode()) and written[-1] == b""


def test_spread_requires_mode_params(tmp_path):
    prefix = _generate(tmp_path)
    base = ["spread", "--network", str(prefix), "--out", str(tmp_path), "--prefix", "x"]
    assert run(*base, "--mode", "ic", "--p-in", "0.4") == 1  # p-out missing
    assert run(*base, "--mode", "threshold") == 1  # theta missing
    assert run(*base, "--mode", "sir") == 1


# -- sweep --------------------------------------------------------------------------


def test_sweep_range_grid_and_tidy_output(tmp_path):
    assert run(
        "sweep", "--model", "pah", "--n", "120", "--m", "2", "--fm", "0.3",
        "--h", "0.1:0.9:0.1", "--seeds", "0,1", "--out", str(tmp_path), "--prefix", "sw",
    ) == 0
    header, rows = _rows(tmp_path / "sw_sweep.csv")
    cols = header.split(",")
    assert cols[-3:] == ["seed", "metric", "value"]
    assert "h" in cols
    h_vals = {r[cols.index("h")] for r in rows}
    assert len(h_vals) == 9
    seeds = {r[cols.index("seed")] for r in rows}
    assert seeds == {"0", "1"}
    metrics = {r[cols.index("metric")] for r in rows}
    assert {"edges", "homophily", "gini_degree", "me_degree", "vis10_degree"} <= metrics


def test_sweep_workers_match_serial(tmp_path):
    argv = [
        "sweep", "--model", "pa", "--n", "80,120", "--m", "1", "--seeds", "0:2:1",
    ]
    assert run(*argv, "--out", str(tmp_path), "--prefix", "s1") == 0
    assert run(*argv, "--workers", "2", "--out", str(tmp_path), "--prefix", "s2") == 0
    assert (
        (tmp_path / "s1_sweep.csv").read_bytes()
        == (tmp_path / "s2_sweep.csv").read_bytes()
    )


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_sweep_rejects_workers_below_one(tmp_path, workers):
    assert run(
        "sweep", "--model", "pa", "--n", "60", "--m", "1", "--workers", workers,
        "--out", str(tmp_path), "--prefix", "sw",
    ) == 1
    assert not (tmp_path / "sw_sweep.csv").exists()


@pytest.mark.parametrize(
    "workers,cpus,want",
    [("8", 4, [3]), ("2", 4, [2]), ("8", None, []), ("3", 1, []), ("1", 4, [])],
)
def test_sweep_pool_is_capped_by_cpus_and_runs(tmp_path, monkeypatch, workers, cpus, want):
    import multiprocessing

    started = []

    class RecordingPool:  # runs the jobs in this process, so no worker starts
        def __init__(self, processes):
            started.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return [fn(job) for job in jobs]

    monkeypatch.setattr(multiprocessing, "Pool", RecordingPool)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    assert run(
        "sweep", "--model", "pa", "--n", "60", "--m", "1", "--seeds", "0:2:1", "--workers", workers,
        "--out", str(tmp_path), "--prefix", "sw",
    ) == 0
    assert started == want


def test_sweep_bad_range_is_usage_error(tmp_path):
    assert run(
        "sweep", "--model", "pa", "--n", "100", "--m", "1", "--seeds", "5:1:1",
        "--out", str(tmp_path), "--prefix", "sw",
    ) == 1



def test_sweep_bad_seed_is_exit_1_before_any_growth(tmp_path, monkeypatch, capsys):
    grown = []
    grow = graphmix.generate._grow
    monkeypatch.setattr(graphmix.generate, "_grow", lambda *args: grown.append(1) or grow(*args))
    assert run(
        "sweep", "--model", "pa", "--n", "2000", "--m", "2", "--seeds", "0,1,2,-1",
        "--out", str(tmp_path / "out"), "--prefix", "sw",
    ) == 1
    assert len(grown) == 0
    assert "seed must lie in [0, 18446744073709551615], got -1" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flag,value", [("--h", "0.1:nan:0.1"), ("--seeds", "0:inf:1"), ("--n", "inf")])
def test_sweep_non_finite_value_is_usage_error(tmp_path, capsys, flag, value):
    # the two ranges once grew without bound; --n inf raised OverflowError
    assert run(
        "sweep", "--model", "pah", "--n", "50", "--m", "1", "--fm", "0.3", "--h", "0.5", flag, value,
        "--out", str(tmp_path), "--prefix", "sw",
    ) == 1
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "sw_config.txt").exists()


@pytest.mark.parametrize("argv", [("generate", "--n", "100", "--m", "2"), ("sweep", "--n", "50", "--m", "1")])
def test_flag_the_model_does_not_read_is_exit_1(tmp_path, capsys, argv):
    assert run(*argv, "--model", "pa", "--fm", "0.3", "--out", str(tmp_path), "--prefix", "x") == 1
    assert "model pa takes no minority fraction" in capsys.readouterr().err
    assert not (tmp_path / "x_config.txt").exists()


def _reference_range(start, stop, step):
    """The range expansion as a plain loop: the values an accepted range must keep."""
    values, i = [], 0
    while (v := round(start + i * step, 12)) <= stop + 1e-12:
        values.append(v)
        i += 1
    return values


@pytest.mark.parametrize(
    "raw", ["0:1:0.1", "0.1:0.9:0.1", "0:1:0.25", "-0.5:0.5:0.05", "0:1:0.3333333333333333",
            "0.3:0.3:0.1", "1e-13:0:1", "0:1e-12:1e-13", "3:99999:1", "1e20:1e20:1"],
)
def test_accepted_range_keeps_the_loop_values(raw):
    start, stop, step = map(float, raw.split(":"))
    assert cli._parse_range(raw, "float") == _reference_range(start, stop, step)


@pytest.mark.parametrize("seeds,count", [("0:3e6:1", "3000001"), ("0:1e9:1", "1000000001")])
def test_sweep_range_past_the_run_cap_is_exit_1(tmp_path, capsys, seeds, count):
    # the range is counted from its bounds, so neither is listed before the refusal
    assert run(
        "sweep", "--model", "pa", "--n", "50", "--m", "1", "--seeds", seeds,
        "--out", str(tmp_path / "out"), "--prefix", "sw",
    ) == 1
    err = capsys.readouterr().err
    assert f"has {count} values" in err and "at most 100000 runs" in err
    assert not (tmp_path / "out").exists()


def test_sweep_run_cap_counts_cells_times_seeds(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "_MAX_SWEEP_RUNS", 6)
    argv = ["sweep", "--model", "pa", "--n", "50,60", "--m", "1", "--out", str(tmp_path)]
    assert run(*argv, "--seeds", "0:2:1", "--prefix", "six") == 0  # 2 cells x 3 seeds
    assert run(*argv, "--seeds", "0:3:1", "--prefix", "eight") == 1
    assert "sweep of 8 runs; a sweep makes at most 6 runs" in capsys.readouterr().err
    assert run(*argv, "--seeds", "0:6:1", "--prefix", "seven") == 1
    assert "range '0:6:1' has 7 values" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["six_config.txt", "six_sweep.csv"]


_G = AttributedGraph(False, [0, 1, 0, 1, 0, 0], [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5), (1, 4)])
_DG = AttributedGraph(True, [0, 1, 0, 1], [(0, 1), (1, 2), (2, 0), (3, 0), (0, 3)])
_PAH_TRACE = gen_pah(30, 2, 0.3, 0.7, seed=1)[1]

# every public scalar argument: a call that takes the value, and a valid value;
# an int marks a count, a float an interval
_SCALAR_ARGUMENTS = {
    "make_rng-seed": (lambda v: make_rng(v).random(4), 3),
    "rand_below-k": (lambda v: rand_below(make_rng(0), v), 5),
    "sample_without_replacement-n": (lambda v: sample_without_replacement(make_rng(0), v, 2), 5),
    "sample_without_replacement-k": (lambda v: sample_without_replacement(make_rng(0), 5, v), 2),
    "assign_classes-n": (lambda v: assign_classes(v, 0.3, make_rng(0)), 10),
    "assign_classes-f_m": (lambda v: assign_classes(10, v, make_rng(0)), 0.3),
    "MixingMatrix.symmetric-h": (lambda v: MixingMatrix.symmetric(v), 0.7),
    "gen_pa-n": (lambda v: gen_pa(v, 2, 0), 10),
    "gen_pa-m": (lambda v: gen_pa(10, v, 0), 2),
    "gen_pa-seed": (lambda v: gen_pa(10, 2, v), 1),
    "gen_pah-f_m": (lambda v: gen_pah(20, 2, v, 0.7, seed=1), 0.3),
    "gen_pah-h": (lambda v: gen_pah(20, 2, 0.3, v, seed=1), 0.7),
    "gen_patch-p_tc": (lambda v: gen_patch(20, 2, 0.3, 0.7, v, seed=1), 0.5),
    "gen_directed-n": (lambda v: gen_directed("dpa", v, 0.1, 0.3), 20),
    "gen_directed-d": (lambda v: gen_directed("dpa", 20, v, 0.3), 0.1),
    "gen_directed-gamma_a": (lambda v: gen_directed("dpa", 20, 0.1, 0.3, gamma_a=v), 2.5),
    "sample_activity-n": (lambda v: sample_activity(v, 2.5, make_rng(0)), 5),
    "activity_from_uniform-gamma_a": (lambda v: activity_from_uniform(0.5, v), 2.5),
    "replay_loglik-h": (lambda v: replay_loglik(_PAH_TRACE, "pah", h=v), 0.7),
    "replay_loglik-p_tc": (lambda v: replay_loglik(_PAH_TRACE, "patch", h=0.7, p_tc=v), 0.5),
    "trace_from_graph-seed": (lambda v: trace_from_graph(_DG, v), 1),
    "trace_from_graph-undirected-seed": (lambda v: trace_from_graph(_G, v), 1),
    "pagerank-damping": (lambda v: pagerank(_G, damping=v), 0.85),
    "pagerank-tol": (lambda v: pagerank(_G, tol=v), 1e-6),
    "pagerank-max_iter": (lambda v: pagerank(_G, max_iter=v), 3),
    "top_degree_nodes-k": (lambda v: top_degree_nodes(_G, v), 3),
    "sample-budget": (lambda v: sample(_G, "uniform-node", v, 1), 4),
    "sample-seed": (lambda v: sample(_G, "snowball", 4, v), 1),
    "benchmark-reps": (lambda v: benchmark(_G, ["uniform-node"], [4], v, 0), 2),
    "benchmark-budget": (lambda v: benchmark(_G, ["uniform-node"], [v], 2, 0), 4),
    "benchmark-seed": (lambda v: benchmark(_G, ["uniform-node"], [4], 2, v), 1),
    "cascade-p_in": (lambda v: cascade(_G, [0], v, 0.5, make_rng(0)), 0.5),
    "cascade-p_out": (lambda v: cascade(_G, [0], 0.5, v, make_rng(0)), 0.5),
    "cascade-max_steps": (lambda v: cascade(_G, [0], 0.5, 0.5, make_rng(0), max_steps=v), 2),
    "threshold_cascade-theta": (lambda v: threshold_cascade(_G, [0], v), 0.3),
    "threshold_cascade-max_steps": (lambda v: threshold_cascade(_G, [0], 0.3, max_steps=v), 2),
    "seeding-count": (lambda v: seeding(_G, "uniform", v, make_rng(0)), 2),
    "seeding-top-degree-count": (lambda v: seeding(_G, "top-degree", v, make_rng(0)), 2),
    "crossing_time-level": (lambda v: crossing_time(np.array([0.0, 0.4, 0.9]), v), 0.5),
}


def _same(a, b) -> bool:
    """Equal values, through dataclasses, tuples, lists, dicts and arrays (of one dtype)."""
    if dataclasses.is_dataclass(a):
        return type(a) is type(b) and all(_same(getattr(a, f.name), getattr(b, f.name)) for f in dataclasses.fields(a))
    if isinstance(a, (tuple, list)):
        return len(a) == len(b) and all(map(_same, a, b))
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, np.ndarray):
        return isinstance(b, np.ndarray) and a.dtype == b.dtype and np.array_equal(a, b)
    return a == b


@pytest.mark.parametrize("call,valid", _SCALAR_ARGUMENTS.values(), ids=_SCALAR_ARGUMENTS)
def test_library_scalar_argument_of_the_wrong_kind_is_a_value_error(call, valid):
    # the CLI parses its flags by type; a library caller once got a TypeError
    # from numpy, or a bool or a float taken as a count
    if isinstance(valid, int):
        for bad in (True, 2.5, float(valid)):
            with pytest.raises(ValueError, match="must be an integer"):
                call(bad)
        assert _same(call(np.int64(valid)), call(valid))
    else:
        with pytest.raises(ValueError, match="must (be|lie in) .*, got nan"):
            call(float("nan"))
        assert _same(call(np.float64(valid)), call(valid))


# -- config files and precedence -------------------------------------------------------


def test_config_file_with_flag_override(tmp_path):
    cfgfile = tmp_path / "gen.cfg"
    cfgfile.write_text(
        "model=pah\nn=200\nm=2\nfm=0.3\nh=0.2\nseed=3\n"
        f"out={tmp_path}\nprefix=cfgd\n"
    )
    assert run("generate", "--config", str(cfgfile), "--h", "0.8") == 0
    recorded = read_config(tmp_path / "cfgd_config.txt")
    assert recorded["h"] == "0.8"  # flag wins
    assert recorded["n"] == "200"  # file fills the rest


def test_config_file_unknown_key(tmp_path):
    cfgfile = tmp_path / "gen.cfg"
    cfgfile.write_text("model=pa\nn=100\nm=1\nbogus=1\n")
    assert run("generate", "--config", str(cfgfile)) == 1


# -- exit codes -----------------------------------------------------------------------


def test_missing_required_flag_is_exit_1(tmp_path):
    assert run("generate", "--n", "100", "--out", str(tmp_path)) == 1
    assert run("generate", "--model", "pa", "--out", str(tmp_path)) == 1


def test_bad_flag_value_is_exit_1(tmp_path):
    assert run("generate", "--model", "pa", "--n", "ten", "--out", str(tmp_path)) == 1
    assert run("generate", "--model", "nope", "--n", "100", "--m", "1",
               "--out", str(tmp_path)) == 1


def test_dpa_with_h_is_exit_1(tmp_path, capsys):
    argv = ["generate", "--model", "dpa", "--n", "300", "--d", "0.02", "--fm", "0.3", "--seed", "1"]
    assert run(*argv, "--h", "1.0", "--out", str(tmp_path)) == 1
    assert "model dpa takes no mixing matrix" in capsys.readouterr().err
    assert not (tmp_path / "run_edges.csv").exists()
    assert run(*argv, "--out", str(tmp_path)) == 0


def test_nan_mixing_cell_is_exit_1(tmp_path, capsys):
    assert run(
        "generate", "--model", "pah", "--n", "200", "--m", "2", "--fm", "0.3",
        "--h00", "nan", "--h01", "0.5", "--h10", "0.5", "--h11", "0.5", "--out", str(tmp_path),
    ) == 1
    assert "mixing matrix entries must lie in [0, 1]" in capsys.readouterr().err
    assert not (tmp_path / "run_edges.csv").exists()


def test_nan_gamma_is_exit_1(tmp_path, capsys):
    assert run(
        "generate", "--model", "dpa", "--n", "200", "--d", "0.02", "--fm", "0.3",
        "--gamma-a", "nan", "--out", str(tmp_path),
    ) == 1
    assert "gamma_a must be > 1, got nan" in capsys.readouterr().err
    assert not (tmp_path / "run_edges.csv").exists()


def test_h_conflicts_with_mixing_cells(tmp_path):
    assert run(
        "generate", "--model", "pah", "--n", "100", "--m", "1", "--fm", "0.3",
        "--h", "0.8", "--h00", "0.9", "--h01", "0.1", "--h10", "0.1", "--h11", "0.9",
        "--out", str(tmp_path),
    ) == 1


def test_missing_network_is_exit_1(tmp_path):
    assert run(
        "rank", "--network", str(tmp_path / "absent"), "--out", str(tmp_path)
    ) == 1


def test_saturation_is_exit_2(tmp_path):
    assert run(
        "generate", "--model", "dh", "--n", "4", "--d", "1.0", "--fm", "0.5",
        "--h", "1.0", "--out", str(tmp_path), "--prefix", "sat",
    ) == 2


def test_unwritable_output_dir_is_exit_2(tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("a plain file where a directory is needed\n")
    assert run(
        "generate", "--model", "pa", "--n", "20", "--m", "1",
        "--out", str(blocker / "nested"), "--prefix", "x",
    ) == 2


def test_missing_output_dir_is_created(tmp_path):
    assert run(
        "generate", "--model", "pa", "--n", "20", "--m", "1",
        "--out", str(tmp_path / "fresh" / "nested"), "--prefix", "x",
    ) == 0
    assert (tmp_path / "fresh" / "nested" / "x_nodes.csv").is_file()


# -- the runner writes only after the command has computed everything -------------------


def _rejected_after_parsing(command, inp):
    """argv of one command that parses but fails in its computation, with its exit code."""
    u, d = str(inp / "u"), str(inp / "d")
    return {
        "generate": (["--model", "dh", "--n", "4", "--d", "1.0", "--fm", "0.5", "--h", "1.0"], 2),
        "fit": (["--network", u, "--model", "nope"], 1),
        "select": (["--network", u, "--trace", str(inp / "d_trace.csv"), "--models", "pa,pah"], 1),
        "rank": (["--network", u, "--metric", "indegree"], 1),
        "sample": (["--network", u, "--budgets", "5000"], 1),
        "spread": (["--network", u, "--mode", "bogus"], 1),
        "sweep": (["--model", "pa", "--n", "50", "--m", "1:60:1"], 1),
    }[command]


@pytest.mark.parametrize("command", ["generate", "fit", "select", "rank", "sample", "spread", "sweep"])
def test_failed_command_leaves_no_file_under_out(tmp_path, capsys, command):
    inp = tmp_path / "in"
    _generate(inp, "u", n="200")
    _generate(inp, "d", n="200", seed="2")  # another network: its trace does not rebuild u
    argv, status = _rejected_after_parsing(command, inp)
    out = tmp_path / "out"
    assert run(command, *argv, "--out", str(out), "--prefix", "x") == status
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("prefix", ["", "sub/x", ".", "x/"], ids=["empty", "nested", "dot", "trailing-slash"])
def test_prefix_that_is_not_a_file_name_is_exit_1_before_any_work(tmp_path, capsys, monkeypatch, prefix):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "generate", lambda params: pytest.fail("the command ran"))
    assert run("generate", "--model", "pa", "--n", "20", "--m", "1", "--out", "X", "--prefix", prefix) == 1
    assert f"--prefix must be a non-empty file name with no directory part, got {prefix!r}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_prefix_from_a_config_file_is_checked_too(tmp_path, capsys):
    cfgfile = tmp_path / "gen.cfg"
    cfgfile.write_text("model=pa\nn=20\nm=1\nprefix=sub/x\n")
    assert run("generate", "--config", str(cfgfile), "--out", str(tmp_path / "out")) == 1
    assert "got 'sub/x'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# -- the parser --------------------------------------------------------------------------


@pytest.mark.parametrize("command", list(cli._SPECS))
def test_parser_of_one_command_reads_its_flags_as_the_full_parser_does(command):
    argv = [command, "--config", "c.cfg"]
    for i, (name, (kind, _default)) in enumerate(cli._SPECS[command].items()):
        argv += [f"--{name.replace('_', '-')}"] + ([] if kind == "flag" else [f"v{i}"])
    assert vars(cli.build_parser(command).parse_args(argv)) == vars(cli.build_parser().parse_args(argv))


@pytest.mark.parametrize("command", list(cli._SPECS))
def test_command_help_lists_every_flag(command, capsys):
    with pytest.raises(SystemExit) as exc:
        run(command, "--help")
    assert exc.value.code == 0
    text = capsys.readouterr().out
    for name in ["config", *cli._SPECS[command]]:
        assert f"--{name.replace('_', '-')}" in text


def test_top_level_help_lists_every_command(capsys):
    with pytest.raises(SystemExit) as exc:
        run("--help")
    assert exc.value.code == 0
    text = capsys.readouterr().out
    assert all(command in text for command in cli._SPECS) and len(cli._SPECS) == 7


def test_unknown_command_is_exit_1_and_lists_every_command(capsys):
    # main builds the named subcommand alone; any other word gets the full choice list
    assert run("selcet", "--models", "pa") == 1
    err = capsys.readouterr().err
    assert "invalid choice" in err and "selcet" in err
    listed = err.split("choose from", 1)[1]
    assert all(command in listed for command in cli._SPECS)
    assert "{select}" in cli.build_parser("select").format_usage()


# -- console entry point ---------------------------------------------------------------


def _console_script_argv(*args):
    """argv that runs the `graphmix` entry point declared in pyproject.toml.

    Mirrors the wrapper an install generates (import the target, exit with
    its return value), so the declared entry point is exercised without an
    install and never resolves to a stale `graphmix` on PATH.
    """
    tomllib = pytest.importorskip("tomllib")
    with open(REPO_ROOT / "pyproject.toml", "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["graphmix"]
    module, func = target.split(":")
    code = f"import sys; from {module} import {func}; sys.exit({func}())"
    return [sys.executable, "-c", code, *args]


def _run_same_package(argv):
    """Run argv with this process's graphmix package first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (PACKAGE_PARENT, env.get("PYTHONPATH")) if p
    )
    return subprocess.run(argv, capture_output=True, text=True, env=env)


def test_console_script_runs(tmp_path):
    proc = _run_same_package(
        _console_script_argv(
            "generate", "--model", "pa", "--n", "50", "--m", "1",
            "--out", str(tmp_path), "--prefix", "cs",
        )
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "cs_nodes.csv").is_file()


def test_module_invocation_matches_console_script(tmp_path):
    args = ["generate", "--model", "pa", "--n", "50", "--m", "1", "--out", str(tmp_path)]
    a = _run_same_package([sys.executable, "-m", "graphmix.cli", *args, "--prefix", "mi"])
    b = _run_same_package(_console_script_argv(*args, "--prefix", "cs"))
    assert a.returncode == 0, a.stderr
    assert b.returncode == 0, b.stderr
    assert (tmp_path / "mi_edges.csv").read_bytes() == (tmp_path / "cs_edges.csv").read_bytes()


# -- runtime dependencies ----------------------------------------------------------------


def test_cli_import_loads_nothing_beyond_numpy_and_the_stdlib():
    code = (
        "import sys; before = set(sys.modules); import graphmix.cli; "
        "tops = {m.split('.')[0] for m in set(sys.modules) - before}; "
        "print(*sorted(tops - set(sys.stdlib_module_names)))"
    )
    proc = _run_same_package([sys.executable, "-c", code])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["graphmix", "numpy"]


def test_cli_chain_runs_with_scipy_blocked(tmp_path):
    out = ["--out", str(tmp_path)]
    chain = [
        ["generate", "--model", "pah", "--n", "300", "--m", "2", "--fm", "0.3",
         "--h", "0.8", "--seed", "1", *out, "--prefix", "u"],
        ["select", "--network", str(tmp_path / "u"), "--trace", str(tmp_path / "u_trace.csv"),
         "--models", "pa,pah,patch", *out, "--prefix", "us"],
        ["generate", "--model", "dpah", "--n", "300", "--d", "0.01", "--fm", "0.25",
         "--h", "0.7", "--seed", "1", *out, "--prefix", "d"],
        ["select", "--network", str(tmp_path / "d"), "--trace", str(tmp_path / "d_trace.csv"),
         "--directed", "--models", "dpa,dh,dpah", *out, "--prefix", "ds"],
        ["rank", "--network", str(tmp_path / "d"), "--directed", "--metric", "pagerank",
         *out, "--prefix", "rk"],
        ["sample", "--network", str(tmp_path / "u"), "--strategies", ",".join(STRATEGIES),
         "--budgets", "30", "--reps", "2", *out, "--prefix", "sm"],
        ["spread", "--network", str(tmp_path / "u"), "--mode", "ic", "--p-in", "0.3",
         "--p-out", "0.3", "--seed-condition", "top-degree", "--seed-count", "3",
         *out, "--prefix", "sp"],
        ["spread", "--network", str(tmp_path / "u"), "--mode", "threshold", "--theta", "0.2",
         "--seed-condition", "uniform", "--seed-count", "5", *out, "--prefix", "th"],
        ["spread", "--network", str(tmp_path / "d"), "--directed", "--mode", "threshold",
         "--theta", "0.1", "--seed-condition", "top-degree", "--seed-count", "20",
         *out, "--prefix", "dth"],
    ]
    # a None entry in sys.modules makes every later `import scipy...` raise ImportError;
    # no command needs numpy.ma, which a plain np.unique imports at its first call on
    # numpy 2 (about 9 ms of a CLI call), and numpy 1.x imports with numpy itself
    code = (
        "import sys; sys.modules['scipy'] = None; import numpy\n"
        "eager = 'numpy.ma' in sys.modules\n"
        "from graphmix.cli import main\n"
        f"for argv in {chain!r}:\n"
        "    if main(argv) != 0: sys.exit(f'{argv[0]} failed')\n"
        "    if not eager and 'numpy.ma' in sys.modules: sys.exit(f'{argv[-1]} imported numpy.ma')\n"
    )
    proc = _run_same_package([sys.executable, "-c", code])
    assert proc.returncode == 0, proc.stderr
    for name, nested in (("us", {("pa", "pah"), ("pa", "patch"), ("pah", "patch")}),
                         ("ds", {("dpa", "dpah")})):
        header, rows = _rows(tmp_path / f"{name}_comparisons.csv")
        col = header.split(",").index("lrt_p")
        tested = {(r[0], r[1]) for r in rows if r[col]}
        assert tested == nested
        assert all(0.0 <= float(r[col]) <= 1.0 for r in rows if r[col])
    for suffix in ("rk_visibility.csv", "sm_bias.csv", "sp_series.csv", "dth_summary.csv"):
        assert (tmp_path / suffix).is_file()
