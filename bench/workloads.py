"""The three benchmark workloads, each a complete CLI study.

A study is a list of CLI calls (``generate -> select -> rank -> sample ->
spread``) with the check that each call's outputs must pass.  Sizes are
multiplied by ``scale`` (1 for the benchmark; the scaling table also runs
0.5); every seed handed to the CLI derives from the workload seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import checks

STAGES = ("generate", "select", "rank", "sample", "spread")
STRATEGIES = ("uniform-node", "uniform-edge", "snowball", "random-walk", "top-degree")
OUTPUTS = {
    "generate": ("_nodes.csv", "_edges.csv", "_trace.csv", "_config.txt"),
    "select": ("_selection.csv", "_comparisons.csv", "_config.txt"),
    "rank": ("_visibility.csv", "_config.txt"),
    "sample": ("_bias.csv", "_bias_reps.csv", "_config.txt"),
    "spread": ("_series.csv", "_equality.csv", "_summary.csv", "_config.txt"),
}

FM, H = 0.3, 0.8          # minority fraction and homophily of every grown network
IC = ("0.3", "0.1")       # IC transmission within / across classes
LATTICE_BLOCK = 4         # top-degree seeds on the ring lattice: nodes 0..3


@dataclass(frozen=True)
class Op:
    stage: str
    prefix: Path
    argv: tuple[str, ...]
    check: Callable[[], None]

    def outputs(self) -> list[Path]:
        return [Path(f"{self.prefix}{suffix}") for suffix in OUTPUTS[self.stage]]


@dataclass
class Study:
    out: Path
    network: Path            # the grown network
    directed: bool
    base_model: str          # replayed once more, alone, in the traced run
    ops: list[Op] = field(default_factory=list)
    prepare: Callable[[], None] = lambda: None  # writes the benchmark's own inputs
    context: dict = field(default_factory=dict)

    def add(self, stage: str, name: str, args: list[str], check: Callable[[Path], None]) -> None:
        prefix = self.out / name
        argv = (stage, *args, "--out", str(self.out), "--prefix", name)
        self.ops.append(Op(stage, prefix, argv, lambda: check(prefix)))


def _net(study: Study) -> list[str]:
    return ["--network", str(study.network)] + (["--directed"] if study.directed else [])


def _analyses(study: Study, seed: int, rank_metrics, budgets, reps, spreads) -> None:
    net = _net(study)
    for metric in rank_metrics:
        study.add("rank", f"rank-{metric}", net + ["--metric", metric],
                  lambda p, metric=metric: checks.check_rank(p, metric, study.network, study.directed))
    study.add("sample", "sample", net + ["--strategies", ",".join(STRATEGIES),
                                          "--budgets", ",".join(map(str, budgets)),
                                          "--reps", str(reps), "--seed", str(seed)],
              lambda p: checks.check_sample(p, study.network, list(STRATEGIES), budgets, reps))
    for name, cond, count, mode_args, cli_seed in spreads:
        study.add("spread", name, net + mode_args + ["--seed-condition", cond, "--seed-count", str(count),
                                                     "--seed", str(cli_seed)],
                  lambda p, cond=cond, count=count: checks.check_spread(p, study.network, cond, count))


def _undirected(study: Study, model: str, n: int, m: int, p_tc: float | None, seed: int, models: str) -> None:
    gen_args = ["--model", model, "--n", str(n), "--m", str(m), "--fm", str(FM), "--h", str(H), "--seed", str(seed)]
    if p_tc is not None:
        gen_args += ["--ptc", str(p_tc)]

    def check_gen(prefix):
        study.context["net"] = checks.check_undirected_growth(prefix, n, m, FM)

    study.add("generate", "net", gen_args, check_gen)
    study.add("select", "select", _net(study) + ["--trace", f"{study.network}_trace.csv", "--models", models],
              lambda p: checks.check_selection(p, models.split(","), model, H, p_tc, study.context["net"]))


def undirected_growth(out: Path, seed: int, scale: float) -> Study:
    """patch growth and its selection dominate; one small pass over the analyses."""
    n = round(10_000 * scale)
    study = Study(out, out / "net", False, "pa")
    _undirected(study, "patch", n, 3, 0.5, seed, "pa,pah,patch")
    _analyses(study, seed, ["degree", "pagerank"], [100, 200], 10, [
        (f"spread-ic-{i}", "uniform", 10, ["--mode", "ic", "--p-in", IC[0], "--p-out", IC[1]], seed + i)
        for i in range(3)
    ])
    return study


def directed_growth(out: Path, seed: int, scale: float) -> Study:
    """dpah growth (O(E n)) and the directed replay dominate; directed analyses ride along."""
    n, d, gamma_a = round(2_000 * scale), 0.01, 3.5
    study = Study(out, out / "net", True, "dpa")
    models = "dpa,dh,dpah"

    def check_gen(prefix):
        study.context["net"] = checks.check_directed_growth(prefix, n, d, FM)

    study.add("generate", "net", ["--model", "dpah", "--n", str(n), "--d", str(d), "--fm", str(FM),
                                  "--h", str(H), "--gamma-a", str(gamma_a), "--seed", str(seed)], check_gen)
    study.add("select", "select", _net(study) + ["--trace", f"{study.network}_trace.csv", "--models", models],
              lambda p: checks.check_selection(p, models.split(","), "dpah", H, None, study.context["net"]))
    _analyses(study, seed, ["degree", "pagerank"], [100, 200], 10, [
        (f"spread-threshold-{theta}", "top-degree", 20, ["--mode", "threshold", "--theta", theta], seed)
        for theta in ("0.05", "0.1", "0.2")
    ])
    return study


def experiments(out: Path, seed: int, scale: float) -> Study:
    """A mid-size pah network under the full analysis ensemble, plus a ring-lattice threshold cascade."""
    n = round(6_000 * scale)
    n_lattice = 2 * round(5_000 * scale)
    study = Study(out, out / "net", False, "pa")
    _undirected(study, "pah", n, 3, None, seed, "pa,pah")
    spreads = [
        (f"spread-ic-{cond}-{i}", cond, 10, ["--mode", "ic", "--p-in", IC[0], "--p-out", IC[1]], seed + i)
        for cond in ("uniform", "majority-only", "minority-only", "top-degree")
        for i in range(3)
    ]
    _analyses(study, seed, ["degree", "pagerank"], [100, 1000], 20, spreads)

    lattice = out / "lattice"
    rng = np.random.default_rng(seed)
    labels = np.zeros(n_lattice, dtype=np.int64)
    labels[rng.choice(n_lattice, round(n_lattice * FM), replace=False)] = 1
    study.prepare = lambda: checks.write_network(lattice, labels, checks.ring_lattice(n_lattice, 2))
    study.add("spread", "spread-lattice",
              ["--network", str(lattice), "--mode", "threshold", "--theta", "0.5",
               "--seed-condition", "top-degree", "--seed-count", str(LATTICE_BLOCK)],
              lambda p: _check_lattice(p, lattice, labels))
    return study


def _check_lattice(prefix: Path, lattice: Path, labels: np.ndarray) -> None:
    checks.check_spread(prefix, lattice, "top-degree", LATTICE_BLOCK)
    checks.check_ring_threshold(prefix, labels, LATTICE_BLOCK)


WORKLOADS = {
    "undirected-growth": undirected_growth,
    "directed-growth": directed_growth,
    "experiments": experiments,
}
