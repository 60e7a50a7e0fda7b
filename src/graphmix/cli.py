"""Command-line interface.

Seven subcommands tie the library into reproducible file-based runs:

* ``generate``  -- grow a network, write node/edge/trace files;
* ``fit``       -- grid-MLE one model against a network (+ optional trace);
* ``select``    -- fit several models, rank them, write comparisons;
* ``rank``      -- visibility curve with gini / ME summary;
* ``sample``    -- sampling-bias benchmark table;
* ``spread``    -- one contagion run: series plus equality summary;
* ``sweep``     -- parameter-grid ensemble runs, tidy long-format output.

Every subcommand accepts ``--config FILE`` with ``key=value`` lines
mirroring its flags (flags given on the command line win).  ``main`` is the
one runner: it resolves the flags, calls the subcommand, which returns its
outputs as ``(suffix, write)`` pairs, then makes ``--out`` and writes each
output to ``<out>/<prefix><suffix>`` and the fully resolved configuration
to ``<out>/<prefix>_config.txt`` last, so a run can be reproduced from the
config copy alone.  ``--prefix`` is a file name: an empty one or one with a
directory part is refused before any work.  A subcommand computes
everything before anything is written: a run that fails leaves no file
behind.  Exit status: 0 on success, 1 on usage/config/input-format errors,
2 on runtime failures (directed-model saturation, filesystem errors).

Numeric sweep flags accept ``start:stop:step`` ranges, endpoints inclusive
within 1e-12, or comma lists.  A sweep makes at most 100 000 runs (cells
times seeds); a larger one is refused with exit 1, counted from the range
bounds before a range is expanded or a run is built.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

from .generate import ALL_MODELS, GenParams, SaturationError, generate
from .graph import MixingMatrix
from .inference import (
    fit_model,
    homophily_estimate,
    select_model,
    trace_from_graph,
)
from .netio import (
    format_value,
    read_config,
    read_network,
    read_trace,
    write_config,
    write_network,
    write_trace,
)
from .ranking import rank_report
from .rng import make_rng
from .sampling import STRATEGIES, benchmark
from .spreading import SEED_CONDITIONS, cascade, equality_report, seeding, threshold_cascade

__all__ = ["main", "build_parser"]


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage; the documented contract
    # reserves 2 for runtime failures, so route usage problems to 1 instead.
    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}")


# A subcommand's output: the runner calls ``write(<out>/<prefix><suffix>)``.
Output = tuple[str, Callable[[Path], object]]


def _write_table(header: str, rows: list[list], path: Path) -> None:
    lines = [header]
    for row in rows:
        lines.append(",".join("" if cell is None else format_value(cell) for cell in row))
    path.write_text("\n".join(lines) + "\n", newline="\n")


def _table(suffix: str, header: str, rows: list[list]) -> Output:
    return suffix, partial(_write_table, header, rows)


def _write_series(header: str, columns: list[np.ndarray], path: Path) -> None:
    """``_write_table`` of rows ``t, columns[0][t], ...`` for float columns,
    built column by column: the same text as ``format_value`` per cell."""
    cells = [map(str, range(len(columns[0]))), *(map(float.__repr__, col.tolist()) for col in columns)]
    path.write_text("\n".join([header, *map(",".join, zip(*cells))]) + "\n", newline="\n")


def _parse_scalar(raw: str, kind: str):
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
        if kind == "flag":
            if raw not in ("true", "false"):
                raise ValueError
            return raw == "true"
    except ValueError:
        raise _UsageError(f"cannot parse {raw!r} as {kind}") from None
    return raw


# A sweep makes at most this many runs (cells times seeds).
_MAX_SWEEP_RUNS = 100_000


def _range_length(start: float, stop: float, step: float) -> int:
    """How many values ``round(start + i*step, 12)``, i = 0, 1, ..., stay within ``stop + 1e-12``.

    The values never decrease with i, so this is the first i past the stop,
    found by doubling from the quotient and then bisecting, without listing
    the values.  The count stops at about ``2**1000``: float rounding can
    keep a range from ever passing its stop.
    """

    def past(i: int) -> bool:
        return round(start + i * step, 12) > stop + 1e-12

    lo, hi = -1, int(min(max((stop - start) / step, 0.0), 2.0**999)) + 1
    while hi < 2**1000 and not past(hi):
        lo, hi = hi, 2 * hi
    while hi - lo > 1:  # past(hi) and not past(lo), where lo = -1 is before the first value
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if past(mid) else (mid, hi)
    return hi


def _parse_range(raw: str, kind: str) -> list:
    """Parse ``start:stop:step`` (inclusive) or a comma list or a scalar, all finite.

    A range is counted before it is listed and refused past ``_MAX_SWEEP_RUNS`` values.
    """
    ranged = ":" in raw
    parts = raw.split(":" if ranged else ",")
    if ranged and len(parts) != 3:
        raise _UsageError(f"range must be start:stop:step, got {raw!r}")
    values = [_parse_scalar(p, "float") for p in parts]
    if not all(map(math.isfinite, values)):
        raise _UsageError(f"expected finite numbers, got {raw!r}")
    if ranged:
        start, stop, step = values
        if step <= 0:
            raise _UsageError(f"range step must be positive, got {raw!r}")
        count = _range_length(start, stop, step)
        if not count:
            raise _UsageError(f"range {raw!r} is empty")
        if count > _MAX_SWEEP_RUNS:
            raise _UsageError(f"range {raw!r} has {count} values; a sweep makes at most {_MAX_SWEEP_RUNS} runs")
        values = [round(start + i * step, 12) for i in range(count)]
    if kind == "int":
        out = []
        for v in values:
            if v != int(v):
                raise _UsageError(f"expected integer values, got {v} in {raw!r}")
            out.append(int(v))
        return out
    return values


# Flag registry per subcommand: name -> (type, default).  The same names are
# the legal config-file keys; resolution order is flag > config > default.
_SPECS: dict[str, dict[str, tuple[str, object]]] = {
    "generate": {
        "model": ("str", None), "n": ("int", None), "m": ("int", None),
        "fm": ("float", None), "h": ("float", None),
        "h00": ("float", None), "h01": ("float", None),
        "h10": ("float", None), "h11": ("float", None),
        "ptc": ("float", None), "d": ("float", None),
        "gamma_a": ("float", None), "seed": ("int", 0),
        "out": ("str", "."), "prefix": ("str", "run"),
    },
    "fit": {
        "network": ("str", None), "directed": ("flag", False),
        "trace": ("str", None), "model": ("str", None),
        "seed": ("int", 0), "out": ("str", "."), "prefix": ("str", "run"),
    },
    "select": {
        "network": ("str", None), "directed": ("flag", False),
        "trace": ("str", None), "models": ("str", None),
        "criterion": ("str", "bic"), "seed": ("int", 0),
        "out": ("str", "."), "prefix": ("str", "run"),
    },
    "rank": {
        "network": ("str", None), "directed": ("flag", False),
        "metric": ("str", "degree"), "out": ("str", "."), "prefix": ("str", "run"),
    },
    "sample": {
        "network": ("str", None), "directed": ("flag", False),
        "strategies": ("str", ",".join(STRATEGIES)), "budgets": ("str", None),
        "reps": ("int", 10), "seed": ("int", 0),
        "out": ("str", "."), "prefix": ("str", "run"),
    },
    "spread": {
        "network": ("str", None), "directed": ("flag", False),
        "mode": ("str", "ic"), "p_in": ("float", None), "p_out": ("float", None),
        "theta": ("float", None), "seed_condition": ("str", "uniform"),
        "seed_count": ("int", 1), "max_steps": ("int", None),
        "seed": ("int", 0), "out": ("str", "."), "prefix": ("str", "run"),
    },
    "sweep": {
        "model": ("str", None), "n": ("sweep-int", None), "m": ("sweep-int", None),
        "fm": ("sweep-float", None), "h": ("sweep-float", None),
        "ptc": ("sweep-float", None), "d": ("sweep-float", None),
        "gamma_a": ("sweep-float", None), "seeds": ("sweep-int", [0]),
        "workers": ("int", 1), "out": ("str", "."), "prefix": ("str", "run"),
    },
}

_HELP = {
    "model": "model name: " + ", ".join(ALL_MODELS),
    "n": "number of nodes",
    "m": "edges per arriving node (undirected models)",
    "fm": "minority fraction in [0, 0.5]",
    "h": "symmetric homophily: H = [[h, 1-h], [1-h, h]]",
    "ptc": "triadic closure probability (patch)",
    "d": "directed edge density target",
    "gamma_a": "activity power-law exponent (directed models, default 2.5)",
    "seed": "rng seed",
    "seeds": "seed list or start:stop:step range (sweep)",
    "out": "output directory",
    "prefix": "output file prefix",
    "network": "path prefix of <prefix>_nodes.csv / <prefix>_edges.csv",
    "directed": "read the network as directed",
    "trace": "growth trace file; omitted => node-order assumption applies",
    "models": "comma-separated candidate models",
    "criterion": "ranking criterion: bic or aic",
    "metric": "ranking metric: degree, indegree, or pagerank",
    "strategies": "comma-separated sampling strategies",
    "budgets": "comma-separated node budgets",
    "reps": "repetitions per benchmark cell",
    "mode": "contagion mode: ic or threshold",
    "p_in": "within-class transmission probability (ic)",
    "p_out": "across-class transmission probability (ic)",
    "theta": "activation threshold in (0, 1] (threshold mode)",
    "seed_condition": "seeding condition: " + ", ".join(SEED_CONDITIONS),
    "seed_count": "number of cascade seed nodes",
    "max_steps": "step cap (default 10*n)",
    "workers": "parallel workers for sweep runs, at least 1; capped at the CPU count and the run count",
    "h00": "mixing matrix entry H[0][0] (overrides --h together with h01/h10/h11)",
    "h01": "mixing matrix entry H[0][1]",
    "h10": "mixing matrix entry H[1][0]",
    "h11": "mixing matrix entry H[1][1]",
}


def build_parser(command: str | None = None) -> _Parser:
    """The parser of every subcommand; with a known ``command``, of that one alone.

    Each subcommand and each flag costs a parser or a help formatter, so
    ``main`` builds the subcommand named first on its command line alone.
    For any other first word (``--help``, a typo) it builds every
    subcommand without flags, so that usage lists them all.
    """
    parser = _Parser(prog="graphmix", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for name in [command] if command in _SPECS else _SPECS:
        p = sub.add_parser(name)
        if command is None or command == name:
            _add_flags(p, _SPECS[name])
    return parser


def _add_flags(p: _Parser, spec: dict[str, tuple[str, object]]) -> None:
    p.add_argument("--config", help="key=value config file; flags override it")
    for name, (kind, _default) in spec.items():
        flag = "--" + name.replace("_", "-")
        if kind == "flag":
            p.add_argument(flag, action="store_const", const="true", help=_HELP.get(name))
        else:
            p.add_argument(flag, type=str, help=_HELP.get(name))


def _resolve(args, command: str) -> dict:
    """Merge flags over config-file values over defaults; parse by type."""
    spec = _SPECS[command]
    file_values: dict[str, str] = {}
    if args.config:
        file_values = read_config(args.config, allowed_keys=set(spec))
    resolved: dict = {}
    for name, (kind, default) in spec.items():
        raw = getattr(args, name)
        if raw is None:
            raw = file_values.get(name)
        if raw is None:
            resolved[name] = default
        elif kind.startswith("sweep-"):
            resolved[name] = _parse_range(raw, kind.removeprefix("sweep-"))
        else:
            resolved[name] = _parse_scalar(raw, kind)
    return resolved


def _config_record(command: str, cfg: dict) -> dict:
    lists = {k: ",".join(map(format_value, v)) for k, v in cfg.items() if isinstance(v, list)}
    return {"command": command, **cfg, **lists}


def _require(cfg, *names):
    for name in names:
        if cfg[name] is None:
            raise _UsageError(f"missing required option --{name.replace('_', '-')}")


def _mixing_from_cfg(cfg) -> MixingMatrix | float | None:
    """The four ``--hXY`` cells as one matrix, else ``--h`` as given."""
    cells = [cfg.get(k) for k in ("h00", "h01", "h10", "h11")]
    have_cells = [c is not None for c in cells]
    if any(have_cells):
        if not all(have_cells):
            raise _UsageError("give all four of --h00 --h01 --h10 --h11 or none")
        if cfg.get("h") is not None:
            raise _UsageError("--h conflicts with explicit --h00..--h11 entries")
        return MixingMatrix(np.array(cells, dtype=np.float64).reshape(2, 2))
    return cfg["h"]


def _gen_params(values: dict) -> GenParams:
    """The generator parameters of one run from its flag values; ``h`` may be a matrix."""
    return GenParams(
        model=values["model"], n=values["n"], seed=values["seed"], m=values["m"], f_m=values["fm"],
        H=values["h"], p_tc=values["ptc"], d=values["d"], gamma_a=values["gamma_a"],
    )


def _load_network(cfg):
    _require(cfg, "network")
    return read_network(cfg["network"], directed=bool(cfg["directed"]))


def _load_trace(cfg, g):
    if cfg["trace"] is not None:
        return read_trace(cfg["trace"], g)
    return trace_from_graph(g, seed=cfg["seed"])


# ---------------------------------------------------------------------------
# subcommands: each maps its resolved config to its outputs and writes nothing
# ---------------------------------------------------------------------------

def _cmd_generate(cfg) -> list[Output]:
    _require(cfg, "model", "n")
    g, trace = generate(_gen_params(dict(cfg, h=_mixing_from_cfg(cfg))))
    return [("", partial(write_network, g)), ("_trace.csv", partial(write_trace, trace))]


def _selection_table(fits) -> Output:
    return _table(
        "_selection.csv",
        "model,h_hat,ptc_hat,logL,k,n_events,AIC,BIC,order_assumed",
        [[f.model, f.h_hat, f.p_tc_hat, f.log_lik, f.k, f.n_events, f.aic, f.bic, f.order_assumed] for f in fits],
    )


def _cmd_fit(cfg) -> list[Output]:
    _require(cfg, "model")
    g = _load_network(cfg)
    return [_selection_table([fit_model(_load_trace(cfg, g), cfg["model"])])]


def _cmd_select(cfg) -> list[Output]:
    _require(cfg, "models")
    g = _load_network(cfg)
    table = select_model(_load_trace(cfg, g), cfg["models"].split(","), criterion=cfg["criterion"])
    return [
        _selection_table(table.fits),
        _table(
            "_comparisons.csv",
            "model_a,model_b,log10_bf,lrt_stat,lrt_df,lrt_p",
            [[c.model_a, c.model_b, c.log10_bf, c.lrt_stat, c.lrt_df, c.lrt_p] for c in table.comparisons],
        ),
    ]


def _cmd_rank(cfg) -> list[Output]:
    report = rank_report(_load_network(cfg), cfg["metric"])
    rows: list[list] = [[int(k), float(frac)] for k, frac in zip(report.curve.ks, report.curve.fractions)]
    rows += [["gini", report.gini], ["me", report.me]]
    return [_table("_visibility.csv", "k_percent,minority_fraction", rows)]


def _cmd_sample(cfg) -> list[Output]:
    _require(cfg, "budgets")
    g = _load_network(cfg)
    budgets = [int(_parse_scalar(b, "int")) for b in cfg["budgets"].split(",")]
    report = benchmark(g, cfg["strategies"].split(","), budgets, reps=cfg["reps"], seed=cfg["seed"])
    return [
        _table(
            "_bias.csv",
            "strategy,budget,reps,minority_bias,minority_bias_std,degree_bias,degree_bias_std,"
            "population_fm,population_mean_degree",
            [
                [c.strategy, c.budget, c.reps, c.minority_bias, c.minority_bias_std,
                 c.degree_bias, c.degree_bias_std, report.f_m, report.mean_degree]
                for c in report.cells
            ],
        ),
        _table(
            "_bias_reps.csv",
            "strategy,budget,rep,minority_fraction,mean_degree",
            [[r.strategy, r.budget, r.rep, r.minority_fraction, r.mean_degree] for r in report.records],
        ),
    ]


def _cmd_spread(cfg) -> list[Output]:
    g = _load_network(cfg)
    rng = make_rng(cfg["seed"])
    seeds = seeding(g, cfg["seed_condition"], cfg["seed_count"], rng)
    if cfg["mode"] == "ic":
        _require(cfg, "p_in", "p_out")
        trace = cascade(g, seeds, cfg["p_in"], cfg["p_out"], rng, max_steps=cfg["max_steps"])
    elif cfg["mode"] == "threshold":
        _require(cfg, "theta")
        trace = threshold_cascade(g, seeds, cfg["theta"], max_steps=cfg["max_steps"])
    else:
        raise _UsageError(f"mode must be 'ic' or 'threshold', got {cfg['mode']!r}")
    report = equality_report(trace, g.labels)
    series = [trace.class_fractions[:, 0], trace.class_fractions[:, 1], report.overall]
    return [
        ("_series.csv", partial(_write_series, "t,frac_class0,frac_class1,frac_all", series)),
        ("_equality.csv", partial(_write_series, "t,equality", [report.equality])),
        _table("_summary.csv", "key,value", [
            ["efficiency", "never" if report.efficiency is None else report.efficiency],
            ["terminal_frac_class0", report.terminal_fractions[0]],
            ["terminal_frac_class1", report.terminal_fractions[1]],
            ["seeds", ";".join(str(s) for s in trace.seeds)],
        ]),
    ]


# sweep ---------------------------------------------------------------------

_SWEEP_PARAM_ORDER = ("n", "m", "fm", "h", "ptc", "d", "gamma_a")


def _sweep_cell_metrics(params: GenParams) -> list[tuple[str, float | None]]:
    g, _ = generate(params)
    metrics: list[tuple[str, float | None]] = [("edges", float(g.num_edges))]
    metrics.append(("homophily", homophily_estimate(g)))
    counts = g.class_counts()
    if counts[0] and counts[1]:
        for metric in ("degree", "indegree") if g.directed else ("degree",):
            report = rank_report(g, metric)
            vis10 = float(report.curve.fractions[report.curve.ks.tolist().index(10)])
            metrics += [(f"gini_{metric}", report.gini), (f"me_{metric}", report.me),
                        (f"vis10_{metric}", vis10)]
    return metrics


def _sweep_job(job):
    cell, params = job
    return cell, params.seed, _sweep_cell_metrics(params)


def _cmd_sweep(cfg) -> list[Output]:
    _require(cfg, "model", "n")
    if cfg["workers"] < 1:
        raise _UsageError(f"--workers must be >= 1, got {cfg['workers']}")
    varied = [p for p in _SWEEP_PARAM_ORDER if isinstance(cfg[p], list) and len(cfg[p]) > 1]
    axes = {p: cfg[p] if isinstance(cfg[p], list) else [cfg[p]] for p in _SWEEP_PARAM_ORDER}
    runs = math.prod(map(len, axes.values())) * len(cfg["seeds"])
    if runs > _MAX_SWEEP_RUNS:
        raise _UsageError(f"sweep of {runs} runs; a sweep makes at most {_MAX_SWEEP_RUNS} runs")

    cells: list[dict] = [{}]
    for p in _SWEEP_PARAM_ORDER:
        cells = [dict(c, **{p: v}) for c in cells for v in axes[p]]

    jobs = []
    for cell in cells:
        for seed in cfg["seeds"]:
            params = _gen_params(dict(cell, model=cfg["model"], seed=seed))
            params.validate()  # a bad cell fails before any job runs
            jobs.append((cell, params))

    workers = min(cfg["workers"], os.cpu_count() or 1, len(jobs))
    if workers > 1:
        import multiprocessing

        with multiprocessing.Pool(workers) as pool:
            results = pool.map(_sweep_job, jobs)
    else:
        results = [_sweep_job(job) for job in jobs]

    header = ",".join(list(varied) + ["seed", "metric", "value"])
    rows: list[list] = []
    for cell, seed, metrics in results:
        lead = [cell[p] for p in varied]
        for name, value in metrics:
            rows.append(lead + [seed, name, value])
    return [_table("_sweep.csv", header, rows)]


_COMMANDS = {
    "generate": _cmd_generate,
    "fit": _cmd_fit,
    "select": _cmd_select,
    "rank": _cmd_rank,
    "sample": _cmd_sample,
    "spread": _cmd_spread,
    "sweep": _cmd_sweep,
}


def main(argv=None) -> int:
    """Run one subcommand: resolve, compute, then make ``--out`` and write its outputs and config."""
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = build_parser(argv[0] if argv else None).parse_args(argv)
        cfg = _resolve(args, args.command)
        prefix = cfg["prefix"]
        if not prefix or Path(prefix).name != prefix:
            raise _UsageError(f"--prefix must be a non-empty file name with no directory part, got {prefix!r}")
        outputs = _COMMANDS[args.command](cfg)
        outputs.append(("_config.txt", partial(write_config, values=_config_record(args.command, cfg))))
        out = Path(cfg["out"])
        out.mkdir(parents=True, exist_ok=True)
        for suffix, write in outputs:
            write(out / (prefix + suffix))
    except (_UsageError, ValueError) as exc:  # a NetworkFormatError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (SaturationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
