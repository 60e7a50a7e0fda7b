#!/usr/bin/env python3
"""graphmix benchmark: run one workload's CLI study and print its metrics.

    python3 bench/run.py --workload experiments --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all          # each workload in its own process

The study's CLI calls go through ``graphmix.cli.main(argv)`` in this
process, one workload per process.  Rounds of the whole study repeat until
``--seconds`` is spent (never fewer than three); end-to-end metrics are
medians over rounds, each call's time scaled by a calibration kernel timed
around it (see ``calibration_s``).  The first round's outputs are checked
against the benchmark's own computations, and every later round must
reproduce them byte for byte.  ``--trace 1`` alternates plain and traced
rounds and reports the per-layer metrics instead.  The last line of stdout
is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
sys.path.insert(0, str(BENCH))

import tracer as tracing  # noqa: E402
from checks import CheckError, read_trace  # noqa: E402
from workloads import STAGES, STRATEGIES, WORKLOADS  # noqa: E402

SETUP_REPS = 5
MIN_ROUNDS = 3      # plain rounds; a traced run makes at least two pairs
STOP_BY_S = 150.0   # start no round that would end after this
CAL_REF_S = 0.008   # calibration kernel time that defines the reported end-to-end seconds

END_TO_END = {
    "setup_s": "s", "wall_s": "s", "generate_s": "s", "select_s": "s",
    "rank_s": "s", "sample_s": "s", "spread_s": "s", "peak_rss_mb": "MB",
}

PER_LAYER = {  # name: (unit, better)
    "generate.call_s": ("s", "lower"),
    "generate.events": ("count", "lower"),
    "generate.us_per_event": ("us", "lower"),
    "generate.tc_picks": ("count", "higher"),
    "generate.fallback_picks": ("count", "lower"),
    "generate.source_draws": ("count", "lower"),
    "generate.source_draw_yield": ("edges/draw", "higher"),
    "rng.weighted_pick_calls": ("count", "lower"),
    "rng.weighted_pick_s": ("s", "lower"),
    "netio.write_network_s": ("s", "lower"),
    "netio.write_trace_s": ("s", "lower"),
    "netio.read_network_s": ("s", "lower"),
    "netio.read_network_calls": ("count", "lower"),
    "netio.read_trace_s": ("s", "lower"),
    "netio.bytes_written": ("B", "lower"),
    "graph.edge_walks": ("count", "lower"),
    "graph.edge_walk_s": ("s", "lower"),
    "inference.select_s": ("s", "lower"),
    "inference.replay_s": ("s", "lower"),
    "inference.replay_us_per_event": ("us", "lower"),
    "inference.grid_s": ("s", "lower"),
    "inference.events": ("count", "lower"),
    "inference.fallback_events": ("count", "lower"),
    "ranking.rank_report_s": ("s", "lower"),
    "ranking.pagerank_calls": ("count", "lower"),
    "ranking.pagerank_s": ("s", "lower"),
    "ranking.pagerank_iterations": ("count", "lower"),
    "ranking.pagerank_ms_per_iter": ("ms", "lower"),
    "sampling.benchmark_s": ("s", "lower"),
    "sampling.sample_calls": ("count", "lower"),
    **{f"sampling.{s}_s": ("s", "lower") for s in STRATEGIES},
    "spreading.seeding_s": ("s", "lower"),
    "spreading.ic_s": ("s", "lower"),
    "spreading.ic_runs": ("count", "lower"),
    "spreading.ic_steps": ("count", "lower"),
    "spreading.ic_activations": ("count", "higher"),
    "spreading.threshold_s": ("s", "lower"),
    "spreading.threshold_steps": ("count", "lower"),
    "spreading.threshold_us_per_step": ("us", "lower"),
    "spreading.equality_report_s": ("s", "lower"),
    **{f"cli.{stage}_self_s": ("s", "lower") for stage in STAGES},
    "bench.trace_overhead_s": ("s", "lower"),
}

# per-layer counts that must repeat exactly from one traced round to the next
EXACT_COUNTS = (
    "generate.events", "rng.weighted_pick_calls", "generate.source_draws", "graph.edge_walks",
    "ranking.pagerank_calls", "ranking.pagerank_iterations", "sampling.sample_calls",
    "spreading.ic_steps", "spreading.threshold_steps",
)


def import_program():
    """Import the graphmix package from this checkout's src/, or raise ImportError."""
    sys.path.insert(0, str(SRC))
    import graphmix.cli

    if not Path(graphmix.cli.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"graphmix was imported from {graphmix.cli.__file__}, not from {SRC}")
    return graphmix.cli


def import_seconds() -> float:
    """Time `import graphmix.cli` in a fresh interpreter."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
            "import graphmix.cli; print(time.perf_counter() - t)")
    done = subprocess.run([sys.executable, "-c", code, str(SRC)], capture_output=True, text=True,
                          check=True, timeout=60)
    return float(done.stdout)


def set_up(name: str, seed: int, scale: float, run_dir: Path):
    """Import, output directory and the benchmark's own inputs, SETUP_REPS times; median seconds."""
    times = []
    for _ in range(SETUP_REPS):
        t_import = import_seconds()
        t0 = time.perf_counter()
        shutil.rmtree(run_dir, ignore_errors=True)
        run_dir.mkdir(parents=True)
        study = WORKLOADS[name](run_dir, seed, scale)
        study.prepare()
        times.append(t_import + time.perf_counter() - t0)
    return study, statistics.median(times)


class Ledger:
    """Operations attempted and failed; an operation is a CLI call plus the checks on its outputs."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self._digests: dict[Path, list[str]] = {}

    def record(self, op, rc) -> None:
        self.attempted += 1
        if rc != 0:
            self.failed += 1
            print(f"FAILED {' '.join(op.argv)}: exit {rc}", file=sys.stderr)
            return
        try:
            digest = [hashlib.sha256(p.read_bytes()).hexdigest() for p in op.outputs()]
            if op.prefix not in self._digests:
                op.check()
                self._digests[op.prefix] = digest
            elif digest != self._digests[op.prefix]:
                raise CheckError("outputs differ from the first round's")
        except Exception as exc:  # a check that cannot complete fails the operation too
            self.failed += 1
            self.correct = False
            print(f"CHECK FAILED {' '.join(op.argv)}: {exc!r}", file=sys.stderr)
            if not isinstance(exc, CheckError):
                traceback.print_exc()


def calibration_s() -> float:
    """Seconds for a fixed kernel: CSV-style parsing into a set, small numpy
    cumsum/searchsorted calls, and one pass over an 8 MB array.

    The host is shared, and its speed swings by tens of percent over
    seconds to minutes.  The kernel runs between CLI calls; scaling each
    call by the kernel times around it cancels most of that swing.
    """
    t0 = time.perf_counter()
    seen = set()
    for line in _CAL_TEXT.split("\n"):
        u, v = line.split(",")
        seen.add((int(u) * 7919 + int(v)) % 10_007)
    a = np.arange(20_000, dtype=np.float64)
    for _ in range(20):
        np.searchsorted(np.cumsum(a), 1e6)
    np.multiply(_CAL_ARRAY, 1.0001, out=_CAL_ARRAY)
    return time.perf_counter() - t0


_CAL_TEXT = "\n".join(f"{i},{(i * 31) % 977}" for i in range(8_000))
_CAL_ARRAY = np.ones(1_000_000)


def run_round(cli, study, ledger: Ledger, tracer=None) -> tuple[dict[str, float], dict[str, float], float]:
    """One pass over the study's CLI calls.

    Returns seconds per stage, the same scaled to a host where the
    calibration kernel takes CAL_REF_S (each call by the mean of the kernel
    times just before and just after it), and the median kernel time.
    """
    raw = dict.fromkeys(STAGES, 0.0)
    scaled = dict.fromkeys(STAGES, 0.0)
    cal = [calibration_s()]
    for op in study.ops:
        gc.collect()  # every call starts from a clean collector, as a fresh CLI process would
        t0 = time.perf_counter()
        try:
            if tracer is None:
                rc = cli.main(list(op.argv))
            else:
                with tracer.span(f"cli.{op.stage}"):
                    rc = cli.main(list(op.argv))
        except Exception:
            traceback.print_exc()
            rc = None
        dt = time.perf_counter() - t0
        cal.append(calibration_s())
        raw[op.stage] += dt
        scaled[op.stage] += dt * CAL_REF_S / ((cal[-2] + cal[-1]) / 2)
        ledger.record(op, rc)
    return raw, scaled, statistics.median(cal)


def traced_round(cli, study, ledger: Ledger):
    """A round with every module boundary wrapped, plus one lone replay; (stage seconds, tracer)."""
    from graphmix import inference, netio

    tr = tracing.Tracer()
    tracing.install(tr)
    try:
        stage_s, _, _ = run_round(cli, study, ledger, tr)
        g = netio.read_network(study.network, directed=study.directed)
        trace = netio.read_trace(f"{study.network}_trace.csv", g)
        with tr.span("inference.replay_loglik"):
            inference.replay_loglik(trace, study.base_model)
    finally:
        tr.restore()
    return stage_s, tr


def layer_metrics(study, tr) -> dict[str, float]:
    s = tr.summary()
    _, _, kinds = read_trace(Path(f"{study.network}_trace.csv"))
    events = int(kinds.size)
    gen_s = s.total("generate.generate")
    draws = s.count("rng.pick_from_cumulative")
    replay_s = s.total("inference.replay_loglik")
    select_s = s.total("inference.select_model")
    pr_s = s.total("ranking.pagerank")
    pr_iters = sum(r.iterations for r in s.results("ranking.pagerank"))
    ic = s.results("spreading.cascade")
    th = s.results("spreading.threshold_cascade")
    th_steps = sum(r.n_steps for r in th)
    th_s = s.total("spreading.threshold_cascade")
    written = [p for r in s.results("netio.write_network") for p in r] + s.results("netio.write_trace")
    return {
        "generate.call_s": gen_s,
        "generate.events": events,
        "generate.us_per_event": 1e6 * gen_s / events,
        "generate.tc_picks": int((kinds == "tc-pick").sum()),
        "generate.fallback_picks": int((kinds == "fallback-uniform").sum()),
        "generate.source_draws": draws,
        "generate.source_draw_yield": events / draws if draws else 0.0,
        "rng.weighted_pick_calls": s.count("rng.weighted_pick"),
        "rng.weighted_pick_s": s.total("rng.weighted_pick"),
        "netio.write_network_s": s.total("netio.write_network"),
        "netio.write_trace_s": s.total("netio.write_trace"),
        "netio.read_network_s": s.total("netio.read_network"),
        "netio.read_network_calls": s.count("netio.read_network"),
        "netio.read_trace_s": s.total("netio.read_trace"),
        "netio.bytes_written": sum(Path(p).stat().st_size for p in written),
        "graph.edge_walks": s.count("graph.edges"),
        "graph.edge_walk_s": s.total("graph.edges"),
        "inference.select_s": select_s,
        "inference.replay_s": replay_s,
        "inference.replay_us_per_event": 1e6 * replay_s / events,
        "inference.grid_s": select_s - replay_s,
        "inference.events": events,
        "inference.fallback_events": int((kinds == "fallback-uniform").sum()),
        "ranking.rank_report_s": s.total("ranking.rank_report"),
        "ranking.pagerank_calls": s.count("ranking.pagerank"),
        "ranking.pagerank_s": pr_s,
        "ranking.pagerank_iterations": pr_iters,
        "ranking.pagerank_ms_per_iter": 1e3 * pr_s / pr_iters if pr_iters else 0.0,
        "sampling.benchmark_s": s.total("sampling.benchmark"),
        "sampling.sample_calls": sum(s.count(f"sampling.{x}") for x in STRATEGIES),
        **{f"sampling.{x}_s": s.total(f"sampling.{x}") for x in STRATEGIES},
        "spreading.seeding_s": s.total("spreading.seeding"),
        "spreading.ic_s": s.total("spreading.cascade"),
        "spreading.ic_runs": len(ic),
        "spreading.ic_steps": sum(r.n_steps for r in ic),
        "spreading.ic_activations": sum(int((r.activation_time > 0).sum()) for r in ic),
        "spreading.threshold_s": th_s,
        "spreading.threshold_steps": th_steps,
        "spreading.threshold_us_per_step": 1e6 * th_s / th_steps if th_steps else 0.0,
        "spreading.equality_report_s": s.total("spreading.equality_report"),
        **{f"cli.{stage}_self_s": s.self_time(f"cli.{stage}") for stage in STAGES},
    }


def environment() -> dict:
    head = ROOT / ".git" / "HEAD"
    commit = "unknown"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: "):
            ref_path = ROOT / ".git" / ref[5:]
            packed = ROOT / ".git" / "packed-refs"
            if ref_path.is_file():
                commit = ref_path.read_text().strip()
            elif packed.is_file():
                commit = next((ln.split()[0] for ln in packed.read_text().splitlines()
                               if ln.endswith(" " + ref[5:])), ref)
    import numpy
    import scipy

    return {
        "commit": commit,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cpu_count": os.cpu_count(),
        "src_loc": sum(len(p.read_text().splitlines()) for p in sorted((SRC / "graphmix").glob("*.py"))),
    }


def run_workload(args) -> int:
    try:
        cli = import_program()
    except ImportError as exc:
        print(f"error: cannot import graphmix from {SRC}: {exc}", file=sys.stderr)
        return 2

    run_dir = OUT / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    try:
        study, setup_s = set_up(args.workload, args.seed, args.scale, run_dir)
        ledger = Ledger()
        plain: list[tuple[dict[str, float], dict[str, float], float]] = []  # run_round results
        traced_walls: list[float] = []
        layers: list[dict[str, float]] = []
        round_s: list[float] = []
        t_start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            # a traced run alternates which of its pair goes first, so neither always gets the cold start
            traced_first = args.trace and len(round_s) % 2 == 1
            if traced_first:
                traced_s, tr = traced_round(cli, study, ledger)
            plain.append(run_round(cli, study, ledger))
            if args.trace and not traced_first:
                traced_s, tr = traced_round(cli, study, ledger)
            if args.trace:
                traced_walls.append(sum(traced_s.values()))
                layers.append(layer_metrics(study, tr))
            round_s.append(time.perf_counter() - t0)
            elapsed = time.perf_counter() - t_start
            next_end = elapsed + statistics.median(round_s)
            enough = len(round_s) >= (2 if args.trace else MIN_ROUNDS)
            if (enough and next_end > args.seconds) or next_end > STOP_BY_S:
                break
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    walls = [sum(raw.values()) for raw, _, _ in plain]
    cal = [c for _, _, c in plain]
    if args.trace:
        metrics = {k: statistics.median(r[k] for r in layers) for k in layers[0]}
        for k in EXACT_COUNTS:
            if len({r[k] for r in layers}) != 1:
                ledger.correct = False
                print(f"CHECK FAILED: count {k} differs between traced rounds", file=sys.stderr)
        # pairwise, so that host-speed swings between pairs cancel
        metrics["bench.trace_overhead_s"] = statistics.median(t - w for t, w in zip(traced_walls, walls))
        OUT.mkdir(exist_ok=True)
        tr.write(OUT / f"spans-{args.workload}-seed{args.seed}.csv")
        units = {k: unit for k, (unit, _) in PER_LAYER.items()}
    else:
        # seconds on a host where the calibration kernel takes CAL_REF_S
        metrics = {
            "setup_s": setup_s * CAL_REF_S / statistics.median(cal),
            "wall_s": statistics.median(sum(scaled.values()) for _, scaled, _ in plain),
            **{f"{stage}_s": statistics.median(scaled[stage] for _, scaled, _ in plain) for stage in STAGES},
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END

    print(json.dumps({
        "env": environment(), "workload": args.workload, "seed": args.seed, "scale": args.scale,
        "rounds": len(plain), "round_calibration_s": cal,
        "raw_median_s": {"setup": setup_s, "wall": statistics.median(walls),
                         **{stage: statistics.median(raw[stage] for raw, _, _ in plain) for stage in STAGES}},
    }))
    for k in units:
        print(f"  {k:34s} {metrics[k]:>16.6f} {units[k]}")
    result = {
        "correct": ledger.correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    print(json.dumps(result), flush=True)
    return 0


def run_all(args) -> int:
    """Every workload, each in a fresh process; prints each run's table and a combined JSON line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace), "--scale", str(args.scale)]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(f"error: workload {name} exited {done.returncode}", file=sys.stderr)
            return 2
        print(f"[{name}]")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0, help="size multiplier (scaling table)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
