#!/usr/bin/env python3
"""Per-layer scaling table: each workload's traced run at half and at full size.

    python3 bench/scaling.py [--seed 1]

Runs ``run.py --trace 1`` for every workload at ``--scale 0.5`` and
``--scale 1`` (each in a fresh process) and prints, for every per-layer
time, both values and the log-log exponent against the workload's size
factor (the node count of every network it builds doubles).  Takes a few
minutes.
"""

from __future__ import annotations

import argparse
import json
import math
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
RUN = BENCH / "run.py"
sys.path.insert(0, str(BENCH))

from workloads import WORKLOADS  # noqa: E402

SCALES = (0.5, 1.0)


def traced(workload: str, seed: int, scale: float) -> dict[str, float]:
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed), "--seconds", "1",
           "--trace", "1", "--scale", str(scale)]
    done = subprocess.run(cmd, capture_output=True, text=True, check=True, timeout=300)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} at scale {scale}: checks failed\n{done.stderr}")
    return {k: v["value"] for k, v in result["metrics"].items() if v["unit"] == "s"}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    print(f"| workload | layer time | scale {SCALES[0]} (s) | scale {SCALES[1]} (s) | exponent |")
    print("|---|---|---|---|---|")
    for workload in WORKLOADS:
        small, large = (traced(workload, args.seed, s) for s in SCALES)
        for name in large:
            a, b = small[name], large[name]
            if name.startswith("bench.") or min(a, b) < 1e-3:
                continue
            exponent = math.log(b / a) / math.log(SCALES[1] / SCALES[0])
            print(f"| {workload} | `{name}` | {a:.4f} | {b:.4f} | {exponent:.2f} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
