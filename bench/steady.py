#!/usr/bin/env python3
"""Steadiness of the benchmark: run one workload k times and show the spread.

    python3 bench/steady.py --workload certs --seeds 1-10
    python3 bench/steady.py --workload monoid --seeds 7,7 --trace 1

Runs ``bench/run.py`` once per seed, one run after another, and prints for
each metric the median, the quartiles (``statistics.quantiles(values, n=4)``),
the interquartile range as a share of the median (``iqr/med``), the largest
relative spread ``(max - min) / median`` and the metric's bound from
``BENCHMARK.json``. The raw results go to
``bench/out/steady-<workload>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=parse_seeds, default=parse_seeds("1-10"),
                        help="a range such as 1-10 or a list such as 4,4,4")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    runs = []
    for seed in args.seeds:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
        wall = time.perf_counter() - t0
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        result["seed"], result["wall_s"] = seed, wall
        runs.append(result)
        print(f"seed {seed}: {wall:.1f} s wall, correct={result['correct']}, "
              f"attempted={result['attempted']}, failed={result['failed']}", flush=True)

    out = HERE / "out"
    out.mkdir(exist_ok=True)
    (out / f"steady-{args.workload}-trace{args.trace}.json").write_text(json.dumps(runs, indent=1))

    key = "per_layer" if args.trace else "end_to_end"
    bounds = {m["name"]: m.get("bound") for m in spec[key]}
    print(f"{'metric':36} {'median':>12} {'q1':>12} {'q3':>12} {'iqr/med':>8} "
          f"{'max-min':>8} {'bound':>6}")
    for name, bound in bounds.items():
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3

        def rel(x: float) -> float:
            return x / med if med else (0.0 if x == 0 else float("inf"))

        print(f"{name:36} {med:12.6g} {q1:12.6g} {q3:12.6g} {rel(q3 - q1):8.4f} "
              f"{rel(max(values) - min(values)):8.4f} {bound if bound is not None else '':>6}")
    shares = {r["failed"] / r["attempted"] for r in runs}
    print(f"failed share per run: {sorted(shares)}; "
          f"all correct: {all(r['correct'] for r in runs)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
