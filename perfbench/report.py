#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/report.py --seeds 1-10 [--workloads ucr-conv,long-ucr] [--trace 0]

Runs are made one at a time, from the repository root, with the
``run_seconds`` of BENCHMARK.json.  For every workload and metric it
prints the unit, the run count, the median, the quartiles, the spread
(interquartile distance over the median, as ``statistics.quantiles``
gives the quartiles), the metric's bound and the highest percentile with
at least ten runs beyond it.  A spread above a third of its bound is
flagged; setup_s is exempt, as its bound covers a shift of the median.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import high_percentile

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(bench: dict, workload: str, seed: int, trace: int) -> dict:
    argv = bench["command"] + ["--workload", workload, "--seed", str(seed),
                               "--seconds", str(bench["run_seconds"]), "--trace", str(trace)]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=180)
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def summarise(name: str, unit: str, values: list[float], bound: float | None) -> str:
    xs = sorted(values)
    n = len(xs)
    median = statistics.median(xs)
    text = f"  {name:<30} {unit:<9} n={n:<3} median={median:<12.6g}"
    if n >= 2:
        q1, _, q3 = statistics.quantiles(xs, n=4)
        spread = (q3 - q1) / median if median else 0.0
        text += f" q1={q1:<11.6g} q3={q3:<11.6g} spread={spread:.4f}"
        if bound is not None:
            flag = "" if name == "setup_s" or spread < bound / 3 else "  <-- above bound/3"
            text += f" bound={bound}{flag}"
    high = high_percentile(xs)
    return text + (f" p{high[0]:.0f}={high[1]:.6g}" if high else "")


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    specs = bench["per_layer"] if args.trace else bench["end_to_end"]
    for workload in args.workloads.split(","):
        results = []
        for seed in parse_seeds(args.seeds):
            results.append(run_once(bench, workload, seed, args.trace))
            print(f"{workload} seed {seed}: " + json.dumps(
                {k: round(v["value"], 6) for k, v in results[-1]["metrics"].items()}),
                file=sys.stderr, flush=True)
        ok = all(r["correct"] for r in results)
        failed = sum(r["failed"] for r in results)
        attempted = sum(r["attempted"] for r in results)
        print(f"{workload}: {len(results)} runs, correct={ok}, failed {failed} of {attempted}")
        for spec in specs:
            values = [r["metrics"][spec["name"]]["value"] for r in results]
            print(summarise(spec["name"], spec["unit"], values, spec.get("bound")))
    return 0


if __name__ == "__main__":
    sys.exit(main())
