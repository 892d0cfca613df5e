#!/usr/bin/env python3
"""tsclab benchmark: one seeded sweep workload per run.

    python3 perfbench/run.py --workload ucr-conv --seed 1 --seconds 30 --trace 0

Run from the repository root; the program is imported from ``src/``.
``--trace 0`` measures the end-to-end metrics with tracing off, ``--trace
1`` gives the per-layer split from a traced run.  Summary lines go to
stdout first; the last line is one JSON object with ``correct``,
``attempted``, ``failed`` (runs of the sweep) and ``metrics``.  Working
files live under ``perfbench/.work`` and are removed at exit.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import shutil
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def environment() -> dict:
    """numpy, BLAS and thread facts, as the process runs (nothing pinned)."""
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    threads = None
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        maps = ""
    libs = sorted({line.split()[-1] for line in maps.splitlines() if "openblas" in line.lower()})
    for lib in libs:
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
        if threads is not None:
            break
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": threads,
        "nproc": os.cpu_count(),
    }


def high_percentile(samples: list[float]) -> tuple[float, float] | None:
    """(percentile, value) of the highest percentile with ten samples beyond it."""
    xs = sorted(samples)
    if len(xs) <= 10:
        return None
    k = len(xs) - 11  # the sample with exactly ten above it
    return 100 * (k + 1) / len(xs), xs[k]


def percentile_line(samples: list[float]) -> str:
    text = f"n={len(samples)} median={statistics.median(samples):.6g}"
    high = high_percentile(samples)
    return text + (f" p{high[0]:.0f}={high[1]:.6g}" if high else "")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "tsclab" / "__init__.py").is_file():
        print(f"benchmark: no tsclab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import sweep
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"benchmark: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    work = HERE / ".work" / f"{wl.name}-{args.seed}-{args.trace}-{os.getpid()}"
    try:
        inputs = sweep.write_inputs(wl, args.seed, work)
        if args.trace:
            metrics, res, split = sweep.traced(wl, inputs, work)
            lines = split
        else:
            e2e, res, samples = sweep.end_to_end(wl, inputs, args.seconds, work)
            metrics = {k: (v, u) for k, (v, u, _) in e2e.items()}
            lines = [f"{k} {v:.6g} {u} (samples {n})" for k, (v, u, n) in e2e.items()]
            for kind, per_arch in samples.items():
                for arch, xs in sorted(per_arch.items()):
                    lines.append(f"{kind} {arch}: {percentile_line(xs)}")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print("environment " + json.dumps(environment(), sort_keys=True))
    for line in lines + [f"problem: {p}" for p in res.problems]:
        print(line)
    print(json.dumps({
        "correct": not res.problems,
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
