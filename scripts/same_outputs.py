#!/usr/bin/env python3
"""Check that two source trees write the same benchmark sweep, byte for byte.

    python scripts/same_outputs.py PARENT_SRC CHANGE_SRC [--seeds A B]

Each tree runs the benchmark's sweep (``sweep.write_inputs`` and
``sweep.run_sweep`` from ``perfbench/``) for every workload at both seeds,
in a process of its own with that tree's ``src`` on PYTHONPATH.  Every file
the two sweeps wrote is then compared byte for byte; ``results.csv`` is
compared without its ``train_seconds`` column, which holds wall-clock time.
Prints one line per differing or missing file and exits 1 if there is any,
else 0.  The line of a differing ``.bin`` blob with a manifest beside it
(``m.model`` for ``m.model.bin``) also names the ``param`` and the flat
index, within that tensor, of the first float64 that differs, as the
parent's manifest lays them out.  A sweep that fails exits 2.
"""

import argparse
import csv
import io
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

SWEEP = """
import sys
from pathlib import Path
import sweep
from workloads import WORKLOADS
out = Path(sys.argv[1])
for seed in map(int, sys.argv[2:]):
    for wl in WORKLOADS.values():
        work = out / f"{wl.name}-{seed}"
        res = sweep.run_sweep(wl, sweep.write_inputs(wl, seed, work / "inputs"), work / "sweep")
        if res.failed or res.problems:
            sys.exit(f"{wl.name} seed {seed}: {res.failed} failed runs; {res.problems}")
"""


def run_sweeps(src: Path, out: Path, seeds) -> bool:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), str(PERFBENCH)])}
    done = subprocess.run([sys.executable, "-c", SWEEP, str(out), *map(str, seeds)],
                          env=env, stdout=subprocess.DEVNULL)
    return done.returncode == 0


def _content(path: Path):
    data = path.read_bytes()
    rows = list(csv.reader(io.StringIO(data.decode()))) if path.name == "results.csv" else []
    if not rows or "train_seconds" not in rows[0]:
        return data
    drop = rows[0].index("train_seconds")
    return [row[:drop] + row[drop + 1:] for row in rows]


def _first_param(a: Path, b: Path) -> str:
    """`` (param NAME, flat index I)`` of the first float64 at which blob ``b``
    differs from ``a``, from the ``param:`` lines of the manifest beside ``a``;
    empty when there is no manifest."""
    manifest = a.with_suffix("")
    if a.suffix != ".bin" or not manifest.is_file():
        return ""
    x, y = a.read_bytes(), b.read_bytes()
    n = min(len(x), len(y))
    apart = np.flatnonzero(np.frombuffer(x, np.uint8, n) != np.frombuffer(y, np.uint8, n))
    index = (apart[0] if apart.size else n) // 8
    for line in manifest.read_text().splitlines():
        key, _, text = line.partition(":")
        if key == "param":
            name, dims = text.split()
            size = math.prod(int(d) for d in dims.strip("[]").split(",") if d)
            if index < size:
                return f" (param {name}, flat index {index})"
            index -= size
    return ""


def differences(parent: Path, change: Path) -> list[str]:
    """One line per file that differs or that only one folder holds."""
    names = sorted({p.relative_to(root) for root in (parent, change)
                    for p in root.rglob("*") if p.is_file()})
    lines = []
    for name in names:
        a, b = parent / name, change / name
        if not (a.is_file() and b.is_file()):
            lines.append(f"missing from {'change' if a.is_file() else 'parent'}: {name}")
        elif _content(a) != _content(b):
            lines.append(f"differs: {name}{_first_param(a, b)}")
    return lines


def report(parent: Path, change: Path) -> int:
    lines = differences(parent, change)
    for line in lines:
        print(line)
    files = sum(p.is_file() for p in parent.rglob("*"))
    print(f"{files} files in the parent's sweep, {len(lines)} differing or missing",
          file=sys.stderr)
    return 1 if lines else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent_src", type=Path)
    parser.add_argument("change_src", type=Path)
    parser.add_argument("--seeds", type=int, nargs=2, default=(4501, 4502))
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        outs = {}
        for side, src in (("parent", args.parent_src), ("change", args.change_src)):
            outs[side] = Path(tmp) / side
            if not run_sweeps(src.resolve(), outs[side], args.seeds):
                print(f"same_outputs: the {side} sweep ({src}) failed", file=sys.stderr)
                return 2
        return report(outs["parent"], outs["change"])


if __name__ == "__main__":
    sys.exit(main())
