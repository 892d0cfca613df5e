#!/usr/bin/env python3
"""Check that two source trees write the same outputs, byte for byte.

    python scripts/same_outputs.py PARENT_SRC CHANGE_SRC [--seeds A B]

Each tree runs three parts, each in processes of its own with that tree's
``src`` on PYTHONPATH:

- the benchmark's sweep (``sweep.write_inputs`` and ``sweep.run_sweep``
  from ``perfbench/``) for every workload at both seeds;
- ``python -m tsclab train`` for all nine architectures (``TRAIN_FLAGS``)
  on two pairs written once with ``perfbench/synth.py``: a UCR pair drawn
  from seed A and a long-format pair from seed B;
- each pair's train and test split as the tree's reader loads them, ``X``
  and ``Y`` as raw float64, and the infer outputs of every model the train
  runs saved, on its pair's test split, as raw float64 (``run_posteriors``).

Every file the two trees wrote is then compared byte for byte;
``results.csv`` is compared without its ``train_seconds`` column, which
holds wall-clock time.  Prints one line per differing or missing file and
exits 1 if there is any, else 0.  The wall time goes to stderr, and first
the line count of each tree's ``tsclab/*.py`` (``src_lines``).  The line of
a differing ``.bin`` blob with a manifest beside it (``m.model`` for
``m.model.bin``) also names the ``param`` and the flat index, within that
tensor, of the first float64 that differs, as the parent's manifest lays
them out.  A sweep, a train run or a posterior pass that fails exits 2.
"""

import argparse
import csv
import importlib.util
import io
import math
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
ARCHITECTURES = ("mlp", "fcn", "resnet", "encoder", "mcnn", "tlenet", "mcdcnn", "timecnn",
                 "twiesn")
TRAIN_FLAGS = ("--runs", "2", "--epochs", "2", "--jobs", "2", "--log")

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

POSTERIORS = """
import sys
from pathlib import Path
import numpy as np
from tsclab import data as D, models as M, reservoir as R
forward, outputs = M.forward_batch, []


def recorded(*args):  # predict's forwards, in its batches and order
    y, caches = forward(*args)
    outputs.append(y)
    return y, caches


M.forward_batch = recorded
out = Path(sys.argv[1])
for name, train, test in zip(*[iter(sys.argv[2:])] * 3):
    pair = D.load_pair(train, test)
    loaded = out / "loaded" / name
    loaded.mkdir(parents=True, exist_ok=True)
    for split, part in zip(("train", "test"), pair):
        part.X.tofile(loaded / f"{split}_X.f64")
        part.Y.tofile(loaded / f"{split}_Y.f64")
    ds = pair[1]
    for manifest in sorted((out / "train" / name).glob("*/*.model")):
        arch = manifest.parent.name
        if arch == "twiesn":
            y = R.twiesn_posteriors(R.load_twiesn(manifest), ds.X)
        else:
            outputs.clear()
            M.predict(M.load_model(manifest), ds)
            y = np.concatenate(outputs)
        folder = out / "posteriors" / name / arch
        folder.mkdir(parents=True, exist_ok=True)
        y.astype(np.float64, copy=False).tofile(folder / f"{manifest.stem}.f64")
"""


def _env(src: Path) -> dict:
    return {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), str(PERFBENCH)])}


def run_sweeps(src: Path, out: Path, seeds) -> bool:
    done = subprocess.run([sys.executable, "-c", SWEEP, str(out), *map(str, seeds)],
                          env=_env(src), stdout=subprocess.DEVNULL)
    return done.returncode == 0


def write_pairs(folder: Path, seeds) -> dict:
    """The train half's inputs by name, each a (seed, train, test) triple: 24 + 24
    UCR series of length 48 from the first seed, and 24 + 24 long-format series
    of length 40 in 2 dimensions from the second; two classes each."""
    loader = importlib.util.spec_from_file_location("synth", PERFBENCH / "synth.py")
    synth = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(synth)
    pairs = {}
    for name, seed in zip(("ucr", "long"), seeds):
        suffix = ".txt" if name == "ucr" else ".csv"
        train, test = (folder / name / f"Synth_{part}{suffix}" for part in ("TRAIN", "TEST"))
        train.parent.mkdir(parents=True)
        for path, stream in ((train, 2 * seed), (test, 2 * seed + 1)):
            if name == "ucr":
                synth.write_ucr(path, 24, 48, 2, 0.3, stream)
            else:
                synth.write_mts_long(path, 24, 40, 2, 2, 0.6, stream)
        pairs[name] = (seed, train, test)
    return pairs


def run_trains(src: Path, out: Path, pairs: dict, archs=ARCHITECTURES) -> str:
    """Train each of ``archs`` on each pair with ``src``'s CLI, into ``out/<pair>/<arch>``;
    the first run that failed, as ``<pair> <arch>``, or ''."""
    for name, (seed, train, test) in pairs.items():
        for arch in archs:
            argv = [sys.executable, "-m", "tsclab", "train", "--arch", arch, "--train", train,
                    "--test", test, "--seed", str(seed), "--out", out / name / arch, *TRAIN_FLAGS]
            if subprocess.run(argv, env=_env(src), stdout=subprocess.DEVNULL).returncode:
                return f"{name} {arch}"
    return ""


def run_posteriors(src: Path, out: Path, pairs: dict) -> bool:
    """Load each pair with ``src``'s reader and write its splits' ``X`` and ``Y``,
    as raw float64, to ``out/loaded/<pair>/<split>_<X|Y>.f64``, so a change to
    the reader is named at the reader.  Then load every model saved under
    ``out/train/<pair>`` and write its infer outputs on that pair's test split,
    as raw float64, to ``out/posteriors/<pair>/<arch>/<model>.f64``: the outputs
    of every ``forward_batch`` call that ``models.predict`` makes, in order, so
    a sliced net gives every slice (twiesn: its posteriors).  With no models
    saved it writes the loaded splits alone.  True if it ran."""
    argv = [str(v) for name, (_, train, test) in pairs.items() for v in (name, train, test)]
    done = subprocess.run([sys.executable, "-c", POSTERIORS, str(out), *argv],
                          env=_env(src), stdout=subprocess.DEVNULL)
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


def src_lines(src: Path) -> int:
    """Lines of ``src/tsclab/*.py``, as ``cat src/tsclab/*.py | wc -l`` counts them."""
    return sum(p.read_bytes().count(b"\n") for p in (src / "tsclab").glob("*.py"))


def report(parent: Path, change: Path) -> int:
    lines = differences(parent, change)
    for line in lines:
        print(line)
    files = sum(p.is_file() for p in parent.rglob("*"))
    print(f"{files} files in the parent's outputs, {len(lines)} differing or missing",
          file=sys.stderr)
    return 1 if lines else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent_src", type=Path)
    parser.add_argument("change_src", type=Path)
    parser.add_argument("--seeds", type=int, nargs=2, default=(4501, 4502))
    args = parser.parse_args(argv)
    print(f"same_outputs: src lines parent {src_lines(args.parent_src)}, "
          f"change {src_lines(args.change_src)}", file=sys.stderr)
    started = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        pairs = write_pairs(Path(tmp) / "inputs", args.seeds)
        outs = {}
        for side, src in (("parent", args.parent_src), ("change", args.change_src)):
            outs[side] = Path(tmp) / side
            if not run_sweeps(src.resolve(), outs[side], args.seeds):
                print(f"same_outputs: the {side} sweep ({src}) failed", file=sys.stderr)
                return 2
            if failed := run_trains(src.resolve(), outs[side] / "train", pairs):
                print(f"same_outputs: the {side} train run ({src}) failed: {failed}",
                      file=sys.stderr)
                return 2
            if not run_posteriors(src.resolve(), outs[side], pairs):
                print(f"same_outputs: the {side} posteriors ({src}) failed", file=sys.stderr)
                return 2
        code = report(outs["parent"], outs["change"])
    print(f"same_outputs: {time.perf_counter() - started:.1f} s wall time", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
