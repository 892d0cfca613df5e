"""Command-line surface: train / compare / cam / mds.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numeric failure.
The default output directory can be set with the ``TSCLAB_OUT``
environment variable.  Training runs are reproducible: run ``r`` of a
sweep uses seed ``base_seed + r`` and identical flags yield bit-identical
model blobs on one machine.

The narrow nets (mlp, mcdcnn, timecnn, tlenet: no conv layer of 64 or more
filters) train with numpy's bundled OpenBLAS held at one thread, serially
and under ``--jobs`` alike.  Their GEMMs gain little from a second BLAS
thread, and ``--jobs`` threads that each drive a multi-threaded OpenBLAS
stall one another.  OpenBLAS rounds differently at 1 and 2 threads,
so their blobs no longer depend on the machine's thread count.  The wide
nets (fcn, resnet, encoder, mcnn) and twiesn train at the machine's thread
count, so their blobs follow it.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import ctypes
import functools
import io
import math
import os
import sys
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import data as D
from . import explain as E
from . import models as M
from . import optim as O
from . import reservoir as R
from . import stats as S
from .errors import (
    DataFormatError,
    DegenerateVarianceError,
    IntegrityError,
    MissingCellError,
    NumericError,
    ShapeError,
    TrainingDivergenceError,
    UnsupportedArchitectureError,
    VocabularyError,
)
from .layers import cross_entropy_loss

ALL_ARCHITECTURES = M.ARCHITECTURES + ("twiesn",)
# trained at one BLAS thread; see the module docstring
ONE_BLAS_THREAD = frozenset({"mlp", "mcdcnn", "timecnn", "tlenet"})

_DATA_ERRORS = (
    DataFormatError, VocabularyError, IntegrityError, MissingCellError,
    ShapeError, UnsupportedArchitectureError, OSError, ValueError,
)
_NUMERIC_ERRORS = (TrainingDivergenceError, NumericError, DegenerateVarianceError)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _positive(kind, below=math.inf):
    """An argparse type: a ``kind`` number above 0 and below ``below``."""
    def parse(text):
        value = kind(text)
        if not 0 < value < below:
            raise argparse.ArgumentTypeError(f"{text} is not in (0, {below})")
        return value
    parse.__name__ = kind.__name__  # argparse names it in "invalid int value"
    return parse


def _default_out() -> str:
    return os.environ.get("TSCLAB_OUT", ".")


@dataclass
class ExperimentConfig:
    """A reproducible training sweep: run r of ``runs`` uses seed base_seed + r."""

    train_path: str
    test_path: str
    architecture: str
    runs: int = 10
    base_seed: int = 0
    out_dir: str = "."
    overrides: dict = field(default_factory=dict)
    jobs: int = 1
    epoch_log: bool = False

    def __post_init__(self):
        if self.runs < 1:
            raise ValueError(f"run count must be >= 1, got {self.runs}")
        if self.architecture not in ALL_ARCHITECTURES:
            raise ValueError(f"unknown architecture {self.architecture!r}")


# ---------------------------------------------------------------------------
# native helpers: BLAS threads and the C heap

@functools.cache
def _openblas_threads():
    """(get, set) of the thread count of numpy's bundled OpenBLAS, or None
    when this process has no such library loaded."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas64_-*.so")):
        try:
            lib = ctypes.CDLL(str(path), mode=os.RTLD_NOLOAD)
        except OSError:  # present on disk but not loaded
            continue
        get, set_ = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        return get, set_
    return None


def blas_thread_count() -> int | None:
    """The bundled OpenBLAS's thread count, or None without that library."""
    threads = _openblas_threads()
    return None if threads is None else threads[0]()


@contextlib.contextmanager
def blas_threads(n: int):
    """Hold the bundled OpenBLAS at ``n`` threads for the block, then restore
    the count it had; does nothing without that library.  The count is
    process-wide, so the block should not overlap another in a second thread."""
    if (threads := _openblas_threads()) is None:
        yield
        return
    get, set_ = threads
    before = get()
    set_(n)
    try:
        yield
    finally:
        set_(before)


@functools.cache
def _malloc_trim():
    """glibc's ``malloc_trim``, or None with another C library."""
    try:
        trim = ctypes.CDLL(None).malloc_trim
    except (AttributeError, OSError, TypeError):
        return None
    trim.argtypes, trim.restype = [ctypes.c_size_t], ctypes.c_int
    return trim


# ---------------------------------------------------------------------------
# training harness

def train_single_run(arch: str, train_ds: D.TimeSeriesDataset,
                     test_ds: D.TimeSeriesDataset, seed: int,
                     overrides: dict | None = None, log_fn=None):
    """One seeded run of one architecture; returns (saveable model, accuracy, loss).

    The loss is the monitored loss of the returned epoch (see ``optim.train``);
    for twiesn it is the cross entropy of the training set's posteriors.

    mcnn and mcdcnn hold out whole training series, split here once by the
    run's seed, and checkpoint on them.  Every net trains through one loop over
    its candidates: mcnn's (filter length, pooling factor) grid, picked by vote
    accuracy on the held-out series, or else the one default build.  The nets
    in ``models.SLICE_WARPS`` train on slice pools and vote over slices.
    """
    overrides = overrides or {}
    T, Mdims, K = train_ds.length, train_ds.dims, train_ds.n_classes
    slicing = D.default_slicing(T, M.SLICE_WARPS[arch]) if arch in M.SLICE_WARPS else None
    # a test split the model could not take is refused before anything is fitted
    if test_ds.dims != Mdims:
        raise ShapeError(f"{arch}: test dims {test_ds.dims}, train dims {Mdims}")
    if slicing and test_ds.length < (need := D.slice_length(T, slicing)):
        raise ShapeError(f"{arch}: test length {test_ds.length} is below its slice length {need}")
    if not slicing and arch != "twiesn" and test_ds.length != T:
        raise ShapeError(f"{arch} takes whole series: test length {test_ds.length}, train {T}")

    if arch == "twiesn":
        model = R.twiesn_fit(train_ds, R.default_grid(seed))
        acc = R.twiesn_accuracy(model, test_ds)
        loss, _ = cross_entropy_loss(model.fit_posterior, train_ds.Y)
        return model, acc, loss

    config = replace(O.default_config(arch, seed), **{
        key: overrides[key] for key in ("epochs", "batch_size", "learning_rate")
        if overrides.get(key) is not None})
    data, held_out = train_ds, None
    if config.split_fraction > 0:
        data, held_out = D.split_train_val(train_ds, config.split_fraction, seed)
        data.held_out = held_out
    if slicing:
        data, T = D.build_training_pool(data, slicing)
        if held_out is not None:
            data.held_out = D.build_training_pool(held_out, slicing)[0]

    candidates = ([{"filter_length": fl, "pool_factor": pf} for fl, pf in M.mcnn_grid(T)]
                  if arch == "mcnn" else [{}])
    best = (-1.0, None, None)  # (held-out vote accuracy, model, losses)
    for options in candidates:
        spec = M.build_model(arch, T, Mdims, K, **options)
        spec.slicing = slicing
        candidate, losses = O.train(spec, data, config, log_fn)
        score = M.accuracy(candidate, held_out) if len(candidates) > 1 else 0.0
        # max keeps the earlier candidate among equally accurate ones
        best = max(best, (score, candidate, losses), key=lambda b: b[0])
    _, model, losses = best
    return model, M.accuracy(model, test_ds), losses[model.best_epoch - 1]


def run_experiment(config: ExperimentConfig) -> list[S.RunRecord]:
    """Train the sweep, persist models and run records, return the records.

    Runs may execute concurrently (``jobs``); each is seed-isolated and the
    results file is written once, after all runs finish.  The out folder is
    made at a run's first write (its log or its model), so a sweep refused
    before any leaves none.  The narrow nets
    (``ONE_BLAS_THREAD``) run with OpenBLAS at one thread, restored after,
    and the heap's free pages are returned to the system once the runs end.
    """
    train_ds, test_ds = D.load_pair(config.train_path, config.test_path)
    name = train_ds.meta.name
    arch = config.architecture
    out_dir = Path(config.out_dir)
    if (results := out_dir / "results.csv").exists():  # refused before any run trains
        S.load_runs(results, baselines=False)

    def made(path: str) -> str:  # ``path``, once its folder exists
        out_dir.mkdir(parents=True, exist_ok=True)
        return path

    def one(run_index: int):
        seed = config.base_seed + run_index
        stem = out_dir / f"{name}_{arch}_seed{seed}"
        with (open(made(f"{stem}.log"), "w") if config.epoch_log
              else contextlib.nullcontext()) as log:
            started = time.perf_counter()
            model, acc, loss = train_single_run(
                arch, train_ds, test_ds, seed, config.overrides,
                None if log is None else lambda line: print(line, file=log))
        elapsed = time.perf_counter() - started
        # looked up at each call, so that a wrapper put on either module's function sees it
        save = R.save_twiesn if isinstance(model, R.TwiesnModel) else M.save_model
        save(model, made(f"{stem}.model"))
        return S.RunRecord(name, arch, seed, acc, loss, elapsed)

    with blas_threads(1) if arch in ONE_BLAS_THREAD else contextlib.nullcontext():
        if config.jobs > 1:
            with ThreadPoolExecutor(max_workers=config.jobs) as pool:
                records = list(pool.map(one, range(config.runs)))
        else:
            records = [one(r) for r in range(config.runs)]
    # Runs that trained side by side leave freed memory in their threads'
    # malloc arenas; hand it back so that it does not add to what runs next.
    if (trim := _malloc_trim()) is not None:
        trim(0)
    S.save_runs(records, results)
    return records


# ---------------------------------------------------------------------------
# commands

def _cmd_train(args) -> int:
    records = run_experiment(ExperimentConfig(
        train_path=args.train,
        test_path=args.test,
        architecture=args.arch,
        runs=args.runs,
        base_seed=args.seed,
        out_dir=args.out,
        overrides={
            "epochs": args.epochs,
            "batch_size": args.batch,
            "learning_rate": args.lr,
        },
        jobs=args.jobs,
        epoch_log=args.log,
    ))
    accs = np.array([r.accuracy for r in records])
    print(
        f"{args.arch} on {records[0].dataset}: "
        f"mean acc {accs.mean():.4f} +/- {accs.std():.4f} over {len(records)} run(s)"
    )
    return 0


def _load_metadata(path, column: str, datasets) -> dict:
    """Dataset -> theme, length and train size; each of ``datasets`` needs a
    row with ``column`` filled, a bad row names its line and column, and a
    repeated dataset the line it repeats."""
    path = Path(path)
    reader = csv.reader(io.StringIO(D.read_text(path), newline=""))
    header = next(reader, [])
    for name in ("dataset", column):
        if name not in header:
            raise DataFormatError(f"{path.name} line 1: no column {name} in the header")
    meta, seen = {}, {}
    for row in filter(None, reader):
        where = f"{path.name} line {reader.line_num}"
        if len(row) != len(header):
            raise DataFormatError(f"{where}: {len(row)} cells, expected {len(header)}")
        cells = dict(zip(header, row))
        if (first := seen.setdefault(cells["dataset"], reader.line_num)) != reader.line_num:
            raise DataFormatError(f"{where}: repeats the record of line {first}")
        if not cells[column] and cells["dataset"] in datasets:
            raise DataFormatError(f"{where}, column {column}: empty for ranked dataset "
                                  f"{cells['dataset']!r}")
        entry = {"theme": cells.get("theme", "")}
        for name in ("length", "train_size"):
            try:
                entry[name] = int(cells[name]) if cells.get(name) else 0
            except ValueError:
                raise DataFormatError(f"{where}, column {name}: cannot read "
                                      f"{cells[name]!r} as int") from None
        meta[cells["dataset"]] = entry
    if missing := sorted(set(datasets) - meta.keys()):
        raise DataFormatError(f"{path.name}: no row for ranked dataset {missing[0]!r}")
    return meta


def _cmd_compare(args) -> int:
    if args.group and not args.meta:
        raise _UsageError("--group needs --meta <csv> with dataset metadata")
    if Path(args.out).suffix == ".txt":
        raise _UsageError(f"--out {args.out} ends in .txt, the name of the text report "
                          f"written beside the diagram")
    earlier: dict = {}  # a record repeated across files is refused too
    runs = [r for path in args.results for r in S.load_runs(path, earlier=earlier)]
    report = S.compare_classifiers(S.aggregate(runs, args.aggregate), args.alpha)
    text = S.render_text_report(report)
    if args.group:
        column = "train_size" if args.group == "trainsize" else args.group
        metadata = _load_metadata(args.meta, column, {r.dataset for r in runs})
        lines = [f"grouped ranks by {args.group}:"]
        for band, (ranks, n) in S.grouped_ranks(runs, args.group, metadata,
                                                args.aggregate).items():
            lines.append(f"  {band} ({n} dataset(s)):")
            for cname in sorted(ranks, key=lambda v: (ranks[v], v)):
                lines.append(f"    {cname}: {ranks[cname]:.4f}")
        text += "\n".join(lines) + "\n"
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(S.render_cd_diagram(report))
    out.with_suffix(".txt").write_text(text)
    print(text, end="")
    return 0


def _explain_inputs(args, class_index=None):
    """``cam``/``mds``: the model, the dataset checked to fit it, the output folder.

    A model with no GAP head, or a ``class_index`` it does not have, is
    refused before anything is read.  The folder is made by the first
    :func:`_write`, so a run that fails before it leaves none."""
    model = M.load_model(args.model)
    M.gap_head(model.spec)
    classes = model.spec.classes
    if class_index is not None and not 0 <= class_index < classes:
        raise _UsageError(f"--class {class_index} is out of range: the model has "
                          f"{classes} classes, 0 to {classes - 1}")
    dataset = D.load_single(args.data)
    M.check_geometry(model.spec, dataset)
    return model, dataset, Path(args.out)


def _write(out_dir: Path, files: dict) -> None:
    """Write each ``name: text`` into ``out_dir``, making the folder first."""
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        (out_dir / name).write_text(text)


def _cmd_cam(args) -> int:
    model, dataset, out_dir = _explain_inputs(args, args.class_index)
    for i in range(dataset.n):
        cam = E.compute_cam(model, dataset.X[i], args.class_index)
        _write(out_dir, {f"cam_{i:04d}.svg": E.export_cam_svg(dataset.X[i, :, 0], cam.normalized),
                         f"cam_{i:04d}.csv": E.cam_csv(cam)})
    print(f"wrote {dataset.n} CAM svg/csv pairs to {out_dir}")
    return 0


def _cmd_mds(args) -> int:
    model, dataset, out_dir = _explain_inputs(args)
    features = E.gap_features(model, dataset)
    embedding = E.mds_embed(E.distance_matrix(features))
    labels = dataset.labels()
    _write(out_dir, {"mds.svg": E.export_mds_svg(embedding, labels),
                     "mds.csv": E.mds_csv(embedding, labels)})
    print(f"wrote mds.svg and mds.csv to {out_dir} (stress {embedding.stress:.6f})")
    return 0


# ---------------------------------------------------------------------------
# parser

def build_parser() -> _Parser:
    parser = _Parser(prog="tsclab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train N seeded runs of one architecture")
    p_train.add_argument("--arch", required=True, choices=ALL_ARCHITECTURES)
    p_train.add_argument("--train", required=True, help="train split file")
    p_train.add_argument("--test", required=True, help="test split file")
    p_train.add_argument("--runs", type=_positive(int), default=10)
    p_train.add_argument("--seed", type=int, default=0, help="base seed; run r uses seed+r")
    p_train.add_argument("--out", default=_default_out())
    p_train.add_argument("--epochs", type=_positive(int), default=None)
    p_train.add_argument("--batch", type=_positive(int), default=None)
    p_train.add_argument("--lr", type=_positive(float), default=None)
    p_train.add_argument("--jobs", type=_positive(int), default=1,
                         help="runs trained at once, as threads of this process; "
                              "mlp, mcdcnn, timecnn and tlenet hold OpenBLAS at one "
                              "thread (serially too), so their blobs match across --jobs")
    p_train.add_argument("--log", action="store_true", help="write per-epoch loss/lr logs")
    p_train.set_defaults(fn=_cmd_train)

    p_cmp = sub.add_parser("compare", help="statistical comparison + CD diagram")
    p_cmp.add_argument("--results", action="append", required=True,
                       help="results csv (repeatable; run records or baselines)")
    p_cmp.add_argument("--alpha", type=_positive(float, 1), default=0.05)
    p_cmp.add_argument("--aggregate", default="mean",
                       choices=("mean", "median", "min", "max"))
    p_cmp.add_argument("--out", required=True, help="output svg path")
    p_cmp.add_argument("--group", choices=("theme", "length", "trainsize"))
    p_cmp.add_argument("--meta", help="dataset metadata csv for --group")
    p_cmp.set_defaults(fn=_cmd_compare)

    p_cam = sub.add_parser("cam", help="class activation maps for every series")
    p_cam.add_argument("--model", required=True, help="model manifest path")
    p_cam.add_argument("--data", required=True)
    p_cam.add_argument("--class", dest="class_index", type=int, required=True)
    p_cam.add_argument("--out", default=_default_out())
    p_cam.set_defaults(fn=_cmd_cam)

    p_mds = sub.add_parser("mds", help="metric MDS of the GAP feature space")
    p_mds.add_argument("--model", required=True, help="model manifest path")
    p_mds.add_argument("--data", required=True)
    p_mds.add_argument("--out", default=_default_out())
    p_mds.set_defaults(fn=_cmd_mds)
    return parser


def _warning_line(message, *_) -> str:
    return f"warning: {message}\n"


def main(argv=None) -> int:
    """Run one command; each warning prints as one ``warning: <message>`` line."""
    parser = build_parser()
    formatwarning, warnings.formatwarning = warnings.formatwarning, _warning_line
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except _NUMERIC_ERRORS as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except _DATA_ERRORS as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    finally:
        warnings.formatwarning = formatwarning


if __name__ == "__main__":
    sys.exit(main())
