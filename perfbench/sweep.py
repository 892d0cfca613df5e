"""One benchmark run of one workload: inputs, set-up, sweep, checks, inference.

The sweep is the user's job: for each architecture, ``cli.run_experiment``
(the path ``tsclab train`` takes) loads the files, trains every seed,
tests, saves the models and merges ``results.csv``; then ``tsclab compare``
ranks the sweep against archive baselines and, where a GAP-headed model
exists, ``tsclab cam`` and ``tsclab mds`` explain it.
"""

from __future__ import annotations

import contextlib
import io
import math
import resource
import statistics
import sys
import traceback
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np
from tsclab import cli, data as D, explain, layers, models as M, optim as O
from tsclab import reservoir as R, stats as S
from tsclab.tensor import SplitMix64

import synth
from probes import RunCapture, install_tracer, layer_metrics, split_table
from tracer import Patcher, Tracer

# set-up is tens of milliseconds on the small workloads: repeat it well
# above timer and import jitter (the traced run does the minimum only)
SETUP_MIN_REPEATS = 5
SETUP_MIN_SECONDS = 2.0
BASELINE_DATASETS = 97  # with the sweep's own dataset, the paper's 98
TLENET_WARPS = (1.0, 2.0, 0.5)  # the warp factors cli trains tlenet with


@dataclass
class Inputs:
    train: Path
    test: Path
    baselines: Path
    values: int  # numbers in the train and test files


@dataclass
class SweepResult:
    seconds: float = 0.0
    records: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    experiments: list = field(default_factory=list)  # (jobs, wall s, sum of run s)
    problems: list = field(default_factory=list)


def write_inputs(wl, seed: int, work: Path) -> Inputs:
    work.mkdir(parents=True, exist_ok=True)
    suffix = ".txt" if wl.fmt == "ucr" else ".csv"
    train, test = work / f"Synth_TRAIN{suffix}", work / f"Synth_TEST{suffix}"
    values = 0
    for path, n, stream in ((train, wl.n_train, 2 * seed), (test, wl.n_test, 2 * seed + 1)):
        if wl.fmt == "ucr":
            values += synth.write_ucr(path, n, wl.length, wl.classes, wl.noise, stream)
        else:
            values += synth.write_mts_long(path, n, wl.length, wl.dims, wl.classes,
                                           wl.noise, stream)
    baselines = work / "archive_baselines.csv"
    synth.write_baselines(baselines, [a.name for a in wl.archs], BASELINE_DATASETS, seed)
    return Inputs(train, test, baselines, values)


# ---------------------------------------------------------------------------
# set-up

def setup_once(wl, inputs: Inputs) -> None:
    """Load and validate the pair, then build and initialise each architecture."""
    train, _ = D.load_pair(inputs.train, inputs.test)
    T, dims, K = train.length, train.dims, train.n_classes
    for arch in wl.archs:
        if arch.name == "twiesn":
            R.init_reservoir(R.default_grid(0)[0], dims)
            continue
        if arch.name == "tlenet":
            slicing = D.default_slicing(T, TLENET_WARPS)
            _, slice_len = D.build_training_pool(train.take([0]), slicing)
            spec = M.build_tlenet(slice_len, dims, K)
        else:
            spec = M.build_model(arch.name, T, dims, K)
        M.init_model(spec, SplitMix64(0))


def measure_setup(wl, inputs: Inputs, min_seconds: float = SETUP_MIN_SECONDS) -> list[float]:
    samples = []
    while len(samples) < SETUP_MIN_REPEATS or sum(samples) < min_seconds:
        start = perf_counter()
        setup_once(wl, inputs)
        samples.append(perf_counter() - start)
    return samples


# ---------------------------------------------------------------------------
# sweep

def _tsclab(argv: list, problems: list) -> None:
    """One ``tsclab`` command, its report kept off the benchmark's stdout."""
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main([str(a) for a in argv])
    if code != 0:
        problems.append(f"tsclab {argv[0]} exited with code {code}")


def run_sweep(wl, inputs: Inputs, out: Path) -> SweepResult:
    res = SweepResult()
    start = perf_counter()
    for arch in wl.archs:
        config = cli.ExperimentConfig(
            str(inputs.train), str(inputs.test), arch.name, runs=arch.runs,
            base_seed=0, out_dir=str(out), jobs=wl.jobs,
            overrides={"epochs": arch.epochs, "batch_size": arch.batch},
        )
        res.attempted += arch.runs
        began = perf_counter()
        try:
            records = cli.run_experiment(config)
        except Exception:  # a failed run counts against success_rate, never aborts
            traceback.print_exc(file=sys.stderr)
            res.failed += arch.runs
            continue
        finite = [r for r in records if math.isfinite(r.loss)]
        res.failed += len(records) - len(finite)
        res.records += finite
        res.experiments.append((wl.jobs, perf_counter() - began,
                                sum(r.train_seconds for r in records)))
    _tsclab(["compare", "--results", out / "results.csv", "--results", inputs.baselines,
             "--out", out / "cd.svg"], res.problems)
    if wl.gap_arch is not None:
        model = out / f"Synth_{wl.gap_arch}_seed0.model"
        _tsclab(["cam", "--model", model, "--data", inputs.test, "--class", "0",
                 "--out", out / "cam"], res.problems)
        _tsclab(["mds", "--model", model, "--data", inputs.test, "--out", out / "mds"],
                res.problems)
    res.seconds = perf_counter() - start
    return res


def check_outputs(wl, res: SweepResult, out: Path) -> None:
    """results.csv and the analysis files hold what the sweep produced."""
    saved = {(r.architecture, r.seed): r for r in S.load_runs(out / "results.csv")}
    for r in res.records:
        s = saved.get((r.architecture, r.seed))
        if s is None or s.accuracy != r.accuracy or s.loss != r.loss:
            res.problems.append(f"results.csv disagrees on {r.architecture} seed {r.seed}")
    report = (out / "cd.txt").read_text() if (out / "cd.txt").exists() else ""
    for arch in {r.architecture for r in res.records}:
        if arch not in report:
            res.problems.append(f"comparison report does not rank {arch}")
    if wl.gap_arch is not None:
        if len(list((out / "cam").glob("cam_*.csv"))) != wl.n_test:
            res.problems.append("cam did not write one map per test series")
        rows = (out / "mds" / "mds.csv").read_text().strip().splitlines()
        if len(rows) != wl.n_test + 1:
            res.problems.append(f"mds.csv has {len(rows)} lines for {wl.n_test} series")


# ---------------------------------------------------------------------------
# reload check and inference

def load_saved(arch: str, manifest: Path):
    return R.load_twiesn(manifest) if arch == "twiesn" else M.load_model(manifest)


def tensors(model) -> dict:
    if isinstance(model, R.TwiesnModel):
        return {"W_in": model.W_in, "W": model.W, "W_out": model.W_out}
    return model.params


def predict(model, dataset) -> np.ndarray:
    if isinstance(model, R.TwiesnModel):
        return R.twiesn_predict_dataset(model, dataset)
    return M.predict(model, dataset)


def reload_problem(arch: str, model, manifest: Path) -> tuple[str | None, object]:
    """(why the saved model is not the trained one or None, the reloaded model).

    The reloaded parameters must match the trained ones bit for bit.
    """
    try:
        reloaded = load_saved(arch, manifest)
    except (ValueError, KeyError, OSError) as exc:
        return f"{manifest.name} does not reload: {exc}", None
    a, b = tensors(model), tensors(reloaded)
    if a.keys() != b.keys() or any(a[k].tobytes() != b[k].tobytes() for k in a):
        return f"{manifest.name} reloads with different parameters", reloaded
    return None, reloaded


def _timed_predict(model, dataset, samples: list) -> np.ndarray:
    started = perf_counter()
    labels = predict(model, dataset)
    samples.append(perf_counter() - started)
    return labels


def check_and_infer(res: SweepResult, capture: RunCapture, out: Path, test,
                    deadline: float | None) -> dict:
    """Reload-check every run, then time predictions until ``deadline``.

    The check pass predicts with the in-memory and the reloaded model and
    requires the same labels, and the record's accuracy; later passes
    alternate the two models.  With no deadline only the check pass runs.
    Returns the seconds of each prediction by architecture.
    """
    truth = test.labels()
    pairs = []
    samples = defaultdict(list)
    for r in res.records:
        arch = r.architecture
        model = capture.models[(arch, r.seed)]
        labels = _timed_predict(model, test, samples[arch])
        if float((labels == truth).mean()) != r.accuracy:
            res.problems.append(f"{arch} seed {r.seed}: accuracy differs from its record")
        manifest = out / f"{r.dataset}_{arch}_seed{r.seed}.model"
        problem, reloaded = reload_problem(arch, model, manifest)
        if problem is None and not np.array_equal(
                _timed_predict(reloaded, test, samples[arch]), labels):
            problem = f"{manifest.name} reloads and predicts different labels"
        if problem is not None:
            res.problems.append(problem)
            continue
        pairs.append((arch, labels, (model, reloaded)))
    passes = 0
    while pairs and deadline is not None and perf_counter() < deadline:
        for arch, labels, both in pairs:
            if not np.array_equal(_timed_predict(both[passes % 2], test, samples[arch]),
                                  labels):
                res.problems.append(f"{arch}: predictions changed between passes")
        passes += 1
    return samples


# ---------------------------------------------------------------------------
# one run

def _median_rate(per_arch: dict, work_per_arch: dict) -> tuple[float, int]:
    """Σ work / Σ median seconds over architectures, and the sample count."""
    seconds = sum(statistics.median(v) for v in per_arch.values())
    n = sum(len(v) for v in per_arch.values())
    return (sum(work_per_arch[a] for a in per_arch) / seconds if seconds else 0.0), n


def end_to_end(wl, inputs: Inputs, seconds: float, work: Path):
    """Untraced run: end-to-end metrics as (value, unit, sample count), the
    sweep, and the raw timing samples by kind and architecture."""
    patcher = Patcher()
    capture = RunCapture()
    capture.install(patcher, cli, O)
    try:
        deadline = perf_counter() + seconds
        setup = measure_setup(wl, inputs)
        res = run_sweep(wl, inputs, work / "sweep")
        check_outputs(wl, res, work / "sweep")
        _, test = D.load_pair(inputs.train, inputs.test)
        infer = check_and_infer(res, capture, work / "sweep", test, deadline)
    finally:
        patcher.close()

    epochs = defaultdict(list)
    series = {}
    for arch, runs in capture.epochs.items():
        for n, durations in runs:
            epochs[arch] += durations
            series[arch] = n
    train_rate, n_epochs = _median_rate(epochs, series)
    # twiesn's prediction cost follows the reservoir size its grid search
    # picks, which changes with the seed: it is checked but not timed here
    timed = {arch: s for arch, s in infer.items() if arch != "twiesn"}
    infer_rate, n_infer = _median_rate(timed, defaultdict(lambda: wl.n_test))
    accuracies = [r.accuracy for r in res.records]
    metrics = {
        "setup_s": (statistics.median(setup), "s", len(setup)),
        "sweep_s": (res.seconds, "s", 1),
        "train_series_per_s": (train_rate, "series/s", n_epochs),
        "infer_series_per_s": (infer_rate, "series/s", n_infer),
        "test_accuracy": (statistics.mean(accuracies) if accuracies else 0.0,
                          "fraction", len(accuracies)),
        "success_rate": ((res.attempted - res.failed) / res.attempted, "fraction",
                         res.attempted),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", 1),
    }
    samples = {"setup_s": {"all": setup}, "epoch_s": epochs, "predict_s": infer}
    return metrics, res, samples


def traced(wl, inputs: Inputs, work: Path) -> tuple[dict, SweepResult, list]:
    """Untraced sweep, then a traced set-up, sweep and check pass: per-layer metrics."""
    patcher = Patcher()
    capture = RunCapture()
    capture.install(patcher, cli, O)
    tracer = Tracer()
    try:
        untraced = run_sweep(wl, inputs, work / "untraced")
        capture.models.clear()
        install_tracer(tracer, patcher, (cli, D, explain, layers, M, O, R, S))
        measure_setup(wl, inputs, min_seconds=0.0)
        res = run_sweep(wl, inputs, work / "traced")
        check_outputs(wl, res, work / "traced")
        _, test = D.load_pair(inputs.train, inputs.test)
        check_and_infer(res, capture, work / "traced", test, None)
    finally:
        patcher.close()
    res.problems += untraced.problems
    metrics = layer_metrics(tracer, inputs.values)
    wall = sum(j * w for j, w, _ in res.experiments)
    metrics["cli.parallel_efficiency"] = (
        sum(s for _, _, s in res.experiments) / wall if wall else 0.0, "fraction")
    metrics["cli.failed_runs"] = (float(res.failed), "count")
    metrics["trace.overhead_share"] = (res.seconds / untraced.seconds - 1.0, "fraction")
    return metrics, res, split_table(tracer)
