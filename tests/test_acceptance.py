"""End-to-end acceptance criteria; each test prints one PASS/FAIL line.

Criteria 2 and 3 compare against public archive splits (GunPoint,
DiatomSizeReduction).  The files are looked up under data/ (override with
TSCLAB_DATA); scripts/fetch_datasets.py materializes them on a networked
machine.  Without the files those two criteria fail with an explicit
diagnostic rather than being silently skipped.
"""

import functools
import os
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import gradient_slots, random_batch
from test_models import TestConformance
from test_optim import TestDefaults
from test_stats import brute_force_wilcoxon
from tsclab import explain as E
from tsclab import models as M
from tsclab import optim as O
from tsclab import reservoir as R
from tsclab import stats as S
from tsclab.cli import ExperimentConfig, run_experiment, train_single_run
from tsclab.data import load_pair, one_hot
from tsclab.layers import LOSSES
from tsclab.tensor import SplitMix64

DATA_DIR = Path(os.environ.get("TSCLAB_DATA",
                               Path(__file__).resolve().parent.parent / "data"))


def announce(number, label):
    def decorator(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            started = time.perf_counter()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\nACCEPTANCE {number} ({label}): FAIL "
                      f"[{time.perf_counter() - started:.1f}s]")
                raise
            print(f"\nACCEPTANCE {number} ({label}): PASS "
                  f"[{time.perf_counter() - started:.1f}s]")
        return wrapper
    return decorator


def load_public_dataset(name):
    candidates = [
        (DATA_DIR / f"{name}_TRAIN.txt", DATA_DIR / f"{name}_TEST.txt"),
        (DATA_DIR / f"{name}_TRAIN.tsv", DATA_DIR / f"{name}_TEST.tsv"),
    ]
    for train, test in candidates:
        if train.exists() and test.exists():
            return load_pair(train, test)
    pytest.fail(
        f"{name} split not found under {DATA_DIR}. This environment has no "
        f"route to the public archive (no general network; the package mirror "
        f"carries no dataset packages). On a networked machine run "
        f"`python scripts/fetch_datasets.py` and re-run this criterion."
    )


# ---------------------------------------------------------------------------
# criterion 1: gradient master suite

def sample_indices(size, cap=64):
    if size <= cap:
        return np.arange(size)
    return np.unique(np.linspace(0, size - 1, cap).astype(np.int64))


def architecture_gradient_check(spec, seed=0, tol=1e-4, h=1e-5):
    loss_fn = LOSSES[spec.loss]
    params = M.init_model(spec, SplitMix64(seed))
    x = random_batch((2, spec.input_length, spec.input_dims), seed=seed + 100)
    y = one_hot([0, 1], tuple(range(spec.classes)))

    def loss_value():
        # fixed rng per evaluation keeps dropout masks identical
        pred, _ = M.forward_batch(spec, params, x, "train", SplitMix64(999))
        return loss_fn(pred, y)[0]

    pred, caches = M.forward_batch(spec, params, x, "train", SplitMix64(999))
    _, gpred = loss_fn(pred, y)
    grads = gradient_slots(spec)
    M.backward_batch(spec, caches, gpred, grads)

    def numeric_grad(flat, idx, step):
        orig = flat[idx]
        flat[idx] = orig + step
        fp = loss_value()
        flat[idx] = orig - step
        fm = loss_value()
        flat[idx] = orig
        return (fp - fm) / (2.0 * step)

    worst = 0.0
    for name, value in params.items():
        if not M.trainable(name):
            continue
        analytic = np.asarray(grads[name], dtype=np.float64)
        flat = value.reshape(-1)
        aflat = analytic.reshape(-1)
        for idx in sample_indices(flat.size):
            numeric = numeric_grad(flat, idx, h)
            scale = max(abs(numeric), abs(aflat[idx]), 1e-6)
            err = abs(numeric - aflat[idx]) / scale
            if err >= tol:
                # a relu/max-pool kink inside the difference window biases the
                # estimate; a narrower window must agree if the gradient is right
                numeric = numeric_grad(flat, idx, h * 1e-2)
                scale = max(abs(numeric), abs(aflat[idx]), 1e-6)
                err = abs(numeric - aflat[idx]) / scale
            assert err < tol, (
                f"{spec.architecture_id} {name}[{idx}]: analytic {aflat[idx]:.3e} "
                f"vs numeric {numeric:.3e} (rel {err:.2e})"
            )
            worst = max(worst, err)
    return worst


def run_layer_kernel_checks():
    """Every kernel's backward against central finite differences."""
    import test_layers as TL

    TL.TestConv1d().test_gradients_match_finite_differences("same")
    TL.TestConv1d().test_gradients_match_finite_differences("valid")
    TL.TestDense().test_gradients_match_finite_differences()
    TL.TestBatchNorm().test_gradients_through_batch_statistics()
    TL.TestInstanceNorm().test_gradients_match_finite_differences()
    acts = TL.TestActivations()
    for kind in ("relu", "sigmoid", "softmax"):
        acts.test_gradients_match_finite_differences(kind)
    acts.test_prelu_gradients_including_slopes()
    TL.TestDropout().test_backward_uses_same_mask()
    pools = TL.TestPooling()
    pools.test_gradients_match_finite_differences("max")
    pools.test_gradients_match_finite_differences("avg")
    gap_att = TL.TestGapAndAttention()
    gap_att.test_gap_gradient()
    gap_att.test_attention_gradient()
    TL.TestFixedTransforms().test_transform_gradients()
    losses = TL.TestLosses()
    losses.test_cross_entropy_gradient_through_softmax()
    losses.test_mse_gradient_through_sigmoid()


@announce(1, "gradient master suite")
def test_criterion_1_gradient_master_suite():
    started = time.perf_counter()
    run_layer_kernel_checks()
    specs = [
        M.build_mlp(16, 1, 2),
        M.build_fcn(16, 1, 2),
        M.build_resnet(16, 1, 2),
        M.build_encoder(16, 1, 2),
        M.build_mcnn(16, 1, 2, filter_length=2, pool_factor=2),
        M.build_tlenet(16, 1, 2),
        M.build_mcdcnn(16, 1, 2),
        # timecnn's own geometry (valid conv 7 + two avg-pool 3) needs T >= 33
        M.build_timecnn(36, 1, 2),
    ]
    for spec in specs:
        architecture_gradient_check(spec)
    assert time.perf_counter() - started < 120, "criterion runtime budget exceeded"


# ---------------------------------------------------------------------------
# criteria 2-3: public-archive reproductions (data-gated in offline sandboxes)

def _mean_test_accuracy(arch, train_ds, test_ds, seeds, epochs):
    accs = []
    for seed in seeds:
        _, acc, _ = train_single_run(arch, train_ds, test_ds, seed,
                                     {"epochs": epochs})
        accs.append(acc)
    return float(np.mean(accs))


@announce(2, "GunPoint reproduction")
def test_criterion_2_gunpoint_reproduction():
    train_ds, test_ds = load_public_dataset("GunPoint")
    assert train_ds.n == 50 and train_ds.length == 150 and train_ds.n_classes == 2
    for arch in ("fcn", "resnet"):
        mean_acc = _mean_test_accuracy(arch, train_ds, test_ds, (0, 1, 2), 500)
        assert mean_acc >= 0.95, f"{arch} mean accuracy {mean_acc:.4f} < 0.95"


@announce(3, "small-dataset contrast (DiatomSizeReduction)")
def test_criterion_3_small_dataset_contrast():
    train_ds, test_ds = load_public_dataset("DiatomSizeReduction")
    assert train_ds.n == 16
    timecnn = _mean_test_accuracy("timecnn", train_ds, test_ds, (0, 1, 2), 500)
    fcn = _mean_test_accuracy("fcn", train_ds, test_ds, (0, 1, 2), 500)
    assert timecnn - fcn >= 0.15, (
        f"timecnn {timecnn:.4f} does not exceed fcn {fcn:.4f} by 0.15"
    )


# ---------------------------------------------------------------------------
# criterion 4: statistics oracles

@announce(4, "statistics oracle suite")
def test_criterion_4_statistics_oracles():
    started = time.perf_counter()
    # wilcoxon exact == full 2^n enumeration for all n <= 12
    rng = np.random.default_rng(11)
    for n in range(1, 13):
        for _ in range(2):
            a = rng.uniform(0, 1, n).round(2)
            b = rng.uniform(0, 1, n).round(2)
            assert S.wilcoxon_signed_rank(a, b) == pytest.approx(
                brute_force_wilcoxon(a, b), abs=1e-12
            )

    # friedman closed form on hand-built rank tables
    runs = []
    for d in range(10):
        for j, acc in enumerate((0.9, 0.8, 0.7)):
            runs.append(S.RunRecord(f"d{d}", f"c{j}", 0, acc, 0.0, 0.0))
    stat, p, reject = S.friedman_test(S.aggregate(runs))
    assert stat == pytest.approx(20.0) and reject

    runs = [S.RunRecord(f"d{d}", c, 0, 0.5, 0.0, 0.0)
            for d in range(5) for c in "abc"]
    stat, p, _ = S.friedman_test(S.aggregate(runs))
    assert stat == 0.0 and p == 1.0

    # holm step-down arithmetic
    reject, adjusted = S.holm_correction([0.01, 0.02, 0.20], 0.05)
    assert reject == [True, True, False]
    assert adjusted == [pytest.approx(0.03), pytest.approx(0.04), pytest.approx(0.20)]

    # the published clique anomaly: overlapping cliques that ignore rank order
    ranks = {"C1": 1.0, "C2": 2.0, "C3": 3.0}
    significant = {("C1", "C2"): False, ("C1", "C3"): False, ("C2", "C3"): True}
    assert S.form_cliques(ranks, significant) == [("C1", "C2"), ("C1", "C3")]

    assert time.perf_counter() - started < 60


# ---------------------------------------------------------------------------
# criterion 5: CAM identity

@announce(5, "CAM linear-head identity")
def test_criterion_5_cam_identity():
    started = time.perf_counter()
    checked = 0
    for seed in range(10):
        for arch in ("fcn", "resnet"):
            spec = M.build_model(arch, 20, 1, 3)
            model = M.TrainedModel(spec, M.init_model(spec, SplitMix64(seed)))
            series = random_batch((20, 1), seed=seed + 50)
            for c in range(3):
                cam = E.compute_cam(model, series, c)
                assert abs(cam.values.mean() + cam.bias - cam.logit) < 1e-9
            checked += 1
    assert checked == 20
    assert time.perf_counter() - started < 60


# ---------------------------------------------------------------------------
# criterion 6: MDS recovery

@announce(6, "MDS recovery and stress monotonicity")
def test_criterion_6_mds_recovery():
    started = time.perf_counter()
    pts = random_batch((15, 2), seed=8, scale=2.0)
    emb = E.mds_embed(E.distance_matrix(pts))
    assert emb.stress < 1e-6
    a = pts - pts.mean(axis=0)
    b = emb.points - emb.points.mean(axis=0)
    u, _, vt = np.linalg.svd(b.T @ a)
    assert np.max(np.abs(b @ (u @ vt) - a)) < 1e-6

    for seed in range(100):
        feats = random_batch((10, 5), seed=seed)
        trace = np.array(E.mds_embed(E.distance_matrix(feats)).stress_trace)
        assert np.all(np.diff(trace) <= 1e-12)
    assert time.perf_counter() - started < 60


# ---------------------------------------------------------------------------
# criterion 7: ridge / reservoir oracles

@announce(7, "ridge and reservoir oracles")
def test_criterion_7_ridge_reservoir():
    started = time.perf_counter()
    A = random_batch((20, 5), seed=0)
    Y = random_batch((20, 3), seed=1)
    lam = 0.25
    W = R.fit_ridge(A, Y, lam)
    oracle = (np.linalg.inv(A.T @ A + lam * np.eye(5)) @ (A.T @ Y)).T
    assert np.max(np.abs(W - oracle)) < 1e-8

    for size in (16, 24, 32):
        config = R.ReservoirConfig(size, 0.8, 0.9, seed=size)
        _, Wres = R.init_reservoir(config, 1)
        dense = float(np.max(np.abs(np.linalg.eigvals(Wres))))
        assert abs(dense - 0.9) < 1e-6
        assert abs(R.spectral_radius(Wres) - dense) < 1e-6

    from test_reservoir import sign_of_mean_dataset
    train_ds = sign_of_mean_dataset(n=40, seed=5)
    test_ds = sign_of_mean_dataset(n=20, seed=50)
    grid = [
        R.ReservoirConfig(size, sparsity, rho, 1.0, lam2, seed=1)
        for size in (32, 64)
        for sparsity in (0.5, 0.8)
        for rho in (0.5, 0.9)
        for lam2 in (0.01, 0.1)
    ]
    model = R.twiesn_fit(train_ds, grid)
    assert R.twiesn_accuracy(model, test_ds) == 1.0
    assert time.perf_counter() - started < 120


# ---------------------------------------------------------------------------
# criterion 8: training determinism through the CLI

@announce(8, "bit-identical reruns")
def test_criterion_8_determinism(tmp_path):
    from test_cli import write_ucr_pair
    train, test = write_ucr_pair(tmp_path)
    blobs, accs = [], []
    for sub in ("a", "b"):
        out = tmp_path / sub
        run_experiment(ExperimentConfig(
            str(train), str(test), "fcn", runs=1, base_seed=11,
            out_dir=str(out), overrides={"epochs": 3},
        ))
        blobs.append((out / "Synth_fcn_seed11.model.bin").read_bytes())
        accs.append([r.accuracy for r in S.load_runs(out / "results.csv")])
    assert blobs[0] == blobs[1]
    assert accs[0] == accs[1]


# ---------------------------------------------------------------------------
# criterion 9: published-table conformance

@announce(9, "architecture and optimization table conformance")
def test_criterion_9_table_conformance():
    conformance = TestConformance()
    for method in (
        conformance.test_mlp_table,
        conformance.test_fcn_table,
        conformance.test_resnet_table,
        conformance.test_resnet_depth_is_eleven_layers,
        conformance.test_encoder_table,
        conformance.test_tlenet_table,
        conformance.test_mcdcnn_table,
        conformance.test_timecnn_table,
        conformance.test_mcnn_branch_count,
    ):
        method()
    defaults = TestDefaults()
    defaults.test_published_table_values()
    defaults.test_plateau_defaults()
    defaults.test_numeric_constants()


# ---------------------------------------------------------------------------
# criterion 10: multivariate pipeline

def write_ecg_shaped_fixture(path, n_series, seed, lengths=(39, 152)):
    """Long-format file shaped like the 2-channel ECG archive entry."""
    rng = SplitMix64(seed)
    lines = ["series_id,dimension,timestamp,value,label"]
    for i in range(n_series):
        T = lengths[0] + int(rng.next_uniform() * (lengths[1] - lengths[0] + 1))
        T = min(T, lengths[1])
        label = "normal" if i % 2 == 0 else "abnormal"
        shiftv = 1.0 if i % 2 == 0 else -1.0
        for dim in range(2):
            for t in range(T):
                value = shiftv + (rng.next_uniform() - 0.5) * 0.3
                lines.append(f"s{i},{dim},{t},{value!r},{label}")
    path.write_text("\n".join(lines) + "\n")


@announce(10, "multivariate long-format pipeline")
def test_criterion_10_mts_pipeline(tmp_path):
    train_path = tmp_path / "ecg_train.csv"
    test_path = tmp_path / "ecg_test.csv"
    write_ecg_shaped_fixture(train_path, 12, seed=0)
    write_ecg_shaped_fixture(test_path, 8, seed=1)
    train_ds, test_ds = load_pair(train_path, test_path)

    assert train_ds.dims == 2 and test_ds.dims == 2
    assert train_ds.length == test_ds.length  # shared post-interpolation length
    assert train_ds.meta.length_range[0] >= 39
    assert train_ds.length <= 152

    spec = M.build_mcdcnn(train_ds.length, 2, train_ds.n_classes)
    config = O.default_config("mcdcnn", seed=0)
    config.epochs = 5
    model, losses = O.train(spec, train_ds, config)
    assert len(losses) == 5
    acc = M.accuracy(model, test_ds)
    assert 0.0 <= acc <= 1.0
