import numpy as np
import pytest

from conftest import random_batch
from tsclab import reservoir as R
from tsclab.data import TimeSeriesDataset, one_hot, split_train_val
from tsclab.errors import BlobSizeError, NumericError
from tsclab.tensor import SplitMix64


def dense_spectral_radius(W):
    return float(np.max(np.abs(np.linalg.eigvals(W))))


def loop_states(W_in, W, series):
    """I(t) = tanh(W_in X(t) + W I(t-1)) one step at a time, from I(0) = 0."""
    state = np.zeros(W.shape[0])
    states = []
    for x in series:
        state = np.tanh(W_in @ x + W @ state)
        states.append(state)
    return np.array(states)


def sign_of_mean_dataset(n=40, T=20, seed=5, margin=1.0):
    X = random_batch((n, T, 1), seed=seed) * 0.3
    labels = []
    for i in range(n):
        if i % 2 == 0:
            X[i] += margin
            labels.append(1)
        else:
            X[i] -= margin
            labels.append(0)
    vocab = (0, 1)
    return TimeSeriesDataset(X, one_hot(labels, vocab), vocab)


class TestSpectralRadius:
    def test_matches_dense_oracle_on_random_matrices(self):
        for seed in range(8):
            rng = SplitMix64(seed)
            n = 16 + seed * 2
            W = (2.0 * rng.uniform(n * n) - 1.0).reshape(n, n)
            W[rng.uniform(n * n).reshape(n, n) < 0.7] = 0.0
            assert abs(R.spectral_radius(W) - dense_spectral_radius(W)) < 1e-6

    def test_zero_matrix(self):
        assert R.spectral_radius(np.zeros((5, 5))) == 0.0

    def test_constructed_radius_meets_request(self):
        config = R.ReservoirConfig(size=20, sparsity=0.8, spectral_radius=0.9, seed=3)
        _, W = R.init_reservoir(config, 1)
        assert abs(dense_spectral_radius(W) - 0.9) < 1e-6

    def test_invariant_across_grid_configs_small_sizes(self):
        for size in (32,):
            for sparsity in (0.5, 0.8, 0.9):
                for rho in (0.25, 0.5, 0.9, 1.0):
                    config = R.ReservoirConfig(size, sparsity, rho, seed=11)
                    _, W = R.init_reservoir(config, 2)
                    assert abs(dense_spectral_radius(W) - rho) < 1e-6
                    assert abs(R.spectral_radius(W) - dense_spectral_radius(W)) < 1e-6

    @pytest.mark.parametrize("seed", [5, 37])
    def test_default_grid_draws_meet_requested_radius_exactly(self, seed):
        # one grid entry per (size, sparsity) draw, sizes 32 to 256
        for config in R.default_grid(seed)[::12]:
            _, W = R.init_reservoir(config, 1)
            assert abs(dense_spectral_radius(W) - config.spectral_radius) < 1e-9, config

    def test_sparsity_fraction_within_tolerance(self):
        config = R.ReservoirConfig(size=64, sparsity=0.8, spectral_radius=0.5, seed=7)
        _, W = R.init_reservoir(config, 1)
        zero_fraction = float((W == 0).mean())
        assert abs(zero_fraction - 0.8) <= 2.0 / 64

    def test_all_zero_draw_errors_after_retries(self):
        config = R.ReservoirConfig(size=8, sparsity=1.0, spectral_radius=0.9, seed=0)
        with pytest.raises(NumericError):
            R.init_reservoir(config, 1)

    def test_deterministic_construction(self):
        config = R.ReservoirConfig(size=16, sparsity=0.5, spectral_radius=0.9, seed=21)
        a = R.init_reservoir(config, 2)
        b = R.init_reservoir(config, 2)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


class TestStates:
    def test_zero_input_stays_at_zero(self):
        W_in = np.zeros((6, 1))
        W = random_batch((6, 6), seed=0) * 0.1
        states = R.reservoir_states_batch(W_in, W, np.zeros((1, 10, 1)))
        assert not states.any()

    def test_single_step_base_case(self):
        config = R.ReservoirConfig(size=10, sparsity=0.5, spectral_radius=0.9, seed=1)
        W_in, W = R.init_reservoir(config, 2)
        x = random_batch((1, 2), seed=2)
        states = R.reservoir_states_batch(W_in, W, x[None])[0]
        assert np.allclose(states[0], np.tanh(W_in @ x[0]))

    def test_echo_state_contraction(self):
        config = R.ReservoirConfig(size=32, sparsity=0.5, spectral_radius=0.5, seed=3)
        W_in, W = R.init_reservoir(config, 1)
        x = random_batch((100, 1), seed=4)
        a = random_batch((32,), seed=5)
        b = random_batch((32,), seed=6)
        for t in range(100):
            a = np.tanh(W_in @ x[t] + W @ a)
            b = np.tanh(W_in @ x[t] + W @ b)
        assert np.linalg.norm(a - b) < 1e-6

    def test_batch_matches_single(self):
        # BLAS kernel choice varies with batch size, so allow last-bit noise
        config = R.ReservoirConfig(size=12, sparsity=0.5, spectral_radius=0.7, seed=7)
        W_in, W = R.init_reservoir(config, 1)
        X = random_batch((3, 15, 1), seed=8)
        batch = R.reservoir_states_batch(W_in, W, X)
        for i in range(3):
            single = loop_states(W_in, W, X[i])
            assert np.max(np.abs(batch[i] - single)) < 1e-12


class TestRidge:
    def test_huge_lambda_shrinks_to_zero(self):
        A = random_batch((30, 6), seed=0)
        Y = random_batch((30, 2), seed=1)
        W = R.fit_ridge(A, Y, 1e12)
        assert np.max(np.abs(W)) < 1e-6

    def test_orthonormal_design_with_tiny_lambda(self):
        q, _ = np.linalg.qr(random_batch((8, 8), seed=2))
        Y = random_batch((8, 3), seed=3)
        W = R.fit_ridge(q, Y, 1e-12)
        assert np.max(np.abs(W - (q.T @ Y).T)) < 1e-9

    def test_matches_explicit_inverse_oracle(self):
        A = random_batch((20, 5), seed=4)
        Y = random_batch((20, 3), seed=5)
        lam = 0.37
        W = R.fit_ridge(A, Y, lam)
        oracle = (np.linalg.inv(A.T @ A + lam * np.eye(5)) @ (A.T @ Y)).T
        assert np.max(np.abs(W - oracle)) < 1e-8

    def test_matches_gradient_descent_oracle(self):
        A = random_batch((30, 8), seed=6)
        Y = random_batch((30, 2), seed=7)
        lam = 0.5
        W = R.fit_ridge(A, Y, lam)
        # descend the ridge objective ||A w - y||^2 + lam ||w||^2 to convergence
        wt = np.zeros((8, 2))
        step = 1.0 / (np.linalg.norm(A.T @ A, 2) + lam) * 0.9
        for _ in range(20000):
            grad = 2.0 * (A.T @ (A @ wt - Y)) + 2.0 * lam * wt
            wt -= step * grad
        assert np.max(np.abs(W - wt.T)) < 1e-6

    def test_normal_equation_residual(self):
        A = random_batch((25, 7), seed=8)
        Y = random_batch((25, 2), seed=9)
        lam = 0.1
        W = R.fit_ridge(A, Y, lam)
        residual = (A.T @ A + lam * np.eye(7)) @ W.T - A.T @ Y
        assert np.max(np.abs(residual)) < 1e-8

    def test_invalid_lambda(self):
        with pytest.raises(ValueError):
            R.fit_ridge(np.ones((3, 2)), np.ones((3, 1)), 0.0)
        with pytest.raises(ValueError):
            R.fit_ridge(np.ones((3, 2)), np.ones((3, 1)), [0.1, -1.0])
        with pytest.raises(ValueError):
            R.fit_ridge(np.ones((3, 2)), np.ones((3, 1)), [])

    def test_penalty_sequence_matches_lone_calls_bitwise(self):
        A = random_batch((40, 9), seed=10)
        Y = random_batch((40, 3), seed=11)
        lams = [1.0, 0.01, 0.37]
        stacked = R.fit_ridge(A, Y, lams)
        assert stacked.shape == (3, 3, 9)
        for lam, W in zip(lams, stacked):
            lone = R.fit_ridge(A, Y, lam)
            assert W.tobytes() == lone.tobytes()
            assert W.strides == lone.strides


class TestTwiesn:
    def test_single_entry_grid_equals_direct_fit(self):
        ds = sign_of_mean_dataset(n=20)
        config = R.ReservoirConfig(size=16, sparsity=0.5, spectral_radius=0.5,
                                   ridge_lambda=0.1, seed=2)
        via_grid = R.twiesn_fit(ds, [config])
        direct = R.twiesn_train_single(config, ds)
        assert np.array_equal(via_grid.W_out, direct.W_out)

    def test_separable_task_reaches_perfect_accuracy(self):
        train = sign_of_mean_dataset(n=40, seed=5)
        test = sign_of_mean_dataset(n=20, seed=50)
        grid = [
            R.ReservoirConfig(32, sparsity, rho, 1.0, lam, seed=1)
            for sparsity in (0.5, 0.8)
            for rho in (0.5, 0.9)
            for lam in (0.01, 0.1)
        ]
        model = R.twiesn_fit(train, grid)
        assert R.twiesn_accuracy(model, test) == 1.0

    def test_posterior_rows_sum_to_one(self):
        ds = sign_of_mean_dataset(n=10)
        config = R.ReservoirConfig(size=16, sparsity=0.5, spectral_radius=0.5, seed=3)
        model = R.twiesn_train_single(config, ds)
        post = R.twiesn_posteriors(model, ds.X)
        assert np.max(np.abs(post.sum(axis=1) - 1.0)) < 1e-12

    def test_predict_single_step_is_softmax_argmax(self):
        config = R.ReservoirConfig(size=4, sparsity=0.5, spectral_radius=0.5, seed=4)
        model = R.TwiesnModel(
            config,
            W_in=np.zeros((4, 1)),
            W=np.zeros((4, 4)),
            W_out=np.array([[0.0, 1.0, 0, 0, 0, 0], [0.0, 0.0, 0, 0, 0, 0]]),
        )
        posterior = R.twiesn_posteriors(model, np.array([[[2.0]]]))[0]
        e = np.exp([2.0, 0.0])
        assert np.allclose(posterior, e / e.sum())
        assert posterior.argmax() == 0

    def test_hand_built_posterior_average(self):
        # reservoir silenced; scores = [x(t), 0] so softmax gives the target rows
        config = R.ReservoirConfig(size=4, sparsity=0.5, spectral_radius=0.5, seed=5)
        model = R.TwiesnModel(
            config,
            W_in=np.zeros((4, 1)),
            W=np.zeros((4, 4)),
            W_out=np.array([[0.0, 1.0, 0, 0, 0, 0], [0.0, 0.0, 0, 0, 0, 0]]),
        )
        targets = np.array([[0.6, 0.4], [0.2, 0.8], [0.9, 0.1]])
        x = np.log(targets[:, 0] / targets[:, 1]).reshape(3, 1)
        posterior = R.twiesn_posteriors(model, x[None])[0]
        assert np.max(np.abs(posterior - targets.mean(axis=0))) < 1e-12
        assert np.allclose(posterior, [0.56666667, 0.43333333])
        assert posterior.argmax() == 0

    def test_identical_step_posteriors_average_to_single_step(self):
        config = R.ReservoirConfig(size=4, sparsity=0.5, spectral_radius=0.5, seed=6)
        model = R.TwiesnModel(
            config, np.zeros((4, 1)), np.zeros((4, 4)),
            W_out=random_batch((3, 6), seed=7),
        )
        series = np.full((5, 1), 0.8)
        posterior = R.twiesn_posteriors(model, series[None])[0]
        single = R.twiesn_posteriors(model, series[None, :1])[0]
        assert np.max(np.abs(posterior - single)) < 1e-12

    def test_best_grid_point_beats_others_on_split(self):
        ds = sign_of_mean_dataset(n=30, seed=9)
        grid = [
            R.ReservoirConfig(16, 0.5, rho, 1.0, 0.1, seed=1) for rho in (0.25, 0.9)
        ]
        fit_part, val_part = split_train_val(ds, 0.2, 1)
        accs = [
            R.twiesn_accuracy(R.twiesn_train_single(c, fit_part), val_part)
            for c in grid
        ]
        model = R.twiesn_fit(ds, grid)
        chosen = grid[int(np.argmax(accs))]
        assert model.config == chosen

    def test_scrambled_grid_matches_per_config_reference(self):
        ds = sign_of_mean_dataset(n=40, T=12, seed=3, margin=0.1)
        ordered = [
            R.ReservoirConfig(size, sparsity, rho, 1.0, lam, seed=2)
            for size in (8, 16)
            for sparsity in (0.5, 0.8)
            for rho in (0.25, 0.9)
            for lam in (0.01, 10.0)
        ]
        # sizes, radii and penalties interleaved
        grid = [ordered[i] for i in np.random.default_rng(0).permutation(len(ordered))]
        fit_part, val_part = split_train_val(ds, 0.2, 2)
        accs = [
            R.twiesn_accuracy(R.twiesn_train_single(c, fit_part), val_part) for c in grid
        ]
        best = accs.index(max(accs))
        assert accs.count(max(accs)) > 1 and best > 0 and min(accs) < max(accs)
        assert R._grid_accuracies(grid, fit_part, val_part) == accs
        model = R.twiesn_fit(ds, grid)
        reference = R.twiesn_train_single(grid[best], ds)
        assert model.config == reference.config
        for name in ("W_in", "W", "W_out"):
            assert getattr(model, name).tobytes() == getattr(reference, name).tobytes()

    def test_default_grid_draws_and_passes_once_per_group(self, monkeypatch):
        calls = {"spectral_radius": 0, "reservoir_states_batch": 0}
        for name in calls:
            original = getattr(R, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(R, name, counted)
        R.twiesn_fit(sign_of_mean_dataset(n=20, T=8), R.default_grid(0))
        # 12 draws + the refit; 48 (draw, radius) groups x (fit, val) + the refit
        assert calls == {"spectral_radius": 13, "reservoir_states_batch": 97}

    def test_serialization_round_trip(self, tmp_path):
        ds = sign_of_mean_dataset(n=10)
        config = R.ReservoirConfig(size=12, sparsity=0.5, spectral_radius=0.9,
                                   ridge_lambda=0.01, seed=8)
        model = R.twiesn_train_single(config, ds)
        R.save_twiesn(model, tmp_path / "m.model")
        loaded = R.load_twiesn(tmp_path / "m.model")
        assert loaded.config == model.config
        assert np.array_equal(loaded.W_in, model.W_in)
        assert np.array_equal(loaded.W, model.W)
        assert np.array_equal(loaded.W_out, model.W_out)
        assert np.array_equal(
            R.twiesn_predict_dataset(loaded, ds), R.twiesn_predict_dataset(model, ds)
        )

    def test_default_grid_shape(self):
        grid = R.default_grid(3)
        assert len(grid) == 4 * 3 * 4 * 3
        assert grid[0].seed == 3
        assert {c.size for c in grid} == {32, 64, 128, 256}

    @pytest.mark.parametrize("change", ["truncate", "extend"])
    def test_blob_size_mismatch_is_rejected(self, tmp_path, change):
        ds = sign_of_mean_dataset(n=10)
        config = R.ReservoirConfig(size=12, sparsity=0.5, spectral_radius=0.9, seed=8)
        R.save_twiesn(R.twiesn_train_single(config, ds), tmp_path / "m.model")
        blob = tmp_path / "m.model.bin"
        raw = blob.read_bytes()
        expected = 8 * (12 * 1 + 12 * 12 + 2 * (1 + 1 + 12))
        assert len(raw) == expected
        raw = raw[:-8] if change == "truncate" else raw + bytes(64)
        blob.write_bytes(raw)
        with pytest.raises(BlobSizeError, match=f"{len(raw)} bytes.*need {expected}"):
            R.load_twiesn(tmp_path / "m.model")
