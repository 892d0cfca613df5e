import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import separable_dataset, toy_dataset
from tsclab import explain as E
from tsclab import layers as L
from tsclab import models as M
from tsclab import optim as O
from tsclab import stats as S
from tsclab.data import TimeSeriesDataset, one_hot, split_train_val
from tsclab.bundle import unpack
from tsclab.errors import ShapeError, TrainingDivergenceError
from tsclab.tensor import STREAM_CHUNK, SplitMix64, glorot_uniform


class TestOptimizers:
    def test_sgd_scalar_step(self):
        theta = np.array([1.0])
        O.make_optimizer("sgd").step(theta, np.array([2.0]), 0.1)
        assert np.allclose(theta, 0.8)

    def test_adam_first_step_is_signed_learning_rate(self):
        # bias correction makes m_hat/sqrt(v_hat) ~ sign(g) on step one
        theta = np.array([0.0, 0.0])
        g = np.array([3.7, -0.004])
        O.make_optimizer("adam").step(theta, g, 0.01)
        assert np.max(np.abs(theta + 0.01 * np.sign(g))) < 1e-5

    def test_adadelta_zero_gradient_is_noop(self):
        theta = np.array([1.5, -2.0])
        O.make_optimizer("adadelta").step(theta, np.zeros(2), 1.0)
        assert np.array_equal(theta, [1.5, -2.0])

    @pytest.mark.parametrize("kind,lr", [("sgd", 0.5), ("adam", 0.5), ("adadelta", 1.0)])
    def test_zero_gradient_leaves_a_running_statistic_bit_for_bit(self, kind, lr):
        # a running statistic's slot keeps a zero gradient: every rule leaves it as it is
        stats = np.array([5.0, -0.0, 0.0, 1e-300, -3e300, 0.1])
        theta = np.concatenate([stats, [1.0, -2.0]])
        opt = O.make_optimizer(kind)
        for _ in range(5):
            opt.step(theta, np.concatenate([np.zeros(6), [1.0, 0.5]]), lr)
        assert theta[:6].tobytes() == stats.tobytes()
        assert not np.array_equal(theta[6:], [1.0, -2.0])
        for m in opt.state:
            assert not m[:6].any()

    @pytest.mark.parametrize("kind,lr", [("sgd", 0.05), ("adam", 0.05), ("adadelta", 1.0)])
    def test_quadratic_bowl_monotone_decrease(self, kind, lr):
        theta = np.array([3.0])
        opt = O.make_optimizer(kind)
        value = theta[0] ** 2
        for _ in range(60):
            opt.step(theta, 2.0 * theta, lr)
            new_value = theta[0] ** 2
            assert new_value <= value + 1e-12
            value = new_value

    def test_gradient_length_must_match_the_vector(self):
        theta = np.zeros(6)
        opt = O.make_optimizer("adam")
        with pytest.raises(ShapeError, match=r"gradient \(1,\) does not match parameters \(6,\)"):
            opt.step(theta, np.ones(1), 0.1)
        assert not theta.any() and opt.state == ()


class ReferenceOptimizer:
    """The out-of-place textbook update rules, one full-size temporary per operation."""

    def __init__(self, kind):
        self.kind, self.state, self.t = kind, {}, 0

    def step(self, params, grads, lr):
        self.t += 1
        for name, g in grads.items():
            p = params[name]
            if self.kind == "sgd":
                params[name] = p - lr * g
            elif self.kind == "adam":
                c1 = 1.0 - O.ADAM_BETA1 ** self.t
                c2 = 1.0 - O.ADAM_BETA2 ** self.t
                m, v = self.state.get(name, (0.0, 0.0))
                m = O.ADAM_BETA1 * m + (1.0 - O.ADAM_BETA1) * g
                v = O.ADAM_BETA2 * v + (1.0 - O.ADAM_BETA2) * (g * g)
                self.state[name] = (m, v)
                params[name] = p - lr * (m / c1) / (np.sqrt(v / c2) + O.ADAM_EPS)
            else:
                rho, eps = O.ADADELTA_RHO, O.ADADELTA_EPS
                eg2, edx2 = self.state.get(name, (0.0, 0.0))
                eg2 = rho * eg2 + (1.0 - rho) * (g * g)
                dx = -np.sqrt(edx2 + eps) / np.sqrt(eg2 + eps) * g
                edx2 = rho * edx2 + (1.0 - rho) * (dx * dx)
                self.state[name] = (eg2, edx2)
                params[name] = p + lr * dx


def random_gradient(rng, shape):
    """Gradients over nine decades, with +0.0 and -0.0 sprinkled in."""
    g = rng.standard_normal(shape) * 10.0 ** rng.integers(-6, 3, size=shape)
    flat = g.reshape(-1)
    flat[rng.random(flat.size) < 0.1] = 0.0
    flat[rng.random(flat.size) < 0.1] = -0.0
    return g


@pytest.mark.parametrize("shape", [
    (1,), (O.CHUNK - 1,), (O.CHUNK,), (3 * O.CHUNK + 17,), (211, 160), (7, 41, 123),
    # a part-filled single chunk, at three sizes
    (16383,), (16384,), (49169,),
], ids=str)
@pytest.mark.parametrize("kind,lr", [("sgd", 0.01), ("adam", 0.001), ("adadelta", 1.0)])
def test_in_place_update_matches_reference_bits(kind, lr, shape):
    rng = np.random.default_rng(sum(shape))
    start = rng.standard_normal(shape)
    start.reshape(-1)[::5] = 0.0
    theta, ref = start.reshape(-1).copy(), {"0.w": start.copy()}
    opt, reference = O.make_optimizer(kind), ReferenceOptimizer(kind)
    for t in range(5):
        g = random_gradient(rng, shape)
        step_lr = lr / (1.0 + 0.3 * t)
        opt.step(theta, g.reshape(-1), step_lr)
        reference.step(ref, {"0.w": g.copy()}, step_lr)
        assert theta.tobytes() == ref["0.w"].tobytes(), f"params differ at step {t + 1}"
        moments = reference.state.get("0.w", ())
        assert len(opt.state) == len(moments)
        for a, b in zip(opt.state, moments):
            assert a.tobytes() == b.tobytes(), f"moment state differs at step {t + 1}"


@pytest.mark.parametrize("kind,lr", [("sgd", 0.01), ("adam", 0.001), ("adadelta", 1.0)])
def test_one_walk_over_a_laid_out_net_matches_the_per_name_reference(kind, lr):
    # fcn's 14 tensors, its 6 running statistics among them, span its chunks
    # unevenly; the reference steps each trained tensor on its own
    spec = M.build_fcn(64, 1, 2)
    layout = [(name, shape) for name, shape, _ in spec.layout.params]
    theta = np.concatenate([v.reshape(-1) for v in M.init_model(spec, SplitMix64(5)).values()])
    ref = {name: v.copy() for name, v in unpack(theta, layout).items()}
    grad = np.zeros_like(theta)
    grads = unpack(grad, layout)
    opt, reference = O.make_optimizer(kind), ReferenceOptimizer(kind)
    rng = np.random.default_rng(6)
    for t in range(5):
        trained = {name: random_gradient(rng, shape) for name, shape in layout
                   if M.trainable(name)}
        for name, g in trained.items():
            grads[name][...] = g
        step_lr = lr / (1.0 + 0.3 * t)
        opt.step(theta, grad, step_lr)
        reference.step(ref, trained, step_lr)
        want = np.concatenate([ref[name].reshape(-1) for name, _ in layout])
        assert theta.tobytes() == want.tobytes(), f"params differ at step {t + 1}"
        for i, moment in enumerate(opt.state):
            for name, m in unpack(moment, layout).items():
                expected = reference.state[name][i] if name in trained else np.zeros(m.shape)
                assert m.tobytes() == expected.tobytes(), f"{name} moment at step {t + 1}"


@pytest.mark.parametrize("kind,lr", [("sgd", 0.01), ("adam", 0.001), ("adadelta", 1.0)])
def test_update_bits_do_not_depend_on_the_chunk(monkeypatch, kind, lr):
    # 2,517 values walk as two whole chunks of 1,000 and a ragged one of 517
    monkeypatch.setattr(O, "CHUNK", 1000)
    test_in_place_update_matches_reference_bits(kind, lr, (2517,))


class TestLrSchedule:
    def test_constant_without_decay_or_plateau(self):
        sched = O.LrSchedule(0.01)
        for _ in range(1000):
            sched.after_step()
        sched.after_epoch(1.0)
        assert sched.current() == 0.01

    def test_time_decay_halves_at_u_200(self):
        sched = O.LrSchedule(0.01, decay=0.005)
        for _ in range(200):
            sched.after_step()
        assert abs(sched.current() - 0.005) < 1e-15

    def test_plateau_halving_and_floor(self):
        sched = O.LrSchedule(0.001, plateau=True)
        sched.after_epoch(1.0)  # first epoch sets the best
        values = []
        for _ in range(300):
            sched.after_epoch(1.0)  # never improves
            values.append(sched.current())
        assert values[48] == 0.001       # epoch 49 non-improving: unchanged
        assert values[49] == 0.0005      # 50th consecutive miss halves
        assert values[99] == 0.00025
        assert values[149] == 0.000125
        assert values[199] == 0.0001     # floored
        assert values[-1] == 0.0001

    def test_improvement_resets_the_counter(self):
        sched = O.LrSchedule(0.001, plateau=True)
        loss = 1.0
        sched.after_epoch(loss)
        for _ in range(49):
            sched.after_epoch(loss)
        sched.after_epoch(0.5)  # improvement just before the 50th miss
        for _ in range(49):
            sched.after_epoch(0.5)
        assert sched.current() == 0.001


class TestDefaults:
    def test_published_table_values(self):
        expected = {
            "mlp": ("adadelta", "cross_entropy", 5000, 16, 1.0, 0.0, True),
            "fcn": ("adam", "cross_entropy", 2000, 16, 0.001, 0.0, True),
            "resnet": ("adam", "cross_entropy", 1500, 16, 0.001, 0.0, True),
            "encoder": ("adam", "cross_entropy", 100, 12, 1e-5, 0.0, False),
            "mcnn": ("adam", "cross_entropy", 200, 256, 0.1, 0.0, False),
            "tlenet": ("adam", "cross_entropy", 1000, 256, 0.01, 0.005, False),
            "mcdcnn": ("sgd", "cross_entropy", 120, 16, 0.01, 0.0005, False),
            "timecnn": ("adam", "mse", 2000, 16, 0.001, 0.0, False),
        }
        for arch, row in expected.items():
            cfg = O.default_config(arch)
            assert cfg.optimizer == row[0], arch
            options = {"filter_length": 3, "pool_factor": 2} if arch == "mcnn" else {}
            spec = M.build_model(arch, 64, 1, 2, **options)
            assert spec.loss == row[1], arch
            assert cfg.epochs == row[2], arch
            assert cfg.batch_size == row[3], arch
            assert cfg.learning_rate == row[4], arch
            assert cfg.decay == row[5], arch
            assert cfg.plateau is row[6], arch
            assert (cfg.split_fraction > 0) == (arch in ("mcnn", "mcdcnn")), arch
        assert O.default_config("mcnn").split_fraction == 0.2
        assert O.default_config("mcdcnn").split_fraction == 0.33

    def test_plateau_defaults(self):
        assert O.default_config("fcn").plateau is True
        assert (O.PLATEAU_FACTOR, O.PLATEAU_PATIENCE, O.PLATEAU_MIN_LR) == (0.5, 50, 1e-4)

    def test_numeric_constants(self):
        """The README "Constants" table, value by value."""
        assert (L.EPS_NORM, L.BN_MOMENTUM, L.EPS_LOG) == (1e-5, 0.9, 1e-12)
        # the norm kernels read the two constants: eps moves every normalized
        # output, the momentum only the running statistics
        x = np.arange(12.0).reshape(2, 3, 2)
        norm_params = np.ones(2), np.zeros(2), np.zeros(2), np.ones(2)

        def norm_outputs():
            y, _, new_mean, new_var = L.batch_norm_forward(x, *norm_params, "train")
            return (y, new_mean, new_var, L.batch_norm_forward(x, *norm_params, "infer")[0],
                    L.instance_norm_forward(x, *norm_params[:2])[0])

        base = norm_outputs()
        for name, value, moved in (("EPS_NORM", 1.0, {0, 3, 4}), ("BN_MOMENTUM", 0.5, {1, 2})):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(L, name, value)
                got = norm_outputs()
            assert {i for i, (g, b) in enumerate(zip(got, base))
                    if not np.array_equal(g, b)} == moved, name
        assert M.BatchNorm().shapes((6, 3)) == (((3,), 1.0), ((3,), 0.0),
                                                ((3,), 0.0), ((3,), 1.0))
        assert M.InstanceNorm().shapes((6, 3)) == (((3,), 1.0), ((3,), 0.0))
        assert (O.ADAM_BETA1, O.ADAM_BETA2, O.ADAM_EPS) == (0.9, 0.999, 1e-8)
        assert (O.ADADELTA_RHO, O.ADADELTA_EPS) == (0.95, 1e-8)
        assert (O.PLATEAU_FACTOR, O.PLATEAU_PATIENCE, O.PLATEAU_MIN_LR) == (0.5, 50, 1e-4)
        assert (E.MDS_MAX_ITERATIONS, E.MDS_TOL, S.WILCOXON_EXACT_LIMIT) == (300, 1e-6, 20)
        assert M.PRelu().shapes((6, 3)) == (((3,), 0.25),)
        # Glorot fans are receptive-field sizes; biases start at 0
        assert M.Dense(4).shapes((3,)) == (((3, 4), (3, 4)), ((4,), 0.0))
        assert M.Conv1d(4, 5).shapes((9, 2)) == (((4, 5, 2), (10, 20)), ((4,), 0.0))
        w = glorot_uniform(3, 5, (3, 5), SplitMix64(7))
        u = SplitMix64(7).uniform(15).reshape(3, 5)
        assert np.array_equal(w, (2.0 * u - 1.0) * math.sqrt(6.0 / 8.0))
        assert (L.CONV_CHUNK, O.CHUNK, M.INFER_VALUES, STREAM_CHUNK) == (
            1 << 22, 65536, 1 << 17, 1 << 15)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            O.TrainConfig(learning_rate=0.0)
        with pytest.raises(ValueError):
            O.TrainConfig(decay=-1.0)
        with pytest.raises(ValueError):
            O.TrainConfig(batch_size=0)
        for epochs in (0, -1):
            with pytest.raises(ValueError, match="epoch count"):
                O.TrainConfig(epochs=epochs)


def small_config(epochs=5, seed=0, **kw):
    return O.TrainConfig("adam", epochs, 4, 0.005, seed=seed, **kw)


def with_held_out(ds, fraction, seed=0):
    """The fit series of a stratified split, carrying the held-out series."""
    fit, held_out = split_train_val(ds, fraction, seed)
    fit.held_out = held_out
    return fit


class TestTrain:
    def test_fixed_seed_is_bit_deterministic(self):
        ds = toy_dataset(n=8, T=16, seed=1)
        spec = M.build_fcn(16, 1, 2)
        m1, h1 = O.train(spec, ds, small_config(epochs=3, seed=9))
        m2, h2 = O.train(M.build_fcn(16, 1, 2), ds, small_config(epochs=3, seed=9))
        assert h1 == h2
        for name in m1.params:
            assert np.array_equal(m1.params[name], m2.params[name])

    def test_different_seeds_differ(self):
        ds = toy_dataset(n=8, T=16, seed=1)
        m1, _ = O.train(M.build_fcn(16, 1, 2), ds, small_config(epochs=2, seed=1))
        m2, _ = O.train(M.build_fcn(16, 1, 2), ds, small_config(epochs=2, seed=2))
        assert any(
            not np.array_equal(m1.params[n], m2.params[n]) for n in m1.params
        )

    def test_separable_toy_reaches_full_train_accuracy(self):
        ds = separable_dataset(n=20, T=16)
        spec = M.build_fcn(16, 1, 2)
        config = O.TrainConfig("adam", 100, 16, 0.001, seed=0, plateau=True)
        model, losses = O.train(spec, ds, config)
        assert M.accuracy(model, ds) == 1.0

    def test_best_epoch_is_argmin_of_history(self):
        ds = toy_dataset(n=8, T=16, seed=2)
        model, losses = O.train(M.build_fcn(16, 1, 2), ds, small_config(epochs=6))
        assert model.best_epoch == int(np.argmin(losses)) + 1

    def test_one_epoch_returns_the_state_after_it(self, monkeypatch):
        # the checkpoint starts empty: the first epoch's finite loss always fills it
        thetas, step = [], O.Optimizer.step
        monkeypatch.setattr(O.Optimizer, "step",
                            lambda opt, theta, *args: thetas.append(theta) or step(opt, theta, *args))
        spec = M.build_fcn(16, 1, 2)
        model, losses = O.train(spec, toy_dataset(n=8, T=16, seed=4), small_config(epochs=1))
        assert model.best_epoch == 1 and len(losses) == 1
        drawn = M.init_model(spec, SplitMix64(0))
        live = unpack(thetas[-1], [(name, shape) for name, shape, _ in spec.layout.params])
        assert model.params.keys() == live.keys() == drawn.keys()
        for name, value in model.params.items():
            assert not np.shares_memory(value, thetas[-1])
            assert value.tobytes() == live[name].tobytes()
        assert any(model.params[n].tobytes() != drawn[n].tobytes() for n in drawn)

    def test_checkpoint_restoration_reproduces_best_loss(self):
        # the checkpoint is the state after best_epoch epochs: a run cut
        # there ends on it, having seen the same batches and dropout masks
        ds = toy_dataset(n=10, T=16, seed=3)
        model, losses = O.train(M.build_fcn(16, 1, 2), ds, small_config(epochs=8, seed=3))
        assert model.best_epoch < 8
        cut, cut_losses = O.train(M.build_fcn(16, 1, 2), ds,
                                  small_config(epochs=model.best_epoch, seed=3))
        assert cut_losses == losses[: model.best_epoch]
        assert cut.best_epoch == model.best_epoch
        for name in model.params:
            assert cut.params[name].tobytes() == model.params[name].tobytes()

    def test_monitored_loss_is_the_size_weighted_batch_mean(self, monkeypatch):
        # 10 series at batch 4: batches of 4, 4 and 2 per epoch
        seen = []
        original = O.LOSSES["cross_entropy"]

        def spy(pred, target):
            loss, grad = original(pred, target)
            seen.append((loss, pred.shape[0]))
            return loss, grad

        monkeypatch.setitem(O.LOSSES, "cross_entropy", spy)
        ds = toy_dataset(n=10, T=16, seed=3)
        _, losses = O.train(M.build_fcn(16, 1, 2), ds, small_config(epochs=3, seed=2))
        assert [size for _, size in seen] == [4, 4, 2] * 3
        for epoch, recorded in enumerate(losses):
            total = 0.0
            for loss, size in seen[3 * epoch : 3 * epoch + 3]:
                total += loss * size
            assert recorded == total / 10

    @pytest.mark.parametrize("validation, passes", [("train", 0), ("split", 4)])
    def test_evaluation_pass_runs_only_for_split_validation(self, monkeypatch,
                                                            validation, passes):
        calls = []
        original = O.evaluate_loss

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(O, "evaluate_loss", counted)
        ds = toy_dataset(n=12, T=16, seed=5)
        if validation == "split":
            ds = with_held_out(ds, 0.25)
        O.train(M.build_fcn(16, 1, 2), ds, small_config(epochs=4))
        assert len(calls) == passes

    def test_checkpoint_with_validation_split(self):
        ds = with_held_out(toy_dataset(n=12, T=16, seed=5), 0.25)
        model, losses = O.train(M.build_fcn(16, 1, 2), ds, small_config(epochs=6))
        reproduced = O.evaluate_loss(model.spec, model.params, ds.held_out)
        assert abs(reproduced - min(losses)) < 1e-9

    def test_empty_split_rejected(self):
        X = np.zeros((2, 16, 1))
        ds = TimeSeriesDataset(X, one_hot([0, 1], (0, 1)), (0, 1))
        with pytest.warns(UserWarning):
            ds = with_held_out(ds, 0.5)
        assert ds.held_out.n == 0
        with pytest.raises(ValueError, match="held-out validation set is empty"):
            O.train(M.build_fcn(16, 1, 2), ds, small_config())

    def test_geometry_mismatch_rejected(self):
        for ds, have in ((toy_dataset(n=4, T=20, seed=6), "T=20, M=1, K=2"),
                         (toy_dataset(n=6, T=16, K=3, seed=6), "T=16, M=1, K=3")):
            with pytest.raises(ShapeError, match=fr"\({have}\) does not match model "
                                                 r"\(T=16, M=1, K=2\)"):
                O.train(M.build_fcn(16, 1, 2), ds, small_config())

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_reference_loss_raises(self, monkeypatch, bad):
        # the batch loss is poisoned, its gradient left finite
        original = O.LOSSES["cross_entropy"]
        monkeypatch.setitem(O.LOSSES, "cross_entropy",
                            lambda pred, target: (bad, original(pred, target)[1]))
        ds = toy_dataset(n=8, T=16, seed=1)
        with pytest.raises(TrainingDivergenceError, match=f"became {bad!r} at epoch 1"):
            O.train(M.build_fcn(16, 1, 2), ds, small_config(epochs=2))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_split_reference_loss_raises(self, monkeypatch, bad):
        monkeypatch.setattr(O, "evaluate_loss", lambda *args: bad)
        ds = with_held_out(toy_dataset(n=12, T=16, seed=5), 0.25)
        with pytest.raises(TrainingDivergenceError, match=f"became {bad!r} at epoch 1"):
            O.train(M.build_mcdcnn(16, 1, 2), ds, small_config(epochs=2))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("kind", ["sgd", "adam", "adadelta"])
    def test_refused_step_names_the_parameter_and_moves_nothing(self, monkeypatch, kind, bad):
        # the third step's gradient is poisoned in one value of one parameter
        stepped, step, backward = [], O.Optimizer.step, O.backward_batch

        def recorded_step(opt, theta, grad, lr):
            step(opt, theta, grad, lr)
            stepped.append((opt, theta, theta.copy(), [m.copy() for m in opt.state]))

        def poisoned_backward(spec, caches, gy, grads):
            gx = backward(spec, caches, gy, grads)
            if len(stepped) == 2:
                grads["3.w"][1, 2, 0] = bad
            return gx

        monkeypatch.setattr(O.Optimizer, "step", recorded_step)
        monkeypatch.setattr(O, "backward_batch", poisoned_backward)
        spec, config = M.build_fcn(16, 1, 2), O.TrainConfig(kind, 2, 4, 0.01, seed=1)
        with pytest.raises(TrainingDivergenceError,
                           match="non-finite gradient in layer parameter '3.w'"):
            O.train(spec, toy_dataset(n=12, T=16, seed=2), config)
        assert len(stepped) == 2
        opt, theta, after, moments = stepped[-1]
        # the third forward has moved the running statistics; the step moved nothing
        layout = [(name, shape) for name, shape, _ in spec.layout.params]
        now, then = unpack(theta, layout), unpack(after, layout)
        for name in filter(M.trainable, now):
            assert now[name].tobytes() == then[name].tobytes(), name
        assert len(opt.state) == len(moments) == opt.moments
        for m, before in zip(opt.state, moments):
            assert m.tobytes() == before.tobytes()

    def test_running_statistics_are_what_batch_norm_returned(self, monkeypatch):
        # one train step: the statistics land in their slots of the one vector,
        # and their gradient and moment slots stay zero
        returned, forward = [], L.batch_norm_forward
        opts, step = [], O.Optimizer.step

        def spy(x, *args):
            out = forward(x, *args)
            if args[-1] == "train":
                returned.append(out[2:])
            return out

        def recorded_step(opt, theta, grad, lr):
            opts.append((opt, grad))
            step(opt, theta, grad, lr)

        monkeypatch.setattr(L, "batch_norm_forward", spy)
        monkeypatch.setattr(O.Optimizer, "step", recorded_step)
        spec = M.build_fcn(16, 1, 2)
        model, _ = O.train(spec, toy_dataset(n=4, T=16, seed=3), small_config(epochs=1))
        assert len(opts) == 1 and len(returned) == 3  # one step, three batch norms
        layout = [(name, shape) for name, shape, _ in spec.layout.params]
        assert {id(v.base) for v in model.params.values()} == {id(model.params["0.w"].base)}
        for prefix, (mean, var) in zip(("1", "4", "7"), returned):
            assert model.params[f"{prefix}.running_mean"].tobytes() == mean.tobytes()
            assert model.params[f"{prefix}.running_var"].tobytes() == var.tobytes()
        (opt, grad), = opts
        for vector in (grad, *opt.state):
            for name, v in unpack(vector, layout).items():
                assert v.any() == M.trainable(name), name

    def test_epoch_log_lines(self):
        ds = toy_dataset(n=6, T=16, seed=7)
        lines = []
        O.train(M.build_fcn(16, 1, 2), ds, small_config(epochs=3), log_fn=lines.append)
        assert len(lines) == 3
        for i, line in enumerate(lines, start=1):
            epoch, loss, lr = line.split(",")
            assert int(epoch) == i
            assert math.isfinite(float(loss)) and float(lr) > 0

    def test_partial_final_batch_is_trained(self):
        # 5 samples, batch 4: one full batch plus a partial one per epoch
        ds = toy_dataset(n=5, T=16, seed=8)
        model, losses = O.train(M.build_fcn(16, 1, 2), ds, small_config(epochs=2))
        assert len(losses) == 2  # smoke: no error on ragged batching

    def test_history_lr_trace_records_decay(self):
        ds = toy_dataset(n=4, T=16, seed=9)
        config = O.TrainConfig("adam", 3, 2, 0.01, decay=0.5, seed=0)
        lines = []
        O.train(M.build_fcn(16, 1, 2), ds, config, log_fn=lines.append)
        rates = [float(line.split(",")[2]) for line in lines]
        assert rates[0] > rates[-1]


@given(st.floats(0.01, 0.2), st.integers(0, 10 ** 6))
@settings(max_examples=20)
def test_sgd_bowl_descent_property(lr, seed):
    w = float(seed % 7) - 3.0
    theta = np.array([w])
    opt = O.make_optimizer("sgd")
    prev = theta[0] ** 2
    for _ in range(25):
        opt.step(theta, 2.0 * theta, lr)
        cur = theta[0] ** 2
        assert cur <= prev + 1e-12
        prev = cur
