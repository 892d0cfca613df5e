"""``cli.train_single_run``: the test split is checked before any fit, and
every net trains through one loop over its candidates."""

import numpy as np
import pytest

from conftest import random_batch, save_mts_long, toy_dataset
from tsclab import cli
from tsclab import models as M
from tsclab import optim as O
from tsclab import reservoir as R


def write_ucr(path, T, n=8):
    """``n`` two-class UCR rows of width ``T``; labels alternate 1, 2."""
    rows = []
    for i in range(n):
        values = random_batch((T,), seed=i) * 0.3 + (1.0 if i % 2 else -1.0)
        rows.append(",".join([str(i % 2 + 1)] + [repr(float(v)) for v in values]))
    path.write_text("\n".join(rows) + "\n")
    return path


def ucr_pair(tmp_path, train_T, test_T):
    return (write_ucr(tmp_path / "Mix_TRAIN.txt", train_T),
            write_ucr(tmp_path / "Mix_TEST.txt", test_T))


def long_pair(tmp_path, train_dims, test_dims):
    paths = tmp_path / "Dims_TRAIN.csv", tmp_path / "Dims_TEST.csv"
    for path, dims in zip(paths, (train_dims, test_dims)):
        save_mts_long(toy_dataset(n=6, T=8, M=dims), path)
    return paths


def train(arch, paths, out, epochs=1):
    return cli.main(["train", "--arch", arch, "--train", str(paths[0]),
                     "--test", str(paths[1]), "--runs", "1", "--epochs", str(epochs),
                     "--out", str(out)])


@pytest.fixture
def fits(monkeypatch):
    """Every call of ``O.train`` and ``R.twiesn_fit``, by name."""
    calls = []
    for module, name in ((O, "train"), (R, "twiesn_fit")):
        real = getattr(module, name)

        def spy(*args, real=real, name=name, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, spy)
    return calls


@pytest.fixture
def small_twiesn_grid(monkeypatch):
    monkeypatch.setattr(R, "default_grid", lambda seed=0: [
        R.ReservoirConfig(16, 0.5, 0.5, 1.0, lam, seed) for lam in (0.01, 0.1)])


class TestTestSplitIsCheckedBeforeAnyFit:
    @pytest.mark.parametrize("arch", ["fcn", "mlp", "resnet", "mcdcnn", "timecnn"])
    def test_whole_series_net_refuses_another_length(self, tmp_path, capsys, fits, arch):
        assert train(arch, ucr_pair(tmp_path, 16, 20), tmp_path / "out", epochs=3) == 2
        err = capsys.readouterr().err
        assert f"data error: {arch} takes whole series: test length 20, train 16" in err
        assert fits == []

    @pytest.mark.parametrize("arch", ["mlp", "twiesn"])
    def test_other_dims_are_refused(self, tmp_path, capsys, fits, arch):
        assert train(arch, long_pair(tmp_path, 3, 2), tmp_path / "out") == 2
        assert f"data error: {arch}: test dims 2, train dims 3" in capsys.readouterr().err
        assert fits == []

    @pytest.mark.parametrize("arch, slice_length", [("tlenet", 8), ("mcnn", 15)])
    def test_sliced_net_refuses_series_below_its_slice(self, tmp_path, capsys, fits,
                                                       arch, slice_length):
        assert train(arch, ucr_pair(tmp_path, 16, 3), tmp_path / "out") == 2
        assert (f"data error: {arch}: test length 3 is below its slice length {slice_length}"
                in capsys.readouterr().err)
        assert fits == []

    @pytest.mark.parametrize("arch", ["tlenet", "twiesn"])
    def test_longer_test_series_still_train(self, tmp_path, fits, small_twiesn_grid, arch):
        assert train(arch, ucr_pair(tmp_path, 16, 20), tmp_path / "out") == 0
        assert fits == ["twiesn_fit" if arch == "twiesn" else "train"]


@pytest.mark.parametrize("arch", M.ARCHITECTURES)
def test_every_net_trains_through_the_one_loop(fits, arch):
    train_ds, test_ds = toy_dataset(n=8, T=36), toy_dataset(n=4, T=36, seed=1)
    model, acc, loss = cli.train_single_run(arch, train_ds, test_ds, 0, {"epochs": 1})
    slicing = model.spec.slicing
    assert (slicing and slicing.warp_factors) == M.SLICE_WARPS.get(arch)
    assert bool(model.spec.options) == (arch == "mcnn")
    assert fits == ["train"] * (len(M.mcnn_grid(model.spec.input_length))
                                if arch == "mcnn" else 1)
    assert 0.0 <= acc <= 1.0 and np.isfinite(loss)


def test_default_config_takes_exactly_the_trained_nets():
    def accepted(arch):
        try:
            O.default_config(arch)
        except ValueError:
            return False
        return True

    assert [a for a in (*M.ARCHITECTURES, "twiesn", "nope") if accepted(a)] == list(
        M.ARCHITECTURES)

