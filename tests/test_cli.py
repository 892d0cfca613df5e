import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import poison_blob, random_batch, save_mts_long, toy_dataset
from tsclab import cli
from tsclab import data as D
from tsclab import models as M
from tsclab import optim as O
from tsclab import stats as S
from tsclab.tensor import SplitMix64


def write_ucr_pair(tmp_path, name="Synth", n=8, T=16, seed=0):
    rng_offset = 0 if seed == 0 else 1000
    lines_train, lines_test = [], []
    for i in range(n):
        label = i % 2 + 1
        base = 1.0 if label == 2 else -1.0
        for lines, s in ((lines_train, 0), (lines_test, 500)):
            values = random_batch((T,), seed=rng_offset + i + s) * 0.3 + base
            lines.append(",".join([str(label)] + [repr(float(v)) for v in values]))
    train = tmp_path / f"{name}_TRAIN.txt"
    test = tmp_path / f"{name}_TEST.txt"
    train.write_text("\n".join(lines_train) + "\n")
    test.write_text("\n".join(lines_test) + "\n")
    return train, test


def run(args):
    return cli.main([str(a) for a in args])


needs_openblas = pytest.mark.skipif(cli.blas_thread_count() is None,
                                    reason="numpy's bundled OpenBLAS is not loaded")


@pytest.mark.parametrize("command", ["train", "cam", "mds", "compare"])
def test_directory_in_place_of_a_file_exits_2_naming_it(tmp_path, capsys, command):
    _, test = write_ucr_pair(tmp_path)
    folder = tmp_path / "adir"
    folder.mkdir()
    argv = {
        "train": ["train", "--arch", "mlp", "--train", folder, "--test", folder],
        "cam": ["cam", "--model", folder, "--data", test, "--class", "0"],
        "mds": ["mds", "--model", folder, "--data", test],
        "compare": ["compare", "--results", folder],
    }[command]
    assert run(argv + ["--out", tmp_path / "out"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and err.count("\n") == 1
    assert str(folder) in err and "Traceback" not in err


def layer_nodes(node):
    """``node`` and every layer below it."""
    yield node
    for value in vars(node).values():
        for child in value if isinstance(value, list) else [value]:
            if isinstance(child, M.Node):
                yield from layer_nodes(child)


def test_one_blas_thread_set_is_the_nets_without_wide_convs():
    wide = set()
    mcnn_options = dict(zip(("filter_length", "pool_factor"), M.mcnn_grid(64)[0]))
    for arch in M.ARCHITECTURES:
        spec = M.build_model(arch, 64, 2, 3, **(mcnn_options if arch == "mcnn" else {}))
        if any(isinstance(n, M.Conv1d) and n.filters >= 64 for n in layer_nodes(spec.net)):
            wide.add(arch)
    assert wide == {"fcn", "resnet", "encoder", "mcnn"}
    assert cli.ONE_BLAS_THREAD == set(M.ARCHITECTURES) - wide


class TestTrainCommand:
    def test_repeat_run_is_bit_identical(self, tmp_path):
        train, test = write_ucr_pair(tmp_path)
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        for out in (out1, out2):
            code = run([
                "train", "--arch", "fcn", "--train", train, "--test", test,
                "--runs", "1", "--seed", "7", "--epochs", "3", "--out", out,
            ])
            assert code == 0
        blob1 = (out1 / "Synth_fcn_seed7.model.bin").read_bytes()
        blob2 = (out2 / "Synth_fcn_seed7.model.bin").read_bytes()
        assert blob1 == blob2
        rows1 = [r for r in S.load_runs(out1 / "results.csv")]
        rows2 = [r for r in S.load_runs(out2 / "results.csv")]
        assert [(r.dataset, r.architecture, r.seed, r.accuracy, r.loss) for r in rows1] == [
            (r.dataset, r.architecture, r.seed, r.accuracy, r.loss) for r in rows2
        ]

    def test_results_csv_dedup_on_rerun(self, tmp_path):
        train, test = write_ucr_pair(tmp_path)
        out = tmp_path / "out"
        for _ in range(2):
            assert run([
                "train", "--arch", "fcn", "--train", train, "--test", test,
                "--runs", "1", "--seed", "3", "--epochs", "2", "--out", out,
            ]) == 0
        assert len(S.load_runs(out / "results.csv")) == 1

    def test_unreadable_results_file_is_refused_before_training(self, tmp_path, capsys,
                                                                monkeypatch):
        train, test = write_ucr_pair(tmp_path)
        out = tmp_path / "out"
        out.mkdir()
        (out / "results.csv").write_text("bogus,header\n")

        def no_training(*args, **kwargs):
            raise AssertionError("a run trained before results.csv was read")

        monkeypatch.setattr(cli.O, "train", no_training)
        assert run(["train", "--arch", "mlp", "--train", train, "--test", test,
                    "--epochs", "2", "--runs", "2", "--out", out]) == 2
        assert "results.csv: unrecognized header" in capsys.readouterr().err
        assert not list(out.glob("*.model"))
        assert (out / "results.csv").read_text() == "bogus,header\n"

    def test_baselines_table_in_out_is_refused_and_left_unchanged(self, tmp_path, capsys):
        train, test = write_ucr_pair(tmp_path)
        out = tmp_path / "out"
        out.mkdir()
        baselines = "dataset,classifier,accuracy\nSynth,mlp,0.5\nOther,fcn,0.7\n"
        (out / "results.csv").write_text(baselines)
        assert run(["train", "--arch", "mlp", "--train", train, "--test", test,
                    "--epochs", "1", "--runs", "2", "--out", out]) == 2
        err = capsys.readouterr().err
        assert err == ("data error: results.csv: unrecognized header; expected "
                       + ",".join(S.RESULTS_HEADER) + "\n")
        assert (out / "results.csv").read_text() == baselines
        assert not list(out.glob("*.model"))

    def test_train_file_not_utf8_exits_2(self, tmp_path, capsys):
        train, test = write_ucr_pair(tmp_path)
        lines = train.read_bytes().split(b"\n")
        lines[2] = lines[2][:6] + b"\x80" + lines[2][6:]
        train.write_bytes(b"\n".join(lines))
        code = run(["train", "--arch", "mlp", "--train", train, "--test", test,
                    "--runs", "1", "--epochs", "1", "--out", tmp_path / "out"])
        assert code == 2
        assert "data error: Synth_TRAIN.txt:3: byte 0x80 is not UTF-8" in capsys.readouterr().err

    def test_long_labels_mixing_numbers_and_text_exit_2(self, tmp_path, capsys):
        rows = ["series_id,dimension,timestamp,value,label"]
        for sid, label in (("s0", "x"), ("s1", "1"), ("s2", "x"), ("s3", "1")):
            rows += [f"{sid},0,{t},{0.1 * t},{label}" for t in range(16)]
        train = tmp_path / "Mixed_TRAIN.csv"
        train.write_text("\n".join(rows) + "\n")
        code = run(["train", "--arch", "mlp", "--train", train, "--test", train,
                    "--runs", "1", "--epochs", "1", "--out", tmp_path / "out"])
        assert code == 2
        assert ("data error: Mixed_TRAIN.csv:18: labels mix numbers and text ('1' and 'x')"
                in capsys.readouterr().err)

    def test_run_seeds_are_base_plus_index(self, tmp_path):
        train, test = write_ucr_pair(tmp_path)
        out = tmp_path / "out"
        assert run([
            "train", "--arch", "mlp", "--train", train, "--test", test,
            "--runs", "2", "--seed", "5", "--epochs", "2", "--out", out,
        ]) == 0
        rows = S.load_runs(out / "results.csv")
        assert sorted(r.seed for r in rows) == [5, 6]
        assert (out / "Synth_mlp_seed5.model").exists()
        assert (out / "Synth_mlp_seed6.model").exists()

    def test_mcnn_on_too_short_series_fails_with_data_error(self, tmp_path):
        train, test = write_ucr_pair(tmp_path, T=10)
        code = run([
            "train", "--arch", "mcnn", "--train", train, "--test", test,
            "--runs", "1", "--seed", "0", "--out", tmp_path / "out",
        ])
        assert code == 2

    def test_tlenet_on_series_too_short_for_its_pools_exits_2_naming_it(self, tmp_path, capsys):
        train, test = write_ucr_pair(tmp_path, T=6)
        code = run(["train", "--arch", "tlenet", "--train", train, "--test", test,
                    "--runs", "1", "--out", tmp_path / "out"])
        assert code == 2
        assert capsys.readouterr().err == ("data error: tlenet cannot take input length 3: "
                                           "pool window 4 invalid for series length 1\n")
        assert not (tmp_path / "out").exists()

    def test_manifest_records_epochs_used(self, tmp_path):
        train, test = write_ucr_pair(tmp_path)
        out = tmp_path / "out"
        assert run([
            "train", "--arch", "fcn", "--train", train, "--test", test,
            "--runs", "1", "--seed", "0", "--epochs", "4", "--out", out,
        ]) == 0
        manifest = (out / "Synth_fcn_seed0.model").read_text()
        assert "epochs_run: 4" in manifest
        assert "architecture_id: fcn" in manifest

    def test_default_config_reaches_train_unmodified(self, tmp_path, monkeypatch):
        # the default (no-override) path hands the published config to train()
        train, test = write_ucr_pair(tmp_path)
        captured = {}
        real_train = O.train

        def spy(spec, data, config, log_fn=None):
            captured["epochs"] = config.epochs
            captured["optimizer"] = config.optimizer
            captured["lr"] = config.learning_rate
            config.epochs = 1  # keep the test fast after capture
            return real_train(spec, data, config, log_fn)

        monkeypatch.setattr(cli.O, "train", spy)
        assert run([
            "train", "--arch", "fcn", "--train", train, "--test", test,
            "--runs", "1", "--seed", "0", "--out", tmp_path / "out",
        ]) == 0
        assert captured["epochs"] == 2000  # the published default, untouched
        assert captured["optimizer"] == "adam"
        assert captured["lr"] == 0.001

    def test_mcnn_grid_search_trains_and_votes(self, tmp_path):
        train, test = write_ucr_pair(tmp_path, T=16)
        out = tmp_path / "out"
        assert run([
            "train", "--arch", "mcnn", "--train", train, "--test", test,
            "--runs", "1", "--seed", "0", "--epochs", "2", "--out", out,
        ]) == 0
        manifest = (out / "Synth_mcnn_seed0.model").read_text()
        assert "option: filter_length=" in manifest
        assert "option: pool_factor=" in manifest
        assert "slicing: fraction=0.9" in manifest
        model = M.load_model(out / "Synth_mcnn_seed0.model")
        assert model.spec.slicing is not None

    def test_mcnn_held_out_series_never_feed_its_fit_pool(self, tmp_path, monkeypatch):
        # one series' slices overlap, so a series in both pools leaks into validation
        train, test = write_ucr_pair(tmp_path, n=10, T=16)
        series = [np.array([float(v) for v in line.split(",")[1:]])
                  for line in train.read_text().splitlines()]
        fit_pools, val_pools = [], []
        real_train, real_evaluate = O.train, O.evaluate_loss

        def spy_train(spec, data, config, log_fn=None):
            fit_pools.append(data.X[:, :, 0])
            return real_train(spec, data, config, log_fn)

        def spy_evaluate(spec, params, dataset, *args, **kwargs):
            val_pools.append(dataset.X[:, :, 0])
            return real_evaluate(spec, params, dataset, *args, **kwargs)

        monkeypatch.setattr(cli.O, "train", spy_train)
        monkeypatch.setattr(O, "evaluate_loss", spy_evaluate)
        assert run([
            "train", "--arch", "mcnn", "--train", train, "--test", test,
            "--runs", "1", "--seed", "0", "--epochs", "1", "--out", tmp_path / "out",
        ]) == 0

        def parents(pools):
            windows = lambda row, L: [row[s : s + L] for s in range(row.size - L + 1)]
            return {i for pool in pools for x in pool for i, row in enumerate(series)
                    if any(np.array_equal(w, x) for w in windows(row, x.size))}

        fit, val = parents(fit_pools), parents(val_pools)
        assert fit and val and not fit & val
        assert fit | val == set(range(len(series)))

    def test_tlenet_warped_pool_and_vote(self, tmp_path):
        train, test = write_ucr_pair(tmp_path, T=20)
        out = tmp_path / "out"
        assert run([
            "train", "--arch", "tlenet", "--train", train, "--test", test,
            "--runs", "1", "--seed", "0", "--epochs", "2", "--out", out,
        ]) == 0
        model = M.load_model(out / "Synth_tlenet_seed0.model")
        # slices are cut from the half-length warped variant: ceil(0.9 * 10)
        assert model.spec.input_length == 9
        assert model.spec.slicing.warp_factors == (1.0, 2.0, 0.5)

    def test_parallel_jobs_match_serial(self, tmp_path):
        train, test = write_ucr_pair(tmp_path)
        serial, parallel = tmp_path / "s", tmp_path / "p"
        for out, jobs in ((serial, 1), (parallel, 2)):
            assert run([
                "train", "--arch", "mlp", "--train", train, "--test", test,
                "--runs", "2", "--seed", "0", "--epochs", "2", "--out", out,
                "--jobs", jobs,
            ]) == 0
        for seed in (0, 1):
            name = f"Synth_mlp_seed{seed}.model.bin"
            assert (serial / name).read_bytes() == (parallel / name).read_bytes()

    @pytest.mark.parametrize("arch", ["tlenet", "mcdcnn", "timecnn"])
    def test_narrow_nets_match_across_jobs(self, tmp_path, arch):
        train, test = write_ucr_pair(tmp_path, T=40)
        for jobs in (1, 2):
            assert run([
                "train", "--arch", arch, "--train", train, "--test", test,
                "--runs", "2", "--seed", "0", "--epochs", "2", "--out", tmp_path / f"j{jobs}",
                "--jobs", jobs,
            ]) == 0
        for seed in (0, 1):
            name = f"Synth_{arch}_seed{seed}.model.bin"
            assert (tmp_path / "j1" / name).read_bytes() == (tmp_path / "j2" / name).read_bytes()

    @needs_openblas
    def test_pinned_blob_ignores_the_starting_thread_count(self, tmp_path):
        # (16 x 300) @ (300 x 500) is large enough for OpenBLAS to split over
        # two threads, and it rounds differently when it does
        train, test = write_ucr_pair(tmp_path, n=16, T=300)
        for threads in (1, 2):
            config = cli.ExperimentConfig(
                str(train), str(test), "mlp", runs=1, out_dir=str(tmp_path / f"t{threads}"),
                overrides={"epochs": 2, "batch_size": 16})
            with cli.blas_threads(threads):
                cli.run_experiment(config)
                assert cli.blas_thread_count() == threads
        name = "Synth_mlp_seed0.model.bin"
        assert (tmp_path / "t1" / name).read_bytes() == (tmp_path / "t2" / name).read_bytes()

    @needs_openblas
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_thread_count_restored_when_a_run_raises(self, tmp_path, monkeypatch, jobs):
        train, test = write_ucr_pair(tmp_path)
        seen = set()

        def failing_run(arch, *args):
            seen.add((arch, cli.blas_thread_count()))
            raise RuntimeError("run failed")

        monkeypatch.setattr(cli, "train_single_run", failing_run)
        with cli.blas_threads(2):
            for arch in ("mlp", "fcn"):
                with pytest.raises(RuntimeError, match="run failed"):
                    cli.run_experiment(cli.ExperimentConfig(
                        str(train), str(test), arch, runs=2, out_dir=str(tmp_path), jobs=jobs))
                assert cli.blas_thread_count() == 2
        assert seen == {("mlp", 1), ("fcn", 2)}

    def test_epoch_log_file(self, tmp_path):
        train, test = write_ucr_pair(tmp_path)
        out = tmp_path / "out"
        assert run([
            "train", "--arch", "mlp", "--train", train, "--test", test,
            "--runs", "1", "--seed", "4", "--epochs", "3", "--out", out, "--log",
        ]) == 0
        lines = (out / "Synth_mlp_seed4.log").read_text().strip().splitlines()
        assert len(lines) == 3
        assert lines[0].startswith("1,")

    def test_missing_file_is_data_error(self, tmp_path):
        code = run([
            "train", "--arch", "fcn", "--train", tmp_path / "nope.txt",
            "--test", tmp_path / "nope.txt", "--out", tmp_path,
        ])
        assert code == 2

    def test_infinite_gradient_exits_3_naming_the_parameter(self, tmp_path, monkeypatch, capsys):
        train, test = write_ucr_pair(tmp_path)
        original = O.backward_batch
        poisoned = []

        def backward_with_inf(spec, caches, gy, grads):
            gx = original(spec, caches, gy, grads)
            name = next(k for k in grads if M.trainable(k))
            poisoned.append(name)
            grads[name] += np.inf
            return gx

        monkeypatch.setattr(O, "backward_batch", backward_with_inf)
        code = run([
            "train", "--arch", "mlp", "--train", train, "--test", test,
            "--runs", "1", "--epochs", "1", "--out", tmp_path / "out",
        ])
        assert code == 3
        assert f"non-finite gradient in layer parameter {poisoned[0]!r}" in capsys.readouterr().err

    def test_infinite_reference_loss_exits_3(self, tmp_path, monkeypatch, capsys):
        # mlp monitors its train-mode batch losses: poison those
        train, test = write_ucr_pair(tmp_path)
        original = O.LOSSES["cross_entropy"]
        monkeypatch.setitem(O.LOSSES, "cross_entropy",
                            lambda pred, target: (np.inf, original(pred, target)[1]))
        code = run([
            "train", "--arch", "mlp", "--train", train, "--test", test,
            "--runs", "1", "--epochs", "1", "--out", tmp_path / "out",
        ])
        assert code == 3
        assert "reference loss became inf at epoch 1" in capsys.readouterr().err

    def test_infinite_split_reference_loss_exits_3(self, tmp_path, monkeypatch, capsys):
        # mcdcnn monitors the infer-mode loss of its held-out split
        train, test = write_ucr_pair(tmp_path)
        monkeypatch.setattr(O, "evaluate_loss", lambda *args: np.inf)
        code = run([
            "train", "--arch", "mcdcnn", "--train", train, "--test", test,
            "--runs", "1", "--epochs", "1", "--out", tmp_path / "out",
        ])
        assert code == 3
        assert "reference loss became inf at epoch 1" in capsys.readouterr().err

    def test_overrides_pass_the_config_checks(self, tmp_path):
        from tsclab import data as D
        train_ds, test_ds = D.load_pair(*write_ucr_pair(tmp_path, n=4))
        with pytest.raises(ValueError, match="epoch count must be >= 1, got 0"):
            cli.train_single_run("fcn", train_ds, test_ds, 0, {"epochs": 0})

    def test_usage_error_exit_code(self, tmp_path, capsys):
        assert run(["train", "--arch", "bogus"]) == 1
        # numeric flags out of range are refused as parsed: no file is read
        # (the missing train file would exit 2) and no output is written
        train = ["train", "--arch", "fcn", "--train", tmp_path / "none_TRAIN.txt",
                 "--test", tmp_path / "none_TEST.txt", "--out", tmp_path / "out"]
        compare = ["compare", "--results", tmp_path / "none.csv", "--out", tmp_path / "out/cd.svg"]
        capsys.readouterr()
        for argv in ([*train, "--epochs", "0"], [*train, "--epochs", "-2"],
                     [*train, "--batch", "0"], [*train, "--lr", "0"], [*train, "--lr", "-0.1"],
                     [*train, "--runs", "0"], [*train, "--jobs", "0"],
                     [*compare, "--alpha", "1.5"], [*compare, "--alpha", "0"],
                     [*compare, "--alpha", "1"]):
            assert run(argv) == 1, argv
            err = capsys.readouterr().err
            assert err.startswith("usage error: argument") and err.count("\n") == 1, argv
            assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("arch", ["fcn", "twiesn"])
    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_cell_exits_2_naming_file_and_line(self, tmp_path, capsys, arch, cell):
        train, test = write_ucr_pair(tmp_path)
        lines = train.read_text().splitlines()
        fields = lines[3].split(",")
        fields[5] = cell
        lines[3] = ",".join(fields)
        train.write_text("\n".join(lines) + "\n")
        code = run(["train", "--arch", arch, "--train", train, "--test", test,
                    "--runs", "1", "--out", tmp_path / "out"])
        assert code == 2
        assert (f"data error: Synth_TRAIN.txt:4: field 6 is {cell}, not a finite number"
                in capsys.readouterr().err)
        assert not (tmp_path / "out").exists()

    def test_twiesn_end_to_end(self, tmp_path):
        train, test = write_ucr_pair(tmp_path, n=10)
        out = tmp_path / "out"
        # shrink the search grid; the full 144-point default is needlessly slow here
        from tsclab import reservoir as R
        original = R.default_grid
        R.default_grid = lambda seed=0: [
            R.ReservoirConfig(16, 0.5, 0.5, 1.0, lam, seed) for lam in (0.01, 0.1)
        ]
        try:
            assert run([
                "train", "--arch", "twiesn", "--train", train, "--test", test,
                "--runs", "1", "--seed", "1", "--out", out,
            ]) == 0
        finally:
            R.default_grid = original
        rows = S.load_runs(out / "results.csv")
        assert rows[0].architecture == "twiesn"
        assert (out / "Synth_twiesn_seed1.model").exists()

    def test_twiesn_run_reuses_the_refit_state_pass(self, tmp_path, monkeypatch):
        from tsclab import data as D
        from tsclab import reservoir as R
        from tsclab.layers import cross_entropy_loss
        train_ds, test_ds = D.load_pair(*write_ucr_pair(tmp_path, n=10, T=8))
        calls = []
        original = R.reservoir_states_batch

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(R, "reservoir_states_batch", counted)
        model, _, loss = cli.train_single_run("twiesn", train_ds, test_ds, 0)
        # 97 in the grid search and its refit, 1 for the test accuracy
        assert len(calls) == 98
        posterior = R.twiesn_posteriors(model, train_ds.X)
        assert loss == cross_entropy_loss(posterior, train_ds.Y)[0]

    def test_twiesn_without_validation_series_exits_2_before_a_state_pass(
            self, tmp_path, capsys, monkeypatch):
        # one series per class: the stratified 20% split holds nothing out
        from tsclab import reservoir as R
        train, test = write_ucr_pair(tmp_path, n=2)
        passes = []
        monkeypatch.setattr(R, "reservoir_states_batch", lambda *args: passes.append(args))
        with pytest.warns(UserWarning, match="single member"):
            code = run(["train", "--arch", "twiesn", "--train", train, "--test", test,
                        "--runs", "1", "--out", tmp_path / "out"])
        assert code == 2
        assert capsys.readouterr().err == ("data error: twiesn's 20% validation split is empty: "
                                           "no class has two training series\n")
        assert passes == []
        assert not (tmp_path / "out").exists()

    def test_run_refused_before_its_first_write_leaves_no_out_folder(self, tmp_path):
        # one series per class: mcdcnn's held-out split is empty
        train, test = write_ucr_pair(tmp_path, n=2)
        with pytest.warns(UserWarning, match="single member"):
            code = run(["train", "--arch", "mcdcnn", "--train", train, "--test", test,
                        "--runs", "1", "--out", tmp_path / "out"])
        assert code == 2
        assert not (tmp_path / "out").exists()

    def test_each_warning_and_the_refusal_print_one_line(self, tmp_path):
        train, test = write_ucr_pair(tmp_path, n=2)
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH"))))}
        done = subprocess.run([sys.executable, "-m", "tsclab", "train", "--arch", "mcdcnn",
                               "--train", str(train), "--test", str(test), "--runs", "1",
                               "--out", str(tmp_path / "out")],
                              env=env, capture_output=True, text=True)
        assert done.returncode == 2
        assert done.stderr == (
            "warning: class 0 has a single member; keeping it in train\n"
            "warning: class 1 has a single member; keeping it in train\n"
            "data error: the held-out validation set is empty: no class has two training series\n")

    def test_test_file_of_other_dimension_ids_exits_2_naming_both(self, tmp_path, capsys):
        # the test file's dimensions 5 and 9 must not be read as the train file's 0 and 2
        paths = []
        for part, ids in (("TRAIN", (0, 2)), ("TEST", (5, 9))):
            path = tmp_path / f"Dims_{part}.csv"
            save_mts_long(toy_dataset(n=6, T=8, M=2, seed=len(paths)), path)
            header, *rows = (line.split(",") for line in path.read_text().splitlines())
            rows = [",".join([sid, str(ids[int(dim)]), *rest]) for sid, dim, *rest in rows]
            path.write_text("\n".join([",".join(header), *rows]) + "\n")
            paths.append(path)
        out = tmp_path / "out"
        assert run(["train", "--arch", "mlp", "--train", paths[0], "--test", paths[1],
                    "--runs", "1", "--epochs", "1", "--out", out]) == 2
        assert capsys.readouterr().err == ("data error: Dims_TEST.csv: dimension ids [5, 9] "
                                           "differ from the train file's [0, 2]\n")
        assert not out.exists()


class TestCompareCommand:
    def write_results(self, tmp_path, columns, n_datasets=10):
        rng = np.random.default_rng(0)
        runs = []
        for d in range(n_datasets):
            base = rng.uniform(0.4, 0.6)
            for arch, offset in columns.items():
                runs.append(S.RunRecord(
                    f"d{d}", arch, 0, min(1.0, base + offset), 0.1, 1.0
                ))
        path = tmp_path / "results.csv"
        S.save_runs(runs, path)
        return path

    def test_two_classifiers_skips_friedman(self, tmp_path, capsys):
        path = self.write_results(tmp_path, {"a": 0.0, "b": 0.2})
        out = tmp_path / "cd.svg"
        assert run(["compare", "--results", path, "--out", out]) == 0
        text = capsys.readouterr().out
        assert "friedman: skipped" in text
        assert out.exists() and out.with_suffix(".txt").exists()

    def test_identical_columns_single_clique(self, tmp_path, capsys):
        rng = np.random.default_rng(1)
        runs = []
        for d in range(6):
            acc = rng.uniform(0.4, 0.6)
            for arch in ("a", "b", "c"):
                runs.append(S.RunRecord(f"d{d}", arch, 0, acc, 0.1, 1.0))
        path = tmp_path / "r.csv"
        S.save_runs(runs, path)
        assert run(["compare", "--results", path, "--out", tmp_path / "cd.svg"]) == 0
        text = capsys.readouterr().out
        assert "p=1" in text
        assert "{a, b, c}" in text

    def test_known_ranks_reported(self, tmp_path, capsys):
        path = self.write_results(tmp_path, {"low": 0.0, "mid": 0.1, "high": 0.2})
        assert run(["compare", "--results", path, "--out", tmp_path / "cd.svg"]) == 0
        text = capsys.readouterr().out
        assert "high: 1.0000" in text
        assert "mid: 2.0000" in text
        assert "low: 3.0000" in text

    def test_missing_cells_listed_with_exit_2(self, tmp_path, capsys):
        runs = [
            S.RunRecord("d1", "a", 0, 0.5, 0.1, 1.0),
            S.RunRecord("d1", "b", 0, 0.6, 0.1, 1.0),
            S.RunRecord("d2", "a", 0, 0.7, 0.1, 1.0),
        ]
        path = tmp_path / "r.csv"
        S.save_runs(runs, path)
        assert run(["compare", "--results", path, "--out", tmp_path / "cd.svg"]) == 2
        assert "(d2, b)" in capsys.readouterr().err

    @pytest.mark.parametrize("header, row, message", [
        (S.RESULTS_HEADER, "d1,b,0,0.6", "r.csv line 3: 4 cells, expected 6"),
        (S.RESULTS_HEADER, "d1,b,0,abc,0.1,1.0",
         "r.csv line 3, column accuracy: cannot read 'abc' as float"),
        (S.RESULTS_HEADER, "d1,b,0,-0.5,0.1,1.0",
         "r.csv line 3, column accuracy: -0.5 is not in [0, 1]"),
        (S.RESULTS_HEADER, "d1,b,0,nan,0.1,1.0",
         "r.csv line 3, column accuracy: nan is not in [0, 1]"),
        (S.BASELINE_HEADER, "Synth,x,1.5", "r.csv line 3, column accuracy: 1.5 is not in [0, 1]"),
        (S.BASELINE_HEADER, "Synth,y,0.75", "r.csv line 3: repeats the record of line 2"),
    ], ids=["too-few-cells", "non-numeric", "negative-accuracy", "nan-accuracy",
            "baseline-accuracy-above-1", "baseline-repeated"])
    def test_malformed_results_row_exits_2(self, tmp_path, capsys, header, row, message):
        path = tmp_path / "r.csv"
        first = "d1,a,0,0.5,0.1,1.0" if header == S.RESULTS_HEADER else "Synth,y,0.5"
        path.write_text(",".join(header) + f"\n{first}\n{row}\n")
        assert run(["compare", "--results", path, "--out", tmp_path / "cd.svg"]) == 2
        assert f"data error: {message}" in capsys.readouterr().err

    def test_repeated_results_record_exits_2(self, tmp_path, capsys):
        # averaged, the two rows of (A, fcn, 0) would tie fcn with resnet on A
        path = tmp_path / "r.csv"
        rows = ["A,fcn,0,0.9,0.1,1.0", "A,resnet,0,0.5,0.1,1.0", "A,fcn,0,0.1,0.1,1.0",
                "B,fcn,0,0.7,0.1,1.0", "B,resnet,0,0.6,0.1,1.0"]
        path.write_text("\n".join([",".join(S.RESULTS_HEADER), *rows]) + "\n")
        assert run(["compare", "--results", path, "--out", tmp_path / "cd.svg"]) == 2
        assert "data error: r.csv line 4: repeats the record of line 2" in capsys.readouterr().err
        assert not (tmp_path / "cd.svg").exists()

    def test_record_repeated_across_results_files_exits_2(self, tmp_path, capsys):
        # averaged, (A, fcn, 0) at 0.9 and at 0.1 would rank fcn 1.25
        r1, r2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
        header = ",".join(S.RESULTS_HEADER)
        r1.write_text(f"{header}\nA,fcn,0,0.9,0.1,1.0\nA,resnet,0,0.5,0.1,1.0\n"
                      "B,fcn,0,0.7,0.1,1.0\nB,resnet,0,0.6,0.1,1.0\n")
        r2.write_text(f"{header}\nA,fcn,0,0.1,0.1,1.0\n")
        assert run(["compare", "--results", r1, "--results", r2,
                    "--out", tmp_path / "cd.svg"]) == 2
        err = capsys.readouterr().err
        assert "data error: r2.csv line 2: repeats the record of r1.csv line 2" in err
        assert not (tmp_path / "cd.svg").exists()

    def test_results_file_not_utf8_exits_2(self, tmp_path, capsys):
        path = tmp_path / "r.csv"
        path.write_bytes(",".join(S.RESULTS_HEADER).encode() + b"\nd1,a\x80,0,0.5,0.1,1.0\n")
        assert run(["compare", "--results", path, "--out", tmp_path / "cd.svg"]) == 2
        assert "data error: r.csv:2: byte 0x80 is not UTF-8" in capsys.readouterr().err

    @pytest.mark.parametrize("group, text, message", [
        ("theme", "name,theme\nd0,ECG\n", "meta.csv line 1: no column dataset in the header"),
        ("theme", "dataset,theme,length,train_size\nd0,ECG,50,100\nd1,ECG,abc,100\n",
         "meta.csv line 3, column length: cannot read 'abc' as int"),
        ("theme", "dataset,theme,length,train_size\nd0,ECG,50\n",
         "meta.csv line 2: 3 cells, expected 4"),
        ("length", "dataset,theme\nd0,ECG\nd1,ECG\n",
         "meta.csv line 1: no column length in the header"),
        ("trainsize", "dataset,theme,length\nd0,ECG,50\nd1,ECG,60\n",
         "meta.csv line 1: no column train_size in the header"),
        ("length", "dataset,theme,length\nd0,ECG,50\nd1,ECG,\n",
         "meta.csv line 3, column length: empty for ranked dataset 'd1'"),
        ("trainsize", "dataset,train_size\nd0,\nd1,100\n",
         "meta.csv line 2, column train_size: empty for ranked dataset 'd0'"),
        ("theme", "dataset,theme\nd0,ECG\nd1,\n",
         "meta.csv line 3, column theme: empty for ranked dataset 'd1'"),
        ("theme", "dataset,theme\nd0,ECG\nd7,ECG\n", "meta.csv: no row for ranked dataset 'd1'"),
        ("theme", "dataset,theme\nd0,x\nd1,y\nd0,z\n",
         "meta.csv line 4: repeats the record of line 2"),
    ], ids=["no-dataset-column", "non-integer-length", "too-few-cells", "no-length-column",
            "no-train-size-column", "empty-length", "empty-train-size", "empty-theme",
            "dataset-without-row", "repeated-dataset"])
    def test_malformed_meta_exits_2(self, tmp_path, capsys, group, text, message):
        path = self.write_results(tmp_path, {"a": 0.0, "b": 0.2}, n_datasets=2)
        meta = tmp_path / "meta.csv"
        meta.write_text(text)
        assert run([
            "compare", "--results", path, "--out", tmp_path / "cd.svg",
            "--group", group, "--meta", meta,
        ]) == 2
        assert f"data error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "cd.svg").exists()

    def test_unranked_dataset_may_leave_its_group_cell_empty(self, tmp_path, capsys):
        path = self.write_results(tmp_path, {"a": 0.0, "b": 0.2}, n_datasets=2)
        meta = tmp_path / "meta.csv"
        meta.write_text("dataset,theme,length\nd0,ECG,50\nd1,ECG,500\nd9,ECG,\n")
        assert run([
            "compare", "--results", path, "--out", tmp_path / "cd.svg",
            "--group", "length", "--meta", meta,
        ]) == 0
        text = capsys.readouterr().out
        assert "<81 (1 dataset(s))" in text and "451-700 (1 dataset(s))" in text

    def test_external_baselines_merge(self, tmp_path):
        path = self.write_results(tmp_path, {"resnet": 0.2})
        base = tmp_path / "baselines.csv"
        base.write_text(
            "dataset,classifier,accuracy\n"
            + "\n".join(f"d{d},COTE,0.5" for d in range(10)) + "\n"
        )
        assert run([
            "compare", "--results", path, "--results", base,
            "--out", tmp_path / "cd.svg",
        ]) == 0

    def test_grouped_report(self, tmp_path, capsys):
        path = self.write_results(tmp_path, {"a": 0.0, "b": 0.2}, n_datasets=4)
        meta = tmp_path / "meta.csv"
        meta.write_text(
            "dataset,theme,length,train_size\n"
            "d0,ECG,50,100\nd1,ECG,500,100\nd2,IMAGE,50,100\nd3,IMAGE,500,100\n"
        )
        assert run([
            "compare", "--results", path, "--out", tmp_path / "cd.svg",
            "--group", "theme", "--meta", meta,
        ]) == 0
        text = capsys.readouterr().out
        assert "grouped ranks by theme:" in text
        assert "ECG" in text and "IMAGE" in text

    def test_group_without_meta_is_usage_error(self, tmp_path):
        path = self.write_results(tmp_path, {"a": 0.0, "b": 0.2})
        assert run([
            "compare", "--results", path, "--out", tmp_path / "cd.svg",
            "--group", "theme",
        ]) == 1

    def test_txt_out_is_usage_error_before_any_file_is_touched(self, tmp_path, capsys):
        # the text report goes to --out with a .txt suffix: it would overwrite the diagram
        out = tmp_path / "report" / "cd.txt"
        assert run(["compare", "--results", tmp_path / "absent.csv", "--out", out]) == 1
        assert capsys.readouterr().err == (f"usage error: --out {out} ends in .txt, the name "
                                           f"of the text report written beside the diagram\n")
        assert not (tmp_path / "report").exists()


def copy_bundle(manifest, folder, edit):
    """Copy a bundle into ``folder``, passing each manifest line through ``edit``."""
    blob = manifest.with_suffix(".model.bin")
    (folder / blob.name).write_bytes(blob.read_bytes())
    lines = [edit(line) for line in manifest.read_text().splitlines()]
    copy = folder / manifest.name
    copy.write_text("".join(line + "\n" for line in lines if line is not None))
    return copy


@pytest.fixture
def trained_fcn(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("fcnmodel")
    train, test = write_ucr_pair(tmp, n=6, T=16)
    out = tmp / "out"
    code = run([
        "train", "--arch", "fcn", "--train", train, "--test", test,
        "--runs", "1", "--seed", "2", "--epochs", "2", "--out", out,
    ])
    assert code == 0
    return out / "Synth_fcn_seed2.model", test


class TestExplainCommands:
    def test_cam_outputs_and_determinism(self, trained_fcn, tmp_path):
        manifest, test_file = trained_fcn
        out1, out2 = tmp_path / "c1", tmp_path / "c2"
        for out in (out1, out2):
            assert run([
                "cam", "--model", manifest, "--data", test_file,
                "--class", "0", "--out", out,
            ]) == 0
        svgs = sorted(p.name for p in out1.glob("cam_*.svg"))
        assert len(svgs) == 6
        for name in svgs:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    @pytest.mark.parametrize("class_index", ["5", "-1"])
    def test_cam_class_out_of_range_is_usage_error(self, trained_fcn, tmp_path, capsys,
                                                   class_index):
        manifest, test_file = trained_fcn
        out = tmp_path / "cams"
        assert run(["cam", "--model", manifest, "--data", test_file,
                    "--class", class_index, "--out", out]) == 1
        assert capsys.readouterr().err == (f"usage error: --class {class_index} is out of "
                                           "range: the model has 2 classes, 0 to 1\n")
        assert not out.exists()

    def test_cam_refuses_non_gap_model(self, tmp_path):
        train, test = write_ucr_pair(tmp_path)
        out = tmp_path / "out"
        assert run([
            "train", "--arch", "tlenet", "--train", train, "--test", test,
            "--runs", "1", "--seed", "0", "--epochs", "2", "--out", out,
        ]) == 0
        code = run([
            "cam", "--model", out / "Synth_tlenet_seed0.model", "--data", test,
            "--class", "0", "--out", tmp_path / "cams",
        ])
        assert code == 2

    @pytest.mark.parametrize("command", ["cam", "mds"])
    def test_explain_refuses_non_gap_model_before_writing(self, tmp_path, capsys, command):
        train, test = write_ucr_pair(tmp_path)
        models = tmp_path / "models"
        assert run(["train", "--arch", "mlp", "--train", train, "--test", test,
                    "--runs", "1", "--epochs", "1", "--out", models]) == 0
        capsys.readouterr()
        out = tmp_path / "o"
        argv = [command, "--model", models / "Synth_mlp_seed0.model", "--data", test,
                "--out", out]
        assert run(argv + (["--class", "0"] if command == "cam" else [])) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.endswith("\n") and "'mlp'" in err
        assert not out.exists()

    def test_cam_refuses_twiesn_manifest(self, trained_fcn, tmp_path, capsys):
        manifest, test_file = trained_fcn
        from tsclab import reservoir as R
        config = R.ReservoirConfig(8, 0.5, 0.5, seed=0)
        ds_model = R.twiesn_train_single(
            config,
            __import__("conftest").toy_dataset(n=4, T=16),
        )
        tw_path = tmp_path / "tw.model"
        R.save_twiesn(ds_model, tw_path)
        assert run([
            "cam", "--model", tw_path, "--data", test_file,
            "--class", "0", "--out", tmp_path / "o",
        ]) == 2
        err = capsys.readouterr().err
        assert "tw.model" in err and "'format'" in err and "tsclab-twiesn-v1" in err

    def test_mds_refuses_manifest_without_classes(self, trained_fcn, tmp_path, capsys):
        manifest, test_file = trained_fcn
        broken = copy_bundle(manifest, tmp_path,
                             lambda line: None if line.startswith("classes:") else line)
        assert run(["mds", "--model", broken, "--data", test_file, "--out", tmp_path / "o"]) == 2
        err = capsys.readouterr().err
        assert "data error:" in err and broken.name in err and "'classes' is missing" in err

    @pytest.mark.parametrize("edit, named", [
        (lambda line: f"{line}\noption: filter_length=3" if line.startswith("loss:") else line,
         "'filter_length'"),
        (lambda line: "loss: mse" if line.startswith("loss:") else line,
         "field 'loss' reads 'mse'; fcn uses 'cross_entropy'"),
        (lambda line: "layer: act tanh" if line == "layer: act relu" else line,
         "field 'layer' row 'act tanh' is not in the fcn the manifest builds"),
    ], ids=["option-fcn-does-not-take", "loss-fcn-does-not-use", "layer-fcn-does-not-have"])
    def test_mds_refuses_manifest_that_contradicts_its_architecture(
            self, trained_fcn, tmp_path, capsys, edit, named):
        manifest, test_file = trained_fcn
        broken = copy_bundle(manifest, tmp_path, edit)
        out = tmp_path / "o"
        assert run(["mds", "--model", broken, "--data", test_file, "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith(f"data error: {broken.name}: ")
        assert named in err
        assert not out.exists()

    def test_cam_refuses_renamed_parameter(self, trained_fcn, tmp_path, capsys):
        manifest, test_file = trained_fcn
        broken = copy_bundle(manifest, tmp_path,
                             lambda line: line.replace("param: 10.w ", "param: 10.x "))
        assert run([
            "cam", "--model", broken, "--data", test_file,
            "--class", "0", "--out", tmp_path / "o",
        ]) == 2
        err = capsys.readouterr().err
        assert "data error:" in err and broken.name in err
        assert "'param'" in err and "10.x" in err and "expected 10.w" in err

    @pytest.mark.parametrize("command", ["cam", "mds"])
    @pytest.mark.parametrize("name, index, value", [
        ("3.w", 17, float("nan")), ("10.b", 1, -float("inf"))])
    def test_explain_refuses_non_finite_blob_value(self, trained_fcn, tmp_path, capsys,
                                                   command, name, index, value):
        manifest, test_file = trained_fcn
        broken = copy_bundle(manifest, tmp_path, lambda line: line)
        poison_blob(broken, M.load_model(manifest).params, name, index, value)
        out = tmp_path / "o"
        argv = [command, "--model", broken, "--data", test_file, "--out", out]
        assert run(argv + (["--class", "0"] if command == "cam" else [])) == 2
        assert capsys.readouterr().err == (
            f"data error: {broken.name}: field 'param' {name} holds {value} in "
            f"{broken.name}.bin at flat index {index}\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["cam", "mds"])
    @pytest.mark.parametrize("T, labels, geometry", [
        (20, (1, 2), "(T=20, M=1, K=2)"), (16, (1, 2, 3), "(T=16, M=1, K=3)"),
    ], ids=["length", "classes"])
    def test_explain_refuses_dataset_of_other_geometry(self, trained_fcn, tmp_path, capsys,
                                                       command, T, labels, geometry):
        manifest, _ = trained_fcn
        data = tmp_path / "other.txt"
        data.write_text("".join(f"{labels[i % len(labels)]}," + ",".join(["0.5"] * T) + "\n"
                                for i in range(6)))
        argv = [command, "--model", manifest, "--data", data, "--out", tmp_path / "o"]
        assert run(argv + (["--class", "0"] if command == "cam" else [])) == 2
        assert (f"data error: dataset geometry {geometry} does not match model "
                f"(T=16, M=1, K=2)") in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_mds_failure_leaves_no_out_folder(self, trained_fcn, tmp_path, capsys):
        manifest, _ = trained_fcn
        series = ",".join(f"{0.1 * t!r}" for t in range(16))
        data = tmp_path / "twins.txt"
        data.write_text(f"1,{series}\n2,{series}\n")  # one feature row twice: all distances 0
        out = tmp_path / "o"
        assert run(["mds", "--model", manifest, "--data", data, "--out", out]) == 3
        assert "degenerate all-zero distance matrix" in capsys.readouterr().err
        assert not out.exists()

    def test_mds_outputs(self, trained_fcn, tmp_path):
        manifest, test_file = trained_fcn
        out = tmp_path / "mds"
        assert run(["mds", "--model", manifest, "--data", test_file, "--out", out]) == 0
        csv_lines = (out / "mds.csv").read_text().strip().splitlines()
        assert csv_lines[0] == "x,y,label"
        assert len(csv_lines) == 1 + 6  # header + one row per test series
        assert (out / "mds.svg").exists()

    def test_env_var_default_out(self, trained_fcn, tmp_path, monkeypatch):
        manifest, test_file = trained_fcn
        target = tmp_path / "envout"
        monkeypatch.setenv("TSCLAB_OUT", str(target))
        parser = cli.build_parser()
        args = parser.parse_args([
            "mds", "--model", str(manifest), "--data", str(test_file),
        ])
        assert args.out == str(target)


INTEGER_FIELDS = ("input_length", "input_dims", "classes", "seed", "epochs_run", "best_epoch")


@pytest.fixture(scope="module")
def saved_nets(tmp_path_factory):
    """A trained fcn's manifest, an untrained mcnn's, and a data file that fits both."""
    tmp = tmp_path_factory.mktemp("nets")
    train, test = write_ucr_pair(tmp, n=6, T=16)
    assert run(["train", "--arch", "fcn", "--train", train, "--test", test,
                "--runs", "1", "--seed", "2", "--epochs", "2", "--out", tmp / "fcn"]) == 0
    spec = M.build_model("mcnn", 16, 1, 2, filter_length=3, pool_factor=2)
    spec.slicing = D.default_slicing(16, M.SLICE_WARPS["mcnn"])
    (tmp / "mcnn").mkdir()
    M.save_model(M.TrainedModel(spec, M.init_model(spec, SplitMix64(0))), tmp / "mcnn" / "m.model")
    return {"fcn": tmp / "fcn" / "Synth_fcn_seed2.model", "mcnn": tmp / "mcnn" / "m.model"}, test


@pytest.mark.parametrize("arch, key, value", [
    ("fcn", key, value) for key in INTEGER_FIELDS for value in ("0", "-1", str(2 ** 63), "x")
] + [("mcnn", "option: pool_factor", "0"), ("mcnn", "option: filter_length", "0")])
def test_every_integer_field_of_a_model_file_exits_0_or_2_in_one_line(
        saved_nets, tmp_path, capsys, arch, key, value):
    manifests, data = saved_nets
    head = f"{key}=" if key.startswith("option: ") else f"{key}:"
    line = f"{head}{value}" if head.endswith("=") else f"{head} {value}"
    edited = copy_bundle(manifests[arch], tmp_path,
                         lambda old: line if old.startswith(head) else old)
    assert f"\n{line}\n" in edited.read_text()
    code = run(["mds", "--model", edited, "--data", data, "--out", tmp_path / "o"])
    err = capsys.readouterr().err
    assert code in (0, 2) and err.count("\n") <= 1 and "Traceback" not in err, err


def test_an_mcnn_filter_length_below_one_is_refused_by_name(saved_nets, tmp_path, capsys):
    manifests, data = saved_nets
    edited = copy_bundle(manifests["mcnn"], tmp_path, lambda old: "option: filter_length=0"
                         if old.startswith("option: filter_length=") else old)
    assert run(["mds", "--model", edited, "--data", data, "--out", tmp_path / "o"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "filter_length=0" in err, err
