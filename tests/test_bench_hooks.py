"""The names the benchmark's tracer wraps exist, and closing its patcher restores them.

The benchmark (``perfbench/``) wraps tsclab functions by name; a rename or a
deletion of one of them fails here rather than only in a traced benchmark run.
Its run capture also relies on two call shapes, ``cli.train_single_run(arch,
train_ds, test_ds, seed, ...)`` and ``optim.train(spec, data, config,
log_fn=None)``, and on one ``log_fn`` call per epoch.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import probes  # noqa: E402
import tracer  # noqa: E402
from conftest import save_mts_long, toy_dataset  # noqa: E402
from tsclab import cli, data, explain, layers, models, optim, reservoir, stats  # noqa: E402


def namespaces() -> dict:
    """A copy of every loaded tsclab module's namespace, and of ``Optimizer``'s."""
    spaces = {name: dict(vars(module)) for name, module in sys.modules.items()
              if name == "tsclab" or name.startswith("tsclab.")}
    spaces["Optimizer"] = dict(vars(optim.Optimizer))
    return spaces


def test_tracer_wraps_the_live_names_and_close_restores_them():
    before = namespaces()
    patcher = tracer.Patcher()
    try:
        probes.RunCapture().install(patcher, cli, optim)
        probes.install_tracer(tracer.Tracer(), patcher, (
            cli, data, explain, layers, models, optim, reservoir, stats))
        wrapped = namespaces()
    finally:
        patcher.close()
    after = namespaces()
    for module, name in ((layers, "conv1d_forward"), (reservoir, "twiesn_train_single"),
                         (models, "save_model"), (cli, "train_single_run")):
        space = module.__name__
        assert wrapped[space][name] is not before[space][name], name
    assert wrapped["Optimizer"]["step"] is not before["Optimizer"]["step"]
    assert after.keys() == before.keys()
    for space, names in before.items():
        assert after[space].keys() == names.keys(), space
        assert [k for k, v in names.items() if after[space][k] is not v] == [], space


def test_run_capture_sees_each_run_and_each_epoch(tmp_path):
    train, test = tmp_path / "Toy_TRAIN.csv", tmp_path / "Toy_TEST.csv"
    save_mts_long(toy_dataset(n=6, T=12, seed=1), train)
    save_mts_long(toy_dataset(n=4, T=12, seed=2), test)
    capture, patcher = probes.RunCapture(), tracer.Patcher()
    try:
        capture.install(patcher, cli, optim)
        records = cli.run_experiment(cli.ExperimentConfig(
            str(train), str(test), "mlp", runs=1, out_dir=str(tmp_path / "out"),
            overrides={"epochs": 2}))
    finally:
        patcher.close()
    assert [(r.architecture, r.seed) for r in records] == [("mlp", 0)]
    assert list(capture.models) == [("mlp", 0)]
    [(series, durations)] = capture.epochs["mlp"]
    assert series == 6 and len(durations) == 2
