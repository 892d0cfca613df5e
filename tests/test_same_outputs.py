"""scripts/same_outputs.py: the file comparison that follows the two sweeps."""

import importlib.util
import re
import shutil
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "same_outputs.py"
spec = importlib.util.spec_from_file_location("same_outputs", SCRIPT)
same_outputs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(same_outputs)

RESULTS = ("dataset,architecture,seed,accuracy,loss,train_seconds\n"
           "Synth,fcn,0,0.5,0.69,{}\nSynth,fcn,1,0.75,0.61,{}\n")


@pytest.fixture
def sweeps(tmp_path):
    parent = tmp_path / "parent"
    sweep = parent / "ucr-conv-1" / "sweep"
    (sweep / "cam").mkdir(parents=True)
    (sweep / "Synth_fcn_seed0.model.bin").write_bytes(bytes(range(64)))
    (sweep / "cam" / "cam_0.svg").write_text("<svg/>\n")
    (sweep / "results.csv").write_text(RESULTS.format("1.25", "1.5"))
    change = tmp_path / "change"
    shutil.copytree(parent, change)
    return parent, change, change / "ucr-conv-1" / "sweep"


def test_identical_folders_exit_0(sweeps, capsys):
    parent, change, _ = sweeps
    assert same_outputs.report(parent, change) == 0
    assert capsys.readouterr().out == ""


def test_one_flipped_byte_in_a_blob_exits_1_naming_it(sweeps, capsys):
    parent, change, sweep = sweeps
    blob = bytearray((sweep / "Synth_fcn_seed0.model.bin").read_bytes())
    blob[17] ^= 0x01
    (sweep / "Synth_fcn_seed0.model.bin").write_bytes(bytes(blob))
    assert same_outputs.report(parent, change) == 1
    assert capsys.readouterr().out == "differs: ucr-conv-1/sweep/Synth_fcn_seed0.model.bin\n"


def test_only_train_seconds_differing_exits_0(sweeps):
    parent, change, sweep = sweeps
    (sweep / "results.csv").write_text(RESULTS.format("9.75", "0.5"))
    assert same_outputs.report(parent, change) == 0
    (sweep / "results.csv").write_text(RESULTS.format("9.75", "0.5").replace("0.75", "0.7"))
    assert same_outputs.report(parent, change) == 1


def test_a_missing_file_exits_1_naming_it(sweeps, capsys):
    parent, change, sweep = sweeps
    (sweep / "cam" / "cam_0.svg").unlink()
    assert same_outputs.report(parent, change) == 1
    assert capsys.readouterr().out == "missing from change: ucr-conv-1/sweep/cam/cam_0.svg\n"


@pytest.mark.parametrize("byte, param", [(17, "0.w, flat index 2"), (40, "0.b, flat index 1"),
                                         (63, "0.b, flat index 3")])
def test_a_blob_beside_its_manifest_names_the_param_and_flat_index(sweeps, capsys, byte, param):
    parent, change, sweep = sweeps
    manifest = ("format: tsclab-model-v1\nblob: Synth_fcn_seed0.model.bin\n"
                "param: 0.w [2,2]\nparam: 0.b [4]\n")
    for folder in (parent / "ucr-conv-1" / "sweep", sweep):
        (folder / "Synth_fcn_seed0.model").write_text(manifest)
    blob = bytearray((sweep / "Synth_fcn_seed0.model.bin").read_bytes())
    blob[byte] ^= 0x01
    (sweep / "Synth_fcn_seed0.model.bin").write_bytes(bytes(blob))
    assert same_outputs.report(parent, change) == 1
    assert capsys.readouterr().out == ("differs: ucr-conv-1/sweep/Synth_fcn_seed0.model.bin "
                                       f"(param {param})\n")


def test_src_line_counts_go_to_stderr_first(tmp_path, monkeypatch, capsys):
    # newlines, as wc -l counts them: a last line without one does not count
    for side, text in (("parent", "x = 1\n" * 2), ("change", "x = 1\n" * 4 + "y = 2")):
        package = tmp_path / side / "tsclab"
        package.mkdir(parents=True)
        (package / "a.py").write_text(text)
        (package / "b.py").write_text("z = 3\n")
        (package / "notes.txt").write_text("not code\n")
    monkeypatch.setattr(same_outputs, "run_sweeps", lambda *args: False)
    monkeypatch.setattr(same_outputs, "write_pairs", lambda *args: {})
    assert same_outputs.main([str(tmp_path / "parent"), str(tmp_path / "change")]) == 2
    assert capsys.readouterr().err.splitlines()[0] == "same_outputs: src lines parent 3, change 5"


def test_one_tree_trained_twice_writes_the_same_files(tmp_path):
    pairs = same_outputs.write_pairs(tmp_path / "inputs", (1, 2))
    src = SCRIPT.parents[1] / "src"
    for side in ("a", "b"):
        assert same_outputs.run_trains(src, tmp_path / side, pairs, ["mlp"]) == ""
    assert same_outputs.report(tmp_path / "a", tmp_path / "b") == 0
    assert sorted(p.name for p in (tmp_path / "a" / "long" / "mlp").iterdir()) == [
        "Synth_mlp_seed2.log", "Synth_mlp_seed2.model", "Synth_mlp_seed2.model.bin",
        "Synth_mlp_seed3.log", "Synth_mlp_seed3.model", "Synth_mlp_seed3.model.bin",
        "results.csv"]


def mutant_tree(tmp_path, exact, replacement, module="layers.py"):
    """A copy of ``src`` whose ``module`` has its one ``exact`` text replaced."""
    mutant = tmp_path / "mutant" / "src"
    shutil.copytree(SCRIPT.parents[1] / "src", mutant,
                    ignore=shutil.ignore_patterns("__pycache__"))
    source = mutant / "tsclab" / module
    assert source.read_text().count(exact) == 1
    source.write_text(source.read_text().replace(exact, replacement))
    return mutant


def test_a_one_ulp_change_to_a_kernel_is_named_in_every_blob_it_reaches(tmp_path, capsys):
    # the gate the script exists for: a tree whose dense bias gradient moves one ulp up
    # in the slot the optimizer reads
    src = SCRIPT.parents[1] / "src"
    mutant = mutant_tree(
        tmp_path, "np.sum(gy, axis=0, out=gb)",
        "np.nextafter(np.sum(gy, axis=0, out=gb), np.inf, out=gb)")
    pairs = same_outputs.write_pairs(tmp_path / "inputs", (1, 2))
    for side, tree in (("parent", src), ("change", mutant)):
        assert same_outputs.run_trains(tree, tmp_path / side, pairs, ["mlp"]) == ""
    capsys.readouterr()
    assert same_outputs.report(tmp_path / "parent", tmp_path / "change") == 1
    blobs = [line for line in capsys.readouterr().out.splitlines() if ".model.bin" in line]
    assert [line.split(" (")[0] for line in blobs] == [
        f"differs: {pair}/mlp/Synth_mlp_seed{seed}.model.bin"
        for pair, seeds in (("long", (2, 3)), ("ucr", (1, 2))) for seed in seeds]
    assert all(re.search(r" \(param \S+, flat index \d+\)$", line) for line in blobs)


def test_a_one_ulp_change_to_an_infer_kernel_is_named_in_every_posterior_file(tmp_path, capsys):
    # a tree whose infer-mode dropout moves every value one ulp up: training
    # never runs that branch, so the blobs keep their bits and only the infer
    # outputs (posteriors, monitored losses) move
    src = SCRIPT.parents[1] / "src"
    mutant = mutant_tree(
        tmp_path, '    if mode == "infer" or rate == 0.0:\n        return x, None\n',
        '    if mode == "infer":\n        return np.nextafter(x, np.inf), None\n'
        '    if rate == 0.0:\n        return x, None\n')
    pairs = same_outputs.write_pairs(tmp_path / "inputs", (1, 2))
    for side, tree in (("parent", src), ("change", mutant)):
        assert same_outputs.run_trains(tree, tmp_path / side / "train", pairs, ["mlp"]) == ""
        assert same_outputs.run_posteriors(tree, tmp_path / side, pairs)
    capsys.readouterr()
    assert same_outputs.report(tmp_path / "parent", tmp_path / "change") == 1
    lines = capsys.readouterr().out.splitlines()
    assert [line for line in lines if "posteriors/" in line] == [
        f"differs: posteriors/{pair}/mlp/Synth_mlp_seed{seed}.f64"
        for pair, seeds in (("long", (2, 3)), ("ucr", (1, 2))) for seed in seeds]
    assert not [line for line in lines if ".model.bin" in line]


def test_a_one_ulp_change_to_the_resampling_is_named_in_the_loaded_splits(tmp_path, capsys):
    # a tree whose interpolation between grid points moves one ulp up: the
    # long-format pair's series of other lengths than the longest are
    # resampled, the UCR pair's are not, and labels never are
    src = SCRIPT.parents[1] / "src"
    mutant = mutant_tree(
        tmp_path, "        out = slope * (x - j)[:, None] + lo\n",
        "        out = np.nextafter(slope * (x - j)[:, None] + lo, np.inf)\n", "data.py")
    pairs = same_outputs.write_pairs(tmp_path / "inputs", (1, 2))
    for side, tree in (("parent", src), ("change", mutant)):
        assert same_outputs.run_posteriors(tree, tmp_path / side, pairs)
    capsys.readouterr()
    assert same_outputs.report(tmp_path / "parent", tmp_path / "change") == 1
    assert capsys.readouterr().out.splitlines() == [
        "differs: loaded/long/test_X.f64", "differs: loaded/long/train_X.f64"]
    assert sorted(p.name for p in (tmp_path / "parent" / "loaded" / "ucr").iterdir()) == [
        "test_X.f64", "test_Y.f64", "train_X.f64", "train_Y.f64"]
