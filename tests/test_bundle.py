"""The model-bundle reader: every malformed manifest is refused, line order is free."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import poison_blob, toy_dataset
from tsclab import models as M
from tsclab import reservoir as R
from tsclab.data import SlicingConfig
from tsclab.errors import ManifestError
from tsclab.tensor import SplitMix64


def save_fcn(path):
    spec = M.build_model("fcn", 16, 1, 2)
    model = M.TrainedModel(spec, M.init_model(spec, SplitMix64(4)), seed=4,
                           epochs_run=6, best_epoch=3)
    M.save_model(model, path)
    return model.params


def save_twiesn(path):
    config = R.ReservoirConfig(size=12, sparsity=0.5, spectral_radius=0.9, seed=8)
    model = R.twiesn_train_single(config, toy_dataset(n=6, T=16))
    R.save_twiesn(model, path)
    return tensors_of(model)


def tensors_of(model):
    if isinstance(model, R.TwiesnModel):
        return {"W_in": model.W_in, "W": model.W, "W_out": model.W_out}
    return model.params


KINDS = {"fcn": (save_fcn, M.load_model), "twiesn": (save_twiesn, R.load_twiesn)}


def drop(prefix):
    return lambda lines: [line for line in lines if not line.startswith(prefix)]


def swap(old, new):
    return lambda lines: [new if line == old else line for line in lines]


def repeat(prefix):
    """Write the first line starting with ``prefix`` twice in a row."""
    def mutate(lines):
        at = next(i for i, line in enumerate(lines) if line.startswith(prefix))
        return lines[: at + 1] + lines[at:]
    return mutate


def exchange(a, b):
    """Exchange the lines starting with ``a`` and ``b``."""
    def mutate(lines):
        i = next(i for i, line in enumerate(lines) if line.startswith(a))
        j = next(i for i, line in enumerate(lines) if line.startswith(b))
        lines = list(lines)
        lines[i], lines[j] = lines[j], lines[i]
        return lines
    return mutate


def common_cases(kind, fmt, int_field):
    """Rejections both kinds share: (id, mutation, text the message must hold)."""
    return [
        ("empty", lambda lines: [], "'format'"),
        ("no-colon", lambda lines: lines[:3] + ["just words"] + lines[3:], "line 4 'just words'"),
        ("wrong-format", swap(f"format: {fmt}", f"format: {fmt[:-1]}9"), "'format'"),
        ("other-format", swap(f"format: {fmt}", "format: tsclab-" + (
            "twiesn-v1" if kind == "fcn" else "model-v1")), "'format'"),
        ("format-twice", repeat("format:"), "'format'"),
        ("non-integer", lambda lines: [f"{int_field}: 1.5" if line.startswith(f"{int_field}:")
                                       else line for line in lines], f"'{int_field}'"),
        ("seed-twice", repeat("seed:"), "'seed'"),
        ("unknown-field", lambda lines: lines + ["colour: red"], "'colour'"),
    ]


FCN_CASES = common_cases("fcn", "tsclab-model-v1", "classes") + [
    (f"missing-{key}", drop(f"{key}:"), f"'{key}'")
    for key in ("format", "architecture_id", "input_length", "input_dims", "classes", "loss",
                "seed", "epochs_run", "best_epoch", "blob")
] + [
    ("param-renamed", swap("param: 10.w [128,2]", "param: 10.x [128,2]"), "'param'"),
    ("param-duplicated", repeat("param: 0.b"), "'param'"),
    ("param-reordered", exchange("param: 0.w", "param: 0.b"), "'param'"),
    ("param-shape-swapped", swap("param: 0.w [128,8,1]", "param: 0.w [1,8,128]"), "'param'"),
    ("param-dropped", drop("param: 10.b"), "'param'"),
    ("param-bad-shape", swap("param: 0.b [128]", "param: 0.b [one]"), "'param'"),
    ("repeated-value-twice", repeat("classes:"), "'classes'"),
    ("unbuildable", swap("input_length: 16", "input_length: 3"), "model is invalid"),
    ("no-dims", swap("input_dims: 1", "input_dims: 0"),
     "model is invalid: fcn cannot take length 16, dims 0, classes 2: "),
    ("best-epoch-past-the-run", swap("best_epoch: 3", "best_epoch: 9"),
     "field 'best_epoch' reads 9; a run of 6 epochs keeps 0..6"),
    ("best-epoch-negative", swap("best_epoch: 3", "best_epoch: -5"),
     "field 'best_epoch' reads -5; a run of 6 epochs keeps 0..6"),
    ("epochs-run-negative", swap("epochs_run: 6", "epochs_run: -1"),
     "field 'epochs_run' reads -1; a run trains 0 or more epochs"),
    ("bad-slicing", lambda lines: lines + ["slicing: fraction=0.9"], "'slicing'"),
    ("stray-slicing", lambda lines: lines + ["slicing: fraction=0.9 stride=2 warp=1.0"],
     "field 'slicing' does not apply to fcn"),
    # a layer edited with its parameter shapes kept
    ("layer-edited", swap("layer: act relu", "layer: act tanh"),
     "field 'layer' row 'act tanh' is not in the fcn the manifest builds"),
    ("layer-dropped", drop("layer: gap"),
     "field 'layer' lacks a row 'gap' that is in the fcn the manifest builds"),
]

TWIESN_CASES = common_cases("twiesn", "tsclab-twiesn-v1", "size") + [
    (f"missing-{key}", drop(f"{key}:"), f"'{key}'")
    for key in ("format", "architecture_id", "size", "sparsity", "spectral_radius",
                "input_scale", "ridge_lambda", "seed", "blob")
] + [
    ("non-float", swap("sparsity: 0.5", "sparsity: half"), "'sparsity'"),
    ("param-renamed", swap("param: W [12,12]", "param: V [12,12]"), "'param'"),
    ("param-duplicated", repeat("param: W "), "'param'"),
    ("param-reordered", exchange("param: W_in", "param: W "), "'param'"),
    ("param-shape-swapped", swap("param: W_in [12,1]", "param: W_in [1,12]"), "'param'"),
    ("readout-shape-swapped", swap("param: W_out [2,14]", "param: W_out [14,2]"), "'param'"),
    ("unbuildable", swap("sparsity: 0.5", "sparsity: 1.5"), "model is invalid"),
    ("foreign-architecture", swap("architecture_id: twiesn", "architecture_id: fcn"),
     "field 'architecture_id' reads 'fcn'; expected 'twiesn'"),
]


def assert_refused(load, manifest, mutate, text):
    lines = mutate(manifest.read_text().splitlines())
    manifest.write_text("".join(line + "\n" for line in lines))
    with pytest.raises(ManifestError) as info:
        load(manifest)
    assert "m.model" in str(info.value)
    assert text in str(info.value)


@pytest.mark.parametrize("mutate, text", [c[1:] for c in FCN_CASES],
                         ids=[c[0] for c in FCN_CASES])
def test_network_reader_refuses_malformed_manifest(tmp_path, mutate, text):
    save_fcn(tmp_path / "m.model")
    assert_refused(M.load_model, tmp_path / "m.model", mutate, text)


@pytest.mark.parametrize("mutate, text", [c[1:] for c in TWIESN_CASES],
                         ids=[c[0] for c in TWIESN_CASES])
def test_twiesn_reader_refuses_malformed_manifest(tmp_path, mutate, text):
    save_twiesn(tmp_path / "m.model")
    assert_refused(R.load_twiesn, tmp_path / "m.model", mutate, text)


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_undecodable_manifest_is_refused(tmp_path, kind):
    save, load = KINDS[kind]
    save(tmp_path / "m.model")
    (tmp_path / "m.model").write_bytes(b"\x80\x81 not text")
    with pytest.raises(ManifestError, match="m.model: model is invalid: 'utf-8' codec"):
        load(tmp_path / "m.model")


def test_mcnn_without_its_options_is_refused(tmp_path):
    spec = M.build_model("mcnn", 27, 1, 2, filter_length=3, pool_factor=3)
    M.save_model(M.TrainedModel(spec, M.init_model(spec, SplitMix64(0))), tmp_path / "m.model")
    assert_refused(M.load_model, tmp_path / "m.model", drop("option: pool_factor"),
                   "model is invalid")


def test_layer_row_keeps_its_indentation(tmp_path):
    """A nested row moved out of its block is a different layer tree, though no shape changes."""
    spec = M.build_model("resnet", 16, 1, 2)
    M.save_model(M.TrainedModel(spec, M.init_model(spec, SplitMix64(0))), tmp_path / "m.model")
    row = "layer:   conv filters=64 length=1 padding=same"
    lines = (tmp_path / "m.model").read_text().splitlines()
    lines[lines.index(row)] = row.replace(":   ", ": ")
    (tmp_path / "m.model").write_text("".join(line + "\n" for line in lines))
    with pytest.raises(ManifestError, match="field 'layer' row 'conv filters=64 length=1 "
                                            "padding=same' is not in the resnet"):
        M.load_model(tmp_path / "m.model")


@pytest.mark.parametrize("arch, T, options", [
    ("mcnn", 27, {"filter_length": 3, "pool_factor": 3}), ("tlenet", 16, {})])
def test_sliced_net_without_its_slicing_is_refused(tmp_path, arch, T, options):
    spec = M.build_model(arch, T, 1, 2, **options)
    spec.slicing = SlicingConfig(0.9, 2, (1.0,))
    M.save_model(M.TrainedModel(spec, M.init_model(spec, SplitMix64(0))), tmp_path / "m.model")
    assert_refused(M.load_model, tmp_path / "m.model", drop("slicing:"),
                   "field 'slicing' is missing")


@pytest.mark.parametrize("kind, name, index, value", [
    ("fcn", "0.b", 7, float("nan")), ("fcn", "7.running_var", 127, float("inf")),
    ("twiesn", "W", 5, float("inf")), ("twiesn", "W_out", 0, -float("inf")),
])
def test_non_finite_blob_value_is_refused(tmp_path, kind, name, index, value):
    save, load = KINDS[kind]
    poison_blob(tmp_path / "m.model", save(tmp_path / "m.model"), name, index, value)
    with pytest.raises(ManifestError) as info:
        load(tmp_path / "m.model")
    assert str(info.value) == (f"m.model: field 'param' {name} holds {value} in m.model.bin "
                               f"at flat index {index}")


@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    folder = tmp_path_factory.mktemp("bundles")
    out = {}
    for kind, (save, _) in KINDS.items():
        manifest = folder / f"{kind}.model"
        out[kind] = (manifest, save(manifest))
    return out


@pytest.mark.parametrize("kind", sorted(KINDS))
@given(data=st.data())
@settings(max_examples=30)
def test_any_line_order_loads_the_same_tensors(saved, kind, data):
    """Lines may be shuffled freely; ``param:`` lines keep their order, which is the blob's."""
    manifest, tensors = saved[kind]
    lines = manifest.read_text().splitlines()
    shuffled = data.draw(st.permutations(lines))
    params = iter(line for line in lines if line.startswith("param:"))
    shuffled = [next(params) if line.startswith("param:") else line for line in shuffled]
    moved = manifest.with_name(f"shuffled_{kind}.model")
    moved.write_text("".join(line + "\n" for line in shuffled))
    loaded = tensors_of(KINDS[kind][1](moved))
    assert list(loaded) == list(tensors)
    for name, value in tensors.items():
        assert loaded[name].tobytes() == value.tobytes() and loaded[name].shape == value.shape
