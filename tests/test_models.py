import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import gradient_slots, random_batch, toy_dataset
from tsclab import explain as E
from tsclab import layers as L
from tsclab import models as M
from tsclab import reservoir as R
from tsclab.data import SlicingConfig, slice_starts
from tsclab.errors import BlobSizeError, ShapeError, UnsupportedArchitectureError
from tsclab.tensor import SplitMix64


def count_params(params, predicate=lambda name: True):
    return sum(v.size for name, v in params.items()
               if M.trainable(name) and predicate(name))


def build_and_init(arch, T, Mdims=1, K=2, seed=0, **options):
    spec = M.build_model(arch, T, Mdims, K, **options)
    params = M.init_model(spec, SplitMix64(seed))
    return spec, params


def layout_shape(node, in_shape):
    """The out shape ``node`` lays out for one series of ``in_shape``."""
    return node.layout(in_shape, "", M.Layout())


def infer(model, x):
    """The net's infer-mode output for the batch ``x``."""
    return M.forward_batch(model.spec, model.params, x, "infer")[0]


def build_small(arch, Mdims=1, K=2, seed=0):
    """Any of the eight networks at a small geometry; mcnn at one grid point."""
    T = {"timecnn": 60, "mcnn": 27}.get(arch, 16)
    options = {"filter_length": 3, "pool_factor": 3} if arch == "mcnn" else {}
    return build_and_init(arch, T, Mdims, K, seed, **options)


class TestConformance:
    """Frozen per-architecture layer tables (filters/lengths/activations/norms)."""

    def test_mlp_table(self):
        spec = M.build_mlp(150, 1, 2)
        assert spec.net.describe() == [
            "flatten",
            "dropout rate=0.1", "dense units=500", "act relu",
            "dropout rate=0.2", "dense units=500", "act relu",
            "dropout rate=0.2", "dense units=500", "act relu",
            "dropout rate=0.3", "dense units=2", "act softmax",
        ]

    def test_fcn_table(self):
        spec = M.build_fcn(150, 1, 3)
        assert spec.net.describe() == [
            "conv filters=128 length=8 padding=same", "batch_norm", "act relu",
            "conv filters=256 length=5 padding=same", "batch_norm", "act relu",
            "conv filters=128 length=3 padding=same", "batch_norm", "act relu",
            "gap", "dense units=3", "act softmax",
        ]

    def test_resnet_table(self):
        spec = M.build_resnet(150, 1, 2)
        body = [
            "conv filters=64 length=8 padding=same", "batch_norm", "act relu",
            "conv filters=64 length=5 padding=same", "batch_norm", "act relu",
            "conv filters=64 length=3 padding=same", "batch_norm", "act relu",
        ]
        assert spec.net.describe() == [
            {"residual": body,
             "shortcut": ["conv filters=64 length=1 padding=same", "batch_norm"]},
            {"residual": body, "shortcut": None},
            {"residual": body, "shortcut": None},
            "gap", "dense units=2", "act softmax",
        ]

    def test_resnet_depth_is_eleven_layers(self):
        # 9 convolutional stages + gap + softmax classifier
        desc = repr(M.build_resnet(100, 1, 2).net.describe())
        assert desc.count("conv filters=64 length=") == 9 + 1  # 9 body + 1 shortcut
        assert desc.count("gap") == 1 and desc.count("softmax") == 1

    def test_encoder_table(self):
        spec = M.build_encoder(120, 1, 4)
        assert spec.net.describe() == [
            "conv filters=128 length=5 padding=same", "instance_norm", "act prelu",
            "dropout rate=0.2", "pool max window=2",
            "conv filters=256 length=11 padding=same", "instance_norm", "act prelu",
            "dropout rate=0.2", "pool max window=2",
            "conv filters=512 length=21 padding=same", "instance_norm", "act prelu",
            "dropout rate=0.2", "pool max window=2",
            "attention", "dense units=4", "act softmax",
        ]

    def test_tlenet_table(self):
        spec = M.build_tlenet(80, 1, 2)
        assert spec.net.describe() == [
            "conv filters=5 length=5 padding=same", "act relu", "pool max window=2",
            "conv filters=20 length=5 padding=same", "act relu", "pool max window=4",
            "flatten", "dense units=500", "act relu", "dense units=2", "act softmax",
        ]

    def test_mcdcnn_table(self):
        spec = M.build_mcdcnn(64, 2, 3)
        branch = [
            "conv filters=8 length=5 padding=same", "act relu", "pool max window=2",
            "conv filters=8 length=5 padding=same", "act relu", "pool max window=2",
        ]
        assert spec.net.describe() == [
            {"per_dimension": [branch, branch]},
            "flatten", "dense units=732", "act relu", "dense units=3", "act softmax",
        ]

    def test_timecnn_table(self):
        spec = M.build_timecnn(60, 1, 2)
        assert spec.net.describe() == [
            "conv filters=6 length=7 padding=valid", "act sigmoid", "pool avg window=3",
            "conv filters=12 length=7 padding=valid", "act sigmoid", "pool avg window=3",
            "flatten", "dense units=2", "act sigmoid",
        ]
        assert spec.loss == "mse"

    def test_mcnn_branch_count(self):
        spec = M.build_mcnn(90, 1, 2, 9, 3)
        top = spec.net.describe()
        assert len(top[0]["concat_branches"]) == 7  # identity + 3 down + 3 smooth
        tail = top[1:]
        assert tail == [
            "conv filters=256 length=9 padding=same", "act sigmoid",
            "pool max window=2", "flatten", "dense units=256", "act sigmoid",
            "dense units=2", "act softmax",
        ]

    def test_mcnn_branch_rows(self):
        spec = M.build_mcnn(90, 1, 2, 9, 3)
        tail = ["conv filters=256 length=9 padding=same", "act sigmoid"]
        assert spec.net.describe()[0] == {"concat_branches": [
            [*tail, "pool max window=3", "align_time target=30"],
            *([f"downsample factor={k}", *tail, "pool max window=1", "align_time target=30"]
              for k in (2, 4, 8)),
            *([f"moving_avg window={w}", *tail, "pool max window=2", "align_time target=30"]
              for w in (5, 8, 11)),
        ]}

    # sha256 (first 16 hex digits) of repr(describe()): mcnn's list over its
    # whole grid at each slice length, every other net at (T, M, K) = (64, 3, 4)
    PINNED_TREES = {
        "mcnn@27": "b11fe92e8e919c71",
        "mcnn@90": "8fa8232591917919",
        "mcnn@135": "b638d82e18e0939a",
        "mlp": "b92493d0aabc9e0e",
        "fcn": "c68fd0108f5bf7de",
        "resnet": "7bf70e2d0640f08f",
        "encoder": "fa122eb0fa4a90f6",
        "tlenet": "7d66cc3791e63549",
        "mcdcnn": "8588589f5ad04f15",
        "timecnn": "054138fe495304be",
    }

    def test_every_builder_tree_is_pinned(self):
        def digest(trees):
            return hashlib.sha256(repr(trees).encode()).hexdigest()[:16]

        got = {f"mcnn@{T}": digest([
            M.build_model("mcnn", T, 3, 4, filter_length=fl, pool_factor=pf).net.describe()
            for fl, pf in M.mcnn_grid(T)]) for T in (27, 90, 135)}
        got.update((arch, digest(M.build_model(arch, 64, 3, 4).net.describe()))
                   for arch in M.ARCHITECTURES if arch != "mcnn")
        assert got == self.PINNED_TREES


class TestGeometry:
    def test_mlp_first_dense_shape_and_hidden_count(self):
        spec, params = build_and_init("mlp", 150, 1, 2)
        assert params["2.w"].shape == (150, 500)
        hidden = (
            params["2.w"].size + params["2.b"].size
            + params["5.w"].size + params["5.b"].size
            + params["8.w"].size + params["8.b"].size
        )
        assert hidden == 150 * 500 + 500 + 2 * (500 * 500 + 500) == 576500

    def test_fcn_pre_gap_shape_preserves_length(self):
        for T in (16, 50, 311):
            spec, params = build_and_init("fcn", T)
            x = random_batch((2, T, 1), seed=1)
            a = E._final_feature_map(M.TrainedModel(spec, params), x)
            assert a.shape == (2, T, 128)

    def test_fcn_parameter_count_is_length_invariant(self):
        _, p50 = build_and_init("fcn", 50)
        _, p500 = build_and_init("fcn", 500)
        assert count_params(p50) == count_params(p500)

    def test_resnet_parameter_count_is_length_invariant(self):
        _, p100 = build_and_init("resnet", 100)
        _, p1000 = build_and_init("resnet", 1000)
        assert count_params(p100) == count_params(p1000)

    def test_mlp_parameter_count_depends_on_length(self):
        _, p50 = build_and_init("mlp", 50)
        _, p500 = build_and_init("mlp", 500)
        assert count_params(p50) != count_params(p500)

    def test_encoder_time_extents_halve(self):
        spec = M.build_encoder(120, 1, 2)
        shape = (120, 1)
        extents = []
        for child in spec.net.children:
            shape = layout_shape(child, shape)
            if len(shape) == 2:
                extents.append(shape[0])
        assert extents[0] == 120 and 60 in extents and 30 in extents and 15 in extents

    def test_encoder_attention_output_width(self):
        spec = M.build_encoder(120, 1, 2)
        shape = (120, 1)
        for child in spec.net.children:
            shape = layout_shape(child, shape)
            if isinstance(child, M.Attention):
                assert shape == (256,)
                return
        pytest.fail("no attention layer found")

    def test_tlenet_flatten_length(self):
        spec = M.build_tlenet(80, 1, 2)
        _, params = build_and_init("tlenet", 80)
        assert params["7.w"].shape[0] == 80 // 8 * 20 == 200

    def test_mcdcnn_concat_feature_length(self):
        _, params = build_and_init("mcdcnn", 152, 1, 2)
        assert params["2.w"].shape[0] == (152 // 4) * 8 == 304

    def test_timecnn_flatten_length(self):
        _, params = build_and_init("timecnn", 60)
        assert params["7.w"].shape[0] == ((60 - 6) // 3 - 6) // 3 * 12 == 48

    def test_timecnn_too_short_rejected(self):
        with pytest.raises(ValueError):
            M.build_model("timecnn", 20, 1, 2)

    def test_short_series_rejected(self):
        for arch in ("fcn", "resnet", "encoder", "tlenet"):
            with pytest.raises(ValueError):
                M.build_model(arch, 7, 1, 2)

    @pytest.mark.parametrize("arch", ["encoder", "tlenet", "mcdcnn", "timecnn", "mcnn"])
    def test_one_step_below_the_kernels_floor_is_a_shape_error(self, arch):
        T = MIN_LENGTH[arch] - 1
        options = {"filter_length": 1, "pool_factor": 2} if arch == "mcnn" else {}
        with pytest.raises(ShapeError, match=f"^{arch} cannot take input length {T}: "):
            M.build_model(arch, T, 1, 2, **options)

    @pytest.mark.parametrize("arch, T, Mdims, K", [
        (arch, *geometry) for arch in M.ARCHITECTURES
        for geometry in ((0, 1, 2), (16, 0, 2), (16, 1, 0))] + [
        ("fcn", 7, 1, 2), ("resnet", 7, 1, 2)])
    def test_the_gate_refuses_an_empty_geometry_or_one_below_the_floor(self, arch, T, Mdims,
                                                                        K):
        options = {"filter_length": 1, "pool_factor": 1} if arch == "mcnn" else {}
        with pytest.raises(ShapeError, match=f"^{arch} cannot take length {T}, dims {Mdims}, "
                                             f"classes {K}: "):
            M.build_model(arch, T, Mdims, K, **options)

    def test_the_gate_refuses_before_the_builder_runs(self, monkeypatch):
        monkeypatch.setitem(M._BUILDERS, "fcn", lambda *a: pytest.fail("the builder ran"))
        with pytest.raises(ShapeError):
            M.build_model("fcn", 16, 0, 2)

    @pytest.mark.parametrize("filter_length, pool_factor", [(3, 0), (3, -1), (0, 3), (-1, 3)])
    def test_mcnn_options_below_one_are_a_value_error(self, filter_length, pool_factor):
        with pytest.raises(ValueError, match=(
                r"^mcnn needs pool_factor in 1\.\.16, the slice length, and filter_length >= 1; "
                f"got pool_factor={pool_factor}, filter_length={filter_length}$")):
            M.build_mcnn(16, 1, 2, filter_length, pool_factor)

    def test_mcnn_pool_factor_exhausting_length_rejected(self):
        with pytest.raises(ValueError):
            M.build_mcnn(11, 1, 2, 2, 12)

    def test_mcnn_branch_extents_align(self):
        spec = M.build_mcnn(90, 1, 2, 9, 3)
        concat = spec.net.children[0]
        for branch in concat.branches:
            assert layout_shape(branch, (90, 1)) == (30, 256)

    def test_mcnn_grid_values(self):
        grid = M.mcnn_grid(100)
        lengths = sorted({fl for fl, _ in grid})
        assert lengths == [5, 10, 20]
        assert sorted({pf for _, pf in grid}) == [2, 3, 5]


# every leaf kind at a geometry its kernel accepts: draw(data, T, C) -> (node, in_shape)
LEAF_CASES = {
    "flatten": lambda d, T, C: (M.Flatten(), (T, C)),
    "dense": lambda d, T, C: (M.Dense(d.draw(st.integers(1, 5))), (T * C,)),
    "conv_same": lambda d, T, C: (M.Conv1d(d.draw(st.integers(1, 4)),
                                           d.draw(st.integers(1, 9)), "same"), (T, C)),
    "conv_valid": lambda d, T, C: (M.Conv1d(d.draw(st.integers(1, 4)),
                                            d.draw(st.integers(1, T)), "valid"), (T, C)),
    "batch_norm": lambda d, T, C: (M.BatchNorm(), (T, C)),
    "instance_norm": lambda d, T, C: (M.InstanceNorm(), (T, C)),
    "relu": lambda d, T, C: (M.Act("relu"), (T, C)),
    "sigmoid": lambda d, T, C: (M.Act("sigmoid"), (T, C)),
    "softmax": lambda d, T, C: (M.Act("softmax"), (T * C,)),
    "prelu": lambda d, T, C: (M.PRelu(), (T, C)),
    "dropout": lambda d, T, C: (M.Dropout(0.5), (T, C)),
    "pool_max": lambda d, T, C: (M.Pool1d("max", d.draw(st.integers(1, T))), (T, C)),
    "pool_avg": lambda d, T, C: (M.Pool1d("avg", d.draw(st.integers(1, T))), (T, C)),
    "gap": lambda d, T, C: (M.Gap(), (T, C)),
    "attention": lambda d, T, C: (M.Attention(), (T, 2 * C)),
    "downsample": lambda d, T, C: (M.Downsample(d.draw(st.integers(1, 6))), (T, C)),
    "moving_avg": lambda d, T, C: (M.MovingAvg(d.draw(st.integers(1, T))), (T, C)),
    "align_time": lambda d, T, C: (M.AlignTime(d.draw(st.integers(1, 2 * T))), (T, C)),
}
# the shortest series each builder accepts
MIN_LENGTH = {"mlp": 1, "fcn": 8, "resnet": 8, "encoder": 8, "mcnn": 11,
              "tlenet": 8, "mcdcnn": 4, "timecnn": 33}


def forward_shapes(node, params, x):
    """``node``'s output shape after a real forward of ``x``, in train and infer mode."""
    return [node.forward(x, dict(params), mode, SplitMix64(1), {}).shape[1:]
            for mode in ("train", "infer")]


class TestKernelGeometry:
    """A node's layout out shape is the kernels' own geometry: it agrees with real forwards."""

    @pytest.mark.parametrize("kind", sorted(LEAF_CASES))
    @settings(max_examples=8)
    @given(data=st.data(), T=st.integers(2, 24), C=st.integers(1, 4))
    def test_leaf_out_shape_matches_forward(self, kind, data, T, C):
        node, in_shape = LEAF_CASES[kind](data, T, C)
        walk = M.Layout()
        out = node.layout(in_shape, "n", walk)
        params = {name: np.full(shape, 0.5) for name, shape, _ in walk.params}
        x = random_batch((2, *in_shape), seed=T)
        assert forward_shapes(node, params, x) == [out, out]
        assert out == layout_shape(node, in_shape)  # at another prefix: the same shape

    @pytest.mark.parametrize("arch", M.ARCHITECTURES)
    @settings(max_examples=3)
    @given(data=st.data(), Mdims=st.integers(1, 3), K=st.integers(1, 4))
    def test_builder_out_shapes_match_forward(self, arch, data, Mdims, K):
        T = data.draw(st.integers(MIN_LENGTH[arch], MIN_LENGTH[arch] + 24))
        options = {}
        if arch == "mcnn":
            options = dict(zip(("filter_length", "pool_factor"),
                               data.draw(st.sampled_from(M.mcnn_grid(T)))))
        spec, params = build_and_init(arch, T, Mdims, K, **options)
        x = random_batch((2, T, Mdims), seed=T)
        shape = (T, Mdims)
        for i, child in enumerate(spec.net.children):
            shape = child.layout(shape, str(i), M.Layout())  # its own place: the same keys
            assert forward_shapes(child, params, x) == [shape, shape]
            x = child.forward(x, dict(params), "infer", None, {})
        assert shape == (K,)

    @pytest.mark.parametrize("node, in_shape", [
        (M.Conv1d(4, 9, "valid"), (8, 2)),
        (M.Pool1d("max", 9), (8, 2)),
        (M.Pool1d("avg", 9), (8, 2)),
        (M.MovingAvg(9), (8, 2)),
        (M.Attention(), (8, 3)),
        (M.Dense(4), (8, 2)),
    ], ids=["valid_conv", "max_pool", "avg_pool", "moving_avg", "odd_attention",
            "non_flat_dense"])
    def test_geometry_the_kernel_refuses_is_refused_at_layout(self, node, in_shape):
        with pytest.raises(ValueError):
            layout_shape(node, in_shape)
        net = M.Sequential([node, M.Flatten(), M.Dense(2)])
        with pytest.raises(ValueError):
            M.ModelSpec("probe", *in_shape, 2, "mse", net).layout


class TestForward:
    def test_infer_deterministic(self):
        spec, params = build_and_init("fcn", 24)
        x = random_batch((3, 24, 1), seed=5)
        y1, _ = M.forward_batch(spec, params, x, "infer")
        y2, _ = M.forward_batch(spec, params, x, "infer")
        assert np.array_equal(y1, y2)

    @pytest.mark.parametrize("arch", ["mlp", "fcn", "resnet", "encoder", "tlenet", "mcdcnn"])
    def test_softmax_heads_emit_simplex_rows(self, arch):
        spec, params = build_and_init(arch, 16, 1, 3)
        x = random_batch((4, 16, 1), seed=6)
        y, _ = M.forward_batch(spec, params, x, "infer")
        assert np.max(np.abs(y.sum(axis=1) - 1.0)) < 1e-12
        assert np.all(y >= 0)

    def test_timecnn_rows_are_sigmoid_not_simplex(self):
        spec, params = build_and_init("timecnn", 60, 1, 4)
        x = random_batch((6, 60, 1), seed=7)
        y, _ = M.forward_batch(spec, params, x, "infer")
        assert np.all((y > 0) & (y < 1))
        assert np.max(np.abs(y.sum(axis=1) - 1.0)) > 1e-6  # unconstrained rows

    def test_each_dense_kernel_writes_its_gradients_into_the_one_vector(self, monkeypatch):
        spec, params = build_and_init("mlp", 20, 1, 3)
        x = random_batch((4, 20, 1), seed=9)
        y, caches = M.forward_batch(spec, params, x, "train", SplitMix64(1))
        returned, real = [], L.dense_backward

        def spy(gy, cache, *slots):
            out = real(gy, cache, *slots)
            returned.append(out)
            return out

        monkeypatch.setattr(L, "dense_backward", spy)
        grads = gradient_slots(spec, np.nan)
        vector = grads["2.w"].base
        M.backward_batch(spec, caches, random_batch(y.shape, seed=10), grads)
        # no copy: each gradient the kernel returns is its slot in the one vector
        dense = ["11", "8", "5", "2"]  # the dense leaves, in backward order
        assert len(returned) == len(dense)
        for prefix, (_, gw, gb) in zip(dense, returned):
            assert gw is grads[f"{prefix}.w"] and gb is grads[f"{prefix}.b"]
            assert np.shares_memory(gw, vector) and np.shares_memory(gb, vector)
        assert all(v.base is vector for v in grads.values())
        assert np.isfinite(vector).all()

    def test_mlp_forward_matches_unrolled_matmuls(self):
        spec, params = build_and_init("mlp", 20, 1, 2)
        x = random_batch((2, 20, 1), seed=8)
        y, _ = M.forward_batch(spec, params, x, "infer")
        h = x.reshape(2, 20)
        for p in ("2", "5", "8"):
            h = np.maximum(h @ params[f"{p}.w"] + params[f"{p}.b"], 0.0)
        logits = h @ params["11.w"] + params["11.b"]
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        expected = e / e.sum(axis=1, keepdims=True)
        assert np.max(np.abs(y - expected)) < 1e-12

    def test_geometry_mismatch_rejected(self):
        spec, params = build_and_init("fcn", 24)
        with pytest.raises(ShapeError):
            M.forward_batch(spec, params, random_batch((2, 25, 1)), "infer")

    def test_resnet_zeroed_body_leaves_only_shortcut_path(self):
        spec, params = build_and_init("resnet", 16, 1, 2, seed=9)
        for name in params:
            if "/body/" in name and M.trainable(name):
                params[name] = np.zeros_like(params[name])
        x = random_batch((2, 16, 1), seed=10)
        y, _ = M.forward_batch(spec, params, x, "infer")
        # shortcut chain: block 1's 1x1 conv + batch norm; blocks 2-3 identity
        h, _ = L.conv1d_forward(x, params["0/sc/0.w"], params["0/sc/0.b"], "same")
        h, _, _, _ = L.batch_norm_forward(
            h, params["0/sc/1.gamma"], params["0/sc/1.beta"],
            params["0/sc/1.running_mean"], params["0/sc/1.running_var"], "infer",
        )
        feats, _ = L.gap_forward(h)
        logits, _ = L.dense_forward(feats, params["4.w"], params["4.b"])
        expected, _ = L.softmax_forward(logits, "train")
        assert np.max(np.abs(y - expected)) < 1e-12

    def test_mcdcnn_branches_share_no_parameters(self):
        spec, params = build_and_init("mcdcnn", 16, 2, 2, seed=11)
        x = random_batch((2, 16, 2), seed=12)
        split = spec.net.children[0]
        out1 = split.forward(x, params, "infer", None, {})
        for name in list(params):
            if name.startswith("0/dim0/") and M.trainable(name):
                params[name] = params[name] + 1.0
        out2 = split.forward(x, params, "infer", None, {})
        assert np.array_equal(out1[:, :, 8:], out2[:, :, 8:])  # dim-1 branch untouched
        assert not np.array_equal(out1[:, :, :8], out2[:, :, :8])

    @pytest.mark.parametrize("node", [M.ConcatChannels, M.SplitDims])
    def test_branch_node_input_gradient_matches_finite_differences(self, node):
        # the branches' input gradients are summed (ConcatChannels) or
        # concatenated by channel (SplitDims)
        branches = [M.Sequential([M.Conv1d(2, 3, "same"), M.Act("sigmoid")]) for _ in range(3)]
        net = M.Sequential([node(branches), M.Flatten(), M.Dense(2)])
        spec = M.ModelSpec("branches", 5, 3, 2, "mse", net)
        params = M.init_model(spec, SplitMix64(16))
        x, gy = random_batch((2, 5, 3), seed=17), random_batch((2, 2), seed=18)
        _, caches = M.forward_batch(spec, params, x, "train")
        gx = M.backward_batch(spec, caches, gy, gradient_slots(spec))
        h = 1e-6
        for idx in np.ndindex(x.shape):
            step = np.zeros_like(x)
            step[idx] = h
            up, _ = M.forward_batch(spec, params, x + step, "infer")
            down, _ = M.forward_batch(spec, params, x - step, "infer")
            assert abs(((up - down) * gy).sum() / (2 * h) - gx[idx]) < 1e-7, idx

    def test_mcnn_identity_branch_with_delta_filter_is_pooled_sigmoid(self):
        spec, params = build_and_init("mcnn", 32, 1, 2, filter_length=5, pool_factor=2)
        x = random_batch((1, 32, 1), seed=13)
        # identity branch: force the conv to a centered delta filter
        w = np.zeros_like(params["0/br0/0.w"])
        w[:, 2, 0] = 1.0  # filter [0,0,1,0,0]: same-padded identity
        params["0/br0/0.w"] = w
        params["0/br0/0.b"] = np.zeros_like(params["0/br0/0.b"])
        branch = spec.net.children[0].branches[0]
        out = branch.forward(x, params, "infer", None, {})
        sig = 1.0 / (1.0 + np.exp(-x))
        pooled, _ = L.pool1d_forward(sig, 2, "max", "train")
        assert np.max(np.abs(out - pooled[:, :16, :][:, :, [0] * 256])) < 1e-12

    def test_fcn_time_shift_equivariance_in_interior(self):
        spec, params = build_and_init("fcn", 64, 1, 2, seed=14)
        x = random_batch((1, 64, 1), seed=15)
        shift = 9
        x_shifted = np.roll(x, shift, axis=1)
        model = M.TrainedModel(spec, params)
        a = E._final_feature_map(model, x)
        a_s = E._final_feature_map(model, x_shifted)
        margin = 16  # beyond the stacked receptive field of lengths 8+5+3
        interior = slice(margin + shift, 64 - margin)
        rolled = np.roll(a, shift, axis=1)
        assert np.max(np.abs(a_s[0, interior] - rolled[0, interior])) < 1e-9


class TestPredict:
    def test_unsliced_predict_is_argmax_of_forward(self):
        spec, params = build_and_init("fcn", 16, 1, 3, seed=1)
        ds = toy_dataset(n=6, T=16, K=3, seed=2)
        model = M.TrainedModel(spec, params)
        y = infer(model, ds.X)
        expected = np.array([int(row.argmax()) for row in y])
        assert np.array_equal(M.predict(model, ds), expected)

    def test_sliced_predict_votes_over_slices(self):
        spec, params = build_and_init("tlenet", 9, 1, 2, seed=3)
        spec.slicing = SlicingConfig(0.9, 1, (1.0,))
        model = M.TrainedModel(spec, params)
        ds = toy_dataset(n=3, T=10, K=2, seed=4)
        labels = M.predict(model, ds)
        # oracle: forward each slice by hand, vote
        for i in range(3):
            slices = np.stack([ds.X[i, s : s + 9, :] for s in (0, 1)])
            votes = infer(model, slices).argmax(axis=1)
            assert labels[i] == np.bincount(votes, minlength=2).argmax()

    @pytest.mark.parametrize("batch_size", [1, 7, 256])
    def test_batched_votes_match_per_series_vote(self, batch_size, monkeypatch):
        # chunks of 7 slices straddle series boundaries (8 slices a series);
        # this init gives every class a win and two 3-3-2 ties, which go to
        # the lowest tied class
        spec, params = build_and_init("tlenet", 12, 1, 3, seed=11)
        spec.slicing = SlicingConfig(0.6, 2, (1.0,))
        model = M.TrainedModel(spec, params)
        ds = toy_dataset(n=9, T=26, K=3, seed=8)
        starts = slice_starts(26, 12, 2)
        assert len(starts) == 8
        votes = [infer(model, np.stack([ds.X[i, s : s + 12, :] for s in starts]))
                 .argmax(axis=1) for i in range(ds.n)]
        counts = [sorted(np.bincount(v, minlength=3)) for v in votes]
        assert sum(c[-1] == c[-2] for c in counts) == 2
        expected = [np.bincount(v, minlength=3).argmax() for v in votes]
        assert set(expected) == {0, 1, 2}
        monkeypatch.setattr(M, "INFER_VALUES", batch_size * spec.layout.widest)
        assert M.infer_batch(spec) == batch_size
        assert M.predict(model, ds).tolist() == expected

    def test_single_slice_vote_equals_direct_prediction(self):
        spec, params = build_and_init("tlenet", 16, 1, 2, seed=5)
        ds = toy_dataset(n=4, T=16, K=2, seed=6)
        model = M.TrainedModel(spec, params)
        direct = infer(model, ds.X).argmax(axis=1)
        spec.slicing = SlicingConfig(1.0, 1, (1.0,))
        voted = M.predict(model, ds)
        assert np.array_equal(direct, voted)

    def test_slicing_config_presence_enforced(self):
        spec, params = build_and_init("tlenet", 16, 1, 2, seed=5)
        ds = toy_dataset(n=2, T=16, K=2, seed=6)
        with pytest.raises(ValueError, match="majority vote"):
            M.predict(M.TrainedModel(spec, params), ds)
        fcn_spec, fcn_params = build_and_init("fcn", 16, 1, 2)
        fcn_spec.slicing = SlicingConfig(0.9, 1, (1.0,))
        with pytest.raises(ValueError, match="whole series"):
            M.predict(M.TrainedModel(fcn_spec, fcn_params), ds)


def digest(*arrays):
    return hashlib.sha256(b"".join(a.tobytes() for a in arrays)).hexdigest()


def pinned_posteriors(arch, x):
    """Infer posteriors (K=3) of a fresh net at ``x``'s geometry, with its
    batch-norm running statistics set away from 0 and 1."""
    options = {"filter_length": 3, "pool_factor": 3} if arch == "mcnn" else {}
    spec, params = build_and_init(arch, x.shape[1], x.shape[2], 3, seed=54, **options)
    for name, value in params.items():
        if ".running_" in name:
            shift = 1.0 if name.endswith("var") else 0.0
            params[name] = shift + 0.5 * random_batch(value.shape, seed=55)
    return M.forward_batch(spec, params, x, "infer")[0]


class TestInferPath:
    @pytest.mark.parametrize("arch", M.ARCHITECTURES)
    def test_infer_forward_keeps_no_caches(self, arch):
        spec, params = build_small(arch, Mdims=2, K=3)
        x = random_batch((4, spec.input_length, 2), seed=50)
        assert len(M.forward_batch(spec, params, x, "infer")[1]) == 0
        assert len(M.forward_batch(spec, params, x, "train", SplitMix64(51))[1]) > 0

    # sha256 of the infer posteriors of 300 series (M=2, K=3, batch-norm
    # running statistics set away from 0 and 1), computed before infer
    # forwards dropped their caches and conv contracted in chunks; at T=64
    # each net with a wide conv spans several chunks.  A change in these
    # bits must be deliberate
    POSTERIOR_SHA256 = {
        "mlp": "e362873c75edef5cb05d6cd3cd26acd136c9e2a5282a4ef749d1aa40ccbc7544",
        "fcn": "e75037fb4d3a12629e7b6d430f9d5afdb4ace2c90a238eadb76c93f12245162f",
        "resnet": "4c07d8bcd2d6ebe27bf7706f465e26c309a216bf6ff1900dbb6cf9315ac56b2a",
        "encoder": "1c9af806c35e073c99e0da3a55fa523ac0540a0d3b43bd7a875dbcee19af7fb5",
        "mcnn": "e1c56c66cd28838ecac12ed419639061fcc8f89dc377d0ed32930d517ffd3983",
        "tlenet": "ac6739e10c23465bad34dac0867f754445c63d57da444ac7c0d922f19f5898a4",
        "mcdcnn": "a36506a3c1046599d5c8c3a3d275781d30e5aa7150e29c76386651f0e8c91d0a",
        "timecnn": "657d6fe7e8ed2d3aca9ebe514d5c1b2ffcaafe0fbf7076a63f45d9324301c1d4",
        # re-pinned when the reservoir was scaled by its exact spectral radius
        # (LAPACK eigvals) instead of a power-iteration estimate: posteriors
        # moved by at most 1.6e-10, with the same labels
        "twiesn": "6a0c41825398ff8e60f447831208fde719405b6becaa76d7a4164049c617ceaf",
    }

    @pytest.mark.parametrize("arch", M.ARCHITECTURES + ("twiesn",))
    def test_infer_posteriors_are_pinned(self, arch):
        x = random_batch((300, 64, 2), seed=52)
        if arch == "twiesn":
            fit = toy_dataset(n=12, T=64, M=2, K=3, seed=53)
            model = R.twiesn_train_single(R.ReservoirConfig(size=32, seed=3), fit)
            assert digest(R.twiesn_posteriors(model, x)) == self.POSTERIOR_SHA256[arch]
            return
        assert digest(pinned_posteriors(arch, x)) == self.POSTERIOR_SHA256[arch]

    # the same nets at T=61, where max pooling drops a remainder in mcdcnn and
    # tlenet and average pooling one in timecnn, on inputs with a run of exact
    # zeros (ties in every max window over it); computed before infer mode
    # dropped the ReLU mask and the max-pool index
    RAGGED_POSTERIOR_SHA256 = {
        "mlp": "4405c9f29527a3b4c7e8e27c2fd99381cc4244765e1c8bd505c1c0cfab62cf5e",
        "fcn": "67637380fe6bede08768f8639e53c84fb7edde26d091f3d28ccac8a05b3e1b4a",
        "resnet": "a2f19702b6d7708ebbd7cb5a912502e0690f8656b9ce38844312af8e365164dd",
        "encoder": "9fbe8cea1805688b921cf07607c4e4a6189d31ca0147e8c66f1e22736214e9ca",
        "mcnn": "5d9a882e00250b155be2be0199866119f6ab84f3f2a54ea14d712a07d6a4cfd7",
        "tlenet": "8d8bc4f531d7b657830feaa6457d1e3df64abeecda1e60802e040ab1da8e7aa4",
        "mcdcnn": "1b040b476ffdcf6922598b7d192d6cb767b6fa3925a2096093e72f2db77c4fa3",
        "timecnn": "ae6d91c6a710468be9d6743bb675d433fbd0968ac0b81cf30649be0737f4fc7b",
    }

    @pytest.mark.parametrize("arch", M.ARCHITECTURES)
    def test_infer_posteriors_are_pinned_at_a_ragged_length(self, arch):
        x = random_batch((300, 61, 2), seed=60)
        x[::2, 20:44] = 0.0
        assert digest(pinned_posteriors(arch, x)) == self.RAGGED_POSTERIOR_SHA256[arch]

    # encoder at T=150 on 150 series, one batch: the peak traced above the
    # live set was 425,003,702 bytes (405.3 MiB) before infer forwards
    # dropped their caches and conv contracted its windows in chunks
    PARENT_PEAK = 425_003_702

    def test_predict_memory_peak_is_bounded(self):
        spec, params = build_and_init("encoder", 150, 1, 2, seed=56)
        model = M.TrainedModel(spec, params)
        ds = toy_dataset(n=150, T=150, K=2, seed=57)
        tracemalloc.start()
        try:
            live = tracemalloc.get_traced_memory()[0]
            M.predict(model, ds)
            peak = tracemalloc.get_traced_memory()[1] - live
        finally:
            tracemalloc.stop()
        assert peak <= 0.4 * self.PARENT_PEAK, f"predict peaked {peak / 1e6:.1f} MB above the live set"


class TestTrainStep:
    @pytest.mark.parametrize("arch", M.ARCHITECTURES)
    def test_backward_reads_every_cache_once(self, arch):
        spec, params = build_small(arch, Mdims=2, K=3)
        x = random_batch((4, spec.input_length, 2), seed=58)
        y, caches = M.forward_batch(spec, params, x, "train", SplitMix64(59))
        M.backward_batch(spec, caches, random_batch(y.shape, seed=60), gradient_slots(spec))
        assert caches == {}

    # one train step (forward, loss, backward) of 16 series at (300, 1): the
    # peak traced above the live set while the caches all lived until the
    # backward had returned
    PARENT_PEAKS = {"fcn": 82_232_583, "resnet": 75_567_805, "encoder": 144_737_231}

    @pytest.mark.parametrize("arch", sorted(PARENT_PEAKS))
    def test_train_step_memory_peak_is_bounded(self, arch):
        spec, params = build_and_init(arch, 300, 1, 2, seed=61)
        x = random_batch((16, 300, 1), seed=62)
        target = np.eye(2)[np.arange(16) % 2]
        grads = gradient_slots(spec)
        tracemalloc.start()
        try:
            live = tracemalloc.get_traced_memory()[0]
            pred, caches = M.forward_batch(spec, params, x, "train", SplitMix64(63))
            _, gpred = L.LOSSES[spec.loss](pred, target)
            M.backward_batch(spec, caches, gpred, grads)
            peak = tracemalloc.get_traced_memory()[1] - live
        finally:
            tracemalloc.stop()
        assert peak <= 0.95 * self.PARENT_PEAKS[arch], (
            f"a train step peaked {peak / 1e6:.1f} MB above the live set")


class TestInferBatch:
    """Series per infer forward: ``INFER_VALUES`` over the widest node output."""

    def test_wide_nets_at_the_gunpoint_geometry(self):
        # 2^17 values over 256 x 150 (fcn), 64 x 150 (resnet), 128 x 150 (encoder)
        got = {a: M.infer_batch(M.build_model(a, 150, 1, 2)) for a in ("fcn", "resnet", "encoder")}
        assert got == {"fcn": 3, "resnet": 13, "encoder": 6}

    @pytest.mark.parametrize("arch", ["mlp", "mcdcnn", "timecnn"])
    def test_small_nets_take_a_120_series_test_split_in_one_forward(self, arch):
        assert M.infer_batch(M.build_model(arch, 100, 3, 3)) >= 120

    def test_widest_counts_every_node_output(self):
        # mcnn's concatenated branches, 45 steps x 7 x 256 channels, outgrow
        # every leaf; mcdcnn's widest is a branch convolution, 8 channels x 100
        assert M.build_mcnn(135, 1, 2, 7, 3).layout.widest == 45 * 7 * 256
        assert M.build_mcdcnn(100, 3, 3).layout.widest == 800

    def test_a_spec_is_laid_out_once(self, monkeypatch):
        walks = []
        real = M.Node.layout
        monkeypatch.setattr(M.Node, "layout", lambda self, *a: walks.append(self) or real(self, *a))
        spec = M.build_model("timecnn", 60, 2, 3)
        nodes = len(walks)
        M.init_model(spec, SplitMix64(0))
        spec.layout.params
        M.predict(M.TrainedModel(spec, M.init_model(spec, SplitMix64(1))),
                  toy_dataset(n=4, T=60, M=2, K=3))
        assert nodes > 0 and len(walks) == nodes

    @pytest.mark.parametrize("arch", M.ARCHITECTURES)
    def test_labels_do_not_depend_on_the_batch(self, arch, monkeypatch):
        # a batch of 256 and the net's own batch split the series (mcnn's and
        # tlenet's slices) at different places
        options = {"filter_length": 3, "pool_factor": 3} if arch == "mcnn" else {}
        T = 57 if arch in M.SLICE_WARPS else 64
        spec, params = build_and_init(arch, T, 2, 3, seed=58, **options)
        if arch in M.SLICE_WARPS:
            spec.slicing = SlicingConfig(0.9, 3, (1.0,))
        model = M.TrainedModel(spec, params)
        ds = toy_dataset(n=60 if arch == "mcnn" else 300, T=64, M=2, K=3, seed=59)
        assert M.infer_batch(spec) != 256
        labels = M.predict(model, ds)
        monkeypatch.setattr(M, "INFER_VALUES", 256 * spec.layout.widest)
        assert np.array_equal(labels, M.predict(model, ds))

    def test_fcn_predict_peak_is_bounded(self):
        # one forward of all 150 series at T=150 peaked 143.7 MB above the live
        # set; 3 series a forward peak at 5.1 MB
        spec, params = build_and_init("fcn", 150, 1, 2, seed=56)
        model = M.TrainedModel(spec, params)
        ds = toy_dataset(n=150, T=150, K=2, seed=57)
        tracemalloc.start()
        try:
            live = tracemalloc.get_traced_memory()[0]
            M.predict(model, ds)
            peak = tracemalloc.get_traced_memory()[1] - live
        finally:
            tracemalloc.stop()
        assert peak <= 10e6, f"predict peaked {peak / 1e6:.1f} MB above the live set"


class TestSerialization:
    @pytest.mark.parametrize("arch", M.ARCHITECTURES)
    def test_round_trip(self, arch, tmp_path, monkeypatch):
        spec, params = build_small(arch, seed=20)
        T = spec.input_length
        if arch in ("mcnn", "tlenet"):
            spec.slicing = SlicingConfig(0.9, 3, (1.0, 2.0, 0.5))
        model = M.TrainedModel(spec, params, seed=20, epochs_run=7, best_epoch=3)
        path = tmp_path / "model.model"
        M.save_model(model, path)

        def no_draws(*args):
            raise AssertionError("load_model drew initial weights")

        monkeypatch.setattr(M, "glorot_uniform", no_draws)
        loaded = M.load_model(path)
        assert loaded.spec.architecture_id == arch
        assert loaded.spec.options == spec.options and loaded.spec.slicing == spec.slicing
        assert loaded.seed == 20 and loaded.epochs_run == 7 and loaded.best_epoch == 3
        assert list(loaded.params) == list(params)
        for name in params:
            assert loaded.params[name].tobytes() == params[name].tobytes()
        x = random_batch((2, T, 1), seed=21)
        assert np.array_equal(
            infer(model, x), infer(loaded, x)
        )

    def test_round_trip_with_slicing_and_options(self, tmp_path):
        spec, params = build_and_init("mcnn", 27, 1, 2, filter_length=3, pool_factor=3)
        spec.slicing = SlicingConfig(0.9, 3, (1.0, 2.0, 0.5))
        model = M.TrainedModel(spec, params)
        M.save_model(model, tmp_path / "m.model")
        loaded = M.load_model(tmp_path / "m.model")
        assert loaded.spec.options == {"filter_length": 3, "pool_factor": 3}
        assert loaded.spec.slicing == SlicingConfig(0.9, 3, (1.0, 2.0, 0.5))

    def test_blob_is_little_endian_float64_in_spec_order(self, tmp_path):
        spec, params = build_and_init("mlp", 4, 1, 2)
        model = M.TrainedModel(spec, params)
        M.save_model(model, tmp_path / "m.model")
        raw = (tmp_path / "m.model.bin").read_bytes()
        expected = b"".join(
            np.ascontiguousarray(v, dtype="<f8").tobytes() for v in params.values()
        )
        assert raw == expected

    @pytest.mark.parametrize("change", ["cut", "extend"])
    def test_blob_size_mismatch_raises(self, tmp_path, change):
        for arch in M.ARCHITECTURES:
            spec, params = build_small(arch, Mdims=2, K=3)
            M.save_model(M.TrainedModel(spec, params), tmp_path / f"{arch}.model")
            blob = tmp_path / f"{arch}.model.bin"
            raw = blob.read_bytes()
            expected = 8 * sum(v.size for v in params.values())
            assert len(raw) == expected
            raw = raw[:-3] if change == "cut" else raw + bytes(64)
            blob.write_bytes(raw)
            with pytest.raises(BlobSizeError,
                               match=f"{arch}.model.bin has {len(raw)} bytes.*need {expected}"):
                M.load_model(tmp_path / f"{arch}.model")


class TestParamLayout:
    @pytest.mark.parametrize("arch", M.ARCHITECTURES)
    def test_gradients_match_declared_names_and_shapes(self, arch):
        # the optimizer never zeroes the gradient vector: every trained slot must be
        # written whole on every step, and a running statistic's never
        spec, params = build_small(arch, Mdims=2, K=3)
        x = random_batch((3, spec.input_length, 2), seed=30)
        y, caches = M.forward_batch(spec, params, x, "train", SplitMix64(31))
        grads = gradient_slots(spec, np.nan)
        M.backward_batch(spec, caches, random_batch(y.shape, seed=32), grads)
        assert grads.keys() == params.keys()
        for name, g in grads.items():
            assert g.shape == params[name].shape, name
            written = np.isfinite(g)
            assert written.all() if M.trainable(name) else not written.any(), name

    # sha256 of the concatenated initial parameters; a change here changes
    # every seeded run, so it must be deliberate
    INIT_SHA256 = {
        "mlp": "f3164ec87b1e5716f676043d1eecba470d7e669ad5f654ee99c051c2ba243647",
        "fcn": "29bb29278feda9d40bacc878937219baa8fab721b366281e5eab0ddacff3e76f",
        "resnet": "aa98f997be6478786327fb9c03952b4170f802d7d5bdc0ca039bf20021c0d212",
        "encoder": "fbd7dd04c8d1e9ff962a91baaa13c5c71d293bf385e3373fed9133b1bed2aa3a",
        "mcnn": "4fb3dfc0ddda5c9f99a29490fc74d4211276c6814303eb340e48132646a6351d",
        "tlenet": "45b3e49996f952dbf37b84d191fc650d810f9e250edc7982150bf837a7182c2b",
        "mcdcnn": "cd577dec50232bdd11345912f4daf275dba3003517441215b0817edf9f139097",
        "timecnn": "f2ffd99dc243c4c2df0e0e50e914e45e9d6f0ea9845117693a5e41c148b0861a",
    }

    @pytest.mark.parametrize("arch", M.ARCHITECTURES)
    def test_init_bits_are_pinned(self, arch):
        spec, params = build_small(arch, Mdims=2, K=3)
        digest = hashlib.sha256(b"".join(v.tobytes() for v in params.values())).hexdigest()
        assert digest == self.INIT_SHA256[arch]


class TestGapHead:
    def test_gap_headed_architectures(self):
        for arch in ("fcn", "resnet"):
            spec = M.build_model(arch, 16, 1, 2)
            gap, dense = M.gap_head(spec)
            assert isinstance(spec.net.children[gap], M.Gap)
            assert spec.net.children[gap + 1] is dense
            assert dense.keys == (f"{gap + 1}.w", f"{gap + 1}.b")

    @pytest.mark.parametrize("arch", ["mlp", "tlenet", "mcdcnn", "timecnn", "encoder"])
    def test_non_gap_architectures_rejected(self, arch):
        T = 60 if arch == "timecnn" else 16
        spec = M.build_model(arch, T, 1, 2)
        with pytest.raises(UnsupportedArchitectureError):
            M.gap_head(spec)
