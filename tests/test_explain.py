import tracemalloc

import numpy as np
import pytest

from conftest import random_batch, toy_dataset
from tsclab import explain as E
from tsclab import models as M
from tsclab.errors import NumericError, UnsupportedArchitectureError
from tsclab.tensor import SplitMix64


def make_model(arch="fcn", T=24, K=2, seed=0):
    spec = M.build_model(arch, T, 1, K)
    params = M.init_model(spec, SplitMix64(seed))
    return M.TrainedModel(spec, params, seed=seed)


def procrustes_residual(reference, recovered):
    """Best rigid alignment (rotation/reflection/translation) residual."""
    a = reference - reference.mean(axis=0)
    b = recovered - recovered.mean(axis=0)
    u, _, vt = np.linalg.svd(b.T @ a)
    rot = u @ vt
    return float(np.max(np.abs(b @ rot - a)))


class TestGapFeatures:
    def test_feature_width_is_final_conv_filters(self):
        for arch in ("fcn", "resnet"):
            model = make_model(arch)
            ds = toy_dataset(n=5, T=24, seed=1)
            feats = E.gap_features(model, ds)
            width = 128 if arch == "fcn" else 64
            assert feats.shape == (5, width)

    def test_deterministic_for_fixed_seed(self):
        ds = toy_dataset(n=3, T=24, seed=2)
        f1 = E.gap_features(make_model(seed=9), ds)
        f2 = E.gap_features(make_model(seed=9), ds)
        assert np.array_equal(f1, f2)

    def test_features_reproduce_logits_through_linear_head(self):
        model = make_model("resnet", seed=3)
        ds = toy_dataset(n=4, T=24, seed=4)
        feats = E.gap_features(model, ds)
        _, dense = M.gap_head(model.spec)
        w, b = (model.params[key] for key in dense.keys)
        logits = feats @ w + b
        probs, _ = M.forward_batch(model.spec, model.params, ds.X, "infer")
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        assert np.max(np.abs(e / e.sum(axis=1, keepdims=True) - probs)) < 1e-9

    def test_non_gap_model_rejected(self):
        model = make_model("mlp")
        with pytest.raises(UnsupportedArchitectureError):
            E.gap_features(model, toy_dataset(n=2, T=24, seed=5))


class TestCam:
    def test_gap_identity_sum_over_time(self):
        # mean_t CAM_c(t) + bias_c must equal the class logit exactly
        for seed in range(5):
            for arch in ("fcn", "resnet"):
                model = make_model(arch, seed=seed)
                series = random_batch((24, 1), seed=seed + 10)
                for c in range(model.spec.classes):
                    cam = E.compute_cam(model, series, c)
                    assert abs(cam.values.mean() + cam.bias - cam.logit) < 1e-9

    def test_single_filter_head_reproduces_activation_channel(self):
        model = make_model("fcn", seed=6)
        w_key = M.gap_head(model.spec)[1].keys[0]
        w = np.zeros_like(model.params[w_key])
        w[7, 0] = 1.0  # class 0 reads exactly filter 7
        model.params[w_key] = w
        series = random_batch((24, 1), seed=7)
        cam = E.compute_cam(model, series, 0)
        assert np.array_equal(cam.values, cam.activations[:, 7])

    def test_zero_class_weights_give_zero_cam(self):
        model = make_model("fcn", seed=8)
        w_key = M.gap_head(model.spec)[1].keys[0]
        model.params[w_key] = np.zeros_like(model.params[w_key])
        cam = E.compute_cam(model, random_batch((24, 1), seed=9), 1)
        assert not cam.values.any()
        assert not cam.normalized.any()

    def test_normalized_range(self):
        model = make_model("resnet", seed=10)
        cam = E.compute_cam(model, random_batch((24, 1), seed=11), 0)
        assert cam.normalized.min() == 0.0 and cam.normalized.max() == 1.0

    def test_class_index_out_of_range(self):
        model = make_model("fcn")
        with pytest.raises(ValueError):
            E.compute_cam(model, random_batch((24, 1)), 5)

    def test_cam_length_equals_input_length(self):
        model = make_model("fcn", T=37)
        cam = E.compute_cam(model, random_batch((37, 1), seed=12), 0)
        assert cam.values.shape == (37,)


def reference_distance_matrix(features):
    """``distance_matrix`` as one ``[N, N, C]`` difference array, before it went in row blocks."""
    diff = features[:, None, :] - features[None, :, :]
    d = np.sqrt((diff * diff).sum(axis=2))
    np.fill_diagonal(d, 0.0)
    return d


class TestDistanceMatrix:
    @pytest.mark.parametrize("shape", [(150, 128), (300, 128), (97, 64), (40, 7), (2, 1)])
    @pytest.mark.parametrize("values", [None, 1])
    def test_row_blocks_keep_the_bits_of_the_whole_matrix(self, shape, values, monkeypatch):
        # values=1 walks one row a block; (97, 64) leaves a ragged last block
        if values is not None:
            monkeypatch.setattr(E, "INFER_VALUES", values)
        f = random_batch(shape, seed=shape[0])
        assert E.distance_matrix(f).tobytes() == reference_distance_matrix(f).tobytes()

    @pytest.mark.parametrize("shape", [(150, 128), (300, 128)])
    def test_peak_is_two_blocks_plus_the_matrix(self, shape):
        # a block's differences and their squares, or the last block's beside
        # the next; the whole [N, N, C] difference array peaked 44.1 MB above
        # the live set at (150, 128)
        f = random_batch(shape, seed=4)
        tracemalloc.start()
        try:
            live = tracemalloc.get_traced_memory()[0]
            d = E.distance_matrix(f)
            peak = tracemalloc.get_traced_memory()[1] - live
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 8 * E.INFER_VALUES + d.nbytes + (1 << 17), f"{peak / 1e6:.2f} MB"

    def test_identical_rows_zero_distance(self):
        f = np.ones((3, 4))
        d = E.distance_matrix(f)
        assert not d.any()

    def test_three_four_five(self):
        f = np.array([[0.0, 0.0], [3.0, 4.0]])
        d = E.distance_matrix(f)
        assert d[0, 1] == pytest.approx(5.0)

    def test_against_double_loop_oracle(self):
        f = random_batch((6, 4), seed=0)
        d = E.distance_matrix(f)
        for i in range(6):
            for j in range(6):
                expected = np.sqrt(((f[i] - f[j]) ** 2).sum())
                assert abs(d[i, j] - expected) < 1e-12

    def test_symmetry_and_zero_diagonal(self):
        d = E.distance_matrix(random_batch((8, 3), seed=1))
        assert np.array_equal(d, d.T)
        assert not np.diag(d).any()


class TestMds:
    def test_recovers_planted_2d_configuration(self):
        pts = random_batch((15, 2), seed=2, scale=3.0)
        d = E.distance_matrix(pts)
        emb = E.mds_embed(d)
        assert emb.stress < 1e-6
        assert procrustes_residual(pts, emb.points) < 1e-6

    def test_two_points_on_a_line(self):
        d = np.array([[0.0, 2.5], [2.5, 0.0]])
        emb = E.mds_embed(d)
        assert abs(np.linalg.norm(emb.points[0] - emb.points[1]) - 2.5) < 1e-9
        assert emb.stress < 1e-9

    def test_stress_trace_non_increasing(self):
        for seed in range(10):
            feats = random_batch((10, 6), seed=seed)
            emb = E.mds_embed(E.distance_matrix(feats))
            trace = np.array(emb.stress_trace)
            assert np.all(np.diff(trace) <= 1e-12)

    def test_stress_invariant_under_row_permutation(self):
        feats = random_batch((9, 5), seed=20)
        d = E.distance_matrix(feats)
        perm = np.array([3, 1, 4, 0, 8, 6, 2, 7, 5])
        s1 = E.mds_embed(d).stress
        s2 = E.mds_embed(d[np.ix_(perm, perm)]).stress
        assert abs(s1 - s2) < 1e-9

    def test_non_euclidean_start_keeps_two_axes(self):
        # B's eigenvalues are -0.382, -0.023, 0, 0.350 and 3.973: the start
        # takes 3.973 and 0.350, not the larger-magnitude -0.382, which
        # would zero the second axis and leave SMACOF on a line
        d = E.distance_matrix(random_batch((5, 2), seed=3)) ** 1.5
        emb = E.mds_embed(d)
        assert np.any(emb.points[:, 1] != 0.0)
        assert emb.stress < 0.1

    def test_all_zero_matrix_rejected(self):
        with pytest.raises(NumericError):
            E.mds_embed(np.zeros((4, 4)))

    def test_invalid_matrices_rejected(self):
        with pytest.raises(ValueError):
            E.mds_embed(np.ones((3, 4)))
        bad = np.array([[0.0, 1.0], [2.0, 0.0]])
        with pytest.raises(ValueError):
            E.mds_embed(bad)


class TestExports:
    def test_constant_zero_cam_is_entirely_blue(self):
        series = random_batch((10,), seed=0)
        svg = E.export_cam_svg(series, np.zeros(10))
        assert svg.count("#0000ff") == 9  # one segment per consecutive pair
        assert "#ff0000" not in svg

    def test_full_cam_is_red(self):
        svg = E.export_cam_svg(random_batch((5,), seed=1), np.ones(5))
        assert svg.count("#ff0000") == 4

    def test_ramp_endpoints(self):
        assert E._ramp_color(0.0) == "#0000ff"
        assert E._ramp_color(1.0) == "#ff0000"
        assert E._ramp_color(0.5) == "#80007f"

    def test_byte_identical_outputs(self):
        series = random_batch((20,), seed=2)
        cam = np.linspace(0, 1, 20)
        assert E.export_cam_svg(series, cam) == E.export_cam_svg(series, cam)
        pts = random_batch((6, 2), seed=3)
        emb = E.mds_embed(E.distance_matrix(pts))
        labels = np.array([0, 1, 0, 1, 0, 1])
        assert E.export_mds_svg(emb, labels) == E.export_mds_svg(emb, labels)

    def test_mds_scatter_mark_count(self):
        pts = random_batch((3, 2), seed=4)
        emb = E.mds_embed(E.distance_matrix(pts))
        svg = E.export_mds_svg(emb, np.array([0, 1, 0]))
        # 3 scatter circles plus 2 legend swatches
        assert svg.count("<circle") == 5
        assert svg.count('fill-opacity="0.8"') == 3

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            E.export_cam_svg(np.zeros(5), np.zeros(4))

    def test_csv_outputs(self):
        model = make_model("fcn", seed=13)
        cam = E.compute_cam(model, random_batch((24, 1), seed=14), 0)
        text = E.cam_csv(cam)
        lines = text.strip().splitlines()
        assert lines[0] == "t,value"
        assert len(lines) == 25
        assert float(lines[1].split(",")[1]) == pytest.approx(cam.values[0])

        pts = random_batch((4, 2), seed=15)
        emb = E.mds_embed(E.distance_matrix(pts))
        mtext = E.mds_csv(emb, np.array([0, 1, 1, 0]))
        mlines = mtext.strip().splitlines()
        assert mlines[0] == "x,y,label"
        assert len(mlines) == 5
