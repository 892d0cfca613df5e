import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import save_mts_long
from tsclab import data as D
from tsclab.errors import DataFormatError, IntegrityError, VocabularyError


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestUcrLoader:
    def test_two_line_comma_file(self, tmp_path):
        train = write(tmp_path, "Toy_TRAIN.txt", "1,0.0,1.0\n2,1.0,0.0\n")
        test = write(tmp_path, "Toy_TEST.txt", "1,0.5,0.5\n2,0.25,0.75\n")
        tr, te = D.load_pair(train, test)
        assert tr.n == 2 and tr.length == 2 and tr.dims == 1 and tr.n_classes == 2
        assert np.array_equal(tr.Y, [[1, 0], [0, 1]])
        assert tr.vocabulary == (1.0, 2.0)
        assert tr.meta.name == "Toy"

    def test_pair_files_keep_their_own_width(self, tmp_path):
        train = write(tmp_path, "W_TRAIN.txt", "1,0.0,1.0\n2,1.0,0.0\n")
        test = write(tmp_path, "W_TEST.txt", "1,0.5,0.5,0.5\n")
        tr, te = D.load_pair(train, test)
        assert (tr.length, te.length) == (2, 3)
        assert te.meta.length_range == (3, 3) and te.X[0, :, 0].tolist() == [0.5] * 3

    def test_tab_delimited_variant_is_identical(self, tmp_path):
        comma = write(tmp_path, "a.txt", "1,0.0,1.0\n2,1.0,0.0\n")
        tab = write(tmp_path, "b.txt", "1\t0.0\t1.0\n2\t1.0\t0.0\n")
        ds_comma = D.load_single(comma)
        ds_tab = D.load_single(tab)
        assert np.array_equal(ds_comma.X, ds_tab.X)
        assert np.array_equal(ds_comma.Y, ds_tab.Y)

    def test_ragged_row_reports_line_number(self, tmp_path):
        path = write(tmp_path, "bad.txt", "1,0.0,1.0\n2,1.0\n")
        with pytest.raises(DataFormatError, match="bad.txt:2"):
            D.load_single(path)

    def test_non_numeric_reports_line_number(self, tmp_path):
        path = write(tmp_path, "bad.txt", "1,0.0,oops\n")
        with pytest.raises(DataFormatError, match="bad.txt:1"):
            D.load_single(path)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "NaN", "Infinity"])
    def test_non_finite_value_reports_line_and_field(self, tmp_path, cell):
        path = write(tmp_path, "bad.txt", f"1,0.0,1.0\n\n2,1.0,{cell}\n")
        with pytest.raises(DataFormatError) as info:
            D.load_single(path)
        assert str(info.value) == (f"bad.txt:3: field 3 is {float(cell)}, "
                                   "not a finite number")

    def test_unseen_test_label_rejected(self, tmp_path):
        train = write(tmp_path, "t_TRAIN.txt", "1,0.0,1.0\n")
        test = write(tmp_path, "t_TEST.txt", "3,0.0,1.0\n")
        with pytest.raises(VocabularyError):
            D.load_pair(train, test)

    def test_label_vocabulary_sorted_ascending(self, tmp_path):
        path = write(tmp_path, "v.txt", "5,0.0,1.0\n-1,1.0,0.0\n2,0.5,0.5\n")
        ds = D.load_single(path)
        assert ds.vocabulary == (-1.0, 2.0, 5.0)
        assert np.array_equal(ds.labels(), [2, 0, 1])

    @pytest.mark.parametrize("sep", [",", "\t"])
    def test_empty_field_is_refused_naming_line_and_field(self, tmp_path, sep):
        # skipping the empty field would load [0.5, 0.7], the 0.7 a step early
        path = write(tmp_path, "gap.txt", sep.join(["1", "0.5", "", "0.7"]) + "\n")
        with pytest.raises(DataFormatError) as info:
            D.load_single(path)
        assert str(info.value) == "gap.txt:1: field 3 is empty"

    def test_empty_field_is_blamed_on_its_own_line(self, tmp_path):
        # the fault is line 1's gap, not line 2's width
        path = write(tmp_path, "gap.txt", "1,0.5,,0.7\n2,0.1,0.2\n")
        with pytest.raises(DataFormatError) as info:
            D.load_single(path)
        assert str(info.value) == "gap.txt:1: field 3 is empty"

    @pytest.mark.parametrize("ending", [",", ",,", "\t"])
    def test_row_may_end_in_its_delimiter(self, tmp_path, ending):
        sep = ending[0]
        rows = [sep.join(["1", "0.0", "1.0"]) + ending, sep.join(["2", "1.0", "0.0"])]
        ds = D.load_single(write(tmp_path, "end.txt", "\n".join(rows) + "\n"))
        assert ds.X[:, :, 0].tolist() == [[0.0, 1.0], [1.0, 0.0]]


LONG_HEADER = "series_id,dimension,timestamp,value,label\n"


def test_ucr_and_long_pairs_of_the_same_series_load_identically(tmp_path):
    rng = np.random.default_rng(3)
    splits = {"TRAIN": (rng.normal(size=(5, 7)).tolist(), [2, 1, 2, 3, 1]),
              "TEST": (rng.normal(size=(4, 7)).tolist(), [1, 3, 3, 2])}
    pairs = {"ucr": [], "long": []}
    for split, (X, labels) in splits.items():
        ucr = [",".join([str(label)] + [repr(v) for v in row]) for row, label in zip(X, labels)]
        long = [f"s{i},0,{t},{v!r},{label}"
                for i, (row, label) in enumerate(zip(X, labels)) for t, v in enumerate(row)]
        pairs["ucr"].append(write(tmp_path, f"Toy_{split}.txt", "\n".join(ucr) + "\n"))
        pairs["long"].append(write(tmp_path, f"Toy_{split}.csv",
                                   LONG_HEADER + "\n".join(long) + "\n"))
    ucr, long = D.load_pair(*pairs["ucr"]), D.load_pair(*pairs["long"])
    for a, b in zip(ucr, long):
        assert a.X.tobytes() == b.X.tobytes() and a.X.shape == b.X.shape
        assert a.Y.tobytes() == b.Y.tobytes() and a.Y.shape == b.Y.shape
        assert a.vocabulary == b.vocabulary == (1.0, 2.0, 3.0)
        assert a.meta.length_range == b.meta.length_range == (7, 7)
    assert ucr[1].X.tobytes() == np.array(splits["TEST"][0]).tobytes()


class TestLongLoader:
    def test_single_series(self, tmp_path):
        rows = [
            "s1,0,0,0.1,a", "s1,0,1,0.2,a", "s1,0,2,0.3,a",
            "s1,1,0,1.0,a", "s1,1,1,1.1,a", "s1,1,2,1.2,a",
        ]
        path = write(tmp_path, "one.csv", LONG_HEADER + "\n".join(rows) + "\n")
        ds = D.load_single(path)
        assert ds.X.shape == (1, 3, 2)
        assert np.allclose(ds.X[0, :, 0], [0.1, 0.2, 0.3])
        assert ds.vocabulary == ("a",)

    def test_variable_lengths_interpolated_to_max(self, tmp_path):
        rows = []
        for t in range(3):
            rows.append(f"s1,0,{t},{float(t)},x")
        for t in range(5):
            rows.append(f"s2,0,{t},{float(t)},y")
        path = write(tmp_path, "var.csv", LONG_HEADER + "\n".join(rows) + "\n")
        ds = D.load_single(path)
        assert ds.X.shape == (2, 5, 1)
        assert np.allclose(ds.X[0, :, 0], [0.0, 0.5, 1.0, 1.5, 2.0])
        assert ds.meta.length_range == (3, 5)

    def test_duplicate_cell_rejected(self, tmp_path):
        rows = ["s1,0,0,0.1,a", "s1,0,0,0.2,a", "s1,0,1,0.3,a"]
        path = write(tmp_path, "dup.csv", LONG_HEADER + "\n".join(rows) + "\n")
        with pytest.raises(IntegrityError, match="duplicate"):
            D.load_single(path)

    def test_conflicting_label_rejected(self, tmp_path):
        rows = ["s1,0,0,0.1,a", "s1,0,1,0.2,b"]
        path = write(tmp_path, "lab.csv", LONG_HEADER + "\n".join(rows) + "\n")
        with pytest.raises(IntegrityError, match="conflicting"):
            D.load_single(path)

    def test_missing_dimension_rejected(self, tmp_path):
        rows = [
            "s1,0,0,0.1,a", "s1,0,1,0.2,a", "s1,1,0,0.1,a", "s1,1,1,0.2,a",
            "s2,0,0,0.5,a", "s2,0,1,0.6,a",
        ]
        path = write(tmp_path, "md.csv", LONG_HEADER + "\n".join(rows) + "\n")
        with pytest.raises(IntegrityError, match="missing dimension"):
            D.load_single(path)

    def test_non_contiguous_timestamps_rejected(self, tmp_path):
        rows = ["s1,0,0,0.1,a", "s1,0,2,0.2,a"]
        path = write(tmp_path, "tc.csv", LONG_HEADER + "\n".join(rows) + "\n")
        with pytest.raises(IntegrityError, match="contiguous"):
            D.load_single(path)

    def test_wrong_header_rejected(self, tmp_path):
        train = write(tmp_path, "tr.csv", LONG_HEADER + "s1,0,0,0.1,a\n")
        path = write(tmp_path, "h.csv", "id,dim,t,v,y\ns1,0,0,0.1,a\n")
        with pytest.raises(DataFormatError, match="header"):
            D.load_pair(train, path)

    def test_round_trip(self, tmp_path):
        rows = []
        for sid, label in (("s1", "a"), ("s2", "b")):
            for dim in range(2):
                for t in range(4):
                    rows.append(f"{sid},{dim},{t},{0.1 * t + dim + (sid == 's2')},{label}")
        path = write(tmp_path, "rt.csv", LONG_HEADER + "\n".join(rows) + "\n")
        ds = D.load_single(path)
        out = tmp_path / "rt2.csv"
        save_mts_long(ds, out)
        ds2 = D.load_single(out)
        assert np.array_equal(ds.X, ds2.X)
        assert np.array_equal(ds.Y, ds2.Y)
        assert ds.vocabulary == ds2.vocabulary

    def test_pair_shares_target_length_and_vocabulary(self, tmp_path):
        def series(sid, T, label):
            return [f"{sid},0,{t},{float(t)},{label}" for t in range(T)]

        train = write(
            tmp_path, "tr.csv", LONG_HEADER + "\n".join(series("a", 4, "x") + series("b", 6, "y")) + "\n"
        )
        test = write(
            tmp_path, "te.csv", LONG_HEADER + "\n".join(series("c", 9, "x")) + "\n"
        )
        tr, te = D.load_pair(train, test)
        assert tr.length == te.length == 9
        assert tr.vocabulary == te.vocabulary == ("x", "y")

    GOOD = ["s1,0,0,0.1,a", "s1,0,1,0.2,a", "s1,1,0,1.0,a", "s1,1,1,1.1,a",
            "s2,0,0,0.5,b", "s2,0,1,0.6,b", "s2,1,0,1.5,b", "s2,1,1,1.6,b"]

    @pytest.mark.parametrize("edit, error, message", [
        (lambda r: r[:2] + ["s1,1,0,1.0"] + r[3:], DataFormatError,
         "f.csv:4: expected 5 fields, got 4"),
        (lambda r: r[:5] + ["s2,0,1,0.6,b,extra"] + r[6:], DataFormatError,
         "f.csv:7: expected 5 fields, got 6"),
        (lambda r: r[:3] + ["s1,1,1,oops,a"] + r[4:], DataFormatError,
         "f.csv:5: could not convert string to float: 'oops'"),
        (lambda r: r[:3] + ["s1,1,one,1.1,a"] + r[4:], DataFormatError,
         "f.csv:5: invalid literal for int() with base 10: 'one'"),
        (lambda r: r[:3] + ["s1,x,1,1.1,a"] + r[4:], DataFormatError,
         "f.csv:5: invalid literal for int() with base 10: 'x'"),
        (lambda r: r[:3] + ["s1,1,1,nan,a"] + r[4:], DataFormatError,
         "f.csv:5: value nan is not a finite number"),
        (lambda r: r[:6] + ["s2,1,0,inf,b"] + r[7:], DataFormatError,
         "f.csv:8: value inf is not a finite number"),
        (lambda r: r[:3] + ["s1,1,1,-inf,a", "s1,x,1,1.1,a"] + r[4:], DataFormatError,
         "f.csv:6: invalid literal for int() with base 10: 'x'"),
        (lambda r: r + ["s1,1,0,-inf,a"], DataFormatError,
         "f.csv:10: value -inf is not a finite number"),
        (lambda r: r + ["s1,1,0,9.9,a"], IntegrityError,
         "f.csv:10: duplicate entry for series 's1' dim 1 t 0"),
        (lambda r: r[:6] + ["s2,1,0,1.5,a"] + r[7:], IntegrityError,
         "f.csv:8: series 's2' has conflicting labels 'b' and 'a'"),
        (lambda r: r[:6], IntegrityError, "f.csv: series 's2' is missing dimension 1"),
        (lambda r: r[:5] + ["s2,0,2,0.6,b"] + r[6:], IntegrityError,
         "f.csv: series 's2' dim 0: timestamps not contiguous from 0"),
        (lambda r: r + ["s2,1,2,1.7,b"], IntegrityError,
         "f.csv: series 's2': dimensions disagree on length"),
        (lambda r: [], DataFormatError, "f.csv: no data rows"),
    ], ids=["4-fields", "6-fields", "value", "timestamp", "dimension", "nan", "inf",
            "parse-before-finite", "non-finite-before-duplicate", "duplicate",
            "conflicting-label", "missing-dimension", "non-contiguous", "lengths-disagree",
            "no-rows"])
    def test_single_fault_message(self, tmp_path, edit, error, message):
        path = write(tmp_path, "f.csv", LONG_HEADER + "\n".join(edit(self.GOOD)) + "\n")
        with pytest.raises(error) as info:
            D.load_single(path)
        assert str(info.value) == message

    def test_series_fault_in_test_file_names_test_file(self, tmp_path):
        train = write(tmp_path, "tr.csv", LONG_HEADER + "\n".join(self.GOOD) + "\n")
        test = write(tmp_path, "te.csv", LONG_HEADER + "\n".join(self.GOOD[:6]) + "\n")
        with pytest.raises(IntegrityError) as info:
            D.load_pair(train, test)
        assert str(info.value) == "te.csv: series 's2' is missing dimension 1"

    def test_fault_line_counts_blank_lines(self, tmp_path):
        rows = self.GOOD[:3] + ["", "  ", "s1,1,1,oops,a"] + self.GOOD[4:]
        path = write(tmp_path, "f.csv", LONG_HEADER + "\n".join(rows) + "\n")
        with pytest.raises(DataFormatError, match="^f.csv:7: could not"):
            D.load_single(path)

    @pytest.mark.parametrize("first, second, line", [("a", "1", 6), ("1", "a", 6)])
    def test_labels_mixing_numbers_and_text_are_refused(self, tmp_path, first, second, line):
        rows = [r.replace(",a", f",{first}").replace(",b", f",{second}") for r in self.GOOD]
        path = write(tmp_path, "f.csv", LONG_HEADER + "\n".join(rows) + "\n")
        with pytest.raises(DataFormatError) as info:
            D.load_single(path)
        assert str(info.value) == f"f.csv:{line}: labels mix numbers and text ('1' and 'a')"

    @pytest.mark.parametrize("pair", [False, True])
    def test_one_timestamp_series_names_file_and_series(self, tmp_path, pair):
        rows = self.GOOD[:4] + ["s2,0,0,0.5,b", "s2,1,0,1.5,b"]
        path = write(tmp_path, "f.csv", LONG_HEADER + "\n".join(rows) + "\n")
        with pytest.raises(IntegrityError) as info:
            D.load_pair(path, path) if pair else D.load_single(path)
        assert str(info.value) == ("f.csv: series 's2' has one timestamp; "
                                   "interpolating it to length 2 needs at least 2")

    def test_all_one_timestamp_series_need_no_interpolation(self, tmp_path):
        rows = ["s1,0,0,0.5,a", "s2,0,0,1.5,b"]
        ds = D.load_single(write(tmp_path, "f.csv", LONG_HEADER + "\n".join(rows) + "\n"))
        assert ds.X.shape == (2, 1, 1)

    def test_unseen_test_label_names_test_file(self, tmp_path):
        train = write(tmp_path, "tr.csv", LONG_HEADER + "\n".join(self.GOOD) + "\n")
        rows = [r.replace(",b", ",z") for r in self.GOOD]
        test = write(tmp_path, "te.csv", LONG_HEADER + "\n".join(rows) + "\n")
        with pytest.raises(VocabularyError, match="^te.csv: test label 'z' absent"):
            D.load_pair(train, test)

    def test_test_dimension_ids_other_than_the_train_files_are_refused(self, tmp_path):
        def rows(dims):
            return [f"s{i},{d},{t},{0.1 * t + d},{'ab'[i]}"
                    for i in range(2) for d in dims for t in range(3)]

        train = write(tmp_path, "tr.csv", LONG_HEADER + "\n".join(rows((0, 2))) + "\n")
        test = write(tmp_path, "te.csv", LONG_HEADER + "\n".join(rows((5, 9))) + "\n")
        with pytest.raises(IntegrityError) as info:
            D.load_pair(train, test)
        assert str(info.value) == "te.csv: dimension ids [5, 9] differ from the train file's [0, 2]"
        tr, te = D.load_pair(train, write(tmp_path, "same.csv",
                                          LONG_HEADER + "\n".join(rows((2, 0))) + "\n"))
        assert tr.dims == te.dims == 2

    @given(data=st.data())
    @settings(max_examples=40)
    def test_row_order_and_blank_lines_do_not_change_the_load(self, tmp_path_factory, data):
        n = data.draw(st.integers(1, 5))
        dims = data.draw(st.integers(1, 3))
        labels = data.draw(st.sampled_from([["a", "b", "c"], ["1", "2.5", "-3"]]))
        rows = []
        for i in range(n):
            label = data.draw(st.sampled_from(labels))
            for t in range(data.draw(st.integers(2, 6))):
                for m in range(dims):
                    value = data.draw(st.floats(allow_nan=False, allow_infinity=False,
                                                width=64))
                    rows.append((f"s{i}", m, t, f"s{i},{m},{t},{value!r},{label}"))
        shuffled = [r[3] for r in data.draw(st.permutations(rows))]
        for _ in range(data.draw(st.integers(0, 5))):
            at = data.draw(st.integers(0, len(shuffled)))
            shuffled.insert(at, data.draw(st.sampled_from(["", "  ", "\t"])))
        # the loader orders series by first appearance; the reference keeps that order
        first = {}
        for line in shuffled:
            first.setdefault(line.split(",")[0], len(first))
        reference = [r[3] for r in sorted(rows, key=lambda r: (first[r[0]], r[1], r[2]))]
        folder = tmp_path_factory.mktemp("order")
        loaded = [D.load_single(write(folder, name, LONG_HEADER + "\n".join(lines) + "\n"))
                  for name, lines in (("ref.csv", reference), ("shuffled.csv", shuffled))]
        assert loaded[0].X.tobytes() == loaded[1].X.tobytes()
        assert loaded[0].Y.tobytes() == loaded[1].Y.tobytes()
        assert loaded[0].vocabulary == loaded[1].vocabulary
        assert loaded[0].meta.length_range == loaded[1].meta.length_range


class TestNotUtf8:
    @pytest.mark.parametrize("name, text", [
        ("u.txt", b"1,0.0,1.0\n2,1.0,0.0\n1,0.5,0.%s5\n"),
        ("l.csv", LONG_HEADER.encode() + b"s1,0,0,0.1,a\ns1,0,1,0.2,a%s\n"),
        ("d.txt", b"1,0.0,%s1.0\n2,1.0,0.0\n"),
    ], ids=["ucr", "long", "detect-format"])
    def test_reader_names_file_and_line(self, tmp_path, name, text):
        path = tmp_path / name
        path.write_bytes(text % b"\x80")
        line = text.split(b"%s")[0].count(b"\n") + 1
        with pytest.raises(DataFormatError, match=f"^{name}:{line}: byte 0x80 is not UTF-8"):
            D.load_single(path)


class TestInterpolation:
    def test_midpoint_insertion(self):
        out = D.linear_interpolate(np.array([[0.0], [2.0]]), 3)
        assert np.allclose(out[:, 0], [0.0, 1.0, 2.0])

    def test_identity_when_lengths_match(self):
        series = np.array([[0.0], [1.0], [4.0]])
        assert np.array_equal(D.linear_interpolate(series, 3), series)

    def test_piecewise_linear_positions(self):
        out = D.linear_interpolate(np.array([[0.0], [1.0], [4.0]]), 5)
        assert np.allclose(out[:, 0], [0.0, 0.5, 1.0, 2.5, 4.0])

    def test_endpoints_preserved_exactly(self):
        series = np.array([[0.123], [9.876], [-3.5]])
        out = D.linear_interpolate(series, 11)
        assert out[0, 0] == 0.123 and out[-1, 0] == -3.5

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            D.linear_interpolate(np.array([[1.0]]), 5)
        with pytest.raises(ValueError):
            D.linear_interpolate(np.array([[1.0], [2.0]]), 1)

    @given(
        length=st.integers(2, 10), target_extra=st.integers(0, 12),
        seed=st.integers(0, 10 ** 6),
    )
    @settings(max_examples=40)
    def test_convex_hull_property(self, length, target_extra, seed):
        from conftest import random_batch
        series = random_batch((length, 2), seed=seed)
        out = D.linear_interpolate(series, length + target_extra)
        for m in range(2):
            assert out[:, m].min() >= series[:, m].min() - 1e-12
            assert out[:, m].max() <= series[:, m].max() + 1e-12


class TestWarp:
    def test_factor_one_identity(self):
        series = np.array([[0.0], [0.3], [1.0]])
        assert np.allclose(D.window_warp(series, 1.0), series)

    def test_dilation_example(self):
        out = D.window_warp(np.array([[0.0], [1.0]]), 2.0)
        assert np.allclose(out[:, 0], [0.0, 1.0 / 3.0, 2.0 / 3.0, 1.0])

    def test_squeeze_halves_length(self):
        out = D.window_warp(np.zeros((10, 1)), 0.5)
        assert out.shape == (5, 1)

    def test_bad_factor(self):
        with pytest.raises(ValueError):
            D.window_warp(np.zeros((10, 1)), 0.0)
        with pytest.raises(ValueError):
            D.window_warp(np.zeros((2, 1)), 0.5)


def loop_pool(dataset, config):
    """Reference pool: the per-slice loop ``build_training_pool`` must match byte for byte."""
    pool_lengths = [int(np.floor(f * dataset.length + 0.5)) for f in config.warp_factors]
    L = int(np.ceil(config.fraction * min(pool_lengths)))
    xs, ys = [], []
    for i in range(dataset.n):
        for factor in config.warp_factors:
            warped = dataset.X[i] if factor == 1.0 else D.window_warp(dataset.X[i], factor)
            for s in D.slice_starts(warped.shape[0], L, config.stride):
                xs.append(warped[s : s + L, :])
                ys.append(dataset.Y[i])
    return np.stack(xs), np.stack(ys), L


class TestSlicing:
    def make(self, n=2, T=10):
        X = np.arange(float(n * T)).reshape(n, T, 1)
        Y = D.one_hot([0, 1][:n], (0, 1))
        return D.TimeSeriesDataset(X, Y, (0, 1))

    def test_fraction_point_nine_stride_one(self):
        ds = self.make(T=10)
        pool, L = D.build_training_pool(ds, D.SlicingConfig(0.9, 1, (1.0,)))
        assert pool.n == 4  # 2 slices per series
        assert pool.length == L == 9
        # parent-major: series 0's slices at starts 0 and 1, then series 1's
        expected = [ds.X[i, s : s + 9] for i in (0, 1) for s in (0, 1)]
        assert np.array_equal(pool.X, np.stack(expected))

    def test_fraction_one_is_single_slice(self):
        ds = self.make(T=10)
        pool, _ = D.build_training_pool(ds, D.SlicingConfig(1.0, 1, (1.0,)))
        assert pool.n == ds.n
        assert np.array_equal(pool.X, ds.X)

    def test_final_slice_rule_collapses_on_stride_boundary(self):
        assert D.slice_starts(150, 135, 15) == [0, 15]

    def test_final_slice_appended_when_missing(self):
        assert D.slice_starts(100, 90, 4) == [0, 4, 8, 10]

    def test_slice_length_exceeding_series_rejected(self):
        with pytest.raises(ValueError):
            D.slice_starts(10, 11, 1)

    def test_slices_inherit_parent_labels(self):
        ds = self.make(T=10)
        pool, _ = D.build_training_pool(ds, D.SlicingConfig(0.9, 1, (1.0,)))
        for i, p in enumerate([0, 0, 1, 1]):
            assert np.array_equal(pool.Y[i], ds.Y[p])

    def test_pool_matches_per_slice_loop_bytes(self):
        from conftest import random_batch
        X = random_batch((5, 23, 2), seed=3)
        ds = D.TimeSeriesDataset(X, D.one_hot([0, 1, 2, 0, 1], (0, 1, 2)), (0, 1, 2))
        config = D.SlicingConfig(0.9, 4, (1.0, 2.0, 0.5))
        X_ref, Y_ref, L_ref = loop_pool(ds, config)
        assert L_ref == 11 and D.slice_starts(46, 11, 4)[-2:] == [32, 35]  # appended start
        pool, L = D.build_training_pool(ds, config)
        assert L == L_ref
        assert pool.X.shape == X_ref.shape and pool.X.tobytes() == X_ref.tobytes()
        assert pool.Y.shape == Y_ref.shape and pool.Y.tobytes() == Y_ref.tobytes()

    def test_training_pool_with_warping(self):
        ds = self.make(n=1, T=10)
        pool, L = D.build_training_pool(ds, D.SlicingConfig(0.9, 2, (1.0, 2.0, 0.5)))
        assert L == int(np.ceil(0.9 * 5))  # shortest pooled length is 5
        assert pool.length == L
        # starts per pooled length: T=10 -> {0,2,4,5}; T=20 -> {0,..,14,15}; T=5 -> {0}
        assert pool.n == 4 + 9 + 1

    def test_default_slicing_stride(self):
        cfg = D.default_slicing(150)
        assert cfg.stride == 15 and cfg.fraction == 0.9


class TestSplit:
    def make(self, counts, T=8, seed=0):
        from conftest import random_batch
        labels = []
        for cls, count in enumerate(counts):
            labels += [cls] * count
        X = random_batch((len(labels), T, 1), seed=seed)
        vocab = tuple(range(len(counts)))
        return D.TimeSeriesDataset(X, D.one_hot(labels, vocab), vocab)

    def test_balanced_ten_samples(self):
        ds = self.make([5, 5])
        train, val = D.split_train_val(ds, 0.2, seed=1)
        val_labels = val.labels()
        assert val.n == 2
        assert (val_labels == 0).sum() == 1 and (val_labels == 1).sum() == 1

    def test_same_seed_identical_split(self):
        ds = self.make([6, 4])
        t1, v1 = D.split_train_val(ds, 0.3, seed=7)
        t2, v2 = D.split_train_val(ds, 0.3, seed=7)
        assert np.array_equal(v1.X, v2.X) and np.array_equal(t1.X, t2.X)

    def test_rounding_rule(self):
        ds = self.make([7, 3])
        _, val = D.split_train_val(ds, 0.33, seed=2)
        labels = val.labels()
        assert (labels == 0).sum() == 2  # round(7*0.33) = round(2.31)
        assert (labels == 1).sum() == 1  # round(3*0.33) = round(0.99)

    def test_singleton_class_stays_in_train(self):
        ds = self.make([4, 1])
        with pytest.warns(UserWarning):
            train, val = D.split_train_val(ds, 0.25, seed=3)
        assert (val.labels() == 1).sum() == 0
        assert (train.labels() == 1).sum() == 1

    def test_split_is_partition(self):
        ds = self.make([6, 6], seed=5)
        train, val = D.split_train_val(ds, 0.25, seed=4)
        assert train.n + val.n == ds.n
        combined = np.concatenate([train.X, val.X]).reshape(-1)
        assert sorted(combined.tolist()) == sorted(ds.X.reshape(-1).tolist())

    def test_invalid_fraction(self):
        ds = self.make([4, 4])
        for f in (0.0, 1.0, -0.5):
            with pytest.raises(ValueError):
                D.split_train_val(ds, f, seed=0)


class TestOneHot:
    def test_examples(self):
        assert np.array_equal(D.one_hot([2, 1], (1, 2)), [[0, 1], [1, 0]])
        assert np.array_equal(D.one_hot(["a", "a"], ("a",)), [[1], [1]])

    def test_unknown_label(self):
        with pytest.raises(VocabularyError):
            D.one_hot([3], (1, 2))

    @given(st.lists(st.integers(0, 4), min_size=1, max_size=20))
    @settings(max_examples=30)
    def test_argmax_round_trip(self, labels):
        vocab = tuple(range(5))
        oh = D.one_hot(labels, vocab)
        assert list(oh.argmax(axis=1)) == labels
        assert np.array_equal(oh.sum(axis=1), np.ones(len(labels)))
