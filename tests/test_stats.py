import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsclab import stats as S
from tsclab.errors import DataFormatError, MissingCellError


def record(dataset, arch, seed, acc):
    return S.RunRecord(dataset, arch, seed, acc, 0.1, 1.0)


def brute_force_wilcoxon(a, b):
    """Full 2^n enumeration of the exact two-sided signed-rank p-value."""
    d = np.asarray(a, dtype=float) - np.asarray(b, dtype=float)
    d = d[d != 0]
    n = d.size
    if n == 0:
        return 1.0
    ranks = S.rank_row(np.abs(d), descending=False)
    w_obs = min(ranks[d > 0].sum(), ranks[d < 0].sum())
    count = 0
    for mask in range(2 ** n):
        w_plus = sum(ranks[i] for i in range(n) if mask >> i & 1)
        if w_plus <= w_obs + 1e-12:
            count += 1
    return min(1.0, 2.0 * count / 2 ** n)


class TestAggregate:
    def test_mean(self):
        runs = [record("d", "a", 0, 0.5), record("d", "a", 1, 0.7)]
        table = S.aggregate(runs, "mean")
        assert table.values[0, 0] == pytest.approx(0.6)

    def test_single_run_any_kind(self):
        runs = [record("d", "a", 0, 0.42)]
        for kind in ("mean", "median", "min", "max"):
            assert S.aggregate(runs, kind).values[0, 0] == 0.42

    def test_even_median_takes_lower_middle(self):
        runs = [record("d", "a", s, v) for s, v in enumerate([0.9, 0.7, 0.8, 0.6])]
        assert S.aggregate(runs, "median").values[0, 0] == 0.7

    def test_min_max(self):
        runs = [record("d", "a", s, v) for s, v in enumerate([0.9, 0.7, 0.8])]
        assert S.aggregate(runs, "min").values[0, 0] == 0.7
        assert S.aggregate(runs, "max").values[0, 0] == 0.9
        assert S.aggregate(runs, "median").values[0, 0] == 0.8

    def test_missing_cell_listed(self):
        runs = [record("d1", "a", 0, 0.5), record("d1", "b", 0, 0.6),
                record("d2", "a", 0, 0.7)]
        with pytest.raises(MissingCellError, match=r"\(d2, b\)"):
            S.aggregate(runs)


def loop_rank_row(values, descending=True):
    """``rank_row`` as the tie-scan it was before it took its groups from one sort."""
    keyed = -values if descending else values
    order = np.argsort(keyed, kind="stable")
    ranks = np.empty(len(values))
    i = 0
    while i < len(values):
        j = i
        while j + 1 < len(values) and keyed[order[j + 1]] == keyed[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = (i + 1 + j + 1) / 2.0
        i = j + 1
    return ranks


class TestRanks:
    @given(st.lists(st.sampled_from([0.0, -0.0, 0.25, 0.5, 0.75, 1.0, 1e-300, 0.1 + 0.2]),
                    min_size=1, max_size=30),
           st.booleans())
    @settings(max_examples=200)
    def test_rank_row_keeps_the_bits_of_the_tie_scan(self, row, descending):
        values = np.array(row)
        got = S.rank_row(values, descending)
        assert got.tobytes() == loop_rank_row(values, descending).tobytes()

    def test_two_classifiers_strict_dominance(self):
        runs = []
        for d in range(4):
            runs.append(record(f"d{d}", "A", 0, 0.9))
            runs.append(record(f"d{d}", "B", 0, 0.8))
        ranks = S.average_ranks(S.aggregate(runs))
        assert ranks == {"A": 1.0, "B": 2.0}

    def test_all_tied_get_mean_rank(self):
        ranks = S.rank_row(np.array([0.5, 0.5, 0.5]))
        assert np.array_equal(ranks, [2.0, 2.0, 2.0])

    def test_hand_enumerated_three_by_three(self):
        # dataset rows: accuracies for classifiers (a, b, c)
        rows = [
            (0.9, 0.8, 0.7),   # ranks 1, 2, 3
            (0.6, 0.6, 0.5),   # ranks 1.5, 1.5, 3
            (0.2, 0.9, 0.4),   # ranks 3, 1, 2
        ]
        runs = []
        for d, row in enumerate(rows):
            for arch, acc in zip("abc", row):
                runs.append(record(f"d{d}", arch, 0, acc))
        ranks = S.average_ranks(S.aggregate(runs))
        assert ranks["a"] == pytest.approx((1 + 1.5 + 3) / 3)
        assert ranks["b"] == pytest.approx((2 + 1.5 + 1) / 3)
        assert ranks["c"] == pytest.approx((3 + 3 + 2) / 3)

    @given(
        st.integers(2, 6), st.integers(2, 8), st.integers(0, 10 ** 6),
    )
    @settings(max_examples=40)
    def test_rank_sum_conservation(self, k, n_datasets, seed):
        rng = np.random.default_rng(seed)
        values = rng.integers(0, 4, size=(n_datasets, k)) / 4.0  # force ties
        for row in values:
            ranks = S.rank_row(row)
            assert ranks.sum() == pytest.approx(k * (k + 1) / 2)


class TestChiSquare:
    def test_reference_quantile(self):
        # 0.05 upper tail of chi2 with 2 dof is at x = 5.991...
        assert S.chi2_sf(5.99, 2) == pytest.approx(0.05, abs=1e-3)

    def test_against_numeric_integration_oracle(self):
        from scipy import integrate

        def pdf(t, df):
            return t ** (df / 2 - 1) * math.exp(-t / 2) / (
                2 ** (df / 2) * math.gamma(df / 2)
            )

        for df in (1, 2, 5, 10):
            for x in (0.5, 2.0, 5.99, 15.0, 40.0):
                oracle, _ = integrate.quad(pdf, x, np.inf, args=(df,))
                assert abs(S.chi2_sf(x, df) - oracle) < 1e-10

    def test_against_scipy_sf_grid(self):
        from scipy.stats import chi2
        for df in range(1, 12):
            for x in np.linspace(0.01, 60.0, 40):
                assert abs(S.chi2_sf(float(x), df) - chi2.sf(x, df)) < 1e-10

    @pytest.mark.parametrize("df", [1, 2, 3, 9, 40, 101, 1500])
    def test_relative_error_against_scipy_into_the_tail(self, df):
        from scipy.stats import chi2
        for x in np.linspace(0.05, df + 40.0, 60):
            want = chi2.sf(x, df)
            assert abs(S.chi2_sf(float(x), df) - want) <= 1e-9 * want, (df, x)

    @pytest.mark.parametrize("df", [2.5, 0, -3, math.nan])
    def test_non_integer_or_small_df_rejected(self, df):
        with pytest.raises(ValueError, match="integer >= 1"):
            S.chi2_sf(3.0, df)


class TestFriedman:
    def make_table(self, rows):
        runs = []
        for d, row in enumerate(rows):
            for j, acc in enumerate(row):
                runs.append(record(f"d{d}", f"c{j}", 0, acc))
        return S.aggregate(runs)

    def test_identical_columns(self):
        table = self.make_table([[0.5, 0.5, 0.5]] * 4)
        stat, p, reject = S.friedman_test(table)
        assert stat == 0.0 and p == 1.0 and not reject

    def test_perfect_ordering_statistic(self):
        table = self.make_table([[0.9, 0.8, 0.7]] * 10)
        stat, p, reject = S.friedman_test(table)
        assert stat == pytest.approx(20.0)
        assert p < 0.001 and reject

    def test_needs_three_classifiers(self):
        table = self.make_table([[0.5, 0.6]] * 4)
        with pytest.raises(ValueError):
            S.friedman_test(table)

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(0)
        rows = rng.uniform(0.1, 0.9, size=(6, 4))
        t1 = self.make_table(rows.tolist())
        transformed = [[v ** 3 * 0.9 for v in row] for row in rows]  # strictly monotone
        t2 = self.make_table(transformed)
        s1, _, _ = S.friedman_test(t1)
        s2, _, _ = S.friedman_test(t2)
        assert s1 == pytest.approx(s2)


class TestWilcoxon:
    def test_identical_samples(self):
        assert S.wilcoxon_signed_rank([0.1, 0.2, 0.3], [0.1, 0.2, 0.3]) == 1.0

    def test_all_positive_n5(self):
        a = [1.0, 2.0, 3.0, 4.0, 5.0]
        b = [0.0] * 5
        assert S.wilcoxon_signed_rank(a, b) == pytest.approx(2.0 / 32.0)

    def test_single_negative_n6(self):
        a = [1.0, 2.0, 3.0, 4.0, 5.0, 0.0]
        b = [0.0, 0.0, 0.0, 0.0, 0.0, 6.0]
        # W- = 6; 14 subsets of ranks {1..6} sum to <= 6
        assert S.wilcoxon_signed_rank(a, b) == pytest.approx(2.0 * 14.0 / 64.0)

    def test_exact_matches_brute_force_enumeration(self):
        rng = np.random.default_rng(42)
        for n in range(1, 13):
            for _ in range(3):
                a = rng.uniform(0, 1, n).round(2)
                b = rng.uniform(0, 1, n).round(2)
                assert S.wilcoxon_signed_rank(a, b) == pytest.approx(
                    brute_force_wilcoxon(a, b), abs=1e-12
                )

    def test_exact_and_normal_agree_at_boundary(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            a = rng.uniform(0, 1, 20)
            b = rng.uniform(0, 1, 20)
            stats = S._signed_rank_stats(a, b)
            exact = S._wilcoxon_exact(*stats)
            approx = S._wilcoxon_normal(*stats)
            assert abs(exact - approx) < 0.01
            # 20 pairs are counted exactly, 21 take the normal approximation
            assert S.wilcoxon_signed_rank(a, b) == exact
            a21, b21 = np.append(a, 0.5), np.append(b, 0.25)
            assert S.wilcoxon_signed_rank(a21, b21) == S._wilcoxon_normal(
                *S._signed_rank_stats(a21, b21))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            S.wilcoxon_signed_rank([1.0], [1.0, 2.0])

    def test_ties_in_absolute_differences(self):
        a = [1.0, 1.0, 2.0, 2.0, 3.0]
        b = [0.0, 2.0, 0.0, 4.0, 0.0]
        p = S.wilcoxon_signed_rank(a, b)
        assert p == pytest.approx(brute_force_wilcoxon(a, b), abs=1e-12)


class TestHolm:
    def test_single_pvalue_plain_threshold(self):
        reject, adjusted = S.holm_correction([0.04], 0.05)
        assert reject == [True] and adjusted == [0.04]
        reject, _ = S.holm_correction([0.06], 0.05)
        assert reject == [False]

    def test_step_down_example(self):
        reject, adjusted = S.holm_correction([0.01, 0.02, 0.20], 0.05)
        assert reject == [True, True, False]
        assert adjusted == [pytest.approx(0.03), pytest.approx(0.04), pytest.approx(0.2)]

    def test_all_ones(self):
        reject, adjusted = S.holm_correction([1.0, 1.0, 1.0], 0.05)
        assert reject == [False] * 3
        assert adjusted == [1.0] * 3

    def test_stop_at_first_failure(self):
        # middle p fails its threshold, so the last is not rejected even though
        # it would pass its own
        reject, _ = S.holm_correction([0.001, 0.04, 0.045], 0.05)
        assert reject == [True, False, False]

    def test_input_order_preserved(self):
        reject, adjusted = S.holm_correction([0.20, 0.01, 0.02], 0.05)
        assert reject == [False, True, True]

    @given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=10),
           st.floats(0.01, 0.2))
    @settings(max_examples=50)
    def test_holm_rejections_subset_of_unadjusted(self, ps, alpha):
        reject, adjusted = S.holm_correction(ps, alpha)
        for r, p, adj in zip(reject, ps, adjusted):
            if r:
                assert p <= alpha
            assert adj >= p - 1e-15


class TestCliques:
    def test_no_significant_pairs_one_big_clique(self):
        ranks = {"a": 1.0, "b": 2.0, "c": 3.0}
        sig = {pair: False for pair in itertools.combinations(sorted(ranks), 2)}
        assert S.form_cliques(ranks, sig) == [("a", "b", "c")]

    def test_all_significant_no_cliques(self):
        ranks = {"a": 1.0, "b": 2.0, "c": 3.0}
        sig = {pair: True for pair in itertools.combinations(sorted(ranks), 2)}
        assert S.form_cliques(ranks, sig) == []

    def test_overlapping_cliques_need_not_respect_rank_order(self):
        # C1-C2 and C1-C3 non-significant while C2-C3 is significant
        ranks = {"C1": 1.0, "C2": 2.0, "C3": 3.0}
        sig = {("C1", "C2"): False, ("C1", "C3"): False, ("C2", "C3"): True}
        cliques = S.form_cliques(ranks, sig)
        assert cliques == [("C1", "C2"), ("C1", "C3")]

    def test_cliques_are_maximal(self):
        ranks = {"a": 1.0, "b": 2.0, "c": 3.0, "d": 4.0}
        sig = {pair: False for pair in itertools.combinations(sorted(ranks), 2)}
        sig[("a", "d")] = True
        cliques = S.form_cliques(ranks, sig)
        assert cliques == [("a", "b", "c"), ("b", "c", "d")]


class TestCompare:
    def make_runs(self, columns, n_datasets=10, seeds=1):
        rng = np.random.default_rng(3)
        runs = []
        for d in range(n_datasets):
            base = rng.uniform(0.3, 0.6)
            for arch, offset in columns.items():
                for s in range(seeds):
                    acc = min(1.0, max(0.0, base + offset + rng.normal(0, 0.01)))
                    runs.append(record(f"d{d}", arch, s, acc))
        return runs

    def test_two_classifiers_skip_friedman(self):
        runs = self.make_runs({"a": 0.0, "b": 0.3})
        report = S.compare_classifiers(S.aggregate(runs))
        assert report.friedman is None
        assert len(report.pairwise_p) == 1

    def test_clear_separation_rejects(self):
        runs = self.make_runs({"a": 0.0, "b": 0.15, "c": 0.3}, n_datasets=12)
        report = S.compare_classifiers(S.aggregate(runs))
        stat, p, reject = report.friedman
        assert reject
        assert all(report.holm_reject.values())
        assert report.cliques == []
        assert report.ranks["c"] < report.ranks["b"] < report.ranks["a"]

    def test_identical_columns_full_clique(self):
        runs = []
        for d in range(6):
            for arch in "abc":
                runs.append(record(f"d{d}", arch, 0, 0.5 + d * 0.01))
        report = S.compare_classifiers(S.aggregate(runs))
        assert all(p == 1.0 for p in report.pairwise_p.values())
        assert report.cliques == [("a", "b", "c")]


class TestGroupedRanks:
    META = {
        "short1": {"theme": "ECG", "length": 50, "train_size": 50},
        "short2": {"theme": "ECG", "length": 80, "train_size": 120},
        "long1": {"theme": "IMAGE", "length": 500, "train_size": 900},
    }

    def make_runs(self):
        runs = []
        for d, (a_acc, b_acc) in (
            ("short1", (0.9, 0.8)), ("short2", (0.85, 0.8)), ("long1", (0.2, 0.9)),
        ):
            runs.append(record(d, "A", 0, a_acc))
            runs.append(record(d, "B", 0, b_acc))
        return runs

    def test_single_band_equals_global(self):
        runs = self.make_runs()
        meta = {d: {"theme": "X", "length": 100, "train_size": 100} for d in
                ("short1", "short2", "long1")}
        grouped = S.grouped_ranks(runs, "theme", meta)
        assert list(grouped) == ["X"]
        assert grouped["X"][0] == S.average_ranks(S.aggregate(runs))

    def test_length_band_edges(self):
        assert S._length_band(80) == "<81"
        assert S._length_band(81) == "81-250"
        assert S._length_band(150) == "81-250"
        assert S._length_band(250) == "81-250"
        assert S._length_band(251) == "251-450"
        assert S._length_band(700) == "451-700"
        assert S._length_band(1000) == "701-1000"
        assert S._length_band(1001) == ">1000"

    def test_train_size_band_edges(self):
        assert S._train_size_band(99) == "<100"
        assert S._train_size_band(100) == "100-399"
        assert S._train_size_band(399) == "100-399"
        assert S._train_size_band(400) == "400-799"
        assert S._train_size_band(800) == ">799"

    def test_two_band_fixture(self):
        grouped = S.grouped_ranks(self.make_runs(), "length", self.META)
        assert set(grouped) == {"<81", "451-700"}
        ranks_short, n = grouped["<81"]
        assert n == 2 and ranks_short == {"A": 1.0, "B": 2.0}
        ranks_long, n_long = grouped["451-700"]
        assert n_long == 1 and ranks_long == {"A": 2.0, "B": 1.0}

    def test_missing_metadata_rejected(self):
        with pytest.raises(ValueError, match="long1"):
            S.grouped_ranks(self.make_runs(), "theme", {"short1": {}, "short2": {}})

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError):
            S.grouped_ranks(self.make_runs(), "width", self.META)


class TestRendering:
    def make_report(self, columns, n_datasets=8):
        runs = TestCompare().make_runs(columns, n_datasets=n_datasets)
        return S.compare_classifiers(S.aggregate(runs))

    def test_two_classifiers_no_bars(self):
        report = self.make_report({"alpha": 0.0, "beta": 0.4})
        svg = S.render_cd_diagram(report)
        assert svg.count("<text") >= 2 + 2  # two tick labels + two names
        assert "alpha" in svg and "beta" in svg
        assert 'stroke-width="5"' not in svg  # no clique bars

    def test_byte_identical_for_identical_input(self):
        report = self.make_report({"a": 0.0, "b": 0.1, "c": 0.2})
        assert S.render_cd_diagram(report).encode() == S.render_cd_diagram(report).encode()

    def test_clique_bar_extent_matches_member_ranks(self):
        runs = []
        for d in range(6):
            runs.append(record(f"d{d}", "a", 0, 0.5 + 0.001 * d))
            runs.append(record(f"d{d}", "b", 0, 0.501 + 0.001 * d))
            runs.append(record(f"d{d}", "c", 0, 0.502 + 0.001 * d))
        report = S.compare_classifiers(S.aggregate(runs))
        assert len(report.cliques) == 1
        svg = S.render_cd_diagram(report)
        bars = [line for line in svg.splitlines() if 'stroke-width="5"' in line]
        assert len(bars) == 1
        lo = min(report.ranks[v] for v in report.cliques[0])
        hi = max(report.ranks[v] for v in report.cliques[0])
        k = 3
        width, margin = 900.0, 90.0
        x_lo = margin + (lo - 1) / (k - 1) * (width - 2 * margin) - 6.0
        x_hi = margin + (hi - 1) / (k - 1) * (width - 2 * margin) + 6.0
        assert f'x1="{x_lo:.4f}"' in bars[0]
        assert f'x2="{x_hi:.4f}"' in bars[0]

    def test_text_report_contents(self):
        report = self.make_report({"a": 0.0, "b": 0.1, "c": 0.2})
        text = S.render_text_report(report)
        assert "average ranks:" in text
        assert "friedman:" in text
        assert "a vs b" in text and "cliques:" in text


class TestPersistence:
    def test_round_trip(self, tmp_path):
        runs = [record("d1", "a", 0, 0.5), record("d1", "a", 1, 0.6)]
        path = tmp_path / "results.csv"
        S.save_runs(runs, path)
        loaded = S.load_runs(path)
        assert [(r.dataset, r.architecture, r.seed, r.accuracy) for r in loaded] == [
            ("d1", "a", 0, 0.5), ("d1", "a", 1, 0.6)
        ]

    def test_dedup_on_merge(self, tmp_path):
        path = tmp_path / "results.csv"
        S.save_runs([record("d1", "a", 0, 0.5)], path)
        S.save_runs([record("d1", "a", 0, 0.9), record("d1", "a", 1, 0.6)], path)
        loaded = S.load_runs(path)
        assert len(loaded) == 2
        assert loaded[0].accuracy == 0.9  # rewritten key

    def test_failed_save_leaves_the_earlier_file_whole(self, tmp_path, monkeypatch):
        path = tmp_path / "results.csv"
        S.save_runs([record("d1", "a", 0, 0.5), record("d1", "b", 0, 0.25)], path)
        before = path.read_bytes()
        real_writer = S.csv.writer

        class Dies:
            def __init__(self, fh):
                self.inner, self.rows = real_writer(fh), 0

            def writerow(self, row):
                if self.rows == 1:
                    raise OSError("disk full")
                self.rows += 1
                return self.inner.writerow(row)

        monkeypatch.setattr(S.csv, "writer", Dies)
        with pytest.raises(OSError, match="disk full"):
            S.save_runs([record("d2", "a", 0, 0.75)], path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["results.csv"]

    def test_baseline_header(self, tmp_path):
        path = tmp_path / "base.csv"
        path.write_text("dataset,classifier,accuracy\nd1,COTE,0.93\n")
        runs = S.load_runs(path)
        assert runs[0].architecture == "COTE"
        assert runs[0].accuracy == 0.93
        assert math.isnan(runs[0].loss)

    def test_save_refuses_a_baselines_table(self, tmp_path):
        path = tmp_path / "results.csv"
        path.write_text("dataset,classifier,accuracy\nd1,COTE,0.93\n")
        with pytest.raises(DataFormatError, match="results.csv: unrecognized header"):
            S.save_runs([record("d1", "a", 0, 0.5)], path)
        assert path.read_text() == "dataset,classifier,accuracy\nd1,COTE,0.93\n"
        assert [p.name for p in tmp_path.iterdir()] == ["results.csv"]

    def test_unknown_header_rejected(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("foo,bar\n1,2\n")
        with pytest.raises(ValueError):
            S.load_runs(path)
