import math
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from numpy.lib.introspect import opt_func_info
from scipy import stats

from selreg import (Dataset, Normal, ShiftSplit, SyntheticSpec, Uniform,
                    covariate_shift_split, generate_synthetic, load_csv,
                    mean_quadratic, sd_heaviside, sd_sigmoid, standardize)
from selreg.data import airfoil_like_spec, derive_seed, table_fn

SRC = Path(__file__).resolve().parent.parent / "src"

# A draw whose only transcendental step is the normal quantile (x and eps);
# the mean and sd are exact arithmetic. A quantile built on numpy's exp/log
# changed about 6 of its 2M values when numpy's AVX-512 loops were disabled.
SIMD_DRAW = """
import sys
from selreg import Normal, SyntheticSpec, generate_synthetic
from selreg import mean_quadratic, sd_heaviside
ds = generate_synthetic(SyntheticSpec((Normal(0.0, 1.0),), mean_quadratic,
                                      sd_heaviside, n=1_000_000, seed=5))
sys.stdout.buffer.write(ds.x.tobytes() + ds.y.tobytes())
"""


class TestNamedFunctions:
    def test_sigmoid_values(self):
        assert sd_sigmoid(0.0) == 0.5
        assert sd_sigmoid(math.log(1.5)) == pytest.approx(0.6, abs=1e-15)
        np.testing.assert_allclose(sd_sigmoid(np.array([0.0, 100.0])),
                                   [0.5, 1.0], atol=1e-12)

    def test_sigmoid_crosses_lambda_at_log_1_5(self):
        # sigma^2(x) = lambda = 0.36 exactly at x* = ln 1.5
        x_star = math.log(1.5)
        assert sd_sigmoid(x_star) ** 2 == pytest.approx(0.36, abs=1e-15)
        assert x_star == pytest.approx(0.405465, abs=1e-6)

    def test_heaviside_convention(self):
        assert sd_heaviside(-1.0) == 0.0
        assert sd_heaviside(0.0) == 1.0
        assert sd_heaviside(2.5) == 1.0

    def test_quadratic_mean(self):
        assert mean_quadratic(2.0) == 1.0
        np.testing.assert_allclose(mean_quadratic(np.array([-2.0, 1.0])),
                                   [1.0, 0.25])

    def test_table_fn(self):
        fn = table_fn([0.0, 1.0, 2.0], [0.0, 2.0, 0.0])
        assert fn(0.5) == 1.0
        with pytest.raises(ValueError):
            table_fn([0.0, 0.0], [1.0, 2.0])

    @pytest.mark.parametrize("xs, ys", [([0.0, math.nan], [0.0, 1.0]),
                                        ([-math.inf, 0.0], [0.0, 1.0]),
                                        ([0.0, 1.0], [0.0, math.inf])])
    def test_table_fn_refuses_nonfinite_values(self, xs, ys):
        with pytest.raises(ValueError, match="^table x and y values must be "
                                             "finite$"):
            table_fn(xs, ys)


class TestSyntheticSpecTruth:
    @staticmethod
    def spec(mean_fn, sd_fn, d=1):
        return SyntheticSpec(covariate_dists=(Uniform(-2.0, 2.0),) * d,
                             mean_fn=mean_fn, sd_fn=sd_fn, n=1, seed=0)

    def test_one_coordinate_rows(self, sigmoid_spec):
        mean, sd = sigmoid_spec.truth([[2.0], [0.0]])
        assert mean.tolist() == [1.0, 0.0]
        assert sd[1] == 0.5
        seen = []
        spec = self.spec(lambda x: seen.append(np.shape(x)) or x, np.abs)
        spec.truth(np.zeros((3, 1)))
        assert seen == [(3,)]  # d = 1 passes the bare coordinate array

    def test_two_covariate_rows(self):
        spec = self.spec(lambda x: np.sum(np.square(x), axis=-1),
                         lambda x: np.sum(np.abs(x), axis=-1), d=2)
        mean, sd = spec.truth(np.array([[1.0, 2.0], [1.0, -2.0]]))
        assert mean.tolist() == [5.0, 5.0]
        assert sd.tolist() == [3.0, 3.0]

    @pytest.mark.parametrize("d", [1, 2])
    def test_constant_model_broadcasts_to_every_row(self, d):
        mean, sd = self.spec(lambda x: 1.5, lambda x: 0.5, d).truth(
            np.zeros((3, d)))
        assert mean.tolist() == [1.5] * 3 and sd.tolist() == [0.5] * 3


class TestGenerateSynthetic:
    def test_deterministic_bit_identical(self, sigmoid_spec):
        a = generate_synthetic(sigmoid_spec)
        b = generate_synthetic(sigmoid_spec)
        assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)

    def test_seed_changes_draws(self, sigmoid_spec):
        a = generate_synthetic(sigmoid_spec)
        b = generate_synthetic(replace(sigmoid_spec, seed=1))
        assert not np.array_equal(a.x, b.x)

    def test_zero_noise_reproduces_mean(self):
        spec = SyntheticSpec(covariate_dists=(Uniform(-2, 2),),
                             mean_fn=mean_quadratic,
                             sd_fn=lambda x: 0.0 * np.asarray(x),
                             n=100, seed=3)
        ds = generate_synthetic(spec)
        np.testing.assert_array_equal(ds.y, ds.x[:, 0] ** 2 / 4)

    def test_uniform_moments(self):
        spec = SyntheticSpec(covariate_dists=(Uniform(-2, 2),),
                             mean_fn=mean_quadratic, sd_fn=sd_sigmoid,
                             n=100_000, seed=11)
        x = generate_synthetic(spec).x[:, 0]
        assert abs(x.mean()) < 0.02
        assert abs(x.var() - 4.0 / 3.0) < 0.05

    def test_normal_covariates_pass_ks(self):
        spec = SyntheticSpec(covariate_dists=(Normal(0.0, 1.0),),
                             mean_fn=mean_quadratic, sd_fn=sd_sigmoid,
                             n=10_000, seed=123)
        x = generate_synthetic(spec).x[:, 0]
        assert stats.kstest(x, "norm").statistic < 0.02

    def test_noise_is_standard_normal(self):
        spec = SyntheticSpec(covariate_dists=(Uniform(-2, 2),),
                             mean_fn=lambda x: 0.0 * np.asarray(x),
                             sd_fn=lambda x: 1.0 + 0.0 * np.asarray(x),
                             n=10_000, seed=77)
        y = generate_synthetic(spec).y
        assert stats.kstest(y, "norm").statistic < 0.02

    def test_draws_do_not_depend_on_numpy_simd_level(self):
        info = opt_func_info(func_name="^(exp|log)$", signature="float64")
        targets = sorted({t for sigs in info.values() for loops in sigs.values()
                          for t in loops["available"].split()
                          if not t.startswith("baseline")})
        if not targets:
            pytest.skip("numpy has only baseline float64 exp/log loops here")
        env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(targets),
                   PYTHONPATH=os.pathsep.join(
                       filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
        out = subprocess.run([sys.executable, "-c", SIMD_DRAW], env=env,
                             check=True, capture_output=True).stdout
        spec = SyntheticSpec((Normal(0.0, 1.0),), mean_quadratic, sd_heaviside,
                             n=1_000_000, seed=5)
        ds = generate_synthetic(spec)
        assert out == ds.x.tobytes() + ds.y.tobytes()

    def test_multifeature_generation(self):
        ds = generate_synthetic(airfoil_like_spec(n=500, seed=4))
        assert ds.x.shape == (500, 5)
        assert np.all(ds.x[:, 1] >= 0.0) and np.all(ds.x[:, 1] <= 22.0)

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="must satisfy lo < hi"):
            Uniform(2.0, -2.0)
        with pytest.raises(ValueError, match="must satisfy lo < hi"):
            Uniform(math.nan, 0.0)
        with pytest.raises(ValueError, match="sd must be positive"):
            Normal(0.0, 0.0)
        with pytest.raises(ValueError, match="sd must be positive"):
            Normal(0.0, math.nan)
        with pytest.raises(ValueError):
            SyntheticSpec(covariate_dists=(), mean_fn=mean_quadratic,
                          sd_fn=sd_sigmoid, n=5, seed=0)
        with pytest.raises(ValueError):
            SyntheticSpec(covariate_dists=(Uniform(0, 1),),
                          mean_fn=mean_quadratic, sd_fn=sd_sigmoid,
                          n=0, seed=0)

    @pytest.mark.parametrize("make, message", [
        (lambda: Uniform(-math.inf, 0.0), "uniform bounds must be finite"),
        (lambda: Uniform(0.0, math.inf), "uniform bounds must be finite"),
        (lambda: Normal(math.nan, 1.0), "normal mu and sd must be finite"),
        (lambda: Normal(0.0, math.inf), "normal mu and sd must be finite")])
    def test_distributions_refuse_nonfinite_parameters(self, make, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            make()


class TestDeriveSeed:
    def test_deterministic_and_distinct(self):
        assert derive_seed(42, 1) == derive_seed(42, 1)
        seen = {derive_seed(42, i) for i in range(1000)}
        assert len(seen) == 1000
        assert derive_seed(42, 1) != derive_seed(43, 1)


def ordered_dataset(n=10):
    x = np.column_stack([np.arange(n, dtype=float),
                         np.arange(n, dtype=float) * 10.0])
    return Dataset(x=x, y=np.arange(n, dtype=float) + 100.0)


class TestShiftSplit:
    def test_no_swap_returns_lowest_block(self):
        data = ordered_dataset(10)
        train, test = covariate_shift_split(
            data, ShiftSplit(pivot_feature=0, swap_fraction=0.0, seed=1))
        np.testing.assert_array_equal(train.x[:, 0], np.arange(7.0))
        np.testing.assert_array_equal(test.x[:, 0], np.arange(7.0, 10.0))

    def test_partition_preserves_rows(self):
        data = ordered_dataset(23)
        train, test = covariate_shift_split(
            data, ShiftSplit(pivot_feature=1, seed=9))
        assert train.n + test.n == 23
        merged = np.vstack([train.x, test.x])
        np.testing.assert_array_equal(
            np.sort(merged[:, 0]), np.arange(23.0))
        merged_y = np.sort(np.concatenate([train.y, test.y]))
        np.testing.assert_array_equal(merged_y, np.arange(23.0) + 100.0)

    def test_hand_enumerated_ten_rows(self):
        # pivot 0..9, quantile 0.7, swap 0.2: train keeps 7 rows, exactly
        # floor(0.2 * 7) = 1 of them from the top-3 block
        data = ordered_dataset(10)
        for seed in range(25):
            train, test = covariate_shift_split(
                data, ShiftSplit(pivot_feature=0, seed=seed))
            assert train.n == 7 and test.n == 3
            from_top = np.sum(train.x[:, 0] >= 7.0)
            assert from_top == 1
            from_bottom = np.sum(test.x[:, 0] < 7.0)
            assert from_bottom == 1

    def test_deterministic_given_seed(self):
        data = ordered_dataset(40)
        split = ShiftSplit(pivot_feature=0, seed=77)
        a_train, a_test = covariate_shift_split(data, split)
        b_train, b_test = covariate_shift_split(data, split)
        assert np.array_equal(a_train.x, b_train.x)
        assert np.array_equal(a_test.x, b_test.x)

    def test_ties_break_by_row_index(self):
        x = np.zeros((12, 1))
        x[6:, 0] = 1.0
        data = Dataset(x=x, y=np.arange(12.0))
        train, _ = covariate_shift_split(
            data, ShiftSplit(pivot_feature=0, train_quantile=0.5,
                             swap_fraction=0.0, seed=0))
        np.testing.assert_array_equal(train.y, np.arange(6.0))

    def test_constant_pivot_rejected(self):
        data = Dataset(x=np.ones((12, 1)), y=np.arange(12.0))
        with pytest.raises(ValueError):
            covariate_shift_split(data, ShiftSplit(pivot_feature=0, seed=0))

    def test_validation(self):
        data = ordered_dataset(12)
        with pytest.raises(ValueError):
            covariate_shift_split(data, ShiftSplit(pivot_feature=5, seed=0))
        with pytest.raises(ValueError):
            ShiftSplit(pivot_feature=0, train_quantile=1.0)
        with pytest.raises(ValueError):
            ShiftSplit(pivot_feature=0, swap_fraction=1.0)
        with pytest.raises(ValueError):
            covariate_shift_split(ordered_dataset(5),
                                  ShiftSplit(pivot_feature=0, seed=0))

    @pytest.mark.parametrize("field,value,problem", [
        ("train_quantile", "x", "train_quantile must lie in (0, 1), got 'x'"),
        ("train_quantile", None, "train_quantile must lie in (0, 1), got None"),
        ("train_quantile", True, "train_quantile must lie in (0, 1), got True"),
        ("swap_fraction", "0.2", "swap_fraction must lie in [0, 1), got '0.2'"),
        ("swap_fraction", np.float64(1), "swap_fraction must lie in [0, 1), "
                                         "got 1.0")])
    def test_a_bad_fraction_is_refused_by_name(self, field, value, problem):
        with pytest.raises(ValueError, match=f"^{re.escape(problem)}$"):
            ShiftSplit(pivot_feature=1, **{field: value})

    @pytest.mark.parametrize("n", [10, 15, 19])
    def test_empty_train_side_refused(self, n):
        # floor(0.05 n) = 0 below 20 rows
        data = generate_synthetic(airfoil_like_spec(n=n, seed=2))
        split = ShiftSplit(pivot_feature=1, train_quantile=0.05)
        with pytest.raises(ValueError, match=rf"^train_quantile 0\.05 leaves "
                                             rf"no training rows at n = {n}$"):
            covariate_shift_split(data, split)

    def test_one_training_row_at_the_quantile_edge(self):
        data = generate_synthetic(airfoil_like_spec(n=20, seed=2))
        train, test = covariate_shift_split(
            data, ShiftSplit(pivot_feature=1, train_quantile=0.05))
        assert (train.n, test.n) == (1, 19)
        assert train.x[0, 1] == data.x[:, 1].min()  # nothing to swap


class TestStandardize:
    def test_train_columns_standardized(self):
        rng = np.random.default_rng(5)
        train = Dataset(x=rng.normal(3.0, 2.5, size=(200, 3)),
                        y=rng.normal(size=200))
        test = Dataset(x=rng.normal(3.0, 2.5, size=(50, 3)),
                       y=rng.normal(size=50))
        strain, stest, scaler = standardize(train, test)
        np.testing.assert_allclose(strain.x.mean(axis=0), 0.0, atol=1e-10)
        np.testing.assert_allclose(strain.x.std(axis=0, ddof=1), 1.0,
                                   atol=1e-10)
        np.testing.assert_allclose(stest.x,
                                   (test.x - train.x.mean(axis=0))
                                   / train.x.std(axis=0, ddof=1))
        np.testing.assert_array_equal(strain.y, train.y)
        np.testing.assert_array_equal(stest.y, test.y)

    def test_constant_column_passthrough(self):
        x = np.column_stack([np.full(20, 7.0), np.arange(20.0)])
        train = Dataset(x=x, y=np.zeros(20))
        test = Dataset(x=x[:5], y=np.zeros(5))
        strain, stest, scaler = standardize(train, test)
        assert scaler.mean[0] == 0.0 and scaler.scale[0] == 1.0
        np.testing.assert_array_equal(strain.x[:, 0], x[:, 0])
        np.testing.assert_array_equal(stest.x[:, 0], x[:5, 0])

    def test_one_training_row_refused(self):
        with pytest.raises(ValueError, match="^standardization needs at "
                                             "least 2 training rows$"):
            standardize(Dataset(x=[[1.0, 2.0]]), Dataset(x=np.ones((3, 2))))

    def test_dimension_mismatch_refused(self):
        with pytest.raises(ValueError,
                           match="^train and test dimension mismatch$"):
            standardize(Dataset(x=np.arange(8.0).reshape(4, 2)),
                        Dataset(x=np.ones((3, 3))))


class TestLoadCsv(object):
    def write(self, tmp_path, text, name="data.csv"):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return path

    def test_two_row_file(self, tmp_path):
        ds = load_csv(self.write(tmp_path, "1,2\n3,4\n"), target_column=1)
        np.testing.assert_array_equal(ds.x, [[1.0], [3.0]])
        np.testing.assert_array_equal(ds.y, [2.0, 4.0])

    def test_header_skipped(self, tmp_path):
        ds = load_csv(self.write(tmp_path, "a,b\n1,2\n3,4\n"),
                      has_header=True, target_column=1)
        assert ds.n == 2

    def test_no_target_column(self, tmp_path):
        ds = load_csv(self.write(tmp_path, "1,2\n3,4\n"))
        assert ds.y is None and ds.x.shape == (2, 2)

    def test_nan_cell_named(self, tmp_path):
        path = self.write(tmp_path, "1,2\n3,NaN\n")
        with pytest.raises(ValueError, match=r"line 2, column 2"):
            load_csv(path, target_column=1)

    def test_non_numeric_cell_named(self, tmp_path):
        path = self.write(tmp_path, "1,2\nx,4\n")
        with pytest.raises(ValueError, match=r"line 2, column 1"):
            load_csv(path, target_column=1)

    def test_ragged_row_named(self, tmp_path):
        path = self.write(tmp_path, "1,2\n3,4,5\n")
        with pytest.raises(ValueError, match=r"line 2"):
            load_csv(path, target_column=1)

    def test_empty_file_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="no data rows"):
            load_csv(self.write(tmp_path, ""))

    def test_target_out_of_range(self, tmp_path):
        path = self.write(tmp_path, "1,2\n3,4\n")
        with pytest.raises(ValueError, match="target column"):
            load_csv(path, target_column=5)

    def test_target_as_the_only_column_refused(self, tmp_path):
        with pytest.raises(ValueError, match="^no covariate columns left "
                                             "after removing the target$"):
            load_csv(self.write(tmp_path, "1\n2\n"), target_column=0)

    def test_blank_lines_skipped_and_counted(self, tmp_path):
        ds = load_csv(self.write(tmp_path, "1,2\n\n  \n3,4\n"),
                      target_column=1)
        np.testing.assert_array_equal(ds.x, [[1.0], [3.0]])
        np.testing.assert_array_equal(ds.y, [2.0, 4.0])
        path = self.write(tmp_path, "1,2\n\n  \n3,x\n")
        with pytest.raises(ValueError, match=r"line 4, column 2: 'x'$"):
            load_csv(path, target_column=1)

    def test_line_named_is_the_file_line_after_a_multiline_cell(self, tmp_path):
        # the quoted cell holds a newline, so the third record ends on line 4
        path = self.write(tmp_path, '1.0,2.0\n"3.0\n",4.0\n5.0,x\n')
        with pytest.raises(ValueError, match=r"line 4, column 2: 'x'$"):
            load_csv(path, target_column=1)

    def test_byte_order_mark_dropped(self, tmp_path):
        text = b"1.0,2.0\n3.0,4.0\n"
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_bytes(text)
        marked.write_bytes(b"\xef\xbb\xbf" + text)
        want = load_csv(plain, target_column=1)
        got = load_csv(marked, target_column=1)
        np.testing.assert_array_equal(got.x, want.x)
        np.testing.assert_array_equal(got.y, want.y)

    def test_row_order_preserved(self, tmp_path):
        path = self.write(tmp_path, "9,1\n5,2\n7,3\n")
        ds = load_csv(path, target_column=1)
        np.testing.assert_array_equal(ds.x[:, 0], [9.0, 5.0, 7.0])
        np.testing.assert_array_equal(ds.y, [1.0, 2.0, 3.0])
