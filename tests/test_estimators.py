import math
import re
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from selreg import (Dataset, FitState, SyntheticSpec, Uniform,
                    generate_synthetic, kernel_spec, mean_quadratic)
from selreg.data import (ShiftSplit, covariate_shift_split, derive_seed,
                         load_csv, standardize)
from selreg import estimators, kernels
from selreg.estimators import (_BLOCK, _loocv_scores, _sq_dists,
                               default_bandwidth_grid, evaluate_batch,
                               evaluate_point, select_bandwidth_loocv)
from selreg.kernels import eval_sq, shape_sq

from conftest import make_fit, run_python

GAUSS1 = kernel_spec("gaussian", 1)


def kernel_row_oracle(fit, x):
    """Direct formula evaluation of K((x - X_i)/h), independent loop."""
    out = []
    for row in fit.train.x:
        t = (np.asarray(x, dtype=float) - row) / fit.h
        sq = float(t @ t)
        if fit.kernel.kind.value == "gaussian":
            d = fit.train.d
            out.append((2 * math.pi) ** (-d / 2) * math.exp(-sq / 2))
        else:
            out.append(0.75 * (1 - sq) if sq <= 1 else 0.0)
    return np.array(out)


def scalar_reference(fit, x):
    """The one-point arithmetic of evaluate_batch, written as a 1-D loop body:
    batching must not change a bit of it."""
    x = np.asarray(x, dtype=float)
    sq = np.square(x[0] - fit.train.x[:, 0])
    for c in range(1, fit.train.d):
        sq = sq + np.square(x[c] - fit.train.x[:, c])
    vals = eval_sq(fit.kernel, sq * (1.0 / (fit.h * fit.h)))
    denom = float(vals.sum())
    w = vals / denom
    f = float(w @ fit.train.y)
    s2 = float(w @ np.square(fit.train.y - f))
    return f, s2, denom / (fit.train.n * fit.h ** fit.train.d), denom


def sq_dists_loop(a, b):
    """Per-pair squared distances, the squared coordinate differences added
    in coordinate order."""
    out = np.empty((len(a), len(b)))
    for i, p in enumerate(a.tolist()):
        for k, q in enumerate(b.tolist()):
            total = 0.0
            for pc, qc in zip(p, q):
                total += (pc - qc) * (pc - qc)
            out[i, k] = total
    return out


def weights_at(fit, x):
    """Weight of each training sample at x: the mean of a unit-vector response."""
    unit = np.eye(fit.train.n)
    return np.array([evaluate_point(FitState(Dataset(fit.train.x, e), fit.kernel,
                                             fit.h), x).f_hat for e in unit])


def f_hat_at(fit, x):
    return evaluate_point(fit, x).f_hat


def sigma2_hat_at(fit, x):
    return evaluate_point(fit, x).sigma2_hat


def p_hat_at(fit, x):
    return evaluate_point(fit, x).p_hat


class TestWeights:
    def test_single_sample(self):
        fit = make_fit([[0.0]], [3.7])
        assert weights_at(fit, [1.2]).tolist() == [1.0]

    def test_equidistant_pair(self):
        fit = make_fit([[-1.0], [1.0]], [0.0, 2.0])
        np.testing.assert_allclose(weights_at(fit, [0.0]), [0.5, 0.5],
                                   atol=1e-15)

    def test_two_point_derived_case(self):
        # X = {0, 1}, x = 0, h = 1: weights proportional to {K(0), K(1)}
        fit = make_fit([[0.0], [1.0]], [1.0, 5.0])
        w = weights_at(fit, [0.0])
        expect = np.array([1.0, math.exp(-0.5)])
        expect /= expect.sum()
        np.testing.assert_allclose(w, expect, rtol=1e-15)
        np.testing.assert_allclose(w, [0.62246, 0.37754], atol=5e-6)

    def test_degenerate_neighborhood_raises(self):
        # no sample in the kernel's support: the weights are undefined, which
        # the evaluation signals with NaN weights and zero mass, not an error
        fit = make_fit([[0.0]], [1.0], kernel=kernel_spec("epanechnikov", 1),
                       h=0.5)
        assert np.isnan(weights_at(fit, [2.0])).all()
        ev = evaluate_point(fit, [2.0])
        assert ev.weight_denominator == 0.0 and ev.p_hat == 0.0

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1))
    @example(3684)  # n = 1, query 42.5 h away: the Gaussian mass underflows
    def test_weights_nonnegative_and_sum_to_one(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 40))
        fit = make_fit(rng.normal(size=(n, 1)), rng.normal(size=n),
                       h=float(rng.uniform(0.05, 2.0)))
        x = rng.normal(size=1)
        w = weights_at(fit, x)
        ev = evaluate_point(fit, x)
        if ev.weight_denominator == 0.0:
            # zero mass: the weights are undefined, NaN by contract
            assert np.isnan(w).all() and ev.p_hat == 0.0
            return
        assert np.all(w >= 0.0)
        assert abs(w.sum() - 1.0) <= 1e-12


class TestMeanVariance:
    def test_single_sample_mean(self):
        assert f_hat_at(make_fit([[0.0]], [3.7]), [0.4]) == 3.7

    def test_equidistant_pair_mean(self):
        assert f_hat_at(make_fit([[-1.0], [1.0]], [0.0, 2.0]),
                        [0.0]) == pytest.approx(1.0, abs=1e-15)

    def test_two_point_derived_mean(self):
        fit = make_fit([[0.0], [1.0]], [1.0, 5.0])
        w1 = 1.0 / (1.0 + math.exp(-0.5))
        assert f_hat_at(fit, [0.0]) == pytest.approx(
            w1 * 1.0 + (1.0 - w1) * 5.0, rel=1e-15)
        assert f_hat_at(fit, [0.0]) == pytest.approx(2.51016, abs=5e-6)

    def test_single_sample_variance_is_zero(self):
        assert sigma2_hat_at(make_fit([[0.0]], [3.7]), [0.4]) == 0.0

    def test_equidistant_pair_variance(self):
        fit = make_fit([[-1.0], [1.0]], [0.0, 2.0])
        assert sigma2_hat_at(fit, [0.0]) == pytest.approx(1.0, abs=1e-14)

    def test_constant_response_variance(self):
        rng = np.random.default_rng(0)
        fit = make_fit(rng.normal(size=(25, 1)), np.full(25, 4.2), h=0.4)
        assert sigma2_hat_at(fit, [0.1]) <= 1e-12

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1),
           st.sampled_from(["gaussian", "epanechnikov"]))
    def test_variance_is_plus_zero_or_more_or_nan(self, seed, kind):
        # sum_k w_k (y_k - f_hat)^2 with every w_k >= +0 needs no clamp:
        # it is +0 or more, or NaN at zero mass
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 30))
        # few distinct responses, so that some rows have no spread at all
        y = rng.choice(rng.normal(size=int(rng.integers(1, 4))), size=n)
        fit = make_fit(rng.normal(size=(n, 1)), y, kernel=kernel_spec(kind, 1),
                       h=float(rng.uniform(0.01, 2)))
        queries = np.concatenate([fit.train.x,
                                  rng.normal(scale=3, size=(20, 1))])
        s2 = evaluate_batch(fit, queries).sigma2_hat
        assert np.all(np.isnan(s2) | ((s2 >= 0.0) & ~np.signbit(s2)))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1),
           st.floats(-5, 5), st.floats(0.1, 10))
    def test_affine_equivariance(self, seed, shift, scale):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 30))
        x = rng.normal(size=(n, 1))
        y = rng.normal(size=n)
        q = rng.normal(size=1)
        base = make_fit(x, y, h=0.5)
        mapped = make_fit(x, scale * y + shift, h=0.5)
        assert f_hat_at(mapped, q) == pytest.approx(
            scale * f_hat_at(base, q) + shift, abs=1e-10)
        assert sigma2_hat_at(mapped, q) == pytest.approx(
            scale ** 2 * sigma2_hat_at(base, q), abs=1e-10)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.floats(-20, 20))
    def test_translation_equivariance(self, seed, shift):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 30))
        x = rng.normal(size=(n, 1))
        y = rng.normal(size=n)
        q = rng.normal(size=1)
        base = make_fit(x, y, h=0.5)
        moved = make_fit(x + shift, y, h=0.5)
        assert f_hat_at(moved, q + shift) == pytest.approx(
            f_hat_at(base, q), abs=1e-12)
        assert sigma2_hat_at(moved, q + shift) == pytest.approx(
            sigma2_hat_at(base, q), abs=1e-12)
        assert p_hat_at(moved, q + shift) == pytest.approx(
            p_hat_at(base, q), abs=1e-12)


class TestDensity:
    def test_single_point_at_own_location(self):
        fit = make_fit([[0.0]], [1.0])
        assert p_hat_at(fit, [0.0]) == pytest.approx(
            (2 * math.pi) ** -0.5, rel=1e-15)

    def test_outside_bounded_support(self):
        fit = make_fit([[0.0], [0.2]], [1.0, 2.0],
                       kernel=kernel_spec("epanechnikov", 1), h=1.0)
        assert p_hat_at(fit, [5.0]) == 0.0

    def test_two_point_derived_case(self):
        fit = make_fit([[-1.0], [1.0]], [0.0, 0.0])
        expect = (2 * math.pi) ** -0.5 * math.exp(-0.5)
        assert p_hat_at(fit, [0.0]) == pytest.approx(expect, rel=1e-15)
        assert p_hat_at(fit, [0.0]) == pytest.approx(0.241971, abs=5e-7)

    def test_matches_formula_oracle(self):
        rng = np.random.default_rng(11)
        fit = make_fit(rng.normal(size=(40, 2)), rng.normal(size=40), h=0.7,
                       kernel=kernel_spec("gaussian", 2))
        x = rng.normal(size=2)
        oracle = kernel_row_oracle(fit, x).sum() / (40 * 0.7 ** 2)
        assert p_hat_at(fit, x) == pytest.approx(oracle, rel=1e-12)

    def test_density_mass_near_one(self):
        spec = SyntheticSpec(covariate_dists=(Uniform(-2.0, 2.0),),
                             mean_fn=mean_quadratic,
                             sd_fn=lambda x: np.zeros_like(np.asarray(x)),
                             n=2000, seed=314159)
        data = generate_synthetic(spec)
        fit = FitState(train=data, kernel=GAUSS1, h=0.2)
        grid = np.linspace(-3.0, 3.0, 600)
        dens = evaluate_batch(fit, grid[:, None]).p_hat
        mass = np.trapezoid(dens, grid)
        assert 0.97 <= mass <= 1.03


class TestEvaluatePoint:
    def test_consistent_with_individual_estimators(self):
        rng = np.random.default_rng(4)
        fit = make_fit(rng.normal(size=(30, 1)), rng.normal(size=30), h=0.4)
        x = [0.3]
        ev = evaluate_point(fit, x)
        k = kernel_row_oracle(fit, x)
        w = k / k.sum()
        f = float(w @ fit.train.y)
        assert ev.f_hat == pytest.approx(f, rel=1e-14)
        assert ev.sigma2_hat == pytest.approx(
            float(w @ (fit.train.y - f) ** 2), rel=1e-12)
        assert ev.weight_denominator == pytest.approx(k.sum(), rel=1e-14)
        assert ev.p_hat == ev.weight_denominator / (30 * 0.4)

    def test_degenerate_point(self):
        fit = make_fit([[0.0]], [1.0], kernel=kernel_spec("epanechnikov", 1),
                       h=0.5)
        ev = evaluate_point(fit, [3.0])
        assert ev.p_hat == 0.0 and ev.weight_denominator == 0.0
        assert math.isnan(ev.f_hat) and math.isnan(ev.sigma2_hat)

    @pytest.mark.parametrize("d", [1, 5])
    def test_batch_rows_equal_points_bit_for_bit(self, d):
        rng = np.random.default_rng(40 + d)
        fit = make_fit(rng.normal(size=(37, d)), rng.normal(size=37), h=0.6,
                       kernel=kernel_spec("gaussian", d))
        # more than one block of max(1, _BLOCK // n) query rows
        queries = rng.normal(size=(_BLOCK // 37 + 7, d))
        batch = evaluate_batch(fit, queries)
        for i, x in enumerate(queries):
            ev = evaluate_point(fit, x)
            row = (batch.f_hat[i], batch.sigma2_hat[i], batch.p_hat[i],
                   batch.weight_denominator[i])
            assert (ev.f_hat, ev.sigma2_hat, ev.p_hat,
                    ev.weight_denominator) == row
            assert scalar_reference(fit, x) == row

    def test_batch_zero_mass_rows(self):
        fit = make_fit([[-0.5], [0.0], [0.4]], [1.0, 2.0, 4.0],
                       kernel=kernel_spec("epanechnikov", 1), h=0.5)
        queries = np.array([-3.0, -0.2, 0.1, 5.0, 0.3, 0.95])
        empty = np.abs(queries[:, None] - fit.train.x[:, 0]).min(axis=1) >= 0.5
        assert empty.tolist() == [True, False, False, True, False, True]
        with np.errstate(all="raise"):
            ev = evaluate_batch(fit, queries[:, None])
        assert np.isnan(ev.f_hat).tolist() == empty.tolist()
        assert np.isnan(ev.sigma2_hat).tolist() == empty.tolist()
        assert (ev.p_hat == 0.0).tolist() == empty.tolist()
        assert np.all(ev.p_hat[~empty] > 0.0)

    def test_batch_rejects_wrong_shape(self):
        fit = make_fit(np.zeros((3, 2)), [1.0, 2.0, 3.0],
                       kernel=kernel_spec("gaussian", 2))
        with pytest.raises(ValueError):
            evaluate_batch(fit, np.zeros((4, 3)))
        with pytest.raises(ValueError):
            evaluate_batch(fit, np.zeros(4))
        # evaluate_point passes x on as one row, which evaluate_batch refuses
        # unless x is a length-d vector
        for x in ([1.0, 2.0, 3.0], [[1.0, 2.0]], [], 1.0):
            with pytest.raises(ValueError, match="queries have shape"):
                evaluate_point(fit, x)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_batch_rejects_nonfinite_rows(self, bad):
        # unchecked, the row would come back as NaN estimates with a NaN
        # or zero mass, and the rule would give it a reason
        fit = make_fit(np.zeros((3, 2)), [1.0, 2.0, 3.0],
                       kernel=kernel_spec("gaussian", 2))
        queries = np.zeros((4, 2))
        queries[2, 1] = bad
        with pytest.raises(ValueError, match=re.escape(
                f"query coordinates must be finite, got {[0.0, bad]}")):
            evaluate_batch(fit, queries)
        with pytest.raises(ValueError, match="finite"):
            evaluate_point(fit, queries[2])


class TestSqDists:
    @pytest.mark.parametrize("d", [1, 2, 5])
    def test_matches_a_per_pair_loop_bit_for_bit(self, d):
        rng = np.random.default_rng(80 + d)
        a = rng.normal(size=(13, d))
        b = rng.normal(scale=3.0, size=(11, d))
        expect = sq_dists_loop(a, b)
        assert np.array_equal(_sq_dists(a, b), expect)
        out, tmp = np.full((2, 13, 11), np.nan)
        assert _sq_dists(a, b, out=out, tmp=tmp) is out
        assert np.array_equal(out, expect)

    @pytest.mark.parametrize("d", [1, 2, 5])
    def test_loocv_block_views_bit_for_bit(self, d):
        # LOO-CV's blocks: rows lo:hi of the read-only sample matrix against
        # its rows lo:n, written into the leading part of two flat buffers
        x = Dataset(x=np.random.default_rng(90 + d).uniform(-2, 2, (20, d))).x
        step = 6
        sq_buf, buf = np.full((2, step * 20), np.nan)
        for lo in range(0, 20, step):
            hi = min(lo + step, 20)
            size = (hi - lo) * (20 - lo)
            sq = sq_buf[:size].reshape(hi - lo, 20 - lo)
            _sq_dists(x[lo:hi], x[lo:], out=sq,
                      tmp=buf[:size].reshape(sq.shape))
            assert np.array_equal(sq, sq_dists_loop(x[lo:hi], x[lo:]))


def loocv_oracle(data, kernel, grid):
    """Brute-force LOO-CV scores, one per grid h in grid order: refit on each
    leave-one-out subset."""
    scores = []
    for h in np.asarray(grid, dtype=float):
        total = 0.0
        for i in range(data.n):
            keep = np.arange(data.n) != i
            sub = FitState(train=Dataset(x=data.x[keep], y=data.y[keep]),
                           kernel=kernel, h=float(h))
            pred = f_hat_at(sub, data.x[i])
            if math.isnan(pred):  # zero kernel mass
                pred = data.y.mean()
            total += (data.y[i] - pred) ** 2
        scores.append(total)
    return np.array(scores)


def oracle_h(data, kernel, grid):
    """The oracle's choice: the first minimum over the sorted grid."""
    ordered = np.sort(np.asarray(grid, dtype=float))
    return float(ordered[np.argmin(loocv_oracle(data, kernel, ordered))])


class TestBandwidthSelection:
    def test_single_element_grid(self, gauss1d):
        rng = np.random.default_rng(1)
        data = Dataset(x=rng.normal(size=(10, 1)), y=rng.normal(size=10))
        assert select_bandwidth_loocv(data, gauss1d, [0.7]) == 0.7

    def test_empty_grid_rejected(self, gauss1d):
        rng = np.random.default_rng(1)
        data = Dataset(x=rng.normal(size=(10, 1)), y=rng.normal(size=10))
        with pytest.raises(ValueError):
            select_bandwidth_loocv(data, gauss1d, [])

    @pytest.mark.parametrize("bad", [0.0, -0.5, math.nan, math.inf])
    def test_grid_entries_must_be_positive_reals(self, gauss1d, bad):
        data = Dataset(x=np.arange(10.0), y=np.arange(10.0))
        with pytest.raises(ValueError, match="^bandwidth grid entries must "
                                             "be positive reals$"):
            select_bandwidth_loocv(data, gauss1d, [0.5, bad])

    def test_needs_responses(self, gauss1d):
        with pytest.raises(ValueError, match="^LOO-CV requires responses$"):
            select_bandwidth_loocv(Dataset(x=np.arange(10.0)), gauss1d, [0.5])

    def test_default_grid_on_constant_covariates(self):
        grid = default_bandwidth_grid(Dataset(x=np.ones((5, 2))))
        assert grid.tolist() == np.geomspace(0.05, 1.0,
                                             estimators._GRID_SIZE).tolist()
        assert (grid[0], grid[-1]) == (0.05, 1.0)

    def test_needs_three_samples(self, gauss1d):
        data = Dataset(x=[[0.0], [1.0]], y=[0.0, 1.0])
        with pytest.raises(ValueError):
            select_bandwidth_loocv(data, gauss1d, [0.5])

    @pytest.mark.parametrize("kind", ["gaussian", "epanechnikov"])
    def test_rule_below_three_samples_fits_h_one_that_fails_the_gate(self,
                                                                     kind):
        kernel = kernel_spec(kind, 1)
        data = Dataset(x=[[0.0], [0.0]], y=[0.0, 1.0])
        fit = estimators.loocv_bandwidth(kernel)(data)
        assert fit.h == 1.0
        # n K(0) < 4a: even two samples on top of the query miss the floor
        assert data.n * kernel.peak < 4.0 * kernel.a

    def test_policy_refuses_an_unknown_kind(self):
        with pytest.raises(ValueError, match="got 'lococv'$"):
            estimators.HPolicy("lococv")

    @pytest.mark.parametrize("h", [None, 0.0, -1.0, math.nan, math.inf, "1.0",
                                   True])
    def test_fixed_policy_refuses_an_h_it_cannot_fit(self, h):
        with pytest.raises(ValueError, match=r"^h must be a positive finite "
                                             rf"real, got {h!r}$"):
            estimators.HPolicy("fixed", h=h)

    @pytest.mark.parametrize("field,value", [
        ("c", None), ("c", 0.0), ("c", -1.0), ("c", math.nan), ("c", math.inf),
        ("c", "2"), ("c", True), ("exponent", None), ("exponent", math.nan),
        ("exponent", math.inf), ("exponent", -math.inf), ("exponent", "-0.2"),
        ("exponent", True)])
    def test_power_policy_refuses_a_rule_it_cannot_fit(self, field, value):
        demand = "a positive finite real" if field == "c" else "a finite real"
        with pytest.raises(ValueError, match=rf"^{field} must be {demand}, "
                                             rf"got {value!r}$"):
            estimators.HPolicy("power", **{field: value})

    @pytest.mark.parametrize("grid,message", [
        ((-1.0, 0.5), "grid[0] must be a positive finite real, got -1.0"),
        ([0.5, math.nan], "grid[1] must be a positive finite real, got nan"),
        ([0.5, True], "grid[1] must be a positive finite real, got True"),
        ([0.5, "1"], "grid[1] must be a positive finite real, got '1'"),
        ("abc", "grid must be a nonempty sequence of positive finite reals, "
                "got 'abc'"),
        ([], "grid must be a nonempty sequence of positive finite reals, got []"),
        (0.5, "grid must be a nonempty sequence of positive finite reals, "
              "got 0.5")])
    def test_policy_refuses_a_grid_it_cannot_search(self, grid, message):
        for kind, values in [("loocv", {}), ("fixed", {"h": 0.5}), ("power", {})]:
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                estimators.HPolicy(kind, grid=grid, **values)

    def test_loocv_policy_stores_its_grid_as_a_tuple_of_floats(self):
        policy = estimators.HPolicy("loocv", grid=np.array([0.25, 1.0]))
        assert policy.grid == (0.25, 1.0)
        assert all(type(h) is float for h in policy.grid)
        # a stored array would make == raise and the policy unhashable
        assert policy == estimators.HPolicy("loocv", grid=[0.25, 1])
        assert hash(policy) == hash(estimators.HPolicy("loocv", grid=(0.25, 1.0)))

    @pytest.mark.parametrize("kind,field,value,shown", [
        ("fixed", "h", np.float64(-1), "-1.0"),
        ("power", "c", np.int64(0), "0.0"),
        ("power", "exponent", np.float64(np.nan), "nan"),
        ("power", "exponent", 10 ** 400, "inf")],
        ids=["np.float64", "np.int64", "nan", "int-beyond-the-floats"])
    def test_policy_prints_a_real_as_a_float(self, kind, field, value, shown):
        with pytest.raises(ValueError, match=rf"^{field} must be .*, "
                                             rf"got {shown}$"):
            estimators.HPolicy(kind, **{field: value})

    @pytest.mark.parametrize("c,exponent", [(1.0, -0.2), (0.5, 0.0), (2.0, 0.3)])
    def test_power_policy_fits_c_n_to_the_exponent(self, c, exponent):
        data = Dataset(x=np.linspace(0.0, 1.0, 10)[:, None], y=np.zeros(10))
        fit = estimators.HPolicy("power", c=c, exponent=exponent).fit_rule(
            kernel_spec("gaussian", 1))(data)
        assert fit.h == c * 10 ** exponent

    @pytest.mark.parametrize("kind", ["gaussian", "epanechnikov"])
    def test_matches_bruteforce_oracle(self, kind):
        kernel = kernel_spec(kind, 1)
        rng = np.random.default_rng(8)
        x = rng.uniform(-2, 2, size=(24, 1))
        y = x[:, 0] ** 2 / 4 + rng.normal(scale=0.3, size=24)
        data = Dataset(x=x, y=y)
        grid = np.geomspace(0.1, 2.0, 8)
        assert select_bandwidth_loocv(data, kernel, grid) == oracle_h(
            data, kernel, grid)

    def test_duplication_keeps_selection(self, gauss1d):
        # Not a universal property (the held-out point's twin drags the LOO
        # prediction toward its own response at small h); this instance was
        # verified against the brute-force oracle and keeps the selection at
        # an interior grid point.
        rng = np.random.default_rng(100)
        x = rng.uniform(-2, 2, size=(20, 1))
        y = x[:, 0] ** 2 / 4 + rng.normal(scale=0.6, size=20)
        data = Dataset(x=x, y=y)
        doubled = Dataset(x=np.vstack([x, x]), y=np.concatenate([y, y]))
        grid = np.geomspace(0.4, 3.0, 7)
        picked = select_bandwidth_loocv(data, gauss1d, grid)
        assert grid[0] < picked < grid[-1]
        assert select_bandwidth_loocv(doubled, gauss1d, grid) == picked
        assert oracle_h(data, gauss1d, grid) == picked
        assert oracle_h(doubled, gauss1d, grid) == picked

    def test_selected_bandwidth_interior_on_smooth_data(self, gauss1d,
                                                        sigmoid_spec):
        from dataclasses import replace
        data = generate_synthetic(replace(sigmoid_spec, n=500, seed=6021))
        grid = np.geomspace(0.01, 2.0, 30)
        h = select_bandwidth_loocv(data, gauss1d, grid)
        assert grid[0] < h < grid[-1]

    def test_ties_break_to_smaller_h(self):
        # bounded support and points 10 apart: every grid h leaves all
        # leave-one-out neighborhoods empty, so each h scores the identical
        # fallback penalty and the smallest h must win
        kernel = kernel_spec("epanechnikov", 1)
        data = Dataset(x=[[0.0], [10.0], [20.0]], y=[1.0, 2.0, 4.0])
        assert select_bandwidth_loocv(data, kernel, [2.0, 1.0, 5.0]) == 1.0

    def test_plateau_ties_go_to_the_smallest_h(self):
        # every point keeps the same neighbours for h in [0.05, 0.50], so the
        # scores there are equal in exact arithmetic and differ in rounding
        # only; the smallest h must win whatever the last bits say
        kernel = kernel_spec("epanechnikov", 1)
        x = [-0.45170633132156235, 0.0513304871418474, 0.5584796838548423,
             0.5996524311542477]
        y = [0.009866761618496193, 0.02584988473519571, -0.25001557346297226,
             -0.14770862696482245]
        data = Dataset(x=np.array(x)[:, None], y=y)
        grid = np.geomspace(0.05, 3, 17)
        scores = _loocv_scores(data, kernel, grid)
        plateau = scores[:10]
        assert np.ptp(plateau) <= 1e-15 * plateau.min()
        assert scores[10:].min() > plateau.max()
        assert select_bandwidth_loocv(data, kernel, grid) == 0.05
        assert select_bandwidth_loocv(data, kernel, grid[::-1]) == 0.05

    @pytest.mark.parametrize("first,picked", [(1.0 + 0.9e-9, 0.1),
                                              (1.0 + 1.1e-9, 0.2)])
    def test_tie_band_edges(self, monkeypatch, first, picked):
        # a score within a relative 1e-9 of the minimum ties with it and the
        # smaller h wins; just outside the band the minimum wins
        monkeypatch.setattr(estimators, "_loocv_scores",
                            lambda data, kernel, grid: np.array(
                                [first, 1.0, 2.0]))
        data = Dataset(x=[[0.0], [1.0], [2.0]], y=[0.0, 1.0, 0.0])
        assert select_bandwidth_loocv(data, GAUSS1, [0.1, 0.2, 0.4]) == picked

    @pytest.mark.parametrize("edge", ["smallest", "largest"])
    def test_selection_at_an_edge_of_the_grid(self, gauss1d, edge):
        # a step response wants the narrowest window of the default grid;
        # pure noise around a constant wants the widest of three narrow ones
        rng = np.random.default_rng(3)
        x = np.sort(rng.uniform(-2, 2, size=200))[:, None]
        if edge == "smallest":
            data = Dataset(x=x, y=np.sign(x[:, 0]))
            grid = default_bandwidth_grid(data)
            want = grid[0]
        else:
            data = Dataset(x=x, y=1.0 + rng.normal(size=200))
            grid = np.array([0.02, 0.05, 0.1])
            want = 0.1
        picked = select_bandwidth_loocv(data, gauss1d, grid)
        assert picked == want
        assert picked == grid[np.argmin(_loocv_scores(data, gauss1d, grid))]

    def test_grid_order_does_not_matter(self, gauss1d):
        rng = np.random.default_rng(17)
        data = Dataset(x=rng.uniform(-2, 2, size=(18, 1)),
                       y=rng.normal(size=18))
        grid = np.geomspace(0.2, 2.0, 9)
        forward = select_bandwidth_loocv(data, gauss1d, grid)
        assert select_bandwidth_loocv(data, gauss1d, grid[::-1]) == forward

    def test_default_grid_spans_range(self):
        rng = np.random.default_rng(3)
        data = Dataset(x=rng.uniform(-2, 2, size=(50, 1)),
                       y=rng.normal(size=50))
        grid = default_bandwidth_grid(data)
        spread = data.x.max() - data.x.min()
        assert len(grid) == 30
        assert grid[0] == pytest.approx(0.05 * spread)
        assert grid[-1] == pytest.approx(spread)


# (kernel, d) pairs; the Epanechnikov kernel exists for d = 1 only
KERNEL_DIMS = [("gaussian", 1), ("gaussian", 2), ("gaussian", 5),
               ("epanechnikov", 1)]

# Gaussian d = 2: exp(-0.5 * 38.57^2) is 2 ulps of the smallest subnormal,
# far below the kernel's floor, so the shape there is 0
SUBNORMAL_GAP = 38.57

# budgets of kernel values per LOO-CV block at n = 40: one block of 40 rows,
# exactly two blocks of 20, fourteen blocks of 3 with a one-row last block,
# and a budget below n, which still takes one row per block
BLOCK_BUDGETS = [40 * 40, 20 * 40, 3 * 40, 1]


def loocv_case(kind, d, n=40):
    """A smooth n-point problem, its kernel and a descending 8-point grid."""
    rng = np.random.default_rng(60 + d)
    x = rng.uniform(-2, 2, size=(n, d))
    y = x.sum(axis=1) ** 2 / 4 + rng.normal(scale=0.3, size=n)
    return (Dataset(x=x, y=y), kernel_spec(kind, d),
            np.geomspace(0.1, 3.0, 8)[::-1])


class NumpySpy:
    """numpy as seen by ``estimators``, keeping copies of the first
    ``divide`` call's operands: in LOO-CV those are the parts' summed
    shape-weighted y and shape mass, read before the finish overwrites them."""

    def __init__(self):
        self.divided = None

    def __getattr__(self, name):
        return getattr(np, name)

    def divide(self, a, b, *args, **kwargs):
        if self.divided is None:
            self.divided = (np.array(a), np.array(b))
        return np.divide(a, b, *args, **kwargs)


def scores_and_per_h_sums(monkeypatch, data, kernel, grid):
    """LOO-CV's scores; per h, the 1-D sum of (y - pred)^2, with each
    leave-one-out prediction read from LOO-CV's own part sums (the mean of y
    at a zero-mass point); and per h, the count of zero-mass points."""
    spy = NumpySpy()
    with monkeypatch.context() as m:
        m.setattr(estimators, "np", spy)
        scores = _loocv_scores(data, kernel, grid)
    weighted, mass = spy.divided
    y = data.y
    ok = mass > 0.0
    pred = np.where(ok, weighted / np.where(ok, mass, 1.0), y.mean())
    per_h = [np.square(y - p).sum() for p in pred]
    return scores, np.array(per_h), (~ok).sum(axis=1)


def isolated_case(kind, d, gap, far=1):
    """40 points: a cluster in the unit cube with y = 0, and ``far`` points
    (rows 17, 18, ...) gap, 2 gap, ... away from its outermost point along
    the diagonal, with y = 3, 4, ...; a 3-point grid."""
    rng = np.random.default_rng(70 + d)
    x = rng.uniform(0.0, 1.0, size=(40, d))
    edge = x[np.argmax(x.sum(axis=1))]
    y = np.zeros(40)
    for j in range(far):
        x[17 + j] = edge + (j + 1) * gap / math.sqrt(d)
        y[17 + j] = 3.0 + j
    return Dataset(x=x, y=y), kernel_spec(kind, d), [0.3, 0.6, 1.0]


class TestLoocvBlocks:
    @pytest.mark.parametrize("budget", BLOCK_BUDGETS)
    @pytest.mark.parametrize("kind,d", KERNEL_DIMS)
    def test_score_curve_matches_oracle(self, monkeypatch, kind, d, budget):
        monkeypatch.setattr(estimators, "_BLOCK", budget)
        data, kernel, grid = loocv_case(kind, d)  # scores follow grid order
        scores = _loocv_scores(data, kernel, grid)
        np.testing.assert_allclose(scores, loocv_oracle(data, kernel, grid),
                                   rtol=1e-12, atol=0.0)
        assert select_bandwidth_loocv(data, kernel, grid) == oracle_h(
            data, kernel, grid)

    @pytest.mark.parametrize("budget", BLOCK_BUDGETS)
    @pytest.mark.parametrize("kind,d,gap", [("gaussian", 1, 50.0),
                                            ("gaussian", 2, 50.0),
                                            ("gaussian", 2, SUBNORMAL_GAP),
                                            ("epanechnikov", 1, 5.0)])
    def test_isolated_point_scores_exactly_the_fallback(self, monkeypatch,
                                                        kind, d, gap, budget):
        # Every cluster point has y = 0, so its leave-one-out prediction and
        # error are exactly 0 and the whole score is the isolated point's
        # term. Its kernel values are exactly 0 (the Gaussian's underflow
        # from about 38.5 h on, the Epanechnikov support ends at h), so the
        # term is the fallback (y_i - mean(y))^2, bit for bit.
        monkeypatch.setattr(estimators, "_BLOCK", budget)
        # every cluster point is at least gap away from point 17
        data, kernel, grid = isolated_case(kind, d, gap)
        x, y = data.x, data.y
        cluster = Dataset(x=np.delete(x, 17, axis=0), y=np.delete(y, 17))
        if gap == SUBNORMAL_GAP:
            # at h = 1 some textbook shapes are positive subnormals; below
            # the floor they are exactly 0, in LOO-CV and in evaluate_point
            sq = np.sum((cluster.x - x[17]) ** 2, axis=1)
            assert 0.0 < np.exp(-0.5 * sq).max() <= 3 * 2.0 ** -1074
            assert not np.any(shape_sq(kernel, sq))
        for h in grid:
            assert evaluate_point(FitState(cluster, kernel, h),
                                  x[17]).weight_denominator == 0.0
        fallback = (3.0 - y.mean()) ** 2
        scores, per_h, fallbacks = scores_and_per_h_sums(monkeypatch, data,
                                                         kernel, grid)
        assert fallbacks.tolist() == [1] * 3
        assert scores.tolist() == per_h.tolist() == [fallback] * 3
        assert loocv_oracle(data, kernel, grid).tolist() == [fallback] * 3


AIRFOIL_CSV = Path(__file__).resolve().parents[1] / "data" / "airfoil_like.csv"


class TestLoocvScoreSums:
    """Each score is one row sum of the squared leave-one-out errors, and a
    row sum of a C-contiguous array has the bits of the 1-D sum, however
    many of the row's points have zero mass."""

    @pytest.mark.parametrize("n", [20, 200, 2000])
    def test_monte_carlo_shaped(self, monkeypatch, n):
        data = mc_shaped(n)
        scores, per_h, zero_mass = scores_and_per_h_sums(
            monkeypatch, data, GAUSS1, default_bandwidth_grid(data))
        assert not zero_mass.any()
        assert scores.tobytes() == per_h.tobytes()

    @pytest.mark.parametrize("standardized", [False, True])
    def test_airfoil_csv(self, monkeypatch, standardized):
        data = load_csv(AIRFOIL_CSV, target_column=5)
        if standardized:  # a standardized pivot-1 train side, as the sweep's
            data = standardize(*covariate_shift_split(
                data, ShiftSplit(pivot_feature=1)))[0]
        scores, per_h, _ = scores_and_per_h_sums(
            monkeypatch, data, kernel_spec("gaussian", 5),
            default_bandwidth_grid(data))
        assert scores.tobytes() == per_h.tobytes()

    @pytest.mark.parametrize("far", [2, 3, 6])
    def test_zero_mass_points_keep_their_bits(self, monkeypatch, far):
        # one zero-mass point: test_isolated_point_scores_exactly_the_fallback.
        # Noise on the cluster's responses gives every row nonzero errors
        # next to the zero-mass points' (y_i - mean(y))^2.
        data, kernel, grid = isolated_case("epanechnikov", 1, 5.0, far=far)
        noise = np.random.default_rng(far).normal(size=data.n)
        data = Dataset(x=data.x, y=np.where(data.y == 0.0, noise, data.y))
        scores, per_h, zero_mass = scores_and_per_h_sums(monkeypatch, data,
                                                         kernel, grid)
        assert zero_mass.tolist() == [far] * 3
        assert scores.tobytes() == per_h.tobytes()


class TestLoocvMemory:
    @pytest.mark.parametrize("case", ["mc_shaped", "airfoil_csv"])
    def test_scores_need_no_more_than_blocks_and_sums(self, case):
        # block buffers and part sums, and at most two more len(grid) x n
        # float arrays' worth: the scores are finished in the part sums
        data = (mc_shaped(2000) if case == "mc_shaped"
                else load_csv(AIRFOIL_CSV, target_column=5))
        grid = default_bandwidth_grid(data)
        n = data.n
        step = min(n, max(1, _BLOCK // n))
        parts = len(estimators._loocv_parts(n, step))
        assert parts > 1
        bound = 8 * (parts * 2 * step * n + parts * grid.size * n * 2
                     + 2 * grid.size * n)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            _loocv_scores(data, kernel_spec("gaussian", data.d), grid)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak <= bound


def no_thread(*args, **kwargs):
    raise AssertionError("a thread was started")


def serial_scores(monkeypatch, data, kernel, grid):
    """LOO-CV's scores, with threading.Thread replaced by a stand-in that
    runs each part on the calling thread when it is started, so the parts
    run in order; and the number of stand-in threads made."""
    made = []

    class SerialThread:
        def __init__(self, target, args=()):
            self.target, self.args = target, args
            made.append(self)

        def start(self):
            self.target(*self.args)

        def join(self):
            return None

    with monkeypatch.context() as m:
        m.setattr(threading, "Thread", SerialThread)
        scores = _loocv_scores(data, kernel, grid)
    return scores, len(made)


def recorded_threads(monkeypatch):
    """A list that receives every thread LOO-CV starts."""
    started = []

    class RecordingThread(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(threading, "Thread", RecordingThread)
    return started


class TestLoocvThreads:
    @pytest.mark.parametrize("budget", BLOCK_BUDGETS)
    @pytest.mark.parametrize("kind,d", KERNEL_DIMS)
    def test_threaded_scores_have_the_serial_bits(self, monkeypatch, kind, d,
                                                budget):
        # a thread writing into another part's sums would change the scores
        monkeypatch.setattr(estimators, "_BLOCK", budget)
        data, kernel, grid = loocv_case(kind, d)
        step = min(data.n, max(1, budget // data.n))
        parts = len(estimators._loocv_parts(data.n, step))
        serial, made = serial_scores(monkeypatch, data, kernel, grid)
        started = recorded_threads(monkeypatch)
        before = threading.active_count()
        threaded = _loocv_scores(data, kernel, grid)
        assert threading.active_count() == before
        # one thread per part, each joined; a one-block triangle starts none
        assert len(started) == made == (0 if parts == 1 else parts)
        assert not any(t.is_alive() for t in started)
        assert np.array_equal(threaded, serial)

    @pytest.mark.parametrize("failing", ["first", "last"])
    def test_part_exception_reaches_the_caller(self, monkeypatch, failing):
        monkeypatch.setattr(estimators, "_BLOCK", 3 * 40)
        data, kernel, grid = loocv_case("gaussian", 1)
        raised_in = []

        class Boom(Exception):
            pass

        def failing_shape_sq(kernel, sq, scale=1.0, out=None, sq_max=None):
            # the first block, rows 0:3, spans every column and belongs to
            # the first part; only the last block, rows lo:n, is square
            first, last = sq.shape[1] == data.n, sq.shape[0] == sq.shape[1]
            if first if failing == "first" else last:
                raised_in.append(threading.current_thread())
                raise Boom(scale)
            return shape_sq(kernel, sq, scale, out, sq_max)

        monkeypatch.setattr(estimators, "shape_sq", failing_shape_sq)
        before = threading.active_count()
        with pytest.raises(Boom):
            select_bandwidth_loocv(data, kernel, grid)
        assert threading.active_count() == before
        assert raised_in and threading.main_thread() not in raised_in

    @pytest.mark.parametrize("budget", BLOCK_BUDGETS)
    def test_each_block_distances_are_formed_once(self, monkeypatch, budget):
        monkeypatch.setattr(estimators, "_BLOCK", budget)
        data, kernel, grid = loocv_case("gaussian", 5)
        n, step = data.n, min(data.n, max(1, budget // data.n))
        blocks = sum(map(len, estimators._loocv_parts(n, step)))
        assert blocks <= -(-n // step) + estimators._PARTS - 1
        rows = []

        def counting(a, b, out=None, tmp=None):
            rows.append((n - len(b), n - len(b) + len(a)))  # (lo, hi)
            return _sq_dists(a, b, out, tmp)

        monkeypatch.setattr(estimators, "_sq_dists", counting)
        _loocv_scores(data, kernel, grid)
        # one call per block: the calls' rows cover 0:n once, in blocks of
        # at most step rows
        assert len(rows) == blocks
        rows.sort()
        assert rows[0][0] == 0 and rows[-1][1] == n
        assert all(hi == lo for (_, hi), (lo, _) in zip(rows, rows[1:]))
        assert all(0 < hi - lo <= step for lo, hi in rows)

    def test_many_parts_on_more_threads_than_cpus(self, monkeypatch):
        # seven parts on seven threads, switching often: a thread writing
        # into another part's sums would lose updates and change the scores
        monkeypatch.setattr(estimators, "_BLOCK", 1)
        monkeypatch.setattr(estimators, "_PARTS", 7)
        data, kernel, grid = loocv_case("gaussian", 2)
        assert len(estimators._loocv_parts(data.n, 1)) == 7
        alone, _ = serial_scores(monkeypatch, data, kernel, grid)
        started = recorded_threads(monkeypatch)
        before = threading.active_count()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(3):
                assert np.array_equal(_loocv_scores(data, kernel, grid), alone)
        finally:
            sys.setswitchinterval(interval)
        assert threading.active_count() == before
        assert len(started) == 3 * 7
        assert not any(t.is_alive() for t in started)

    def test_one_block_starts_no_thread(self, monkeypatch):
        # at the default budget one block holds n = 362 rows, not 363
        monkeypatch.setattr(threading, "Thread", no_thread)
        assert (_BLOCK // 362) >= 362 > _BLOCK // 363
        data, kernel, grid = loocv_case("gaussian", 1, n=362)
        _loocv_scores(data, kernel, grid)
        data, kernel, grid = loocv_case("gaussian", 1, n=363)
        with pytest.raises(AssertionError, match="a thread was started"):
            _loocv_scores(data, kernel, grid)

    @pytest.mark.parametrize("n", [0, 400])
    def test_fits_load_no_thread_pool(self, n):
        # concurrent.futures imports logging; neither importing the package
        # nor a LOO-CV fit, one-block or multi-part (n = 400), loads them
        code = ("import sys, numpy as np, selreg, selreg.cli, selreg.experiments\n"
                "from selreg import Dataset, estimators, kernel_spec\n"
                f"n = {n}\n"
                "if n:\n"
                "    x = np.linspace(-2.0, 2.0, n)[:, None]\n"
                "    data = Dataset(x=x, y=np.sin(x[:, 0]))\n"
                "    assert len(estimators._loocv_parts(n, estimators._BLOCK // n)) > 1\n"
                "    estimators.loocv_bandwidth(kernel_spec('gaussian', 1))(data)\n"
                "print(sorted({'concurrent.futures', 'logging'} & set(sys.modules)))")
        assert run_python(code).strip() == "[]"


def plain_shape_sq(kernel, sq, scale=1.0, out=None, sq_max=None):
    """The Gaussian shape as one multiply and one exp, with no floor."""
    out = np.multiply(sq, -0.5 * scale, out=out)
    return np.exp(out, out=out)


def mc_shaped(n):
    """n samples shaped like the Monte-Carlo runs: x uniform on [-2, 2]."""
    rng = np.random.default_rng(n)
    x = rng.uniform(-2, 2, size=(n, 1))
    return Dataset(x=x, y=x[:, 0] ** 2 / 4 + rng.normal(scale=0.5, size=n))


class TestNoUnderflowPath:
    """On Monte-Carlo-shaped inputs with the default grid no kernel value
    comes near the floor: the guarded exp is never taken, and the bits are
    one multiply and one exp."""

    @staticmethod
    def refuse(*args):
        raise AssertionError("the guarded exp was taken")

    @pytest.mark.parametrize("n", [200, 2000])
    def test_shapes_and_scores_are_the_plain_exp(self, monkeypatch, n):
        data = mc_shaped(n)
        grid = default_bandwidth_grid(data)
        monkeypatch.setattr(kernels, "_exp_above_floor", self.refuse)
        sq = _sq_dists(data.x, data.x)
        for h in grid:
            scale = 1.0 / (h * h)
            assert shape_sq(GAUSS1, sq, scale).tobytes() == np.exp(
                np.multiply(sq, -0.5 * scale)).tobytes()
        scores = _loocv_scores(data, GAUSS1, grid)
        monkeypatch.setattr(estimators, "shape_sq", plain_shape_sq)
        assert scores.tobytes() == _loocv_scores(data, GAUSS1, grid).tobytes()

    @pytest.mark.parametrize("n", [200, 2000])
    def test_evaluations_are_the_plain_exp(self, monkeypatch, n):
        data = mc_shaped(n)
        queries = np.linspace(-2, 2, 81)[:, None]
        monkeypatch.setattr(kernels, "_exp_above_floor", self.refuse)
        for h in default_bandwidth_grid(data)[[0, -1]]:
            fit = FitState(data, GAUSS1, float(h))
            ev = evaluate_batch(fit, queries)
            with monkeypatch.context() as plain:
                plain.setattr(estimators, "eval_sq",
                              lambda k, sq, scale=1.0, out=None: np.multiply(
                                  k.peak, plain_shape_sq(k, sq, scale, out),
                                  out=out))
                expect = evaluate_batch(fit, queries)
            for field in ("f_hat", "sigma2_hat", "p_hat",
                          "weight_denominator"):
                assert getattr(ev, field).tobytes() == \
                    getattr(expect, field).tobytes()


class TestConsistencySmoke:
    def test_squared_error_shrinks_with_n(self, gauss1d, sigmoid_spec):
        from dataclasses import replace
        target = 0.5 ** 2 / 4
        errors = []
        for n in (100, 400, 1600):
            sq = []
            for rep in range(50):
                data = generate_synthetic(
                    replace(sigmoid_spec, n=n, seed=derive_seed(97, n, rep)))
                fit = FitState(train=data, kernel=gauss1d, h=n ** -0.2)
                sq.append((f_hat_at(fit, [0.5]) - target) ** 2)
            errors.append(np.mean(sq))
        assert errors[0] >= errors[1] >= errors[2]


class TestDatasetValidation:
    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError, match="^covariates must be finite$"):
            Dataset(x=[[np.nan]], y=[1.0])
        with pytest.raises(ValueError, match="^responses must be finite$"):
            Dataset(x=[[1.0]], y=[np.inf])

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError, match=re.escape(
                "responses must be a vector of length n")):
            Dataset(x=[[1.0], [2.0]], y=[1.0])

    def test_rejects_empty(self):
        for x in (np.zeros((0, 1)), np.zeros((2, 0)), np.zeros((1, 1, 1))):
            with pytest.raises(ValueError, match=re.escape(
                    "covariates must form an (n, d) matrix with n >= 1")):
                Dataset(x=x, y=np.zeros(len(x)))

    def test_vector_and_scalar_covariates_are_a_column(self):
        assert Dataset(x=[1.0, 2.0], y=[0.0, 1.0]).x.shape == (2, 1)
        data = Dataset(x=3.0, y=1.0)
        assert (data.x.tolist(), data.y.tolist()) == ([[3.0]], [1.0])
        assert data.x.flags.c_contiguous and data.x.dtype == float

    def test_arrays_are_read_only(self):
        data = Dataset(x=[[1.0]], y=[2.0])
        with pytest.raises(ValueError):
            data.x[0, 0] = 3.0
        # ndarray inputs are copied: the caller's arrays stay writeable, and
        # writing to one, a 1-D x or the base of a row slice, leaves the data
        x2d, x1, y = np.zeros((3, 1)), np.zeros(3), np.zeros(3)
        datasets = [Dataset(x=x2d, y=y), Dataset(x=x1, y=y),
                    Dataset(x=x2d[:2], y=y[:2])]
        x2d[0, 0] = x1[0] = y[0] = 99.0
        for data in datasets:
            assert not data.x.flags.writeable and not data.y.flags.writeable
            assert data.x[0, 0] == 0.0 and data.y[0] == 0.0

    def test_fit_validation(self, gauss1d):
        data = Dataset(x=[[1.0]], y=[2.0])
        for h in (0.0, -1.0, np.inf, np.nan):
            # a numpy scalar reads as a float, not as 'np.float64(nan)'
            for value in (float(h), np.float64(h)):
                with pytest.raises(ValueError, match=re.escape(
                        f"bandwidth must be a positive finite real, "
                        f"got {float(h)!r}")):
                    FitState(train=data, kernel=gauss1d, h=value)
        with pytest.raises(ValueError):
            FitState(train=Dataset(x=[[1.0, 2.0]], y=[0.0]),
                     kernel=gauss1d, h=1.0)
        with pytest.raises(ValueError):
            FitState(train=Dataset(x=[[1.0]]), kernel=gauss1d, h=1.0)

    @pytest.mark.parametrize("h", [None, "0.3", True])
    def test_fit_refuses_a_bandwidth_that_is_not_real(self, gauss1d, h):
        with pytest.raises(ValueError, match=re.escape(
                f"bandwidth must be a positive finite real, got {h!r}")):
            FitState(train=Dataset(x=[[1.0]], y=[2.0]), kernel=gauss1d, h=h)

    @pytest.mark.parametrize("h,problem", [(1e-70, "= 0.0 underflows"),
                                           (1e-63, "= 1e-315 underflows"),
                                           (1e70, "overflows")])
    def test_fit_rejects_h_to_the_d_out_of_range(self, h, problem):
        # h is fine at d = 1; at d = 5, h ** d is 0, subnormal or beyond the
        # floats, and the density estimate divides by it
        FitState(train=Dataset(x=[[1.0]], y=[2.0]),
                 kernel=kernel_spec("gaussian", 1), h=h)
        data = Dataset(x=np.zeros((1, 5)), y=[2.0])
        for value in (h, np.float64(h)):
            with pytest.raises(ValueError,
                               match=re.escape(f"bandwidth {h!r} ")) as excinfo:
                FitState(train=data, kernel=kernel_spec("gaussian", 5), h=value)
            assert problem in str(excinfo.value)
