import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from selreg import (AbstentionConfig, Dataset, FitState, Reason, Verdict,
                    decide, decide_batch, kernel_spec)
from selreg.abstention import critical_value, decide_from_evaluation
from selreg.estimators import PointEvaluation, evaluate_batch, evaluate_point
from selreg.normal import normal_quantile

from conftest import make_fit

Z95 = -normal_quantile(0.05)  # z_{1-beta} at beta = 0.05
L2_GAUSS_1D = (4 * math.pi) ** -0.25


def random_fit(rng, n=None):
    n = n or int(rng.integers(3, 60))
    x = rng.uniform(-2, 2, size=(n, 1))
    y = x[:, 0] ** 2 / 4 + rng.normal(scale=0.5, size=n)
    return FitState(train=Dataset(x=x, y=y), kernel=kernel_spec("gaussian", 1),
                    h=float(rng.uniform(0.1, 1.0)))


class TestConfig:
    def test_valid(self):
        AbstentionConfig(lam=0.36, beta=0.05)
        AbstentionConfig(lam=2.0, beta=0.5)

    @pytest.mark.parametrize("lam,beta", [(0.0, 0.1), (-1.0, 0.1),
                                          (1.0, 0.0), (1.0, 0.6), (1.0, -0.1)])
    def test_invalid(self, lam, beta):
        with pytest.raises(ValueError):
            AbstentionConfig(lam=lam, beta=beta)

    @pytest.mark.parametrize("value", [0.0, -1.0, math.inf, math.nan])
    @pytest.mark.parametrize("as_type", [float, np.float64])
    def test_message_prints_the_value_as_a_float(self, value, as_type):
        # a numpy scalar reads as 'nan', not 'np.float64(nan)'
        with pytest.raises(ValueError, match=re.escape(
                f"lambda must be a positive finite real, got {value!r}")):
            AbstentionConfig(lam=as_type(value), beta=0.05)
        with pytest.raises(ValueError, match=re.escape(
                f"beta must lie in (0, 0.5], got {value!r}")):
            AbstentionConfig(lam=1.0, beta=as_type(value))

    def test_z_is_derived_from_beta(self):
        assert AbstentionConfig(lam=0.36, beta=0.05).z == Z95
        z_plugin = AbstentionConfig(lam=0.36, beta=0.5).z
        assert z_plugin == 0.0 and math.copysign(1.0, z_plugin) == 1.0
        with pytest.raises(TypeError):
            AbstentionConfig(lam=0.36, beta=0.05, z=1.0)

    def test_z_is_finite_and_grows_at_levels_below_two_to_the_minus_53(self):
        # 1 - beta is 1.0 at each of these levels, and Phi^{-1}(1.0) is inf
        zs = [AbstentionConfig(lam=1.0, beta=beta).z
              for beta in (2.0 ** -53, 1e-17, 1e-300, 5e-324)]
        assert all(map(math.isfinite, zs))
        assert zs == sorted(set(zs))
        # the tail keeps its precision: 1e-16 and 1.2e-16 are two levels
        assert (AbstentionConfig(lam=1.0, beta=1e-16).z
                > AbstentionConfig(lam=1.0, beta=1.2e-16).z)


def at_mass(mass, sigma2_hat=0.1):
    """Hand-built one-point evaluation with the given kernel mass."""
    return PointEvaluation(f_hat=0.0, sigma2_hat=sigma2_hat, p_hat=math.nan,
                           weight_denominator=mass)


# the rule reads only the kernel of the fit it is given
GAUSS_FIT = make_fit([[0.0]], [0.0], h=0.3)


class TestThresholdFormula:
    def test_derived_numeric_case(self):
        # lambda=0.36, beta=0.05, n=100, h=0.3, p_hat=0.25, Gaussian d=1:
        # the mass n h p_hat is 7.5
        got = decide_from_evaluation(at_mass(7.5), GAUSS_FIT, 0.36,
                                     Z95).threshold
        oracle = 0.36 * (1 - Z95 * L2_GAUSS_1D * math.sqrt(2 / (100 * 0.3 * 0.25)))
        assert got == oracle
        assert got == pytest.approx(0.1976, abs=1e-3)

    def test_plugin_threshold_is_lambda(self):
        assert decide_from_evaluation(at_mass(7.5), GAUSS_FIT, 0.36,
                                      0.0).threshold == 0.36

    def test_zero_mass_gives_nan(self):
        d = decide_from_evaluation(at_mass(0.0), GAUSS_FIT, 0.36, Z95)
        assert math.isnan(d.threshold)
        assert d.reason is Reason.LOW_DENSITY

    @pytest.mark.parametrize("z", [Z95, 0.0])
    def test_subnormal_mass_gives_nan(self, z):
        # 2 / m overflows below the smallest normal mass; the suite turns
        # the RuntimeWarning that would give into an error
        tiny = np.finfo(float).smallest_normal
        below = decide_from_evaluation(at_mass(np.nextafter(tiny, 0)),
                                       GAUSS_FIT, 0.36, z)
        at = decide_from_evaluation(at_mass(tiny), GAUSS_FIT, 0.36, z)
        assert math.isnan(below.threshold)
        assert math.isfinite(at.threshold)
        assert below.reason is at.reason is Reason.LOW_DENSITY

    @pytest.mark.parametrize("beta", [0.05, 0.5])
    def test_far_queries_with_subnormal_mass(self, beta):
        # 38 h and more from the data the textbook Gaussian mass is 2e-311
        # down to 3e-321, made of subnormal kernel values; those are 0, so
        # the mass is exactly 0: low density, no threshold, and no warning
        # (the suite turns RuntimeWarnings into errors)
        fit = make_fit([[0.0], [0.1], [0.2]], [1.0, 2.0, 3.0], h=1.0)
        cfg = AbstentionConfig(lam=0.36, beta=beta)
        for x in (38.0, 38.3, 38.6):
            textbook = fit.kernel.peak * np.exp(
                -0.5 * np.square(x - fit.train.x[:, 0]))
            assert 0.0 < textbook.sum() < 2.3e-311
            d = decide(fit, [x], cfg)
            assert d.eval.weight_denominator == 0.0
            assert d.reason is Reason.LOW_DENSITY and not d.accepted
            assert math.isnan(d.threshold)

    def test_gate_is_four_a_on_the_mass(self):
        four_a = 4 * GAUSS_FIT.kernel.a
        below = decide_from_evaluation(at_mass(np.nextafter(four_a, 0)),
                                       GAUSS_FIT, 10.0, 0.0)
        at = decide_from_evaluation(at_mass(four_a), GAUSS_FIT, 10.0, 0.0)
        assert below.reason is Reason.LOW_DENSITY
        assert at.reason is Reason.ACCEPTED

    def test_accept_and_reject_around_threshold(self):
        # realize the derived case end to end via decide_from_evaluation
        rng = np.random.default_rng(0)
        fit = random_fit(rng, n=100)
        ev = evaluate_point(fit, [0.0])
        assert ev.weight_denominator >= 4 * fit.kernel.a
        threshold = 0.36 * (1 - Z95 * fit.kernel.l2_norm
                            * math.sqrt(2 / ev.weight_denominator))
        decision = decide_from_evaluation(ev, fit, 0.36, Z95)
        assert decision.threshold == threshold
        assert decision.accepted == (ev.sigma2_hat <= threshold)


class TestDecide:
    def test_plugin_reduces_to_density_gate_and_variance_cut(self):
        rng = np.random.default_rng(5)
        fit = random_fit(rng, n=80)
        for x in np.linspace(-2, 2, 21):
            d = decide(fit, [x], AbstentionConfig(lam=0.36, beta=0.5))
            ev = d.eval
            if ev.weight_denominator < 4 * fit.kernel.a:
                assert d.reason is Reason.LOW_DENSITY
            else:
                assert d.threshold == 0.36
                assert d.accepted == (ev.sigma2_hat <= 0.36)

    def test_zero_density_point_rejected_low_density(self):
        fit = make_fit([[0.0], [0.1]], [1.0, 2.0],
                       kernel=kernel_spec("epanechnikov", 1), h=0.5)
        d = decide(fit, [5.0], AbstentionConfig(lam=1.0, beta=0.05))
        assert d.verdict is Verdict.REJECT
        assert d.reason is Reason.LOW_DENSITY
        assert d.eval.p_hat == 0.0

    def test_single_training_point_fails_gate(self):
        # p_hat = K(0)/h^d = (2 pi)^{-1/2}/h < 4a/h^d since 4a > K(0)
        for h in (0.5, 1.0, 2.0):
            fit = make_fit([[0.7]], [1.0], h=h)
            d = decide(fit, [0.7], AbstentionConfig(lam=10.0, beta=0.5))
            assert d.reason is Reason.LOW_DENSITY
            assert d.eval.sigma2_hat == 0.0

    def test_boundary_sigma2_equal_threshold_accepts(self):
        # five copies of the equidistant pair: gate passes, sigma2_hat = 1
        fit = make_fit([[-1.0]] * 5 + [[1.0]] * 5, [0.0] * 5 + [2.0] * 5)
        ev = evaluate_point(fit, [0.0])
        assert ev.weight_denominator >= 4 * fit.kernel.a
        d = decide_from_evaluation(ev, fit, ev.sigma2_hat, 0.0)
        assert d.threshold == ev.sigma2_hat
        assert d.accepted
        just_below = decide_from_evaluation(
            ev, fit, ev.sigma2_hat * (1 - 1e-12), 0.0)
        assert not just_below.accepted

    def test_negative_threshold_reason_is_variance_test(self):
        # beta far from 0.5 with a thin sample: parenthesized factor < 0
        fit = make_fit([[0.0], [0.05], [-0.05]], [0.0, 1.0, -1.0], h=0.3)
        cfg = AbstentionConfig(lam=0.36, beta=0.001)
        d = decide(fit, [0.0], cfg)
        if d.eval.weight_denominator >= 4 * fit.kernel.a and d.threshold < 0:
            assert d.reason is Reason.VARIANCE_TEST_FAILED

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_query_raises(self, bad):
        # unchecked, NaN would fail the variance test and inf the gate;
        # neither is a verdict on the query
        fit = make_fit([[0.0], [0.1], [0.2]], [1.0, 2.0, 3.0], h=0.5)
        with pytest.raises(ValueError, match="finite"):
            decide(fit, [bad], AbstentionConfig(lam=0.36, beta=0.05))

    def test_determinism(self):
        rng = np.random.default_rng(1)
        fit = random_fit(rng)
        cfg = AbstentionConfig(lam=0.4, beta=0.07)
        first = decide(fit, [0.3], cfg)
        second = decide(fit, [0.3], cfg)
        assert first == second


class TestPluginEquivalence:
    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1))
    def test_plugin_matches_beta_half(self, seed):
        # beta = 0.5 is the plugin rule: the density gate, then
        # sigma2_hat <= lambda, with the threshold equal to lambda
        rng = np.random.default_rng(seed)
        fit = random_fit(rng)
        x = [float(rng.uniform(-3, 3))]
        lam = float(rng.uniform(0.05, 2.0))
        a = decide(fit, x, AbstentionConfig(lam=lam, beta=0.5))
        gate = a.eval.weight_denominator >= 4 * fit.kernel.a
        assert a.accepted == (gate and a.eval.sigma2_hat <= lam)
        assert (a.reason is Reason.LOW_DENSITY) == (not gate)
        assert a.threshold == lam


class TestMonotonicity:
    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1))
    def test_accepts_monotone_in_beta(self, seed):
        rng = np.random.default_rng(seed)
        fit = random_fit(rng)
        x = [float(rng.uniform(-2.5, 2.5))]
        lam = float(rng.uniform(0.05, 1.5))
        betas = np.sort(rng.uniform(0.01, 0.5, size=4))
        accepted = [decide(fit, x, AbstentionConfig(lam=lam, beta=float(b))).accepted
                    for b in betas]
        # once accepted, stays accepted for every larger beta
        for first, second in zip(accepted, accepted[1:]):
            assert second or not first

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1))
    def test_accepts_monotone_in_lambda(self, seed):
        rng = np.random.default_rng(seed)
        fit = random_fit(rng)
        x = [float(rng.uniform(-2.5, 2.5))]
        beta = float(rng.uniform(0.01, 0.5))
        lams = np.sort(rng.uniform(0.02, 2.0, size=4))
        accepted = [decide(fit, x, AbstentionConfig(lam=float(l), beta=beta)).accepted
                    for l in lams]
        for first, second in zip(accepted, accepted[1:]):
            assert second or not first

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1))
    def test_gate_depends_only_on_covariates(self, seed):
        rng = np.random.default_rng(seed)
        fit = random_fit(rng)
        x = [float(rng.uniform(-4, 4))]
        cfg = AbstentionConfig(lam=0.3, beta=0.1)
        original = decide(fit, x, cfg)
        shuffled = FitState(
            train=Dataset(x=fit.train.x, y=rng.permutation(fit.train.y)),
            kernel=fit.kernel, h=fit.h)
        redone = decide(shuffled, x, cfg)
        gate_fails = original.eval.weight_denominator < 4 * fit.kernel.a
        assert (original.reason is Reason.LOW_DENSITY) == gate_fails
        assert (redone.reason is Reason.LOW_DENSITY) == gate_fails


class TestZDirect:
    def test_beta_path_equals_z_path(self):
        rng = np.random.default_rng(9)
        fit = random_fit(rng)
        cfg = AbstentionConfig(lam=0.36, beta=0.05)
        via_beta = decide(fit, [0.2], cfg)
        via_z = decide_from_evaluation(evaluate_point(fit, [0.2]), fit, 0.36,
                                       -normal_quantile(0.05))
        assert via_beta == via_z

    def test_lambda_zero_rejects_noisy_points(self):
        rng = np.random.default_rng(10)
        fit = random_fit(rng, n=60)
        d = decide_from_evaluation(evaluate_point(fit, [0.0]), fit, 0.0, 0.0)
        assert not d.accepted or d.eval.sigma2_hat == 0.0

    @pytest.mark.parametrize("z", [0.0, Z95])
    def test_lambda_zero_accepts_zero_variance(self, z):
        # at lam = 0 the threshold 0 * (1 - z ||K||_2 sqrt(2 / m)) is +0, or
        # -0.0 where the bracket is negative (z = Z95 at m = 4a and 1), and
        # sigma2_hat = +0 meets either
        signs = []
        for mass in (4 * GAUSS_FIT.kernel.a, 1.0, 50.0):
            d = decide_from_evaluation(at_mass(mass, sigma2_hat=0.0),
                                       GAUSS_FIT, 0.0, z)
            assert d.threshold == 0.0
            assert d.accepted and d.reason is Reason.ACCEPTED
            signs.append(math.copysign(1.0, d.threshold))
        assert signs == ([1.0] * 3 if z == 0.0 else [-1.0, -1.0, 1.0])


class TestDecideBatch:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1))
    def test_matches_single_point_decisions(self, seed):
        rng = np.random.default_rng(seed)
        fit = random_fit(rng)
        points = rng.uniform(-3, 3, size=25)
        lam = float(rng.uniform(0.0, 2.0))
        z = float(rng.uniform(0.0, 3.0))
        accepted, low_density, threshold = decide_batch(
            evaluate_batch(fit, points[:, None]), fit, lam, z)
        for i, x in enumerate(points):
            d = decide_from_evaluation(evaluate_point(fit, [x]), fit, lam, z)
            assert accepted[i] == d.accepted
            assert low_density[i] == (d.reason is Reason.LOW_DENSITY)
            assert threshold[i] == d.threshold

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1))
    def test_columns_equal_scalar_calls_bit_for_bit(self, seed):
        # a lam = 0 cell gives signed zero thresholds, beta = 0.5 a z of +0,
        # and the two far points a zero mass and a NaN threshold
        rng = np.random.default_rng(seed)
        fit = random_fit(rng)
        ev = evaluate_batch(fit, np.r_[rng.uniform(-3, 3, 23), -99, 99][:, None])
        lam = [0.0, 0.36, 0.36, 1.5]
        z = [Z95, Z95, critical_value(0.5), 3.0]
        accepted, low_density, threshold = decide_batch(
            ev, fit, np.reshape(lam, (4, 1)), np.reshape(z, (4, 1)))
        assert accepted.shape == threshold.shape == (4, 25)
        assert low_density.shape == ev.weight_denominator.shape == (25,)
        for k in range(4):
            one = decide_batch(ev, fit, lam[k], z[k])
            assert one[0].tobytes() == accepted[k].tobytes()
            assert one[1].tobytes() == low_density.tobytes()
            assert one[2].tobytes() == threshold[k].tobytes()

    def test_zero_mass_rows(self):
        fit = make_fit(np.linspace(-0.1, 0.1, 10)[:, None], np.arange(10.0),
                       kernel=kernel_spec("epanechnikov", 1), h=0.5)
        ev = evaluate_batch(fit, [[-4.0], [0.05], [4.0]])
        with np.errstate(all="raise"):
            accepted, low_density, threshold = decide_batch(ev, fit, 1.0, Z95)
        assert low_density.tolist() == [True, False, True]
        assert not accepted[0] and not accepted[2]
        assert np.isnan(threshold).tolist() == [True, False, True]


class TestMassForm:
    """decide_batch reads the kernel mass; the paper states the rule on p_hat.

    n h^d p_hat(x) is the kernel mass, so the two forms are equal in real
    arithmetic; in floating point the reasons must match and the thresholds
    may differ only in their last bits.
    """

    @pytest.mark.parametrize("kind,d,seed", [("gaussian", 1, 11),
                                             ("gaussian", 5, 12),
                                             ("epanechnikov", 1, 13)])
    def test_matches_the_p_hat_form(self, kind, d, seed):
        rng = np.random.default_rng(seed)
        kernel = kernel_spec(kind, d)
        for _ in range(20):
            n = int(rng.integers(5, 300))
            fit = FitState(train=Dataset(x=rng.normal(size=(n, d)),
                                         y=rng.normal(size=n)),
                           kernel=kernel, h=float(rng.uniform(0.1, 1.5)))
            # near queries, and far ones whose mass is exactly zero
            near = rng.normal(scale=1.5, size=(40, d))
            far = np.vstack([np.full(d, 100.0), np.full(d, -1e3)])
            ev = evaluate_batch(fit, np.vstack([near, far]))
            assert np.all(ev.weight_denominator[-2:] == 0.0)
            volume = n * fit.h ** d
            floor = 4 * kernel.a / volume
            for lam, z in [(0.36, 0.0), (0.36, Z95), (1.5, 2.5)]:
                with np.errstate(divide="ignore", invalid="ignore"):
                    p_threshold = lam * (1 - z * kernel.l2_norm
                                         * np.sqrt(2 / (volume * ev.p_hat)))
                p_threshold[ev.p_hat == 0] = np.nan
                p_reason = np.where(ev.p_hat < floor, "low",
                                    np.where(ev.sigma2_hat <= p_threshold,
                                             "accepted", "variance"))
                accepted, low_density, threshold = decide_batch(
                    ev, fit, lam, z)
                reason = np.where(low_density, "low",
                                  np.where(accepted, "accepted", "variance"))
                assert reason.tolist() == p_reason.tolist()
                assert np.array_equal(np.isnan(threshold),
                                      np.isnan(p_threshold))
                ok = ~np.isnan(threshold)
                # ulps of the larger of lam and |threshold|, the scale of
                # the subtraction that forms it
                scale = np.maximum(lam, np.abs(p_threshold[ok]))
                assert np.all(np.abs(threshold[ok] - p_threshold[ok])
                              <= 4 * np.spacing(scale))
