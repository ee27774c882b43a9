import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from selreg import (AbstentionConfig, Dataset, FitState, Reason, Verdict,
                    decide, decide_batch, kernel_spec)
from selreg.abstention import (decide_from_evaluation, density_floor,
                               variance_threshold)
from selreg.estimators import evaluate_batch, evaluate_point
from selreg.normal import normal_quantile

from conftest import make_fit

Z95 = normal_quantile(0.95)
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

    def test_z_is_derived_from_beta(self):
        assert AbstentionConfig(lam=0.36, beta=0.05).z == Z95
        assert AbstentionConfig(lam=0.36, beta=0.5).z == 0.0
        with pytest.raises(TypeError):
            AbstentionConfig(lam=0.36, beta=0.05, z=1.0)


class TestThresholdFormula:
    def test_derived_numeric_case(self):
        # lambda=0.36, beta=0.05, n=100, h=0.3, p_hat=0.25, Gaussian d=1
        got = variance_threshold(0.36, Z95, L2_GAUSS_1D, 100, 0.3, 1, 0.25)
        oracle = 0.36 * (1 - Z95 * L2_GAUSS_1D * math.sqrt(2 / (100 * 0.3 * 0.25)))
        assert got == oracle
        assert got == pytest.approx(0.1976, abs=1e-3)

    def test_plugin_threshold_is_lambda(self):
        assert variance_threshold(0.36, 0.0, L2_GAUSS_1D, 100, 0.3, 1,
                                  0.25) == 0.36

    def test_zero_density_gives_nan(self):
        assert math.isnan(variance_threshold(0.36, Z95, L2_GAUSS_1D,
                                             100, 0.3, 1, 0.0))

    def test_accept_and_reject_around_threshold(self):
        # realize the derived case end to end via decide_from_evaluation
        rng = np.random.default_rng(0)
        fit = random_fit(rng, n=100)
        ev = evaluate_point(fit, [0.0])
        assert ev.p_hat >= density_floor(fit)
        threshold = variance_threshold(0.36, Z95, fit.kernel.l2_norm,
                                       100, fit.h, 1, ev.p_hat)
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
            if ev.p_hat < density_floor(fit):
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
        assert ev.p_hat >= density_floor(fit)
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
        if d.eval.p_hat >= density_floor(fit) and d.threshold < 0:
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
        gate = a.eval.p_hat >= density_floor(fit)
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
        gate_fails = original.eval.p_hat < density_floor(fit)
        assert (original.reason is Reason.LOW_DENSITY) == gate_fails
        assert (redone.reason is Reason.LOW_DENSITY) == gate_fails


class TestZDirect:
    def test_beta_path_equals_z_path(self):
        rng = np.random.default_rng(9)
        fit = random_fit(rng)
        cfg = AbstentionConfig(lam=0.36, beta=0.05)
        via_beta = decide(fit, [0.2], cfg)
        via_z = decide_from_evaluation(evaluate_point(fit, [0.2]), fit, 0.36,
                                       normal_quantile(0.95))
        assert via_beta == via_z

    def test_lambda_zero_rejects_noisy_points(self):
        rng = np.random.default_rng(10)
        fit = random_fit(rng, n=60)
        d = decide_from_evaluation(evaluate_point(fit, [0.0]), fit, 0.0, 0.0)
        assert not d.accepted or d.eval.sigma2_hat == 0.0


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

    def test_zero_mass_rows(self):
        fit = make_fit(np.linspace(-0.1, 0.1, 10)[:, None], np.arange(10.0),
                       kernel=kernel_spec("epanechnikov", 1), h=0.5)
        ev = evaluate_batch(fit, [[-4.0], [0.05], [4.0]])
        with np.errstate(all="raise"):
            accepted, low_density, threshold = decide_batch(ev, fit, 1.0, Z95)
        assert low_density.tolist() == [True, False, True]
        assert not accepted[0] and not accepted[2]
        assert np.isnan(threshold).tolist() == [True, False, True]
